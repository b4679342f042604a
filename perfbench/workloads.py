"""Seeded workload generator: maps (workload, seed) to one `nsb run` call.

The seed changes only inputs that leave the amount of work fixed: the
number of RK4 steps, the grid sizes and the CSV row counts are the same
for every seed, so run times from different seeds are comparable.  The
program receives only the generated ``--set`` values.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One generated `nsb run` invocation and the work it must do."""

    name: str
    scenario: str
    overrides: dict
    inputs: dict  # the seed-drawn values, recorded with every result
    n_steps: tuple  # manifest n_steps: per horizon (fig1) or per evolve
    csv_rows: dict  # CSV file name -> data rows
    point_steps: int  # sum over evolves of n * n_steps (n = 1 when uniform)

    def argv(self, out_dir) -> list[str]:
        args = ["run", self.scenario, "--out", str(out_dir)]
        for key, value in self.overrides.items():
            args += ["--set", f"{key}={json.dumps(value)}"]
        return args


FIG1_STEPS = (16288, 285180)
FIG1_ROWS = {"fig1_horizon100.csv": 1019, "fig1_horizon1000.csv": 10186}

PACKET_N = 2048
PACKET_L = 640.0
PACKET_SIGMA0 = 4.0
PACKET_STEPS = 1429
PACKET_WIDTH_ROWS = 131

TELEGRAPH_N = 256
TELEGRAPH_L = 1024.0
TELEGRAPH_HORIZON = 1000.0
TELEGRAPH_STEPS = 1021
TELEGRAPH_MODES = 8


def uniform_fig1(seed: int) -> Workload:
    """fig1 at its defaults; the seed picks the sign of the amplitude A."""
    amplitude = random.Random(seed).choice([1.0, -1.0])
    return Workload(
        name="uniform_fig1", scenario="fig1",
        overrides={"A": amplitude},
        inputs={"A": amplitude},
        n_steps=FIG1_STEPS, csv_rows=FIG1_ROWS,
        point_steps=sum(FIG1_STEPS),
    )


def packet_overrides(r: float) -> dict:
    return {"form": "schrodinger", "n": PACKET_N, "L": PACKET_L,
            "sigma0": PACKET_SIGMA0, "laplacian": "spectral", "r": r}


def packet_schrodinger(seed: int) -> Workload:
    """First-order packet; r is log-uniform in [0.5, 2].

    Horizon and dt both scale as 1/r, so n_steps stays fixed.
    """
    r = math.exp(random.Random(seed).uniform(math.log(0.5), math.log(2.0)))
    return Workload(
        name="packet_schrodinger", scenario="pde_packet",
        overrides=packet_overrides(r),
        inputs={"r": r},
        n_steps=(PACKET_STEPS,),
        csv_rows={"pde_packet_width.csv": PACKET_WIDTH_ROWS,
                  "pde_packet_profile.csv": PACKET_N},
        point_steps=PACKET_N * PACKET_STEPS,
    )


def telegraph_overrides(r: float, modes: list[int]) -> dict:
    k_values = [2.0 * math.pi * j / TELEGRAPH_L for j in modes]
    return {"n": TELEGRAPH_N, "L": TELEGRAPH_L, "laplacian": "stencil",
            "horizon_tau": TELEGRAPH_HORIZON, "r": r, "k_values": k_values}


def telegraph_scan(seed: int) -> Workload:
    """Second-order dispersion scan; r in [0.5, 2] and 8 distinct modes.

    With dx = 4 every mode is subcritical for r <= 2, and the step is set
    by the fast branch, so n_steps stays fixed.
    """
    rng = random.Random(seed)
    r = rng.uniform(0.5, 2.0)
    modes = sorted(rng.sample(range(1, TELEGRAPH_N // 2 + 1), TELEGRAPH_MODES))
    return Workload(
        name="telegraph_scan", scenario="dispersion_scan",
        overrides=telegraph_overrides(r, modes),
        inputs={"r": r, "modes": modes},
        n_steps=(TELEGRAPH_STEPS,),
        csv_rows={"dispersion_scan_modes.csv": TELEGRAPH_MODES},
        point_steps=TELEGRAPH_MODES * TELEGRAPH_N * TELEGRAPH_STEPS,
    )


WORKLOADS = {
    "uniform_fig1": uniform_fig1,
    "packet_schrodinger": packet_schrodinger,
    "telegraph_scan": telegraph_scan,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
