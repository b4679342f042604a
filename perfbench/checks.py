"""Correctness checks run on the outputs of every timed `nsb run`.

Each check recomputes its reference in closed form here, without calling
the package, so a fault in the package cannot move the reference with the
result.  Tolerances sit far above round-off: work reordered in floating
point (a different stepping kernel, a vectorised writer) must pass, while
a wrong scheme, step or output column must fail.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import workloads

# Absolute error of psi against A (1 - exp(-2 i t)); 4.0e-8 at the seed.
FIG1_TOL = 1e-6
# Relative error of the packet width against the free-particle law;
# 2.5e-13 at the seed, limited by round-off.
PACKET_TOL = 1e-9
# Relative error of the measured slow-branch frequency: a round-off floor
# plus twice the leading RK4 phase error theta^4 / 120 at theta = omega dt.
# The RK4 term reaches 5.5e-5 at r = 2 and the Nyquist mode.
TELEGRAPH_FLOOR = 1e-9


class CheckError(Exception):
    """The outputs of a run are missing, malformed or outside tolerance."""


def read_csv(path: Path) -> dict:
    """Columns of one output CSV as float arrays, keyed by header name."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise CheckError(f"{path.name}: {data.shape[1]} columns, "
                         f"header names {len(header)}")
    return {name: data[:, i] for i, name in enumerate(header)}


def _manifest_steps(wl: workloads.Workload, manifest: dict) -> tuple:
    solver = manifest["solver"]
    if wl.scenario == "fig1":
        return tuple(run["n_steps"] for run in solver["runs"])
    return (solver["n_steps"],)


def _load(wl: workloads.Workload, out_dir: Path) -> dict:
    """Manifest present, and row and step counts as the workload fixes them."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        raise CheckError("no manifest.json")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    rows = {entry["path"]: entry["rows"] for entry in manifest["outputs"]}
    if rows != wl.csv_rows:
        raise CheckError(f"manifest rows {rows} != expected {wl.csv_rows}")
    steps = _manifest_steps(wl, manifest)
    if steps != wl.n_steps:
        raise CheckError(f"manifest n_steps {steps} != expected {wl.n_steps}")
    tables = {name: read_csv(out_dir / name) for name in wl.csv_rows}
    for name, table in tables.items():
        got = len(next(iter(table.values())))
        if got != wl.csv_rows[name]:
            raise CheckError(f"{name}: {got} rows, manifest says {wl.csv_rows[name]}")
    return tables


def fig1_error(wl: workloads.Workload, tables: dict) -> float:
    amplitude = wl.inputs["A"]
    worst = 0.0
    for table in tables.values():
        t = table["t_over_tau"]
        psi = table["re_psi"] + 1j * table["im_psi"]
        exact = amplitude * (1.0 - np.exp(-2j * t))
        worst = max(worst, float(np.max(np.abs(psi - exact))))
    return worst


def packet_error(wl: workloads.Workload, tables: dict) -> float:
    table = tables["pde_packet_width.csv"]
    r, s0 = wl.inputs["r"], workloads.PACKET_SIGMA0
    expected = s0 * np.sqrt(1.0 + (r * table["t_hat"] / (2.0 * s0 * s0)) ** 2)
    return float(np.max(np.abs(table["width_measured"] - expected) / expected))


def telegraph_errors(wl: workloads.Workload, tables: dict) -> tuple:
    """Per-mode relative errors and tolerances against the stencil branch.

    The full form reduces to a_xx = r, a_tt = 1, v = 0, whose slow branch
    on the stencil eigenvalue kappa = (2 / dx^2)(1 - cos(k dx)) is
    omega_minus = 1 - sqrt(1 - r kappa).
    """
    table = tables["dispersion_scan_modes.csv"]
    r = wl.inputs["r"]
    dx = workloads.TELEGRAPH_L / workloads.TELEGRAPH_N
    dt = workloads.TELEGRAPH_HORIZON / workloads.TELEGRAPH_STEPS
    k = np.array([2.0 * math.pi * j / workloads.TELEGRAPH_L
                  for j in wl.inputs["modes"]])
    if not np.allclose(table["k_hat"], k, rtol=1e-12, atol=0.0):
        raise CheckError(f"probed k_hat {table['k_hat']} != requested {k}")
    kappa = (2.0 / dx**2) * (1.0 - np.cos(k * dx))
    reference = 1.0 - np.sqrt(1.0 - r * kappa)
    rel = np.abs(table["omega_minus_measured"] - reference) / np.abs(reference)
    tol = TELEGRAPH_FLOOR + 2.0 * (reference * dt) ** 4 / 120.0
    return rel, tol


def verify(wl: workloads.Workload, out_dir: Path) -> float:
    """Check one run's outputs; return its error, raise CheckError if wrong."""
    tables = _load(wl, Path(out_dir))
    if wl.scenario == "fig1":
        error, tol = fig1_error(wl, tables), FIG1_TOL
    elif wl.scenario == "pde_packet":
        error, tol = packet_error(wl, tables), PACKET_TOL
    else:
        rel, tols = telegraph_errors(wl, tables)
        if not np.all(rel <= tols):
            worst = int(np.argmax(rel / tols))
            raise CheckError(f"mode {wl.inputs['modes'][worst]}: relative "
                             f"error {rel[worst]:.3e} > {tols[worst]:.3e}")
        return float(rel.max())
    if not error <= tol:
        raise CheckError(f"{wl.name}: error {error:.3e} > {tol:.0e}")
    return error
