"""Scenario-level benchmark for nsblab.

    python3 perfbench/run.py --workload uniform_fig1 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Each workload (see ``workloads.py``)
drives ``nsblab.cli.main(["run", ...])`` in process, sequentially, in one
child process that runs only that workload, and checks every run's
outputs (see ``checks.py``).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run (see
``spans.py``).  Lines before the last describe the machine and the
generated inputs; the last line is the JSON result.  Runs are unpinned and
the file cache is left as found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench" / "work"
SETUP_PROBES = 6  # fresh interpreters before the timed loop, and as many after
CHILD_TIMEOUT_S = 160.0

# Span self times that together cover one traced `nsb run`; a name with
# ".s" is a span with no traced children, so its total is its self time.
ACCOUNTED = [
    "cli.main.self_s", "scenarios.run_scenario.self_s",
    "scenarios.write_csv.self_s", "integrator.integrate_uniform.self_s",
    "kernels.run_uniform.s", "kernels.run_field_first_order.s",
    "kernels.run_field_second_order.s", "pde.evolve.self_s",
    "pde.PdeProblem.s", "pde.stability_dt.s", "pde.field_width.s",
    "pde.mode_amplitudes.s", "pde.fit_mode_frequency.s",
    "analytic.free_solution.s", "analytic.dispersion_branches.s",
]


def child(mode: str, args, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", str(WORK_DIR)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_end_to_end(args) -> dict:
    def probes() -> list[float]:
        return [child("setup", args, 60.0)["setup_s"] for _ in range(SETUP_PROBES)]

    # Probes on both sides of the timed loop see more than one phase of
    # the host's speed drift.
    setups = probes()
    res = child("time", args, CHILD_TIMEOUT_S)
    res["setup_samples"] = setups + probes()
    return res


def end_to_end_metrics(wl, res: dict) -> tuple[dict, dict]:
    samples = res["samples"]
    run_s = statistics.median(samples)
    tail_s, pct = tail(samples)
    metrics = {
        "run_s": metric(run_s, "s"),
        "run_s_tail": metric(tail_s, "s"),
        "point_steps_per_s": metric(wl.point_steps / run_s, "1/s"),
        "setup_s": metric(statistics.median(res["setup_samples"]), "s"),
        "peak_rss_mb": metric(res["peak_rss_mib"], "MiB"),
        "ok_frac": metric((res["attempted"] - res["failed"]) / res["attempted"], "1"),
    }
    record = {"samples": len(samples), "tail_percentile": pct,
              "run_s_samples": samples, "setup_samples": res["setup_samples"],
              "max_error": res["max_error"], "failures": res["failures"],
              "numpy": res["numpy"], "nsblab": res["nsblab"],
              "have_numba": res["have_numba"]}
    return metrics, record


def per_layer_metrics(wl, res: dict) -> tuple[dict, dict]:
    runs = res["summaries"]

    def med(key: str) -> float:
        return statistics.median(run.get(key, 0.0) for run in runs)

    def rate(work: str, seconds: str) -> float:
        return med(work) / med(seconds) if med(seconds) > 0.0 else 0.0

    traced_s = statistics.median(res["traced"])
    values = {
        "cli.main.self_s": med("cli.main.self_s"),
        "scenarios.run_scenario.self_s": med("scenarios.run_scenario.self_s"),
        "scenarios.write_csv.self_s": med("scenarios.write_csv.self_s"),
        "scenarios.write_csv.rows": med("scenarios.write_csv.rows"),
        "scenarios.write_csv.bytes": med("scenarios.write_csv.bytes"),
        "scenarios.write_csv.bytes_per_s": rate("scenarios.write_csv.bytes",
                                                "scenarios.write_csv.self_s"),
        "integrator.integrate_uniform.self_s": med("integrator.integrate_uniform.self_s"),
        "integrator.integrate_uniform.calls": med("integrator.integrate_uniform.calls"),
        "kernels.run_uniform.s": med("kernels.run_uniform.s"),
        "kernels.run_uniform.steps": med("kernels.run_uniform.steps"),
        "kernels.run_uniform.steps_per_s": rate("kernels.run_uniform.steps",
                                                "kernels.run_uniform.s"),
    }
    for order in ("first", "second"):
        name = f"kernels.run_field_{order}_order"
        values[f"{name}.s"] = med(f"{name}.s")
        values[f"{name}.point_steps"] = med(f"{name}.point_steps")
        values[f"{name}.point_steps_per_s"] = rate(f"{name}.point_steps", f"{name}.s")
        values[f"{name}.snapshots"] = med(f"{name}.snapshots")
    kernel_names = ("kernels.run_uniform", "kernels.run_field_first_order",
                    "kernels.run_field_second_order")
    values["kernels.fft_calls"] = sum(med(f"{n}.fft_calls") for n in kernel_names)
    values["kernels.snapshot_bytes"] = sum(med(f"{n}.snapshot_bytes")
                                           for n in kernel_names)
    values["pde.evolve.self_s"] = med("pde.evolve.self_s")
    values["pde.evolve.calls"] = med("pde.evolve.calls")
    for name in ("pde.PdeProblem", "pde.stability_dt", "pde.field_width",
                 "pde.mode_amplitudes", "pde.fit_mode_frequency",
                 "analytic.free_solution", "analytic.dispersion_branches"):
        values[f"{name}.s"] = med(f"{name}.s")
    values["trace.run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - statistics.median(res["plain"])
    values["trace.accounted_frac"] = statistics.median(
        sum(run.get(key, 0.0) for key in ACCOUNTED) / t
        for run, t in zip(runs, res["traced"]))
    record = {"traced_runs": len(runs), "spans_file": res["spans_file"],
              "shares": {key: values[key] / traced_s for key in ACCOUNTED
                         if values[key] > 0.0},
              "max_error": res["max_error"], "failures": res["failures"]}
    return {key: metric(value, unit_of(key)) for key, value in values.items()}, record


def unit_of(key: str) -> str:
    """Unit of a layer metric from its suffix; no suffix means a count."""
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("bytes"):
        return "B"
    if key.endswith("_frac"):
        return "1"
    return "count"


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "pinned": False,
            "file_cache": "left as found", "threads": "single process, sequential"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nsblab" / "__init__.py").is_file():
        parser.exit(2, f"error: no nsblab package under {ROOT / 'src'}\n")
    wl = workloads.make(args.workload, args.seed)
    try:
        if args.trace:
            res = child("trace", args, CHILD_TIMEOUT_S)
        else:
            res = measure_end_to_end(args)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    metrics, record = (per_layer_metrics if args.trace else end_to_end_metrics)(wl, res)
    print(json.dumps({"workload": wl.name, "seed": args.seed, "inputs": wl.inputs,
                      "overrides": wl.overrides, "machine": machine(), **record}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
