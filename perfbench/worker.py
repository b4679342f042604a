"""One benchmark process: runs a single workload and prints JSON samples.

    python3 perfbench/worker.py setup --workload W --seed N
    python3 perfbench/worker.py time  --workload W --seed N --seconds S --work-dir D
    python3 perfbench/worker.py trace --workload W --seed N --seconds S --work-dir D

``setup`` times a fresh interpreter's ``import nsblab`` and config
resolution, up to the first run.  ``time`` calls ``nsblab.cli.main`` in
process, untraced, for at least S seconds and checks every output.
``trace`` alternates untraced and traced calls, so the pair medians give
the tracing overhead.  Every run uses the package under ``src/`` of the
checkout that holds this file.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_SAMPLES = 20  # keeps the tail percentile (ten samples beyond) above the median
MIN_TRACED_PAIRS = 6


def import_package():
    """Import nsblab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import nsblab.cli

    where = Path(nsblab.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"nsblab imported from {where}, not from {ROOT / 'src'}")
    return nsblab.cli


def setup(wl) -> dict:
    cli = import_package()
    from nsblab.scenarios import parse_set_overrides, resolve_config

    args = cli.build_parser().parse_args(wl.argv("unused"))
    resolve_config(args.scenario, {}, parse_set_overrides(args.overrides))
    return {"setup_s": time.perf_counter() - T_START}


class Runner:
    """Runs the workload once per call and checks what it wrote."""

    def __init__(self, wl, work_dir: Path, main) -> None:
        import checks

        self.wl = wl
        self.out = work_dir / wl.name
        self.argv = wl.argv(self.out)
        self.main = main
        self.verify = checks.verify
        self.attempted = 0
        self.failures: list[str] = []
        self.max_error = 0.0

    def __call__(self, main=None) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.attempted += 1
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            try:
                code = (main or self.main)(self.argv)
            except Exception as exc:  # a crash is a failed run, not the end
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        try:
            if code != 0:
                raise RuntimeError(f"exit {code}")
            self.max_error = max(self.max_error, self.verify(self.wl, self.out))
        except Exception as exc:
            self.failures.append(f"run {self.attempted}: {exc}")
        return elapsed

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:5], "max_error": self.max_error}


def timed(wl, seconds: float, work_dir: Path) -> dict:
    cli = import_package()
    run = Runner(wl, work_dir, cli.main)
    run()  # warm-up: first-call costs stay out of the samples
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        samples.append(run())
    import nsblab
    import numpy

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {**run.report(), "samples": samples,
            "peak_rss_mib": usage.ru_maxrss / 1024.0,
            "numpy": numpy.__version__, "nsblab": nsblab.__version__,
            "have_numba": bool(sys.modules["nsblab.kernels"].HAVE_NUMBA)}


def traced_runs(wl, seconds: float, work_dir: Path) -> dict:
    import spans

    cli = import_package()
    run = Runner(wl, work_dir, cli.main)
    run()
    plain, traced, summaries, dumps = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        plain.append(run())
        tracer = spans.Tracer()
        with spans.traced(tracer):
            traced.append(run(tracer.wrap(cli.main, "cli.main")))
        summaries.append(tracer.summary())
        dumps.append(tracer.dump())
    spans_path = ROOT / ".perfbench" / f"spans-{wl.name}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"workload": wl.name, "inputs": wl.inputs,
                                      "runs": dumps}) + "\n", encoding="utf-8")
    return {**run.report(), "plain": plain, "traced": traced,
            "summaries": summaries, "spans_file": str(spans_path.relative_to(ROOT))}


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "time", "trace"])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work-dir", type=Path)
    args = parser.parse_args()
    wl = workloads.make(args.workload, args.seed)
    if args.mode == "setup":
        result = setup(wl)
    elif args.mode == "time":
        result = timed(wl, args.seconds, args.work_dir)
    else:
        result = traced_runs(wl, args.seconds, args.work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
