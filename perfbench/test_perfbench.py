"""Tests of the benchmark itself: generator, correctness checks, spans.

    python3 -m pytest perfbench
"""

import contextlib
import dataclasses
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import nsblab.cli  # noqa: E402
import nsblab.kernels  # noqa: E402
import nsblab.scenarios  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_nsb(wl, out: Path) -> Path:
    with contextlib.redirect_stdout(io.StringIO()):
        assert nsblab.cli.main(wl.argv(out)) == 0
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One checked run per workload, shared by the perturbation tests."""
    base = tmp_path_factory.mktemp("outputs")
    result = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, 7)
        result[name] = (wl, run_nsb(wl, base / name))
    return result


def with_input(wl, value):
    """The workload with its seed-drawn A (fig1) or r set to ``value``."""
    if wl.scenario == "fig1":
        return dataclasses.replace(wl, overrides={"A": value}, inputs={"A": value})
    if wl.scenario == "pde_packet":
        overrides = workloads.packet_overrides(value)
    else:
        overrides = workloads.telegraph_overrides(value, wl.inputs["modes"])
    return dataclasses.replace(wl, overrides=overrides,
                               inputs={**wl.inputs, "r": value})


def test_seed_changes_inputs_only():
    for name in workloads.WORKLOADS:
        made = [workloads.make(name, seed) for seed in range(6)]
        assert len({repr(wl.inputs) for wl in made}) > 1
        for wl in made:
            assert (wl.n_steps, wl.csv_rows, wl.point_steps) == \
                (made[0].n_steps, made[0].csv_rows, made[0].point_steps)
        assert workloads.make(name, 3) == workloads.make(name, 3)
    assert sum(workloads.FIG1_STEPS) == 301_468
    assert sum(workloads.FIG1_ROWS.values()) == 11_205
    telegraph = workloads.make("telegraph_scan", 0)
    assert len(set(telegraph.inputs["modes"])) == 8
    assert all(1 <= j <= 128 for j in telegraph.inputs["modes"])


@pytest.mark.parametrize("name,seed,value", [
    ("uniform_fig1", 0, 1.0), ("uniform_fig1", 1, -1.0),
    ("packet_schrodinger", 2, 0.5), ("packet_schrodinger", 3, 2.0),
    ("telegraph_scan", 4, 0.5), ("telegraph_scan", 5, 2.0),
])
def test_step_and_row_counts_hold_across_inputs(tmp_path, name, seed, value):
    # verify() compares the manifest's n_steps and row counts with the
    # workload's fixed ones; A takes both signs, r both ends of its range.
    wl = with_input(workloads.make(name, seed), value)
    checks.verify(wl, run_nsb(wl, tmp_path / "out"))


def test_fig1_amplitude_sign_covered():
    signs = {workloads.make("uniform_fig1", seed).inputs["A"] for seed in range(8)}
    assert signs == {1.0, -1.0}


def perturb(src: Path, dst: Path, name: str, column: str, row: int, fn) -> Path:
    shutil.copytree(src, dst)
    lines = (dst / name).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    col = header.index(column)
    cells[col] = f"{fn(float(cells[col])):.16e}"
    lines[row + 1] = ",".join(cells)
    (dst / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return dst


@pytest.mark.parametrize("name,csv,column,fn", [
    ("uniform_fig1", "fig1_horizon1000.csv", "re_psi", lambda x: x + 1e-5),
    ("uniform_fig1", "fig1_horizon100.csv", "im_psi", lambda x: x - 1e-5),
    ("packet_schrodinger", "pde_packet_width.csv", "width_measured",
     lambda x: x * (1.0 + 1e-8)),
    ("telegraph_scan", "dispersion_scan_modes.csv", "omega_minus_measured",
     lambda x: x * (1.0 + 1e-4)),
    ("telegraph_scan", "dispersion_scan_modes.csv", "k_hat",
     lambda x: x * (1.0 + 1e-9)),
])
def test_checks_reject_perturbed_output(outputs, tmp_path, name, csv, column, fn):
    wl, out = outputs[name]
    assert checks.verify(wl, out) >= 0.0
    row = 500 if name == "uniform_fig1" else 0
    bad = perturb(out, tmp_path / "bad", csv, column, row, fn)
    with pytest.raises(checks.CheckError):
        checks.verify(wl, bad)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_reject_missing_manifest_and_rows(outputs, tmp_path, name):
    wl, out = outputs[name]
    shutil.copytree(out, tmp_path / "no_manifest")
    (tmp_path / "no_manifest" / "manifest.json").unlink()
    with pytest.raises(checks.CheckError):
        checks.verify(wl, tmp_path / "no_manifest")
    shutil.copytree(out, tmp_path / "short")
    csv = tmp_path / "short" / next(iter(wl.csv_rows))
    csv.write_text("".join(csv.read_text(encoding="utf-8").splitlines(True)[:-1]),
                   encoding="utf-8")
    with pytest.raises(checks.CheckError):
        checks.verify(wl, tmp_path / "short")


def test_check_rejects_other_seed_inputs(outputs):
    wl, out = outputs["packet_schrodinger"]
    with pytest.raises(checks.CheckError):
        checks.verify(with_input(wl, wl.inputs["r"] * 1.01), out)


def test_self_times_sum_to_root_and_counts_go_innermost():
    tracer = spans.Tracer()
    root = tracer.open("root")
    child = tracer.open("child")
    tracer.add("hits", 2)
    tracer.close(child)
    tracer.add("hits")
    tracer.close(root)
    summary = tracer.summary()
    assert summary["root.self_s"] + summary["child.self_s"] == \
        pytest.approx(summary["root.s"], abs=1e-12)
    assert summary["child.hits"] == 2 and summary["root.hits"] == 1


def test_traced_wraps_lookups_and_restores_them(tmp_path):
    originals = {(m, a): getattr(sys.modules[m], a)
                 for m, a, _, _ in spans.PATCHES}
    fft = spans.np.fft.fft
    tracer = spans.Tracer()
    wl = workloads.make("packet_schrodinger", 1)
    with spans.traced(tracer):
        assert nsblab.scenarios.evolve is not originals[("nsblab.scenarios", "evolve")]
        main = tracer.wrap(nsblab.cli.main, "cli.main")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(wl.argv(tmp_path / "out")) == 0
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn
    assert spans.np.fft.fft is fft
    summary = tracer.summary()
    assert summary["kernels.run_field_first_order.point_steps"] == wl.point_steps
    assert summary["kernels.run_field_first_order.snapshots"] == 131
    assert summary["kernels.run_field_first_order.fft_calls"] == 1429 * 4 * 2
    assert summary["scenarios.write_csv.rows"] == sum(wl.csv_rows.values())
    listed = sum(summary.get(key, 0.0) for key in bench_run.ACCOUNTED)
    assert listed == pytest.approx(summary["cli.main.s"], rel=1e-9)


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [float(i) for i in range(1, 31)]
    value, pct = bench_run.tail(samples)
    assert value == 20.0 and pct == pytest.approx(100.0 * 20 / 30)
    assert sum(s > value for s in samples) == 10


def declared():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8"))


def test_metrics_match_benchmark_json():
    wl = workloads.make("uniform_fig1", 0)
    res = {"samples": [1.0 + 0.01 * i for i in range(25)], "setup_samples": [0.1],
           "peak_rss_mib": 40.0, "attempted": 26, "failed": 0, "max_error": 0.0,
           "failures": [], "numpy": "x", "nsblab": "x", "have_numba": False}
    metrics, _ = bench_run.end_to_end_metrics(wl, res)
    assert [(m["name"], m["unit"]) for m in declared()["end_to_end"]] == \
        [(k, v["unit"]) for k, v in metrics.items()]
    assert all(v["value"] > 0 for v in metrics.values())
    summary = {"cli.main.s": 1.0, "cli.main.self_s": 1.0}
    res = {"summaries": [summary], "traced": [1.0], "plain": [0.9],
           "spans_file": "x", "max_error": 0.0, "failures": []}
    metrics, _ = bench_run.per_layer_metrics(wl, res)
    assert [(m["name"], m["unit"]) for m in declared()["per_layer"]] == \
        [(k, v["unit"]) for k, v in metrics.items()]
