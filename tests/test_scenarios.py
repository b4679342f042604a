import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from nsblab import kernels, scenarios
from nsblab.analytic import (EquationForm, EquationParameters, dispersion_branches,
                             reduce_equation)
from nsblab.cli import main
from nsblab.constants import PhysicalConstants
from nsblab.integrator import BlowUpError
from nsblab.kernels import MAX_SAMPLE_BYTES, run_bytes
from nsblab.pde import (FieldState, Grid, PdeProblem, _mode_coefficients, evolve,
                        field_width, gaussian_packet, growth_horizon, growth_rates,
                        mode_amplitudes, plane_wave_state, schrodinger_consistent_state,
                        stability_dt)
from nsblab.scenarios import (
    SCENARIO_KEYS,
    ConfigError,
    format_planck_report,
    parse_set_overrides,
    report_planck_numbers,
    resolve_config,
    run_scenario,
    scenario_names,
)
from test_kernels import reference_uniform


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


# ------------------------------------------------------------ config layer


def test_scenario_catalog():
    assert scenario_names() == ["fig1", "dispersion_scan", "regime_compare",
                                "convergence", "pde_packet"]


def test_resolve_config_defaults_and_merge():
    params = resolve_config("fig1")
    assert params["A"] == 1.0
    assert params["horizon_tau"] == [100.0, 1000.0]
    merged = resolve_config("fig1", {"A": 2}, {"samples_per_period": 16})
    assert merged["A"] == 2.0  # integers accepted where floats expected
    assert merged["samples_per_period"] == 16


def test_unknown_scenario_and_keys_rejected():
    with pytest.raises(ConfigError):
        resolve_config("nope")
    with pytest.raises(ConfigError):
        resolve_config("fig1", {"amplitude": 1.0})
    with pytest.raises(ConfigError):
        resolve_config("fig1", overrides={"n": 16})  # key from another scenario


def test_scenario_key_in_config_must_match():
    assert resolve_config("fig1", {"scenario": "fig1"})["A"] == 1.0
    with pytest.raises(ConfigError):
        resolve_config("fig1", {"scenario": "convergence"})


def test_type_coercion_errors():
    with pytest.raises(ConfigError):
        resolve_config("fig1", {"A": "big"})
    with pytest.raises(ConfigError):
        resolve_config("fig1", {"samples_per_period": 2.5})
    with pytest.raises(ConfigError):
        resolve_config("fig1", {"horizon_tau": [100.0, "x"]})
    with pytest.raises(ConfigError):
        resolve_config("pde_packet", {"allow_unstable": "yes"})


def meets_spec(spec, value):
    """True when ``value`` has the spec's kind, is finite and obeys its rule."""
    if spec.kind == "opt_float" and value is None:
        return True
    if spec.kind in ("float", "opt_float"):
        ok = type(value) is float and math.isfinite(value)
    elif spec.kind == "list_float":
        ok = type(value) is list and all(
            type(x) is float and math.isfinite(x) for x in value)
    else:
        ok = type(value) is {"int": int, "bool": bool, "str": str}[spec.kind]
    return ok and (spec.check is None or spec.check(value))


ALL_KEYS = [(scenario, name) for scenario, keys in SCENARIO_KEYS.items()
            for name in keys]

# JSON-like values, plus the edges of the key rules
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.sampled_from([0, 1, 3, 4, 8, 100, 4096, 4097, 0.5, 1.0, 1e6, 1e308,
                     -1.0, "stencil", "spectral", "schrodinger", "full"]))
JSON_VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4))


@settings(max_examples=600, deadline=None)
@given(key=st.sampled_from(ALL_KEYS), value=JSON_VALUES)
def test_resolve_config_returns_valid_values_or_config_error(key, value):
    scenario, name = key
    try:
        resolved = resolve_config(scenario, overrides={name: value})
    except ConfigError:
        return
    for other, spec in SCENARIO_KEYS[scenario].items():
        assert meets_spec(spec, resolved[other]), (other, resolved[other])


def test_every_default_meets_its_spec():
    for scenario, name in ALL_KEYS:
        spec = SCENARIO_KEYS[scenario][name]
        assert meets_spec(spec, spec.default), (scenario, name)


def test_parse_set_overrides():
    got = parse_set_overrides(["A=2.5", "form=schrodinger",
                               "k_values=[0.1,0.2]", "allow_unstable=true"])
    assert got == {"A": 2.5, "form": "schrodinger",
                   "k_values": [0.1, 0.2], "allow_unstable": True}
    with pytest.raises(ConfigError):
        parse_set_overrides(["no_equals_sign"])


# ------------------------------------------------------------- CSV writer


def reference_row(row) -> str:
    """One CSV line, one formatting call per value: the writer's reference."""
    def fmt(value):
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return str(int(value))
        x = float(value)
        return "nan" if math.isnan(x) else f"{x:.16e}"

    return ",".join(fmt(v) for v in row) + "\n"


EDGE_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
               -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -1.0]
FLOAT64S = st.one_of(st.sampled_from(EDGE_FLOATS),
                     st.floats(allow_nan=True, allow_infinity=True))
INT64S = st.integers(-2**63, 2**63 - 1)


@st.composite
def csv_tables(draw):
    """(columns, rows): float64 and int64 columns of one drawn length."""
    n_rows = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    columns = []
    for is_int in kinds:
        if is_int:
            values = draw(st.lists(INT64S, min_size=n_rows, max_size=n_rows))
            columns.append(np.array(values, dtype=np.int64))
        else:
            values = draw(st.lists(FLOAT64S, min_size=n_rows, max_size=n_rows))
            columns.append(np.array(values, dtype=np.float64))
    return columns, list(zip(*columns))


@settings(max_examples=200, deadline=None)
@given(table=csv_tables())
def test_write_csv_matches_per_value_formatting(tmp_path_factory, table):
    columns, rows = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = [f"c{i}" for i in range(len(columns))]
    assert scenarios.write_csv(path, header, columns) == len(rows)
    expected = ",".join(header) + "\n" + "".join(reference_row(r) for r in rows)
    assert path.read_bytes() == expected.encode("utf-8")


def test_write_csv_spans_several_chunks(tmp_path):
    n = 2 * scenarios._CHUNK_ROWS + 3
    columns = [np.arange(n, dtype=np.int64), np.linspace(-1.0, 1.0, n) ** 3]
    assert scenarios.write_csv(tmp_path / "t.csv", ["i", "x"], columns) == n
    expected = "i,x\n" + "".join(reference_row(r) for r in zip(*columns))
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == expected


def test_write_csv_without_rows_writes_the_header_only(tmp_path):
    columns = [np.empty(0), np.empty(0, dtype=np.int64)]
    assert scenarios.write_csv(tmp_path / "t.csv", ["x", "i"], columns) == 0
    assert (tmp_path / "t.csv").read_bytes() == b"x,i\n"


def test_write_csv_refuses_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        scenarios.write_csv(tmp_path / "t.csv", ["x", "y"],
                            [np.zeros(3), np.zeros(2)])


# ------------------------------------------------------------- fig1 output


def test_fig1_outputs(tmp_path):
    manifest = run_scenario("fig1", {"horizon_tau": [20.0]}, out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "fig1_horizon20.csv")
    assert header == ["t_over_tau", "re_psi", "im_psi", "abs_psi",
                      "re_psi_analytic", "im_psi_analytic", "abs_psi_analytic"]
    # first row is the zero initial condition
    assert [float(x) for x in rows[0]] == [0.0] * 7
    # numeric vs analytic agreement everywhere
    data = np.array([[float(x) for x in row] for row in rows])
    err = np.hypot(data[:, 1] - data[:, 4], data[:, 2] - data[:, 5])
    assert np.max(err) < 1e-6
    # each magnitude is abs() of its complex value, to the last bit
    for re, im, mag in data[:, 1:4].tolist() + data[:, 4:7].tolist():
        assert mag == abs(complex(re, im))
    # bounded oscillation
    assert np.min(data[:, 1]) >= -1e-6
    assert np.max(data[:, 1]) <= 2.0 + 1e-6
    assert manifest["outputs"][0]["rows"] == len(rows)


def test_fig1_row_count_follows_sampling_rule():
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        manifest = run_scenario(
            "fig1", {"horizon_tau": [50.0], "samples_per_period": 8},
            out_dir=d)
    expected = math.floor(50.0 / (math.pi / 8.0)) + 1
    assert manifest["outputs"][0]["rows"] == expected


def test_fig1_peak_allocation_per_stored_row(tmp_path):
    # Every horizon's columns are held until all are written: about 72 B a
    # row, where a list of row tuples of Python floats took about 330 B.
    # fig1 checks its count against the byte cap before any horizon runs.
    run_scenario("fig1", {"horizon_tau": [20.0]}, out_dir=tmp_path)  # warm-up
    tracemalloc.start()
    try:
        manifest = run_scenario("fig1", {"horizon_tau": [2000.0, 1000.0],
                                         "samples_per_period": 64},
                                out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = [out["rows"] for out in manifest["outputs"]]
    assert sum(rows) > 60000
    assert peak / sum(rows) <= 200.0
    need = scenarios._fig1_bytes(rows)
    assert 0.5 * need < peak <= need


def test_fig1_allocates_within_its_count(tmp_path):
    # one long horizon: the kernel run's rows and work arrays, the closed
    # form and the writer's chunk stay within fig1's count and near it
    params = {"horizon_tau": [1000.0], "samples_per_period": 512}
    run_scenario("fig1", params, out_dir=tmp_path)  # warm-up
    tracemalloc.start()
    try:
        manifest = run_scenario("fig1", params, out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = scenarios._fig1_bytes([out["rows"] for out in manifest["outputs"]])
    assert 0.5 * need < peak <= need


def test_fig1_rejects_zero_amplitude(tmp_path):
    with pytest.raises(ConfigError):
        run_scenario("fig1", {"A": 0.0}, out_dir=tmp_path)


# -------------------------------------------------------------- dispersion


def test_dispersion_scan_stable_rows(tmp_path):
    manifest = run_scenario("dispersion_scan", out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "dispersion_scan_modes.csv")
    assert header == ["k_hat", "omega_minus_analytic", "omega_minus_measured",
                      "rel_err", "resolved", "growth_rate_analytic",
                      "growth_rate_measured"]
    assert len(rows) == 4
    for row in rows:
        assert float(row[3]) < 1e-3  # spectral default
        assert row[4] == "1"
        assert row[5] == "nan" and row[6] == "nan"
    # every probe is stable, so the whole window is measured, though the grid
    # has supercritical modes
    assert manifest["solver"]["window_capped"] is False
    assert manifest["solver"]["window_tau"] == 50.0


def rk4_factor(z):
    """Classical RK4's amplification of y' = lambda y over one step, z = lambda dt."""
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


def discrete_branches(params, k_hat):
    """(omega_plus, omega_minus) of the grid mode at ``k_hat`` under the
    scenario's discrete Laplacian."""
    grid = Grid(params["n"], params["L"])
    coeffs = reduce_equation(EquationParameters(params["r"], params["v"],
                                                EquationForm.FULL))
    mode = round(k_hat * grid.length / (2.0 * math.pi))
    return plane_wave_state(grid, mode, coeffs, "minus", params["laplacian"])[2]


@pytest.mark.parametrize("laplacian", ["stencil", "spectral"])
def test_dispersion_scan_measures_the_rk4_phase_of_the_slow_branch(tmp_path,
                                                                   laplacian):
    # each probe is an eigenvector of its mode's matrix, so every step
    # multiplies it by R(-i omega_minus dt): the fitted frequency is that
    # factor's phase per step, whatever the implementation
    params = resolve_config("dispersion_scan", {}, {"laplacian": laplacian})
    dt = run_scenario("dispersion_scan", params, out_dir=tmp_path)["solver"]["dt"]
    _, rows = read_csv(tmp_path / "dispersion_scan_modes.csv")
    assert len(rows) == 4
    for row in rows:
        _, omega_minus = discrete_branches(params, float(row[0]))
        want = -np.angle(rk4_factor(-1j * omega_minus * dt)) / dt
        assert abs(float(row[2]) - want) <= 1e-12 * abs(want)


def test_dispersion_scan_measures_the_rk4_growth_of_an_unstable_mode(tmp_path):
    # a mode above the critical wavenumber is probed on its growing branch,
    # which every step multiplies by R(-i omega_plus dt)
    params = resolve_config("dispersion_scan", {}, {
        "laplacian": "spectral", "k_values": [1.25, 1.5, 2.0],
        "allow_unstable": True})
    dt = run_scenario("dispersion_scan", params, out_dir=tmp_path)["solver"]["dt"]
    _, rows = read_csv(tmp_path / "dispersion_scan_modes.csv")
    assert len(rows) == 3
    for row in rows:
        omega_plus, _ = discrete_branches(params, float(row[0]))
        want = np.log(abs(rk4_factor(-1j * omega_plus * dt))) / dt
        assert abs(float(row[6]) - want) <= 1e-12 * abs(want)


def test_dispersion_scan_empty_k_list(tmp_path):
    run_scenario("dispersion_scan", {"k_values": []}, out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "dispersion_scan_modes.csv")
    assert len(header) == 7
    assert rows == []


def test_dispersion_scan_growth_row_needs_override(tmp_path):
    with pytest.raises(ConfigError):
        run_scenario("dispersion_scan", {"k_values": [1.25]}, out_dir=tmp_path)
    run_scenario("dispersion_scan",
                 {"k_values": [1.25], "allow_unstable": True},
                 out_dir=tmp_path)
    _, rows = read_csv(tmp_path / "dispersion_scan_modes.csv")
    row = rows[0]
    assert row[1] == "nan" and row[2] == "nan" and row[3] == "nan"
    growth_analytic = float(row[5])
    growth_measured = float(row[6])
    assert growth_analytic == pytest.approx(math.sqrt(1.25**2 - 1.0), rel=1e-12)
    assert growth_measured == pytest.approx(growth_analytic, rel=0.02)


def test_dispersion_scan_refuses_windows_too_short_to_measure(tmp_path):
    # omega_minus(0.125) ~ 7.8e-3: a 1e-7 window advances the phase by
    # 7.8e-10 rad, below the floor, and a 1e-6 window by 7.8e-9 rad
    with pytest.raises(ConfigError, match="rad"):
        run_scenario("dispersion_scan", {"k_values": [0.125], "horizon_tau": 1e-7},
                     out_dir=tmp_path)
    # a growing mode is held to the same floor through its growth rate
    with pytest.raises(ConfigError, match="rad"):
        run_scenario("dispersion_scan", {"k_values": [1.25], "horizon_tau": 1e-10,
                                         "allow_unstable": True}, out_dir=tmp_path)
    run_scenario("dispersion_scan", {"k_values": [0.125], "horizon_tau": 1e-6},
                 out_dir=tmp_path)
    _, rows = read_csv(tmp_path / "dispersion_scan_modes.csv")
    assert float(rows[0][3]) < 1e-6
    # omega_minus(0) = 0 at v = 0: there is no phase to measure, so no floor
    run_scenario("dispersion_scan", {"k_values": [0.0], "horizon_tau": 1e-100},
                 out_dir=tmp_path)
    _, rows = read_csv(tmp_path / "dispersion_scan_modes.csv")
    assert float(rows[0][2]) == 0.0


def test_dispersion_scan_rejects_overcritical_potential(tmp_path):
    with pytest.raises(ConfigError):
        run_scenario("dispersion_scan", {"v": 0.6}, out_dir=tmp_path)


def scan_fits(params):
    """The scan's solver entry and the (times, amplitudes) its fits are handed
    for each probe, in k_values order.  The fits take a column per probe; the
    spy records each column and returns its record's index as the measured
    value, so the CSV's measured columns place every record."""
    fits = []

    def spy(times, amps):
        first = len(fits)
        fits.extend((times.copy(), column.copy()) for column in amps.T)
        return np.arange(first, len(fits), dtype=float)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "fit_mode_frequency", spy)
        patch.setattr(scenarios, "fit_mode_growth", spy)
        (output,), solver = scenarios._run_dispersion_scan(params)
    frequency, growth = output.columns[2], output.columns[6]
    records = np.where(np.isnan(frequency), growth, frequency).astype(int)
    assert sorted(records) == list(range(len(fits)))
    return solver, [fits[i] for i in records]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.sampled_from([8, 16, 32, 64]), laplacian=st.sampled_from(["stencil", "spectral"]),
       r=st.floats(0.05, 4.0), v=st.floats(-1.0, 0.45), length=st.floats(2.0, 400.0),
       n_steps=st.integers(1, 150), data=st.data())
def test_probe_equals_the_field_runs_mode_amplitude(n, laplacian, r, v, length, n_steps,
                                                    data):
    # The scan steps its probes side by side in one kernel run; each column
    # it fits is checked against the probed mode's amplitude in a field run.
    modes = data.draw(st.lists(st.integers(-(n // 2), n // 2), min_size=1, max_size=4))
    coeffs = reduce_equation(EquationParameters(r, v, EquationForm.FULL))
    grid = Grid(n, length)
    dt = stability_dt(coeffs, grid, 0.7, laplacian)
    params = resolve_config("dispersion_scan", {}, {
        "n": n, "L": length, "laplacian": laplacian, "r": r, "v": v, "dt": dt,
        "horizon_tau": n_steps * dt, "allow_unstable": True,
        "k_values": [2.0 * math.pi * j / length for j in modes]})
    try:
        solver, fits = scan_fits(params)
    except ConfigError as exc:  # a mode too slow to measure in the window
        if "lengthen horizon_tau" not in str(exc):
            raise
        reject()
    plan = PdeProblem(coeffs, grid, t_end=solver["window_tau"], dt=dt, snapshot_stride=1,
                      laplacian=laplacian, allow_unstable=True, min_steps=16)
    assert (plan.dt, plan.n_steps) == (solver["dt"], solver["n_steps"])
    # The window is cut by the growth of the probes alone, whatever the grid's
    # other modes do.
    lams = grid.laplacian_eigenvalues(laplacian)[np.array(modes) % n]
    omega_p, omega_m = dispersion_branches(coeffs, lams)
    growth = omega_p.imag[np.abs(omega_m.imag) > 1e-14]
    horizon = params["horizon_tau"]
    if growth.size:
        assert solver["window_tau"] == min(horizon, 25.0 / growth.max())
    else:
        assert solver["window_tau"] == horizon and solver["window_capped"] is False
    assert len(fits) == len(modes)
    for j, (times, amps) in zip(modes, fits):
        # the scan starts a stable mode on its slow branch, an unstable one
        # on its growing branch
        state, _, (_, omega_m) = plane_wave_state(grid, j, coeffs, "minus", laplacian)
        if abs(omega_m.imag) > 1e-14:
            state = plane_wave_state(grid, j, coeffs, "plus", laplacian)[0]
        if not plan.unstable_modes.any():
            result = evolve(plan, state)
            want = mode_amplitudes(result.psi, j)
            assert np.array_equal(times, result.times)
            assert np.abs(amps - want).max() <= 1e-13 * np.abs(want).max()
            continue
        # The field run carries its growing modes' amplified round-off, so the
        # probe is checked against the stage-by-stage reference of its mode
        # (a_tt = 1: c = -2i, as in the uniform system, whose b is 2v).  Where
        # the probe's own mode grows, round-off in the start reaches the size a
        # unit start grows to: the bound is a share of that.
        lam = grid.laplacian_eigenvalues(laplacian)[j % n]
        b, _ = _mode_coefficients(coeffs, lam)
        psi0, phi0 = mode_amplitudes(np.stack((state.psi.values, state.dpsi_dt.values)), j)
        want, _, steps = reference_uniform(psi0, phi0, b / 2.0, plan.dt, plan.n_steps, 1)
        assert np.array_equal(times, steps * plan.dt)
        growth = max(1.0, *np.abs(rk4_factor(-1j * np.array(dispersion_branches(coeffs, lam))
                                             * plan.dt)))
        reach = max(abs(psi0), abs(phi0)) * growth ** plan.n_steps
        assert np.abs(amps - want).max() <= 1e-12 * reach


# ---------------------------------------------------------- regime compare


def test_regime_compare_distances(tmp_path):
    run_scenario("regime_compare", out_dir=tmp_path)
    _, rows = read_csv(tmp_path / "regime_compare_distances.csv")
    rs = [float(r[0]) for r in rows]
    uniform = [float(r[1]) for r in rows]
    packet = [float(r[2]) for r in rows]
    assert rs == [0.1, 0.01, 0.001]
    assert all(u < 1e-12 for u in uniform)
    assert packet[0] > packet[1] > packet[2] > 0.0


# ------------------------------------------------------------- convergence


def test_convergence_scenario(tmp_path):
    manifest = run_scenario("convergence", out_dir=tmp_path)
    assert manifest["solver"]["fitted_order"] == pytest.approx(4.0, abs=0.2)
    _, rows = read_csv(tmp_path / "convergence_errors.csv")
    assert len(rows) == 3


def test_convergence_rejects_non_halving(tmp_path):
    with pytest.raises(ConfigError):
        run_scenario("convergence", {"dts": [4e-3, 3e-3, 2e-3]},
                     out_dir=tmp_path)
    with pytest.raises(ConfigError):
        run_scenario("convergence", {"dts": [4e-3, 2e-3]}, out_dir=tmp_path)


# -------------------------------------------------------------- pde packet


def test_pde_packet_width_output(tmp_path):
    manifest = run_scenario("pde_packet", out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "pde_packet_width.csv")
    assert header == ["t_hat", "width_measured", "width_analytic", "rel_err"]
    rels = [float(r[3]) for r in rows]
    assert max(rels) < 1e-3
    final = rows[-1]
    assert float(final[1]) == pytest.approx(4.0, rel=1e-3)  # doubled width
    prof_header, prof_rows = read_csv(tmp_path / "pde_packet_profile.csv")
    assert prof_header == ["xi_hat", "re_psi", "im_psi", "abs_psi"]
    assert len(prof_rows) == 256
    assert manifest["solver"]["form"] == "schrodinger"


def peak_bytes(scenario, params, out_dir):
    """tracemalloc peak of one run of ``scenario``, after a warm-up run."""
    run_scenario(scenario, params, out_dir=out_dir)
    tracemalloc.start()
    try:
        manifest = run_scenario(scenario, params, out_dir=out_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return manifest, peak


def test_pde_packet_allocates_within_its_count(tmp_path):
    # 200,001 snapshots of 8 points, stepped as a reduced run: the width
    # columns, which the run and the count keep a row, are most of what a
    # small grid holds beside the ring of rows
    params = {"n": 8, "L": 80.0, "sigma0": 20.0, "horizon_tau": 20000.0,
              "dt": 0.1, "samples": 200000}
    manifest, peak = peak_bytes("pde_packet", params, tmp_path)
    rows = manifest["outputs"][0]["rows"]
    assert rows == 200001
    need = scenarios._packet_bytes(run_bytes(8, rows, 1, kept=scenarios._WIDTH_BYTES),
                                   rows)
    assert 0.5 * need < peak <= need


def test_dispersion_scan_allocates_within_its_count(tmp_path):
    # The probes are one-point systems of their own modes, stepped side by
    # side in one kernel run, so the scan holds the run's rows of every
    # probe, and the batched fits' temporaries and numpy's iterator buffers,
    # which outweigh the run's magnitudes on the first case's 1,022 rows.  The
    # fourth case is a 112,246-row probe, which the grid run's plan refused
    # (1.15e9 B counted).  The scan's grid arrays are the step rule's and the
    # growth rates' temporaries, which outweigh the probes' rows on the fifth
    # case's 65,536 points.  The defaults' 229 rows of four probes, and one
    # probe's, fill less than the iterator buffers hold; so do the last
    # case's 63 rows, where the grid temporaries' buffer decides the peak.
    run_scenario("dispersion_scan", out_dir=tmp_path)  # imports numpy.fft
    stencil = {"n": 256, "L": 1024.0, "laplacian": "stencil"}
    needs = []
    for overrides, modes, n_steps in (
            ({**stencil, "horizon_tau": 1000.0}, (3, 17, 40, 64, 77, 90, 111, 128), 1021),
            ({**stencil, "horizon_tau": 8000.0}, (17, 90), 8164),
            ({**stencil, "horizon_tau": 8000.0}, range(5, 128, 8), 8164),
            ({**stencil, "horizon_tau": 110000.0, "k_values": [0.1]}, None, 112245),
            ({"n": 65536, "L": 32768.0}, None, 184),
            ({}, None, 228),
            ({"k_values": [0.125]}, None, 228),
            ({**stencil, "horizon_tau": 60.0}, (3,), 62)):
        if modes is not None:
            overrides["k_values"] = [2.0 * math.pi * j / 1024.0 for j in modes]
        params = resolve_config("dispersion_scan", {}, overrides)
        manifest, peak = peak_bytes("dispersion_scan", params, tmp_path)
        assert manifest["solver"]["n_steps"] == n_steps
        need = scenarios._scan_bytes(len(params["k_values"]), n_steps + 1, params["n"])
        assert 0.5 * need < peak <= need
        needs.append(need)
    # two probes' rows cost less than a ring of the grid's rows did
    assert needs[1] < run_bytes(256, 8165, 2, kept=16)


def regime_plan(params, r, form=EquationForm.FULL, **kwargs):
    """A plan regime_compare's parent made for ``form`` at mass ratio ``r``:
    every step stored, at least eight steps."""
    coeffs = reduce_equation(EquationParameters(r, params["v"], form))
    return PdeProblem(coeffs, Grid(params["n"], params["L"]), t_end=params["horizon_tau"],
                      snapshot_stride=1, laplacian=params["laplacian"],
                      safety=params["safety"], min_steps=8, **kwargs)


@pytest.mark.parametrize("overrides", [{}, {"n": 4096, "L": 8192.0, "r": [0.1]},
                                       {"n": 64, "L": 80.0, "horizon_tau": 200.0}])
def test_regime_compare_allocates_within_both_plans(tmp_path, overrides):
    # the reduced full run's plan, the closed form's uniform run and the
    # distance's temporaries over a block of rows, counted together
    params = resolve_config("regime_compare", {}, overrides)
    _, peak = peak_bytes("regime_compare", params, tmp_path)
    plans = [regime_plan(params, r, kept=8) for r in params["r"]]
    need = max(scenarios._regime_bytes(plan.n_bytes, plan.n_steps + 1, plan.grid.n)
               for plan in plans)
    assert 0.5 * need < peak <= need


def test_regime_compare_makes_one_reduced_run_per_initial_state(tmp_path, monkeypatch):
    # the macroscopic run is a closed form, one uniform run of two systems
    # per mass ratio; the only field runs are the full form's, reduced
    calls, uniform_runs = [], []
    real_evolve, real_run_uniform = scenarios.evolve, scenarios.kernels.run_uniform

    def watched(plan, initial, reduce=None):
        calls.append((plan, initial, reduce))
        return real_evolve(plan, initial, reduce=reduce)

    def counted(psi0, *args):
        uniform_runs.append(len(psi0))
        return real_run_uniform(psi0, *args)

    monkeypatch.setattr(scenarios, "evolve", watched)
    monkeypatch.setattr(scenarios.kernels, "run_uniform", counted)
    run_scenario("regime_compare", {"r": [0.1, 0.01]}, out_dir=tmp_path)
    assert uniform_runs == [2, 2]
    assert [plan.coeffs.a_xx for plan, _, _ in calls] == [0.1, 0.1, 0.01, 0.01]
    for plan, initial, reduce in calls:
        assert reduce is not None and plan.kept == 8 and plan.coeffs.a_tt == 1.0
    for (_, uniform, _), (_, packet, _) in (calls[:2], calls[2:]):
        assert np.all(uniform.psi.values == 0.0) and np.all(uniform.dpsi_dt.values == 2j)
        assert np.array_equal(packet.psi.values, calls[1][1].psi.values)


def test_cli_regime_compare_runs_rows_two_materialised_runs_could_not_hold(tmp_path):
    # 5,104 rows of 4,096 points: the full and the macroscopic run, both
    # materialised, were counted at 1.68e9 B and refused; the reduced full
    # run holds a ring of 16 rows and the closed form 104 B a row
    tracemalloc.start()
    try:
        rc = main(["run", "regime_compare", "--out", str(tmp_path), "--set", "n=4096",
                   "--set", "L=8192", "--set", "r=[0.1]", "--set", "horizon_tau=5000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    _, rows = read_csv(tmp_path / "regime_compare_distances.csv")
    assert len(rows) == 1 and float(rows[0][1]) <= 1e-12
    assert peak < 8 * 10**6


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([8, 16, 32, 64]), log_r=st.floats(-4.0, 1.99),
       v=st.floats(-2.0, 0.49), laplacian=st.sampled_from(["stencil", "spectral"]),
       reach=st.floats(0.2, 2.0), width=st.floats(1.0, 10.0),
       share=st.floats(0.01, 1.0))
def test_regime_compare_distances_equal_the_two_materialised_runs(n, log_r, v, laplacian,
                                                                  reach, width, share):
    # The reference is the parent's design: the full and the macroscopic run,
    # both materialised at the full plan's dt, and the largest |difference|
    # of their psi rows.  The grid's Nyquist wavenumber is ``reach`` times
    # the critical one, so some draws have growing modes, and the horizon is
    # a ``share`` of the growth budget, at most 300 steps.
    r = 10.0**log_r
    k_critical = math.sqrt((1.0 - 2.0 * v) / r)
    params = resolve_config("regime_compare", {}, {
        "r": [r], "v": v, "n": n, "L": n * math.pi / (reach * k_critical),
        "laplacian": laplacian, "sigma0": width / k_critical, "horizon_tau": 1.0})
    grid = Grid(n, params["L"])
    full = reduce_equation(EquationParameters(r, v, EquationForm.FULL))
    budget = growth_horizon(float(np.max(growth_rates(full, grid, laplacian))))
    dt = stability_dt(full, grid, params["safety"], laplacian)
    params["horizon_tau"] = share * min(budget, 300 * dt)
    try:
        outputs, _ = scenarios._run_regime_compare(params)
    except ConfigError:  # content at growing modes, which evolve refuses
        reject()
    measured = [column[0] for column in outputs[0].columns[1:]]
    full_plan = regime_plan(params, r)
    macro_plan = regime_plan(params, r, EquationForm.MACROSCOPIC, dt=full_plan.dt)
    assert macro_plan.n_steps == full_plan.n_steps
    packet = schrodinger_consistent_state(gaussian_packet(grid, params["sigma0"]), full,
                                          laplacian)
    for initial, got in zip((FieldState.uniform(grid, 0.0, 2.0j), packet), measured):
        want = np.abs(evolve(full_plan, initial).psi - evolve(macro_plan, initial).psi).max()
        assert abs(got - want) <= 1e-12


def test_pde_packet_full_form_requires_unstable_opt_in(tmp_path):
    # the default grid resolves wavenumbers above critical, so the full
    # form refuses to run without the override
    with pytest.raises(ConfigError):
        run_scenario("pde_packet", {"form": "full", "horizon_tau": 1.0},
                     out_dir=tmp_path)


def test_pde_packet_full_form_on_coarse_grid(tmp_path):
    # a grid whose largest wavenumber is below critical runs cleanly
    run_scenario("pde_packet",
                 {"form": "full", "n": 32, "L": 128.0, "sigma0": 8.0,
                  "horizon_tau": 10.0},
                 out_dir=tmp_path)
    _, rows = read_csv(tmp_path / "pde_packet_width.csv")
    assert all(r[2] == "nan" for r in rows)  # no analytic law for this form


def test_pde_packet_growth_beyond_budget_needs_the_override(tmp_path):
    # r = 0.1 on the default grid: modes up to k = 10 grow at up to 3.0 per
    # unit time, e^95 over the default 10 pi horizon
    with pytest.raises(ConfigError, match="round-off"):
        run_scenario("pde_packet", {"form": "full", "r": 0.1}, out_dir=tmp_path)
    assert not (tmp_path / "manifest.json").exists()
    assert main(["run", "pde_packet", "--out", str(tmp_path), "--set", "form=full",
                 "--set", "r=0.1", "--set", "allow_unstable=true"]) == 0
    assert (tmp_path / "manifest.json").exists()


def test_grid_cap_is_the_largest_grid_the_plan_admits():
    rule = SCENARIO_KEYS["pde_packet"]["n"]
    assert "2097152" in rule.doc
    assert rule.check(2**21) and not rule.check(2**22)
    assert run_bytes(2**21, 2, 2) <= MAX_SAMPLE_BYTES < run_bytes(2**22, 2, 2)


def test_pde_packet_explicit_dt_keeps_the_horizon(tmp_path):
    # 1.0 / 0.03 is not whole: the step shrinks to 1/34, the horizon stays
    manifest = run_scenario("pde_packet", {"horizon_tau": 1.0, "dt": 0.03},
                            out_dir=tmp_path)
    solver = manifest["solver"]
    assert solver["n_steps"] == 34
    assert solver["dt"] == 1.0 / 34
    assert solver["horizon_tau"] == 1.0
    _, rows = read_csv(tmp_path / "pde_packet_width.csv")
    assert float(rows[-1][0]) == pytest.approx(1.0, rel=1e-15)


def test_pde_packet_rejects_unresolved_packet(tmp_path):
    with pytest.raises(ConfigError):
        run_scenario("pde_packet", {"sigma0": 0.1}, out_dir=tmp_path)


# ----------------------------------------------------- manifest & formats


def test_manifest_contents(tmp_path):
    manifest = run_scenario("convergence", out_dir=tmp_path)
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["scenario"] == "convergence"
    assert on_disk["config"]["dts"] == [4e-3, 2e-3, 1e-3]
    assert on_disk["constants"]["hbar"] == 1.054571817e-34
    assert on_disk["derived_scales"]["tau_p"] == pytest.approx(5.391247293957071e-44)
    assert "wall_clock_seconds" in on_disk
    assert on_disk["version"] == manifest["version"]
    listed = {entry["path"] for entry in on_disk["outputs"]}
    csvs = {p.name for p in Path(tmp_path).iterdir() if p.suffix == ".csv"}
    assert csvs == listed
    # nothing else is left behind, no temporary manifest either
    assert {p.name for p in Path(tmp_path).iterdir()} == listed | {"manifest.json"}


def test_packet_profile_keeps_no_snapshot_alive(tmp_path, monkeypatch):
    # the run is reduced: its record keeps one width a row, the profile is
    # written from a copy of the last row, and the ring of rows the run was
    # stepped in is freed before the CSVs are written
    runs, rings, written = [], [], {}
    real_evolve, real_write_csv = scenarios.evolve, scenarios.write_csv

    def keep_result(plan, initial, reduce=None):
        def watched(start, rows, magnitudes):
            rings.append(weakref.ref(rows.base))
            return reduce(start, rows, magnitudes)

        runs.append((plan, initial, real_evolve(plan, initial, reduce=watched)))
        return runs[-1][2]

    def keep_columns(path, header, columns):
        assert rings and all(ring() is None for ring in rings)
        written[Path(path).name] = columns
        return real_write_csv(path, header, columns)

    monkeypatch.setattr(scenarios, "evolve", keep_result)
    monkeypatch.setattr(scenarios, "write_csv", keep_columns)
    run_scenario("pde_packet", {"horizon_tau": 1.0}, out_dir=tmp_path)
    ((plan, initial, result),) = runs
    assert result.psi.shape == result.times.shape  # one width a stored row
    profile = written["pde_packet_profile.csv"]
    assert np.array_equal(profile[1], real_evolve(plan, initial).psi[-1].real)
    assert not any(np.shares_memory(column, result.psi) for column in profile)


def test_failed_rerun_leaves_no_manifest(tmp_path, monkeypatch):
    run_scenario("pde_packet", {"horizon_tau": 1.0}, out_dir=tmp_path)
    assert (tmp_path / "manifest.json").exists()
    written = []
    real_write_csv = scenarios.write_csv

    def fail_on_second_file(path, header, columns):
        written.append(path)
        if len(written) == 2:
            raise OSError("disk full")
        return real_write_csv(path, header, columns)

    monkeypatch.setattr(scenarios, "write_csv", fail_on_second_file)
    with pytest.raises(OSError):
        run_scenario("pde_packet", {"horizon_tau": 2.0}, out_dir=tmp_path)
    # the old manifest must not vouch for the new, partial CSVs
    assert not (tmp_path / "manifest.json").exists()


def test_csv_float_format_is_full_precision(tmp_path):
    run_scenario("convergence", out_dir=tmp_path)
    _, rows = read_csv(tmp_path / "convergence_errors.csv")
    for row in rows:
        for cell in row:
            assert "e" in cell  # scientific notation
            mantissa = cell.split("e")[0]
            assert len(mantissa.replace("-", "").replace(".", "")) == 17
            assert float(cell) == float(repr(float(cell)))  # round-trips


# A two-probe scan, and a config for each stepping path: the uniform system
# (fig1), a four-probe scan at its defaults, the first-order packet, and the
# second-order fields of a 4096-point regime comparison and a full-form packet.
RERUNS = [
    ("dispersion_scan", {"k_values": [0.25, 0.5]}),
    ("fig1", {"horizon_tau": [10.0]}),
    ("dispersion_scan", {}),
    ("pde_packet", {"n": 512}),
    ("regime_compare", {"n": 4096, "L": 8192.0, "r": [0.1]}),
    ("pde_packet", {"form": "full", "n": 32, "L": 128.0, "sigma0": 8.0,
                    "horizon_tau": 10.0}),
    # the telegraph_scan workload's config: eight stencil probes in one run
    ("dispersion_scan", {"n": 256, "L": 1024.0, "laplacian": "stencil",
                         "horizon_tau": 1000.0,
                         "k_values": [0.0184, 0.1043, 0.2454, 0.3927, 0.4725, 0.5522,
                                      0.6810, 0.7854]}),
]


def test_reruns_are_byte_identical(tmp_path):
    for i, (scenario, params) in enumerate(RERUNS):
        a, b = tmp_path / f"{i}a", tmp_path / f"{i}b"
        for out in (a, b):
            run_scenario(scenario, params, out_dir=out)
        csvs = sorted(p.name for p in a.glob("*.csv"))
        assert csvs and csvs == sorted(p.name for p in b.glob("*.csv"))
        for name in csvs:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (scenario, name)
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        for m in (ma, mb):
            m.pop("wall_clock_seconds")
            m.pop("output_dir")
        assert ma == mb


def test_plotscript_emission(tmp_path):
    manifest = run_scenario("fig1", {"horizon_tau": [10.0]}, out_dir=tmp_path,
                            plotscript=True)
    script = (tmp_path / "plot_fig1.gp").read_text()
    assert "set datafile separator ','" in script
    assert "fig1_horizon10.csv" in script
    assert any(e["path"] == "plot_fig1.gp" for e in manifest["outputs"])


# ----------------------------------------------------------- planck report


def test_report_planck_numbers_values():
    numbers = report_planck_numbers()
    assert numbers["tau_p_seconds"] == pytest.approx(5.391e-44, rel=5e-3)
    assert numbers["energy_p_gev"] == pytest.approx(1.2209e19, rel=5e-3)
    assert numbers["oscillation_angular_frequency_per_second"] == pytest.approx(
        2.0 / numbers["tau_p_seconds"], rel=1e-12)
    assert numbers["oscillation_period_seconds"] == pytest.approx(
        math.pi * numbers["tau_p_seconds"], rel=1e-12)
    assert numbers["period_over_attosecond"] == pytest.approx(
        numbers["oscillation_period_seconds"] / 1e-18, rel=1e-12)
    text = format_planck_report(numbers)
    assert "tau_p" in text and "GeV" in text


def test_report_planck_numbers_natural_units():
    numbers = report_planck_numbers(PhysicalConstants.natural_units())
    assert numbers["tau_p_seconds"] == 1.0
    assert numbers["energy_p_joules"] == 1.0


# -------------------------------------------------------------------- CLI


def test_cli_run_and_list(tmp_path, capsys):
    rc = main(["run", "convergence", "--out", str(tmp_path),
               "--set", "horizon_tau=5.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "manifest.json" in out
    assert "fitted_order" in out
    assert (tmp_path / "convergence_errors.csv").exists()

    rc = main(["list"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_cli_report_planck_json(capsys):
    rc = main(["report", "planck", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["energy_p_gev"] == pytest.approx(1.2209e19, rel=5e-3)
    rc = main(["report", "planck"])
    assert rc == 0
    assert "GeV" in capsys.readouterr().out


def test_cli_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "fig1", "horizon_tau": [10.0],
                               "samples_per_period": 8}))
    rc = main(["run", "fig1", "--config", str(cfg), "--out",
               str(tmp_path / "out"), "--set", "A=2.0"])
    assert rc == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["A"] == 2.0
    assert manifest["config"]["samples_per_period"] == 8


def test_cli_exit_code_on_config_error(tmp_path, capsys):
    assert main(["run", "fig1", "--set", "A=0", "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["run", "unknown_scenario", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert main(["run", "fig1", "--set", "bogus=1", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["run", "fig1", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    # bytes that are not UTF-8, and an output path that is a file
    cfg.write_bytes(b'\xff\xfe{"A": 1}')
    out = tmp_path / "out"
    assert main(["run", "fig1", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "fig1", "--set", "horizon_tau=[10]", "--out",
                 str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv")) and blocker.read_text() == ""
    # JSON nested beyond the parser's recursion limit, in a file and in --set
    deep = "[" * 100000
    cfg.write_text(deep)
    for args in (["--config", str(cfg)], ["--set", f"A={deep}"]):
        assert main(["run", "fig1", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


# Each is refused before any CSV is written.  Sizes stay small: the
# horizons have no resource cap, so unbounded values do not belong here.
INVALID_RUNS = [
    ("pde_packet", ["n=100"]),
    ("pde_packet", ["L=-1"]),
    ("pde_packet", ["laplacian=foo"]),
    ("pde_packet", ["samples=0"]),
    ("pde_packet", ["r=0"]),
    ("pde_packet", ["r=-1"]),
    ("pde_packet", ["safety=0"]),
    ("pde_packet", ["horizon_tau=Infinity"]),
    ("pde_packet", ["v=NaN"]),
    ("dispersion_scan", ["safety=2"]),
    ("dispersion_scan", ["horizon_tau=0"]),
    ("fig1", ["horizon_tau=[1e308]"]),
    ("fig1", ["samples_per_period=100000000"]),
    ("fig1", ["A=NaN"]),
    # horizons that would write, and list, one CSV name twice
    ("fig1", ["horizon_tau=[10, 10.0000001]"]),
    ("fig1", ["horizon_tau=[3, 3]"]),
    ("regime_compare", ["n=100"]),
    ("regime_compare", ["sigma0=-1"]),
    # grids above 2^21 points, the largest on which the arrays of a
    # second-order run storing its first and last rows fit the byte cap
    ("pde_packet", ["n=1073741824"]),
    ("regime_compare", ["n=268435456"]),
    ("pde_packet", ["n=16777216", "samples=1"]),
    ("regime_compare", ["n=16777216"]),
    ("dispersion_scan", ["n=16777216"]),
    # checks across keys: dt above the grid's stability bound, and a
    # wavenumber beyond the grid's Nyquist mode
    ("dispersion_scan", ["n=32", "L=128", "dt=5", "k_values=[0.1]"]),
    ("dispersion_scan", ["k_values=[100]"]),
    # v >= 1/2, where every wavenumber grows, without allow_unstable: with
    # probes, with none, and at the one stable probe v = 1/2 leaves
    ("dispersion_scan", ["v=0.75"]),
    ("dispersion_scan", ["v=0.75", "k_values=[]"]),
    ("dispersion_scan", ["v=0.5", "k_values=[0]"]),
    # magnitudes beyond the documented size range
    ("regime_compare", ["L=1e-300"]),
    ("pde_packet", ["sigma0=1e300"]),
    ("convergence", ["dts=[1e-300,5e-301,2.5e-301]"]),
    ("dispersion_scan", ["horizon_tau=1e-300"]),
    ("fig1", ["A=1e306"]),
    # sizes in range whose step count or fastest frequency leaves the int64
    # or float range
    ("fig1", ["A=1e100"]),
    # a horizon shorter than one sample: no steps, and a sample stride of
    # about 9e24 steps, beyond int64
    ("fig1", ["A=-1e100", "horizon_tau=[0.001]"]),
    # horizons below 1e-100: at these the step rule's |A| * horizon
    # underflows to zero
    ("fig1", ["horizon_tau=[5e-324]"]),
    ("fig1", ["A=1e-100", "horizon_tau=[1e-230]"]),
    ("regime_compare", ["L=1e-100"]),
    ("dispersion_scan", ["n=8192", "L=1e-100", "r=1e100"]),
    # arrays above kernels.MAX_SAMPLE_BYTES, refused before any allocation
    ("dispersion_scan", ["safety=1e-18", "horizon_tau=1"]),
    ("regime_compare", ["safety=1e-9"]),
    # 9,183,675 rows of 4,096 points: the reduced full run's plan fits the
    # cap, and with the closed form's 104 B a row it does not
    ("regime_compare", ["n=4096", "L=8192", "r=[0.1]", "horizon_tau=9000000"]),
    ("fig1", ["horizon_tau=[1e6]", "samples_per_period=4096"]),
    # 2.9e7 rows, whose arrays fig1 counts at 2.75 GB
    ("fig1", ["horizon_tau=[1e6]", "samples_per_period=90"]),
    # a window too short for any phase to be measured
    ("dispersion_scan", ["horizon_tau=1e-100"]),
    # unstable modes that would amplify round-off by e^95 over the horizon
    ("pde_packet", ["form=full", "r=0.1"]),
]


@pytest.mark.parametrize(
    "scenario, sets", INVALID_RUNS,
    ids=[f"{sc}-{'-'.join(sets)}".translate(str.maketrans("", "", "[]"))
         for sc, sets in INVALID_RUNS])
def test_cli_invalid_input_exits_2(tmp_path, capsys, scenario, sets):
    argv = ["run", scenario, "--out", str(tmp_path)]
    for pair in sets:
        argv += ["--set", pair]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "manifest.json").exists()
    assert peak < 16 * 2**20  # refused before any large array exists


def test_cli_exit_code_on_blow_up(tmp_path, capsys):
    rc = main(["run", "pde_packet", "--out", str(tmp_path),
               "--set", "allow_unstable=true", "--set", "dt=2.0",
               "--set", "horizon_tau=1000.0"])
    assert rc == 3
    assert "blew up" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_cli_dispersion_scan_blow_up_names_the_probed_mode(tmp_path, capsys):
    # dt = 2.5 is beyond the stability bound; the probe steps its own mode
    # alone, so the blow-up is that mode's, at k_hat = 2 pi 5 / 64
    rc = main(["run", "dispersion_scan", "--out", str(tmp_path),
               "--set", "r=0.1", "--set", "allow_unstable=true", "--set", "dt=2.5",
               "--set", "horizon_tau=3000", "--set", "n=64", "--set", "L=64",
               "--set", "laplacian=spectral", "--set", "k_values=[0.5]"])
    assert rc == 3
    assert capsys.readouterr().err == ("error: solution blew up at t_hat=600 "
                                       "(dominant content near k_hat=0.4909)\n")
    assert not (tmp_path / "manifest.json").exists()


BLOW_UP_SCAN = ["--set", "r=0.1", "--set", "allow_unstable=true", "--set", "dt=2.5",
                "--set", "horizon_tau=3000", "--set", "n=64", "--set", "L=64",
                "--set", "laplacian=spectral"]


@pytest.mark.parametrize("k_values", ["[0.1,0.5]", "[0.5,0.1]"])
def test_cli_dispersion_scan_blow_up_names_the_first_probe_to_blow_up(tmp_path, capsys,
                                                                      k_values):
    # the probes are stepped side by side, so the run stops at the first row
    # where any is bad: the 0.1 probe's, at t_hat = 595, in either order
    rc = main(["run", "dispersion_scan", "--out", str(tmp_path), *BLOW_UP_SCAN,
               "--set", f"k_values={k_values}"])
    assert rc == 3
    assert capsys.readouterr().err == ("error: solution blew up at t_hat=595 "
                                       "(dominant content near k_hat=0.09817)\n")
    assert not (tmp_path / "manifest.json").exists()


def test_cli_dispersion_scan_refuses_a_later_entry_before_any_probe_runs(tmp_path, capsys,
                                                                       monkeypatch):
    # every entry is checked before the kernel run, so the last one's
    # Nyquist refusal comes first, where the 0.5 probe alone blows up
    calls = []
    run_uniform = scenarios.kernels.run_uniform
    monkeypatch.setattr(scenarios.kernels, "run_uniform",
                        lambda *args: calls.append(args) or run_uniform(*args))
    rc = main(["run", "dispersion_scan", "--out", str(tmp_path), *BLOW_UP_SCAN,
               "--set", "k_values=[0.5,100]"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: k_values entry 100")
    assert calls == []
    assert not (tmp_path / "manifest.json").exists()


def test_dispersion_scan_splits_its_probes_between_runs_the_cap_holds(tmp_path,
                                                                      monkeypatch):
    # Under a cap that holds three probes' rows at once, the workload's eight
    # probes are stepped in runs of 3, 3 and 2, and measure what one run does.
    params = resolve_config("dispersion_scan", {}, {
        "n": 256, "L": 1024.0, "laplacian": "stencil", "horizon_tau": 1000.0,
        "k_values": [2.0 * math.pi * j / 1024.0 for j in (3, 17, 40, 64, 77, 90, 111, 128)]})
    run_scenario("dispersion_scan", params, out_dir=tmp_path / "one")
    base = scenarios._scan_bytes(0, 1022, 256)
    one_probe = scenarios._scan_bytes(1, 1022, 256) - base
    widths = []
    run_uniform = scenarios.kernels.run_uniform
    monkeypatch.setattr(scenarios.kernels, "run_uniform",
                        lambda psi0, *args: widths.append(len(psi0)) or run_uniform(psi0, *args))
    monkeypatch.setattr(scenarios.kernels, "MAX_SAMPLE_BYTES", base + 3 * one_probe + 1)
    run_scenario("dispersion_scan", params, out_dir=tmp_path / "split")
    assert widths == [3, 3, 2]
    (_, one), (_, split) = (read_csv(tmp_path / d / "dispersion_scan_modes.csv")
                            for d in ("one", "split"))
    for a, b in zip(one, split):
        assert a[:2] + a[4:] == b[:2] + b[4:]
        assert float(b[2]) == pytest.approx(float(a[2]), rel=1e-12, abs=0.0)


def test_dispersion_scan_splits_nine_probes_into_equal_runs(tmp_path, monkeypatch):
    # Under a cap that holds four probes, nine are stepped in runs of 3, 3 and
    # 3, none of one probe alone, and print the unsplit scan's CSV byte for byte.
    params = resolve_config("dispersion_scan", {}, {
        "n": 256, "L": 1024.0, "laplacian": "stencil", "horizon_tau": 1000.0,
        "k_values": [2.0 * math.pi * j / 1024.0
                     for j in (3, 17, 40, 64, 77, 90, 111, 120, 128)]})
    run_scenario("dispersion_scan", params, out_dir=tmp_path / "one")
    base = scenarios._scan_bytes(0, 1022, 256)
    one_probe = scenarios._scan_bytes(1, 1022, 256) - base
    widths = []
    run_uniform = scenarios.kernels.run_uniform
    monkeypatch.setattr(scenarios.kernels, "run_uniform",
                        lambda psi0, *args: widths.append(len(psi0)) or run_uniform(psi0, *args))
    monkeypatch.setattr(scenarios.kernels, "MAX_SAMPLE_BYTES", base + 4 * one_probe)
    run_scenario("dispersion_scan", params, out_dir=tmp_path / "split")
    assert widths == [3, 3, 3]
    one, split = ((tmp_path / d / "dispersion_scan_modes.csv").read_bytes()
                  for d in ("one", "split"))
    assert one == split


def test_dispersion_scan_mixes_frequency_and_growth_probes(tmp_path):
    # At r = 4, k = 0.1 is stable and k = 1 grows: one run holds both, and its
    # frequency and growth fits each take their own column.
    rows = {}
    for k_values in ([0.1, 1.0], [1.0, 0.1], [0.1], [1.0]):
        out = tmp_path / "-".join(map(str, k_values))
        run_scenario("dispersion_scan", {"r": 4.0, "allow_unstable": True,
                                         "horizon_tau": 20.0, "k_values": k_values},
                     out_dir=out)
        rows[tuple(k_values)] = read_csv(out / "dispersion_scan_modes.csv")[1]
    frequency, growth = rows[(0.1, 1.0)]
    assert frequency[2] != "nan" and frequency[5:] == ["nan", "nan"]
    assert growth[1:4] == ["nan"] * 3 and growth[6] != "nan"
    assert rows[(1.0, 0.1)] == [growth, frequency]
    # a probe alone is a one-point run, which numpy rounds by another loop
    for row, (alone,) in ((frequency, rows[(0.1,)]), (growth, rows[(1.0,)])):
        assert row[:2] + row[4:6] == alone[:2] + alone[4:6]
        for col in (2, 6):
            if row[col] != "nan":
                assert float(row[col]) == pytest.approx(float(alone[col]), rel=1e-12)


# (k_values, message): each pair of entries the scan refuses, in both
# orders, over a 1e-7-long window; these are the messages a scan that set
# up and checked its probes one at a time gave
REFUSED_PAIRS = [
    ([100.0, 0.0625], "k_values entry 100.0 lies beyond the grid's Nyquist wavenumber 8"),
    ([100.0, 1.25], "k_values entry 100.0 lies beyond the grid's Nyquist wavenumber 8"),
    ([0.0625, 100.0], "k_hat=0.0625 advances 1.96e-10 rad over the 1e-07-long window, "
                      "below the 1e-09 rad a fit can measure; lengthen horizon_tau"),
    ([0.0625, 1.25], "k_hat=0.0625 advances 1.96e-10 rad over the 1e-07-long window, "
                     "below the 1e-09 rad a fit can measure; lengthen horizon_tau"),
    ([1.25, 100.0], "requested k_hat=1.25 lies above the critical wavenumber; "
                    "set allow_unstable to probe growth"),
    ([1.25, 0.0625], "requested k_hat=1.25 lies above the critical wavenumber; "
                     "set allow_unstable to probe growth"),
]


@pytest.mark.parametrize("k_values, message", REFUSED_PAIRS)
def test_dispersion_scan_refuses_the_first_bad_entry_by_its_first_check(tmp_path, k_values,
                                                                         message):
    with pytest.raises(ConfigError) as refused:
        run_scenario("dispersion_scan", {"k_values": k_values, "horizon_tau": 1e-7},
                     out_dir=tmp_path)
    assert str(refused.value) == message


def test_cli_dispersion_scan_runs_a_probe_the_grid_plan_refused(tmp_path):
    # 112,246 rows: the grid run's plan counted 1.15e9 B for them and was
    # refused; a one-point probe counts about 12 MB
    rc = main(["run", "dispersion_scan", "--out", str(tmp_path),
               "--set", "n=256", "--set", "L=1024", "--set", "laplacian=stencil",
               "--set", "horizon_tau=110000", "--set", "k_values=[0.1]"])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    _, rows = read_csv(tmp_path / "dispersion_scan_modes.csv")
    # the RK4 phase of the stencil's slow branch, as
    # test_dispersion_scan_measures_the_rk4_phase_of_the_slow_branch checks
    params = resolve_config("dispersion_scan", {}, manifest["config"])
    _, omega_minus = discrete_branches(params, float(rows[0][0]))
    dt = manifest["solver"]["dt"]
    want = -np.angle(rk4_factor(-1j * omega_minus * dt)) / dt
    assert abs(float(rows[0][2]) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("params", [
    # 131 rows, in a ring of 4 blocks of 8 rows of 2048 points
    {"n": 2048, "L": 640.0, "sigma0": 4.0, "laplacian": "spectral"},
    # 155 rows, in a ring of 4 blocks of 4 rows of 4096 points
    {"form": "full", "n": 4096, "L": 16384.0, "sigma0": 8.0, "horizon_tau": 150.0},
])
def test_packet_reduced_widths_equal_the_materialised_run(tmp_path, monkeypatch,
                                                          params):
    runs, written = [], {}
    real_evolve, real_write_csv = scenarios.evolve, scenarios.write_csv

    def keep_plan(plan, initial, reduce=None):
        runs.append((plan, initial))
        return real_evolve(plan, initial, reduce=reduce)

    def keep_columns(path, header, columns):
        written[Path(path).name] = columns
        return real_write_csv(path, header, columns)

    monkeypatch.setattr(scenarios, "evolve", keep_plan)
    monkeypatch.setattr(scenarios, "write_csv", keep_columns)
    run_scenario("pde_packet", params, out_dir=tmp_path)
    ((plan, initial),) = runs
    whole = real_evolve(plan, initial)
    assert len(whole.times) > 4 * kernels.ring_rows(plan.grid.n)
    times, measured = written["pde_packet_width.csv"][:2]
    want = field_width(whole.psi, plan.grid)
    assert np.array_equal(times, whole.times)
    assert np.all(np.abs(measured - want) <= 1e-15 * want)
    profile = written["pde_packet_profile.csv"]
    assert np.array_equal(profile[1] + 1j * profile[2], whole.psi[-1])


def _fed_packet_run(tmp_path, monkeypatch, capsys, blocks):
    """``main``'s exit code and stderr for a pde_packet run whose evolve hands
    ``blocks`` (functions of the grid size) to the scenario's reduce in time
    order, as the kernel does, and then reports a blow-up at t_hat=99."""
    def fed(plan, initial, reduce=None):
        start = 0
        with np.errstate(all="ignore"):  # as in the kernel's run
            for make in blocks:
                block = make(plan.grid.n)
                reduce(start, block, np.abs(block))
                start += len(block)
        raise BlowUpError(99.0)

    monkeypatch.setattr(scenarios, "evolve", fed)
    rc = main(["run", "pde_packet", "--out", str(tmp_path), "--set", "samples=8",
               "--set", "dt=0.01", "--set", "horizon_tau=8.0"])
    assert not (tmp_path / "manifest.json").exists()
    return rc, capsys.readouterr().err


def test_packet_first_row_without_mass_decides_before_a_later_blow_up(
        tmp_path, monkeypatch, capsys):
    # rows 0-2, then a block whose row 5 has no mass and whose last row, 6,
    # is the blow-up's: the earlier row decides
    def bad(n):
        rows = np.ones((4, n), dtype=np.complex128)
        rows[2] = 0.0
        rows[3] = np.inf
        return rows

    rc, err = _fed_packet_run(tmp_path, monkeypatch, capsys,
                              [lambda n: np.ones((3, n), dtype=np.complex128), bad])
    assert rc == 3
    # 800 steps stored every 100: row 5 is at t_hat = 500 * 0.01
    assert err == "error: solution underflowed to zero at t_hat=5\n"


def test_packet_blow_up_decides_before_a_later_row_without_mass(
        tmp_path, monkeypatch, capsys):
    # the kernel hands no row past the blow-up's, whose width is not finite
    def blown(n):
        rows = np.ones((2, n), dtype=np.complex128)
        rows[1] = np.inf
        return rows

    rc, err = _fed_packet_run(tmp_path, monkeypatch, capsys, [blown])
    assert rc == 3
    assert err == "error: solution blew up at t_hat=99\n"


def test_cli_packet_runs_rows_a_materialised_run_could_not_hold(tmp_path):
    # 27,714 rows of 2048 points: 1.36e9 B materialised, above the cap;
    # the reduced run holds a ring of 32 rows
    tracemalloc.start()
    try:
        rc = main(["run", "pde_packet", "--out", str(tmp_path), "--set", "n=2048",
                   "--set", "L=640", "--set", "sigma0=4", "--set", "laplacian=spectral",
                   "--set", "dt=0.002", "--set", "samples=100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"][0]["rows"] == 27714
    assert peak < 16 * 10**6


def allocates_within_the_count_it_checked(argv):
    """Whether a run of ``argv`` that is not refused holds no more than the
    largest count its scenario checked against the cap."""
    checked = []
    real_check_bytes = scenarios.check_bytes

    def record(need, what):
        checked.append(need)
        return real_check_bytes(need, what)

    with contextlib.redirect_stderr(io.StringIO()):
        if main(argv) != 0:  # a refused draw
            return True
        scenarios.check_bytes = record
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            scenarios.check_bytes = real_check_bytes
    return peak <= max(checked)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.sampled_from([8, 16, 64, 256, 1024, 2048, 4096]),
       samples=st.integers(1, 3000),
       dt=st.one_of(st.none(), st.floats(1e-3, 1.0)))
def test_pde_packet_allocates_within_the_count_it_checked(tmp_path_factory, n,
                                                          samples, dt):
    # every draw that runs holds no more than the count the scenario checked
    # against the cap; a draw with dt above the stability bound is refused;
    # sigma0 = 20 spans two grid spacings on every grid
    assert allocates_within_the_count_it_checked([
        "run", "pde_packet", "--out", str(tmp_path_factory.mktemp("mem")),
        "--set", f"n={n}", "--set", "sigma0=20", "--set", "horizon_tau=200",
        "--set", f"samples={samples}", "--set", f"dt={json.dumps(dt)}"])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.sampled_from([256, 512, 1024, 2048, 4096]),
       rs=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3),
       spacing=st.floats(1.0, 4.0), horizon=st.floats(1.0, 400.0))
def test_regime_compare_allocates_within_the_count_it_checked(tmp_path_factory, n, rs,
                                                              spacing, horizon):
    # the same for regime_compare, over one to three mass ratios and horizons
    # of 8 to about 1,300 stored rows; a draw beyond its growth budget is
    # refused.  The grids start at 256 points: the count is of arrays, and on
    # smaller grids the parser's, the writer's and the manifest's objects
    # (about 35 kB measured at n = 8) outweigh them.  pde_packet's count
    # covers these with its writer's chunk of 1,024 rows, which regime_compare,
    # writing one row a mass ratio, does not hold.
    assert allocates_within_the_count_it_checked([
        "run", "regime_compare", "--out", str(tmp_path_factory.mktemp("mem")),
        "--set", f"n={n}", "--set", f"L={n * spacing}", "--set", f"r={json.dumps(rs)}",
        "--set", f"horizon_tau={horizon}"])


def test_cli_field_underflow_exits_3(tmp_path, capsys):
    # At v = 1e10 the stability-rule step takes ~3.5e10 steps, and RK4's
    # damping at |omega dt| ~ 2 takes the field to exactly zero on the way.
    rc = main(["run", "pde_packet", "--out", str(tmp_path),
               "--set", "allow_unstable=true", "--set", "v=1e10",
               "--set", "samples=8"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # the first stored snapshot after t = 0: horizon 2 sqrt(3) sigma0^2 / 8
    assert "underflowed to zero at t_hat=1.73205" in err
    assert not (tmp_path / "manifest.json").exists()


# Bounded draws, so no example can run long or exhaust memory: n <= 32, no
# tiny dt or safety, and short horizons where every step is stored (only
# pde_packet stores a bounded number of snapshots).  Each key also draws
# values its rule refuses.
_NS = st.sampled_from([4, 8, 12, 16, 32])
_LENGTHS = st.one_of(st.floats(4.0, 200.0), st.sampled_from([0.0, -1.0, 1e-300]))
_SMALL = st.floats(-1.0, 1.0)
_SAFETY_DRAWS = st.one_of(st.floats(0.05, 1.2), st.sampled_from([0.0, -1.0]))
_LAPLACIANS = st.sampled_from(["stencil", "spectral", "fourier"])
_AMPLITUDES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1e100, 1e306]))
_OPT_DT = st.one_of(st.none(), st.floats(0.01, 5.0))
FUZZ_KEYS = {
    "fig1": {
        "A": _AMPLITUDES,
        "horizon_tau": st.lists(st.floats(-1.0, 20.0), max_size=2),
        "samples_per_period": st.integers(0, 64),
    },
    "dispersion_scan": {
        "k_values": st.lists(st.floats(-2.0, 2.0), max_size=3),
        "r": st.floats(-1.0, 4.0), "v": _SMALL, "n": _NS, "L": _LENGTHS,
        "laplacian": _LAPLACIANS, "safety": _SAFETY_DRAWS,
        "horizon_tau": st.floats(0.0, 10.0), "dt": _OPT_DT,
        "allow_unstable": st.booleans(),
    },
    "regime_compare": {
        "r": st.lists(st.floats(-0.1, 0.6), max_size=3), "v": _SMALL,
        "horizon_tau": st.floats(0.0, 10.0), "n": _NS, "L": _LENGTHS,
        "sigma0": st.floats(-1.0, 10.0), "laplacian": _LAPLACIANS,
        "safety": _SAFETY_DRAWS,
    },
    "convergence": {
        "dts": st.sampled_from([[4e-3, 2e-3, 1e-3], [0.1, 0.05, 0.025],
                                [0.2, 0.1, 0.05, 0.025], [0.1, 0.05],
                                [0.3, 0.2, 0.1], [1e-300, 5e-301, 2.5e-301]]),
        "A": _AMPLITUDES,
        "horizon_tau": st.sampled_from([0.0, 0.3, 1.0, 2.0, 10.0]),
    },
    "pde_packet": {
        "form": st.sampled_from(["schrodinger", "full", "other"]),
        "n": _NS, "L": _LENGTHS, "sigma0": st.floats(0.1, 20.0),
        "r": st.floats(-1.0, 4.0), "v": st.one_of(_SMALL, st.just(1e10)),
        "horizon_tau": st.one_of(st.none(), st.floats(0.0, 1000.0)),
        "dt": _OPT_DT, "safety": _SAFETY_DRAWS, "laplacian": _LAPLACIANS,
        "allow_unstable": st.booleans(), "samples": st.integers(0, 64),
    },
}
FUZZ_RUNS = st.sampled_from(sorted(FUZZ_KEYS)).flatmap(
    lambda sc: st.tuples(st.just(sc),
                         st.fixed_dictionaries({}, optional=FUZZ_KEYS[sc])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(run=FUZZ_RUNS)
@example(run=("fig1", {"A": -1e100, "horizon_tau": [0.001]}))
@example(run=("fig1", {"horizon_tau": [5e-324]}))
def test_cli_exit_code_contract_holds_for_bounded_inputs(tmp_path_factory, run):
    scenario, sets = run
    out = tmp_path_factory.mktemp("fuzz")
    argv = ["run", scenario, "--out", str(out)]
    for key, value in sets.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3)
    assert (out / "manifest.json").exists() == (rc == 0)
    if rc == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


SRC = Path(__file__).resolve().parent.parent / "src"

# (argv after "run", exit code, whether a manifest is left, stderr): stderr is
# "" for none, "error" for exactly one line starting "error:", or the whole
# line expected.  Runs that exit 0 and refusals of each scenario, and the
# runtime errors with their pinned lines.
PROCESS_CASES = [
    (["fig1", "--set", "horizon_tau=[10]"], 0, True, ""),
    (["fig1", "--set", "A=0"], 2, False, "error"),
    # a horizon shorter than one sample at |A| = 1e100 plans a sample
    # stride beyond int64; a horizon below 1e-100 underflows the step rule
    (["fig1", "--set", "A=-1e100", "--set", "horizon_tau=[0.001]"], 2, False, "error"),
    (["fig1", "--set", "horizon_tau=[5e-324]"], 2, False, "error"),
    # a config nested beyond the JSON parser's recursion limit
    (["fig1", "--set", "A=" + "[" * 100000], 2, False, "error"),
    (["dispersion_scan"], 0, True, ""),
    (["dispersion_scan", *BLOW_UP_SCAN, "--set", "k_values=[0.5]"], 3, False,
     "error: solution blew up at t_hat=600 (dominant content near k_hat=0.4909)"),
    (["dispersion_scan", *BLOW_UP_SCAN, "--set", "k_values=[0.1,0.5]"], 3, False,
     "error: solution blew up at t_hat=595 (dominant content near k_hat=0.09817)"),
    (["regime_compare"], 0, True, ""),
    (["regime_compare", "--set", "n=4096", "--set", "L=8192", "--set", "r=[0.1]",
      "--set", "horizon_tau=9000000"], 2, False, "error"),
    (["pde_packet", "--set", "horizon_tau=1"], 0, True, ""),
    # RK4's damping takes the field to exactly zero
    (["pde_packet", "--set", "allow_unstable=true", "--set", "v=1e10",
      "--set", "samples=8"], 3, False,
     "error: solution underflowed to zero at t_hat=1.73205"),
]


def test_cli_contract_holds_in_a_real_process(tmp_path):
    # exit status and stderr as a shell sees them, without pytest's capture:
    # a warning printed ahead of the error line would show here
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for i, (args, code, manifest, err) in enumerate(PROCESS_CASES):
        out = tmp_path / str(i)
        done = subprocess.run([sys.executable, "-m", "nsblab.cli", "run", args[0],
                               "--out", str(out), *args[1:]],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == code, (args[:3], done.stderr)
        assert (out / "manifest.json").exists() == manifest, args[:3]
        lines = done.stderr.splitlines()
        if err == "":
            assert done.stderr == "", args[:3]
        else:
            assert len(lines) == 1 and lines[0].startswith("error:"), (args[:3], lines)
            assert err == "error" or lines[0] == err, (args[:3], lines)

