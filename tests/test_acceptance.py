"""Acceptance gate: every headline claim checked at its stated tolerance.

Each test prints exactly one PASS/FAIL line (visible with ``pytest -s`` or
on failure) and asserts the same condition, so this file doubles as a
human-readable acceptance report:

    python3 -m pytest tests/test_acceptance.py -s -q
"""

import json
import math

import numpy as np
import pytest

from nsblab.analytic import (
    CanonicalCoefficients,
    EquationParameters,
    characteristic_roots,
    dispersion_branches,
    reduce_equation,
)
from nsblab.constants import PhysicalConstants, derive_scales
from nsblab.integrator import TemporalState, integrate_uniform
from nsblab.pde import (
    Grid,
    PdeProblem,
    evolve,
    fit_mode_growth,
    mode_amplitudes,
    plane_wave_state,
    stability_dt,
)
from nsblab.scenarios import run_scenario

FULL_R1 = reduce_equation(EquationParameters(1.0, 0.0))


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {num} ({name}): {status}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_1_planck_numbers():
    scales = derive_scales(PhysicalConstants())
    tau_ok = abs(scales.tau_p - 5.391e-44) / 5.391e-44 < 5e-3
    energy_ok = abs(scales.energy_p_gev - 1.22e19) / 1.22e19 < 5e-3
    log_e = math.log10(scales.energy_p_gev)
    log_t = math.log10(scales.period)
    order_ok = 19.0 <= log_e <= 19.1 and abs(log_t - (-42.7712)) < 0.01
    _report(1, "planck numbers", tau_ok and energy_ok and order_ok,
            f"tau_p={scales.tau_p:.4e} s, E={scales.energy_p_gev:.4e} GeV, "
            f"log10(period)={log_t:.4f}")


def test_criterion_2_characteristic_roots():
    free = characteristic_roots(0.0)
    exact_ok = free.gamma1 == 0j and free.gamma2 == -2j
    worst = 0.0
    rng = np.random.default_rng(101)
    for v in rng.uniform(-2.0, 2.0, size=1000):
        roots = characteristic_roots(float(v))
        for g in (roots.gamma1, roots.gamma2):
            worst = max(worst, abs(g * g / 2.0 + 1j * g - v))
        worst = max(worst, abs(roots.gamma1 + roots.gamma2 + 2j))
        worst = max(worst, abs(roots.gamma1 * roots.gamma2 + 2.0 * v))
    _report(2, "characteristic roots", exact_ok and worst < 1e-12,
            f"free roots ({free.gamma1}, {free.gamma2}), "
            f"worst residual {worst:.3e}")


def test_criterion_3_fig1_reproduction(tmp_path):
    manifest = run_scenario("fig1", out_dir=tmp_path)
    ok = True
    details = []
    for horizon, periods_expected in ((100, 31), (1000, 318)):
        data = np.genfromtxt(tmp_path / f"fig1_horizon{horizon}.csv",
                             delimiter=",", names=True)
        dev = float(np.max(np.hypot(data["re_psi"] - data["re_psi_analytic"],
                                    data["im_psi"] - data["im_psi_analytic"])))
        in_band = (np.min(data["re_psi"]) >= -1e-6
                   and np.max(data["re_psi"]) <= 2.0 + 1e-6
                   and np.max(data["re_psi"]) >= 2.0 - 1e-6)
        periods = int(np.floor(data["t_over_tau"][-1] / math.pi + 1e-9))
        spp = manifest["config"]["samples_per_period"]
        shift = float(np.max(np.abs(data["re_psi"][spp:]
                                    - data["re_psi"][:-spp])))
        ok = ok and dev < 1e-6 and in_band and shift < 1e-6 \
            and periods == periods_expected
        details.append(f"h{horizon}: dev={dev:.2e}, {periods} periods")
    _report(3, "fig1 reproduction", ok, "; ".join(details))


def test_criterion_4_temporal_convergence(tmp_path):
    manifest = run_scenario("convergence", out_dir=tmp_path)
    order = manifest["solver"]["fitted_order"]
    _report(4, "temporal convergence", abs(order - 4.0) <= 0.2,
            f"fitted order {order:.4f} on dt {{4e-3, 2e-3, 1e-3}}")


def test_criterion_5_dispersion(tmp_path):
    details = []
    ok = True
    for mode, tol in (("spectral", 1e-3), ("stencil", 1e-2)):
        out = tmp_path / mode
        run_scenario("dispersion_scan", {"laplacian": mode}, out_dir=out)
        data = np.genfromtxt(out / "dispersion_scan_modes.csv",
                             delimiter=",", names=True)
        worst = float(np.max(data["rel_err"]))
        ok = ok and worst < tol and bool(np.all(data["k_hat"] <= 0.5))
        details.append(f"{mode}: worst rel err {worst:.2e} (tol {tol})")
    _report(5, "dispersion", ok, "; ".join(details))


def test_criterion_6_instability_boundary():
    # growing mode at k = 1.2 * k_crit, slow-branch-free initialization
    grid = Grid(64, 10.0 * math.pi)
    state, k, (omega_p, _) = plane_wave_state(grid, 6, FULL_R1, "plus",
                                              "spectral")
    prob = PdeProblem(FULL_R1, grid, t_end=3.5, dt=3.5 / 64,
                      snapshot_stride=1, laplacian="spectral",
                      allow_unstable=True)
    res = evolve(prob, state)
    rate = fit_mode_growth(res.times, mode_amplitudes(res.psi, 6))
    mode_ok = abs(rate - omega_p.imag) / omega_p.imag < 0.02

    # uniform run at v = 3/4: growing root has Re gamma = sqrt(1/2)
    roots = characteristic_roots(0.75)
    expected = max(roots.gamma1.real, roots.gamma2.real)
    traj = integrate_uniform(TemporalState(0.0, 2.0j), 0.75, 20.0, 1e-3,
                             sample_stride=100)
    half = len(traj) // 2  # fit the trailing half, where the decaying root is gone
    uniform_rate = fit_mode_growth(traj.times[half:], traj.psis[half:])
    uniform_ok = abs(uniform_rate - expected) / expected < 0.02
    _report(6, "instability boundary", mode_ok and uniform_ok,
            f"k=1.2: rate {rate:.5f} vs {omega_p.imag:.5f}; "
            f"v=0.75: rate {uniform_rate:.5f} vs {expected:.5f}")


def test_criterion_7_regime_equivalence(tmp_path):
    run_scenario("regime_compare", out_dir=tmp_path)
    data = np.genfromtxt(tmp_path / "regime_compare_distances.csv",
                         delimiter=",", names=True)
    uniform_ok = bool(np.all(data["sup_distance_uniform"] < 1e-12))
    packet = data["sup_distance_packet"]
    monotone_ok = bool(np.all(np.diff(packet) < 0.0)) and bool(np.all(packet > 0.0))
    _report(7, "regime equivalence", uniform_ok and monotone_ok,
            f"uniform sup {float(np.max(data['sup_distance_uniform'])):.2e}, "
            f"packet sups {[f'{p:.2e}' for p in packet]}")


def test_criterion_8_schrodinger_limit(tmp_path):
    # deviation from the first-order run scales like the scaling factor eps
    from nsblab.pde import gaussian_packet, schrodinger_consistent_state

    grid = Grid(64, 64.0 * math.pi)
    psi0 = gaussian_packet(grid, 8.0)
    t_end = 20.0

    def final_field(a_tt):
        coeffs = CanonicalCoefficients(a_xx=1.0, a_tt=a_tt, v=0.0)
        state = schrodinger_consistent_state(psi0, coeffs, "spectral")
        dt = stability_dt(coeffs, grid, 0.7, "spectral")
        n_steps = math.ceil(t_end / dt)
        prob = PdeProblem(coeffs, grid, t_end=t_end,
                          dt=t_end / n_steps, snapshot_stride=n_steps,
                          laplacian="spectral")
        return evolve(prob, state).psi[-1]

    baseline = final_field(0.0)
    eps = np.array([1.0, 0.25, 0.0625])
    devs = np.array([float(np.max(np.abs(final_field(e) - baseline)))
                     for e in eps])
    order = float(np.polyfit(np.log(eps), np.log(devs), 1)[0])

    # pure first-order Gaussian spreading against the analytic width law
    run_scenario("pde_packet", out_dir=tmp_path)
    data = np.genfromtxt(tmp_path / "pde_packet_width.csv",
                         delimiter=",", names=True)
    width_worst = float(np.max(data["rel_err"]))
    _report(8, "schrodinger limit", order >= 0.9 and width_worst < 1e-3,
            f"scaling order {order:.3f}, worst width rel err {width_worst:.2e}")


def test_criterion_9_reproducibility(tmp_path):
    cheap = {
        "fig1": {"horizon_tau": [10.0]},
        "dispersion_scan": {"k_values": [0.25]},
        "regime_compare": {},
        "convergence": {"horizon_tau": 2.0},
        "pde_packet": {"n": 64, "L": 40.0},
    }
    ok = True
    checked = 0
    for scenario, params in cheap.items():
        a, b = tmp_path / f"{scenario}_a", tmp_path / f"{scenario}_b"
        ma = run_scenario(scenario, params, out_dir=a)
        run_scenario(scenario, params, out_dir=b)
        for entry in ma["outputs"]:
            ok = ok and ((a / entry["path"]).read_bytes()
                         == (b / entry["path"]).read_bytes())
            checked += 1
        man_a = json.loads((a / "manifest.json").read_text())
        man_b = json.loads((b / "manifest.json").read_text())
        for m in (man_a, man_b):
            m.pop("wall_clock_seconds")
            m.pop("output_dir")
        ok = ok and man_a == man_b
    _report(9, "reproducibility", ok,
            f"{checked} CSV files byte-identical across reruns of "
            f"{len(cheap)} scenarios; manifests match")
