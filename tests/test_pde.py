import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsblab.analytic import (
    CanonicalCoefficients,
    EquationForm,
    EquationParameters,
    FreeSolutionSpec,
    dispersion_branches,
    free_solution,
    reduce_equation,
)
from nsblab import kernels
from nsblab.integrator import BlowUpError, TemporalState, integrate_uniform
from nsblab.pde import (
    ComplexField,
    FieldState,
    Grid,
    PdeProblem,
    _mode_coefficients,
    evolve,
    field_width,
    fit_mode_frequency,
    fit_mode_growth,
    gaussian_packet,
    growth_horizon,
    growth_rates,
    mode_amplitudes,
    plane_wave_state,
    schrodinger_consistent_state,
    spectral_filter,
    stability_dt,
    step_plan,
    width_law,
)

FULL_R1 = reduce_equation(EquationParameters(1.0, 0.0, EquationForm.FULL))


# ------------------------------------------------------------------- grid


def test_grid_validation():
    Grid(8, 10.0)
    Grid(256, 80.0)
    for bad_n in (0, 7, 12, 24, 6):
        with pytest.raises(ValueError):
            Grid(bad_n, 10.0)
    with pytest.raises(ValueError):
        Grid(16, 0.0)
    with pytest.raises(ValueError):
        Grid(16, -5.0)
    # wavenumbers beyond the float range: the stencil eigenvalues would divide
    # by an underflowed dx^2, overflow, or come out as NaN
    for length in (1e-300, 1e300, 1e-160):
        with pytest.raises(ValueError):
            Grid(8, length).laplacian_eigenvalues("stencil")
    for grid in (Grid(8, 1e100), Grid(8192, 1e-100)):  # the CLI's size range
        assert np.all(np.isfinite(grid.laplacian_eigenvalues("stencil")))


def test_grid_geometry():
    g = Grid(16, 8.0)
    assert g.dx == 0.5
    assert len(g.xi()) == 16
    assert g.xi()[1] - g.xi()[0] == pytest.approx(0.5)
    k = g.wavenumbers()
    assert k[0] == 0.0
    assert np.max(np.abs(k)) == pytest.approx(math.pi / g.dx)


def test_field_validation():
    g = Grid(8, 4.0)
    with pytest.raises(ValueError):
        ComplexField(np.zeros(7, dtype=complex), g)
    bad = np.zeros(8, dtype=complex)
    bad[3] = complex(float("nan"), 0.0)
    with pytest.raises(ValueError):
        ComplexField(bad, g)
    f = ComplexField(np.ones(8, dtype=complex), g)
    with pytest.raises(ValueError):
        f.values[0] = 2.0  # stored values are read-only


def test_field_state_requires_shared_grid():
    a = ComplexField.constant(Grid(8, 4.0), 1.0)
    b = ComplexField.constant(Grid(16, 4.0), 1.0)
    with pytest.raises(ValueError):
        FieldState(a, b)


# -------------------------------------------------------------- laplacians


def test_laplacian_of_constant_is_zero():
    # the constant is mode 0; both operators map it to zero
    g = Grid(32, 11.0)
    for mode in ("stencil", "spectral"):
        assert g.laplacian_eigenvalues(mode)[0] == 0.0


def test_stencil_laplacian_on_sine_second_order():
    # k_eff^2 = k^2 (1 - (k dx)^2 / 12 + ...): second order in dx
    g = Grid(256, 1.0)
    k2 = (2.0 * math.pi) ** 2
    rel = abs(g.laplacian_eigenvalues("stencil")[1] - k2) / k2
    assert rel < 1e-3
    assert rel == pytest.approx((2.0 * math.pi * g.dx) ** 2 / 12.0, rel=1e-3)


def test_stencil_eigenvalue_exact_per_mode():
    # the grid reports k_eff^2, the eigenvalue of minus the stencil operator
    # (test_kernels checks the operator against the same formula)
    g = Grid(64, 13.0)
    for j in (1, 5, 11):
        k = 2.0 * math.pi * j / g.length
        eig = -(2.0 / g.dx**2) * (1.0 - math.cos(k * g.dx))
        assert g.laplacian_eigenvalues("stencil")[j] == pytest.approx(-eig, rel=1e-14)


def test_spectral_eigenvalue_is_exact():
    g = Grid(64, 13.0)
    eigs = g.laplacian_eigenvalues("spectral")
    k = g.wavenumbers()
    assert np.allclose(eigs, k**2, rtol=0.0, atol=1e-13)


# ------------------------------------------------------ mode coefficients


@pytest.mark.parametrize("a_tt", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("v", [-0.3, 0.0, 0.2, 0.7])
@pytest.mark.parametrize("r", [0.1, 1.0])
@pytest.mark.parametrize("laplacian", ["stencil", "spectral"])
def test_mode_coefficients_match_the_dispersion_branches(laplacian, r, v, a_tt):
    # Each mode's companion matrix [[0, 1], [b_k, c]] has the eigenvalues
    # mu = -i omega of both branches, mu^2 - c mu - b_k = 0; in the
    # first-order limit the rate is -i omega itself.  The grid reaches
    # modes above the critical wavenumber, and v = 0.7 makes every mode grow.
    coeffs = CanonicalCoefficients(a_xx=r, a_tt=a_tt, v=v)
    lam = Grid(64, 40.0).laplacian_eigenvalues(laplacian)
    b, c = _mode_coefficients(coeffs, lam)
    mus = [-1j * omega for omega in dispersion_branches(coeffs, lam)]
    if a_tt == 0.0:
        assert c is None
        assert np.abs(b - mus[1]).max() <= 1e-12 * np.abs(mus[1]).max()
        return
    for mu in mus:
        # the scale keeps the k = 0, v = 0 mode, where mu = b = 0, finite
        scale = (np.abs(mu) ** 2 + np.abs(c * mu) + np.abs(b)).max()
        assert np.abs(mu * mu - c * mu - b).max() <= 1e-12 * scale


# ------------------------------------------------------------ stability_dt


def test_stability_dt_uniform_case():
    g = Grid(32, 20.0)
    coeffs = CanonicalCoefficients(a_xx=0.0, a_tt=1.0, v=0.0)
    assert stability_dt(coeffs, g, 1.0) == pytest.approx(1.4)
    assert stability_dt(coeffs, g, 0.5) == pytest.approx(0.7)


def test_stability_dt_decreases_with_refinement():
    dts = [stability_dt(FULL_R1, Grid(n, 20.0), 0.7) for n in (32, 64, 128)]
    assert dts[0] > dts[1] > dts[2]


def test_stability_dt_spatial_free_limit():
    g = Grid(64, 20.0)
    uniform_bound = stability_dt(CanonicalCoefficients(0.0, 1.0, 0.0), g, 0.7)
    tiny_r = stability_dt(CanonicalCoefficients(1e-12, 1.0, 0.0), g, 0.7)
    assert tiny_r == pytest.approx(uniform_bound, rel=1e-6)


@pytest.mark.filterwarnings("error")
def test_stability_dt_is_silent_when_everything_grows():
    # the step bound keeps its scale at v >= 1/2; the plan refuses such runs
    # unless allow_unstable is set, so no warning is issued here
    g = Grid(32, 20.0)
    coeffs = CanonicalCoefficients(a_xx=1.0, a_tt=1.0, v=0.75)
    dt = stability_dt(coeffs, g, 0.7)
    assert dt > 0.0


def test_stability_dt_rejects_bad_safety():
    g = Grid(32, 20.0)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            stability_dt(FULL_R1, g, bad)


# ------------------------------------------------------------- PdeProblem


def test_problem_rejects_oversized_dt():
    g = Grid(32, 32.0 * math.pi)
    bound = stability_dt(FULL_R1, g, 1.0)
    with pytest.raises(ValueError):
        PdeProblem(FULL_R1, g, t_end=1.0, dt=2.0 * bound)
    PdeProblem(FULL_R1, g, t_end=1.0, dt=2.0 * bound, allow_unstable=True)


def test_problem_rejects_supercritical_content():
    # kmax = pi/dx = 2.51 exceeds the critical wavenumber 1, and a narrow
    # packet has visible content out there
    g = Grid(32, 40.0)
    psi = gaussian_packet(g, 1.0)
    state = schrodinger_consistent_state(psi, FULL_R1)
    prob = PdeProblem(FULL_R1, g, t_end=1.0)
    with pytest.raises(ValueError):
        evolve(prob, state)
    # band-limiting below critical makes the same problem acceptable
    filtered = spectral_filter(state, 0.5)
    evolve(prob, filtered)
    # or the override accepts the growth explicitly
    evolve(PdeProblem(FULL_R1, g, t_end=1.0, allow_unstable=True), state)


def test_problem_default_dt_respects_bound():
    g = Grid(32, 32.0 * math.pi)
    prob = PdeProblem(FULL_R1, g, t_end=10.0)
    assert prob.dt is not None
    assert prob.dt <= stability_dt(FULL_R1, g, prob.safety) * (1.0 + 1e-12)


def test_problem_refuses_round_off_growth_beyond_the_budget():
    # the fastest mode of this grid, k = pi/dx, grows at sqrt(k^2 - 1) per
    # unit time, so round-off reaches e^25 after 25 / rate
    g = Grid(32, 40.0)
    rate = float(np.max(growth_rates(FULL_R1, g, "spectral")))
    assert rate == pytest.approx(math.sqrt((math.pi / g.dx) ** 2 - 1.0), rel=1e-12)
    assert growth_horizon(rate) == 25.0 / rate
    PdeProblem(FULL_R1, g, t_end=0.99 * growth_horizon(rate), laplacian="spectral")
    with pytest.raises(ValueError, match="round-off"):
        PdeProblem(FULL_R1, g, t_end=1.01 * growth_horizon(rate), laplacian="spectral")
    PdeProblem(FULL_R1, g, t_end=1.01 * growth_horizon(rate), laplacian="spectral",
               allow_unstable=True)
    # v >= 1/2 grows at every wavenumber, whatever the horizon
    everything_grows = CanonicalCoefficients(a_xx=1.0, a_tt=1.0, v=0.75)
    with pytest.raises(ValueError, match="v >= 1/2"):
        PdeProblem(everything_grows, g, t_end=0.1)
    PdeProblem(everything_grows, g, t_end=0.1, allow_unstable=True)
    # with no growing mode any horizon is within budget
    assert growth_horizon(0.0) == math.inf


def test_problem_counts_every_array_before_making_any():
    # 2^26 points: the work arrays alone exceed the cap, and the plan says so
    # before it computes a single eigenvalue
    g = Grid(2**26, 2.0**25)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="bytes"):
            PdeProblem(FULL_R1, g, t_end=1.0, allow_unstable=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the stored rows count too: 2^14 points take 40 B a row each, so 2001
    # rows are refused and 1001 are not, whatever allow_unstable says
    g = Grid(2**14, 2.0**13)
    coeffs = CanonicalCoefficients(a_xx=1e-3, a_tt=1.0, v=0.0)
    with pytest.raises(ValueError, match="bytes"):
        PdeProblem(coeffs, g, t_end=2.0, dt=1e-3, snapshot_stride=1,
                   allow_unstable=True)
    prob = PdeProblem(coeffs, g, t_end=2.0, dt=1e-3, snapshot_stride=2)
    assert prob.n_bytes == kernels.run_bytes(2**14, 1001, 2) <= kernels.MAX_SAMPLE_BYTES


@pytest.mark.parametrize("a_tt", [0.0, 1.0])
def test_field_run_allocates_within_the_plan_bytes(a_tt):
    # the run's peak, stored samples included, stays within the plan's count
    # and near it, for one stored row to many and with a partial last stride
    g = Grid(4096, 2048.0)
    coeffs = CanonicalCoefficients(a_xx=1e-3, a_tt=a_tt, v=0.0)
    plans = [PdeProblem(coeffs, g, t_end=0.01 * n_steps, dt=0.01,
                        snapshot_stride=stride, laplacian="spectral")
             for n_steps, stride in ((1, 1), (10, 10), (1023, 1000), (7, 3), (65, 1),
                                     (129, 1))]
    if a_tt:
        # 206 rows of a small grid, where the temporaries of a block advanced
        # outweigh the read-out's magnitudes
        full = reduce_equation(EquationParameters(0.1, 0.0, EquationForm.FULL))
        plans += [PdeProblem(full, Grid(n, length), t_end=200.0, snapshot_stride=1,
                             min_steps=8) for n, length in ((64, 80.0), (32, 40.0))]
    for prob in plans:
        state = FieldState.uniform(prob.grid, 0.5, 0.25j)
        evolve(prob, state)  # warm-up, so FFT plans are cached
        tracemalloc.start()
        try:
            evolve(prob, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 * prob.n_bytes < peak <= prob.n_bytes


@settings(max_examples=200, deadline=None)
@given(horizon=st.floats(1e-6, 1e6), dt_max=st.floats(1e-6, 1e6),
       min_steps=st.integers(1, 32))
@example(horizon=500.0, dt_max=500.0 / (5e8 + 0.4), min_steps=1)
def test_step_plan_is_the_fewest_whole_steps(horizon, dt_max, min_steps):
    # an explicit dt, which allow_unstable leaves unchecked against the bound
    dt, n_steps = step_plan(FULL_R1, Grid(8, 10.0), horizon, dt_max,
                            allow_unstable=True, min_steps=min_steps)
    assert n_steps >= min_steps
    assert n_steps * dt == pytest.approx(horizon, rel=1e-12)
    whole = round(horizon / dt_max)
    if whole >= min_steps and abs(whole * dt_max - horizon) <= 1e-9 * max(dt_max, horizon):
        # dt_max divides the horizon to within 1e-9: that count is kept
        assert n_steps == whole
        return
    assert dt <= dt_max * (1.0 + 1e-12)
    # one step fewer would need a step above dt_max
    assert n_steps == min_steps or horizon / (n_steps - 1) > dt_max * (1.0 - 1e-12)


@settings(max_examples=300, deadline=None)
@given(t_end=st.floats(1e-6, 1e6), n=st.integers(1, 10**9))
def test_problem_keeps_the_step_count_an_explicit_dt_divides(t_end, n):
    # plain ceil(t / (t / n)) gives n + 1 for a few per cent of pairs
    coeffs = CanonicalCoefficients(a_xx=0.0, a_tt=1.0, v=0.0)
    prob = PdeProblem(coeffs, Grid(8, 10.0), t_end=t_end, dt=t_end / n,
                      snapshot_stride=n, allow_unstable=True)
    assert prob.n_steps == n
    assert prob.dt == t_end / n


# ----------------------------------------------------------------- evolve


def test_uniform_macroscopic_run_matches_free_solution():
    g = Grid(16, 10.0)
    coeffs = CanonicalCoefficients(a_xx=0.0, a_tt=1.0, v=0.0)
    state = FieldState.uniform(g, 0.0, 2.0j)
    prob = PdeProblem(coeffs, g, t_end=100.0, dt=4e-3,
                      snapshot_stride=2500)
    res = evolve(prob, state)
    spec = FreeSolutionSpec.zero_initial(1.0)
    exact = free_solution(spec, res.times)
    err = np.abs(res.psi - exact[:, None])
    assert np.max(err) < 1e-8


def test_uniform_field_equals_ode_everywhere():
    g = Grid(8, 10.0)
    psi0, phi0 = 0.3 + 0.1j, -0.2j
    state = FieldState.uniform(g, psi0, phi0)
    prob = PdeProblem(FULL_R1, g, t_end=2.0, dt=1e-3, snapshot_stride=100)
    res = evolve(prob, state)
    traj = integrate_uniform(TemporalState(psi0, phi0), 0.0, 2.0, 1e-3,
                             sample_stride=100)
    assert np.allclose(res.times, traj.times, rtol=0.0, atol=1e-12)
    diff = np.abs(res.psi - traj.psi[:, None])
    assert np.max(diff) < 1e-10
    # spread across grid points is zero: the field stays uniform
    assert np.max(np.abs(res.psi - res.psi[:, :1])) == 0.0


def test_single_mode_frequency_discrete_dispersion():
    # rogue-free grid (largest wavenumber is exactly the critical one) so a
    # long horizon of ten slow periods is safe
    g = Grid(32, 32.0 * math.pi)
    state, k, (_, omega_m) = plane_wave_state(g, 2, FULL_R1, "minus", "spectral")
    assert k == pytest.approx(0.125)
    period = 2.0 * math.pi / abs(omega_m.real)
    t_end = 10.0 * period
    dt = stability_dt(FULL_R1, g, 0.7, "spectral")
    n_steps = math.ceil(t_end / dt)
    prob = PdeProblem(FULL_R1, g, t_end=t_end, dt=t_end / n_steps,
                      snapshot_stride=max(1, n_steps // 512),
                      laplacian="spectral")
    res = evolve(prob, state)
    measured = fit_mode_frequency(res.times, mode_amplitudes(res.psi, 2))
    assert abs(measured - omega_m.real) / abs(omega_m.real) < 1e-3


def test_single_mode_frequency_stencil_vs_its_eigenvalue():
    # against the stencil operator's own eigenvalue the fit is near-exact
    g = Grid(32, 32.0 * math.pi)
    state, k, (_, omega_m) = plane_wave_state(g, 3, FULL_R1, "minus", "stencil")
    t_end = 40.0
    dt = stability_dt(FULL_R1, g, 0.7, "stencil")
    n_steps = math.ceil(t_end / dt)
    prob = PdeProblem(FULL_R1, g, t_end=t_end, dt=t_end / n_steps,
                      snapshot_stride=1, laplacian="stencil")
    res = evolve(prob, state)
    measured = fit_mode_frequency(res.times, mode_amplitudes(res.psi, 3))
    assert abs(measured - omega_m.real) / abs(omega_m.real) < 1e-6


def test_spatial_refinement_halves_frequency_error_twice():
    # stencil frequency error vs the exact branch drops ~4x when n doubles
    errors = []
    for n in (32, 64):
        g = Grid(n, 32.0 * math.pi)
        state, k, _ = plane_wave_state(g, 4, FULL_R1, "minus", "stencil")
        _, omega_exact = dispersion_branches(FULL_R1, k * k)
        t_end = 10.0
        dt = stability_dt(FULL_R1, g, 0.7, "stencil")
        n_steps = max(32, math.ceil(t_end / dt))
        prob = PdeProblem(FULL_R1, g, t_end=t_end, dt=t_end / n_steps,
                          snapshot_stride=1, laplacian="stencil")
        res = evolve(prob, state)
        measured = fit_mode_frequency(res.times, mode_amplitudes(res.psi, 4))
        errors.append(abs(measured - omega_exact.real))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)


def test_growth_above_critical_matches_plus_branch():
    # k = 1.2 k_crit: initialize the growing branch and fit the rate
    g = Grid(64, 10.0 * math.pi)
    state, k, (omega_p, _) = plane_wave_state(g, 6, FULL_R1, "plus", "spectral")
    assert k == pytest.approx(1.2)
    assert omega_p.imag > 0.0
    t_end = 3.5
    prob = PdeProblem(FULL_R1, g, t_end=t_end, dt=t_end / 64,
                      snapshot_stride=1, laplacian="spectral",
                      allow_unstable=True)
    res = evolve(prob, state)
    rate = fit_mode_growth(res.times, mode_amplitudes(res.psi, 6))
    assert rate == pytest.approx(omega_p.imag, rel=0.02)
    assert rate == pytest.approx(math.sqrt(1.2**2 - 1.0), rel=0.02)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=st.integers(2, 600), width=st.integers(1, 8), dt=st.floats(1e-3, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_fits_of_a_stack_equal_its_columns_fitted_alone(rows, width, dt, seed):
    # a (rows, K) stack gives K slopes, each its column's alone, and each the
    # least-squares line's slope as np.polyfit finds it
    rng = np.random.default_rng(seed)
    times = np.arange(rows) * dt
    exponents = rng.uniform(-0.1, 0.1, width) - 1j * rng.uniform(-3.0, 3.0, width)
    amps = (np.exp(exponents * times[:, None])
            * (1.0 + 1e-3 * rng.standard_normal((rows, width))))
    for fit, values in ((fit_mode_frequency, lambda a: -np.unwrap(np.angle(a))),
                        (fit_mode_growth, lambda a: np.log(np.abs(a)))):
        stack = fit(times, amps)
        assert stack.shape == (width,)
        for column, slope in zip(amps.T, stack):
            alone = fit(times, column)
            assert type(alone) is float
            assert abs(slope - alone) <= 1e-14 * abs(alone)
            y = values(column)
            scale = np.ptp(y) / times[-1] + abs(alone)
            assert abs(alone - np.polyfit(times, y, 1)[0]) <= 1e-12 * scale


def test_schrodinger_limit_deviation_scales_linearly():
    # scaling the second-time-derivative coefficient by eps pulls the
    # solution toward the first-order run proportionally to eps
    g = Grid(64, 64.0 * math.pi)
    psi0 = gaussian_packet(g, 8.0)
    t_end = 20.0

    def run(a_tt):
        coeffs = CanonicalCoefficients(a_xx=1.0, a_tt=a_tt, v=0.0)
        state = schrodinger_consistent_state(psi0, coeffs, "spectral")
        dt = stability_dt(coeffs, g, 0.7, "spectral")
        n_steps = math.ceil(t_end / dt)
        prob = PdeProblem(coeffs, g, t_end=t_end, dt=t_end / n_steps,
                          snapshot_stride=n_steps, laplacian="spectral")
        return evolve(prob, state).psi[-1]

    baseline = run(0.0)
    eps_values = np.array([1.0, 0.25, 0.0625])
    devs = np.array([np.max(np.abs(run(e) - baseline)) for e in eps_values])
    assert np.all(devs > 0.0)
    order = np.polyfit(np.log(eps_values), np.log(devs), 1)[0]
    assert order >= 0.9
    assert order == pytest.approx(1.0, abs=0.15)


def test_first_order_l2_conserved():
    g = Grid(256, 80.0)
    coeffs = CanonicalCoefficients(a_xx=1.0, a_tt=0.0, v=0.0)
    psi0 = gaussian_packet(g, 2.0)
    state = schrodinger_consistent_state(psi0, coeffs, "spectral")
    t_end = 2.0 * math.sqrt(3.0) * 4.0
    dt = stability_dt(coeffs, g, 0.7, "spectral")
    n_steps = math.ceil(t_end / dt)
    prob = PdeProblem(coeffs, g, t_end=t_end, dt=t_end / n_steps,
                      snapshot_stride=max(1, n_steps // 64),
                      laplacian="spectral")
    res = evolve(prob, state)
    l2_norm = np.sqrt(np.sum(np.abs(res.psi) ** 2, axis=1) * g.dx)
    assert np.max(np.abs(l2_norm - l2_norm[0])) < 1e-8


def test_full_form_logs_l2_without_asserting_conservation():
    g = Grid(32, 32.0 * math.pi)
    state, _, _ = plane_wave_state(g, 2, FULL_R1, "minus", "spectral")
    prob = PdeProblem(FULL_R1, g, t_end=5.0, dt=0.5,
                      snapshot_stride=1, laplacian="spectral")
    res = evolve(prob, state)
    # diagnostics exist and are finite for every snapshot; no conservation claim
    l2_norm = np.sqrt(np.sum(np.abs(res.psi) ** 2, axis=1) * g.dx)
    max_abs = np.abs(res.psi).max(axis=1)
    assert l2_norm.shape == max_abs.shape == res.times.shape
    assert np.all(np.isfinite(l2_norm)) and np.all(np.isfinite(max_abs))


def test_packet_width_follows_free_spreading_law():
    g = Grid(256, 80.0)
    coeffs = CanonicalCoefficients(a_xx=1.0, a_tt=0.0, v=0.0)
    sigma0 = 2.0
    psi0 = gaussian_packet(g, sigma0)
    state = schrodinger_consistent_state(psi0, coeffs, "spectral")
    t_end = 2.0 * math.sqrt(3.0) * sigma0**2  # width doubles here
    dt = stability_dt(coeffs, g, 0.7, "spectral")
    n_steps = math.ceil(t_end / dt)
    prob = PdeProblem(coeffs, g, t_end=t_end, dt=t_end / n_steps,
                      snapshot_stride=max(1, n_steps // 32),
                      laplacian="spectral")
    res = evolve(prob, state)
    for i in (0, len(res.times) // 2, len(res.times) - 1):
        measured = field_width(res.psi[i], g)
        expected = width_law(sigma0, 1.0, res.times[i])
        assert abs(measured - expected) / expected < 1e-3
    final = field_width(res.psi[-1], g)
    assert final == pytest.approx(2.0 * sigma0, rel=1e-3)


def test_blow_up_reports_time_and_mode():
    g = Grid(32, 40.0)
    state = FieldState.uniform(g, 0.0, 2.0j)
    # At dt = 2.82 a reduced run's bad row opens a read-out of the ring, so
    # its last good row was read out before it.
    for dt in (2.0, 2.82):
        prob = PdeProblem(FULL_R1, g, t_end=1000.0 * dt, dt=dt,
                          snapshot_stride=1, allow_unstable=True)
        with pytest.raises(BlowUpError) as info:
            evolve(prob, state)
        assert info.value.time > 0.0
        assert "k_hat" in info.value.detail
        # a reduced run reads rows from ring_rows - block_rows on only once
        # the ring has wrapped, and reports the same
        assert info.value.time / dt >= kernels.ring_rows(g.n) - kernels.block_rows(g.n)
        with pytest.raises(BlowUpError) as reduced:
            evolve(prob, state, reduce=lambda rows: rows[:, 0].copy())
        assert str(reduced.value) == str(info.value)


@pytest.mark.parametrize("a_tt", [0.0, 1.0])
def test_reduced_evolution_keeps_what_reduce_returns(a_tt):
    # every mode of this grid is stable, and 301 rows wrap the ring
    g = Grid(32, 128.0)
    coeffs = CanonicalCoefficients(a_xx=1.0, a_tt=a_tt, v=0.0)
    state = schrodinger_consistent_state(gaussian_packet(g, 8.0), coeffs, "spectral")
    prob = PdeProblem(coeffs, g, t_end=15.0, dt=0.05, snapshot_stride=1,
                      laplacian="spectral")
    whole = evolve(prob, state)
    reduced = evolve(prob, state, reduce=lambda rows: rows.copy())
    assert len(whole.times) > kernels.ring_rows(g.n)
    assert np.array_equal(reduced.times, whole.times)
    assert np.array_equal(reduced.psi, whole.psi)
    with pytest.raises(ValueError, match="reduced"):
        reduced.dpsi_dt


def test_evolution_is_deterministic():
    g = Grid(32, 40.0)
    psi0 = gaussian_packet(g, 4.0)
    state = schrodinger_consistent_state(psi0, FULL_R1, "spectral")
    state = spectral_filter(state, 0.9)
    prob = PdeProblem(FULL_R1, g, t_end=5.0, snapshot_stride=4,
                      laplacian="spectral")
    a = evolve(prob, state)
    b = evolve(prob, state)
    assert np.array_equal(a.psi, b.psi)
    assert np.array_equal(a.dpsi_dt, b.dpsi_dt)


def test_first_order_derivative_is_counted_when_made(monkeypatch):
    g = Grid(64, 40.0)
    coeffs = CanonicalCoefficients(a_xx=1.0, a_tt=0.0, v=0.0)
    state = schrodinger_consistent_state(gaussian_packet(g, 4.0), coeffs, "spectral")
    prob = PdeProblem(coeffs, g, t_end=1.0, snapshot_stride=1, laplacian="spectral")
    res = evolve(prob, state)
    # psi and its derivative together, as a second-order run counts them
    need = kernels.run_bytes(g.n, len(res.times), 2)
    monkeypatch.setattr(kernels, "MAX_SAMPLE_BYTES", need - 1)
    with pytest.raises(ValueError, match="derivative"):
        res.dpsi_dt
    monkeypatch.setattr(kernels, "MAX_SAMPLE_BYTES", need)
    assert np.array_equal(res.dpsi_dt[0], state.dpsi_dt.values)


# -------------------------------------------------------- spectral filter


def test_filter_keeps_band_limited_state():
    g = Grid(64, 40.0)
    x = g.xi()
    k1 = 2.0 * math.pi * 2 / g.length
    k2 = 2.0 * math.pi * 3 / g.length
    vals = np.exp(1j * k1 * x) + 0.5 * np.exp(1j * k2 * x)
    state = FieldState(ComplexField(vals, g), ComplexField(0.3 * vals, g))
    out = spectral_filter(state, k_cut=1.0)
    assert np.max(np.abs(out.psi.values - vals)) < 1e-12
    assert np.max(np.abs(out.dpsi_dt.values - 0.3 * vals)) < 1e-12


def test_filter_at_zero_keeps_only_the_mean():
    g = Grid(64, 40.0)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    state = FieldState(ComplexField(vals, g), ComplexField.constant(g, 0.0))
    out = spectral_filter(state, k_cut=0.0)
    mean = np.mean(vals)
    assert np.max(np.abs(out.psi.values - mean)) < 1e-12


def test_filtered_packet_evolves_bounded():
    # coarse grid keeps the round-off reseeded growth negligible over the run
    g = Grid(16, 40.0)
    psi0 = gaussian_packet(g, 2.0)
    state = schrodinger_consistent_state(psi0, FULL_R1, "spectral")
    state = spectral_filter(state, 0.5)  # half the critical wavenumber
    t_end = 10.0 * math.pi
    prob = PdeProblem(FULL_R1, g, t_end=t_end, snapshot_stride=1,
                      laplacian="spectral")
    res = evolve(prob, state)
    max_abs = np.abs(res.psi).max(axis=1)
    assert np.max(max_abs) <= 2.5 * max_abs[0]


def test_filter_rejects_negative_cut():
    g = Grid(16, 40.0)
    state = FieldState.uniform(g, 1.0, 0.0)
    with pytest.raises(ValueError):
        spectral_filter(state, -1.0)


# -------------------------------------------------- packet/state helpers


def test_gaussian_packet_is_normalized_and_centered():
    g = Grid(256, 80.0)
    psi = gaussian_packet(g, 2.0)
    l2 = math.sqrt(float(np.sum(np.abs(psi.values) ** 2) * g.dx))
    assert l2 == pytest.approx(1.0, rel=1e-10)
    assert field_width(psi.values, g) == pytest.approx(2.0, rel=1e-8)
    peak = g.xi()[int(np.argmax(np.abs(psi.values)))]
    assert peak == pytest.approx(g.length / 2.0, abs=g.dx)


def test_schrodinger_consistent_state_matches_slow_branch():
    # for a single mode the consistent derivative equals -i omega_minus psi
    # with omega_minus from the instantaneous (first-order) relation
    g = Grid(64, 40.0)
    x = g.xi()
    j = 3
    k = 2.0 * math.pi * j / g.length
    psi = ComplexField(np.exp(1j * k * x), g)
    state = schrodinger_consistent_state(psi, FULL_R1, "spectral")
    omega_schro = 0.5 * k * k
    want = -1j * omega_schro * psi.values
    assert np.max(np.abs(state.dpsi_dt.values - want)) < 1e-12
    # the stencil pairs each mode with its own eigenvalue, and v shifts it
    coeffs = CanonicalCoefficients(a_xx=1.0, a_tt=1.0, v=0.2)
    state = schrodinger_consistent_state(psi, coeffs, "stencil")
    lam = g.laplacian_eigenvalues("stencil")[j]
    want = -1j * (0.5 * lam + 0.2) * psi.values
    assert np.max(np.abs(state.dpsi_dt.values - want)) < 1e-12


def test_plane_wave_state_minus_branch_oscillates_without_growth():
    g = Grid(32, 32.0 * math.pi)
    state, k, (_, omega_m) = plane_wave_state(g, 2, FULL_R1, "minus", "spectral")
    prob = PdeProblem(FULL_R1, g, t_end=20.0, dt=0.5, snapshot_stride=1,
                      laplacian="spectral")
    res = evolve(prob, state)
    amps = np.abs(mode_amplitudes(res.psi, 2))
    assert np.max(np.abs(amps - 1.0)) < 1e-6


def test_plane_wave_state_validates_inputs():
    g = Grid(32, 40.0)
    with pytest.raises(ValueError):
        plane_wave_state(g, 17, FULL_R1)  # |j| > n/2
    with pytest.raises(ValueError):
        plane_wave_state(g, 2, FULL_R1, branch="sideways")


def test_width_law_values():
    assert width_law(2.0, 1.0, 0.0) == pytest.approx(2.0)
    t_double = 2.0 * math.sqrt(3.0) * 4.0
    assert width_law(2.0, 1.0, t_double) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError):
        width_law(-1.0, 1.0, 0.0)


def per_row_width(row, grid, center):
    """The width of one row written out: offsets, then w * d * d in order."""
    d = (grid.xi() - center + 0.5 * grid.length) % grid.length - 0.5 * grid.length
    w = np.abs(row) ** 2
    return math.sqrt(float((w * d * d).sum()) / float(w.sum()))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([8, 16, 64, 256, 2048]),
       rows=st.integers(1, 200),
       center=st.floats(-100.0, 100.0),
       scale=st.sampled_from([1e-150, 1e-5, 1.0, 1e5, 1e150]),
       seed=st.integers(0, 2**32 - 1))
def test_field_width_of_a_stack_equals_each_row_bit_for_bit(n, rows, center, scale,
                                                            seed):
    # rows reach past one block of kernels.block_rows(n) and end in a partial one
    grid = Grid(n, 37.0)
    rng = np.random.default_rng(seed)
    stack = scale * (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    widths = field_width(stack, grid, center)
    assert widths.shape == (rows,)
    for i in range(rows):
        want = per_row_width(stack[i], grid, center)
        assert field_width(stack[i], grid, center) == want
        assert widths[i] == want


def test_field_width_refuses_a_row_without_mass():
    grid = Grid(8, 8.0)
    stack = np.ones((70, 8), dtype=np.complex128)
    stack[67] = 0.0
    with pytest.raises(ValueError, match="no mass"):
        field_width(stack, grid)
