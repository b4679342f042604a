import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nsblab import kernels
from nsblab.analytic import CanonicalCoefficients, dispersion_branches
from nsblab.integrator import TemporalState, convergence_order, integrate_uniform
from nsblab.pde import (ComplexField, FieldState, Grid, PdeProblem, _mode_coefficients,
                        evolve, stability_dt)


def random_state(n, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    psi = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    phi = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return psi, phi


# --------------------------------------------------------------------------
# Reference: classical RK4 stepped in physical space, one stage at a time,
# with Laplacians built here, so it shares no code with the propagator.
# --------------------------------------------------------------------------


def _operator(n, dx, mode):
    """The periodic Laplacian: central differences, or -k^2 in Fourier space."""
    if mode == "spectral":
        neg_k2 = -(2.0 * np.pi * np.fft.fftfreq(n, d=dx)) ** 2
        return lambda a: np.fft.ifft(neg_k2 * np.fft.fft(a))
    inv_dx2 = 1.0 / (dx * dx)
    return lambda a: ((np.roll(a, 1) + np.roll(a, -1)) - 2.0 * a) * inv_dx2


def _zero_operator(a):
    return 0.0


def _check_snapshot(out_psi, out_phi, psi, phi, wrote):
    out_psi[wrote] = psi
    if out_phi is not None:
        out_phi[wrote] = phi
    m = np.abs(psi).max()
    if out_phi is not None:
        m = max(m, np.abs(phi).max())
    return not (m < kernels.BLOWUP_MAGNITUDE)


def _telegraph_rk4_numpy(lap, out_psi, out_phi, psi0, phi0, a_xx, inv_a_tt, v,
                         dt, n_steps, stride):
    psi = psi0.copy()
    phi = phi0.copy()
    half = 0.5 * dt
    sixth = dt / 6.0
    out_psi[0] = psi
    out_phi[0] = phi
    wrote = 1
    for step in range(n_steps):
        k1p = phi
        k1f = (2.0 * (v * psi - 1j * phi) - a_xx * lap(psi)) * inv_a_tt
        p = psi + half * k1p
        f = phi + half * k1f
        k2p = f
        k2f = (2.0 * (v * p - 1j * f) - a_xx * lap(p)) * inv_a_tt
        p = psi + half * k2p
        f = phi + half * k2f
        k3p = f
        k3f = (2.0 * (v * p - 1j * f) - a_xx * lap(p)) * inv_a_tt
        p = psi + dt * k3p
        f = phi + dt * k3f
        k4p = f
        k4f = (2.0 * (v * p - 1j * f) - a_xx * lap(p)) * inv_a_tt
        psi = psi + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        phi = phi + sixth * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
        s = step + 1
        if s % stride == 0 or s == n_steps:
            bad = _check_snapshot(out_psi, out_phi, psi, phi, wrote)
            wrote += 1
            if bad:
                return wrote, True
    return wrote, False


def _schrodinger_rk4_numpy(lap, out_psi, psi0, half_a_xx, v, dt, n_steps, stride):
    psi = psi0.copy()
    half = 0.5 * dt
    sixth = dt / 6.0
    out_psi[0] = psi
    wrote = 1
    for step in range(n_steps):
        k1 = 1j * (half_a_xx * lap(psi) - v * psi)
        p = psi + half * k1
        k2 = 1j * (half_a_xx * lap(p) - v * p)
        p = psi + half * k2
        k3 = 1j * (half_a_xx * lap(p) - v * p)
        p = psi + dt * k3
        k4 = 1j * (half_a_xx * lap(p) - v * p)
        psi = psi + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = step + 1
        if s % stride == 0 or s == n_steps:
            bad = _check_snapshot(out_psi, None, psi, None, wrote)
            wrote += 1
            if bad:
                return wrote, True
    return wrote, False


def reference_second_order(psi0, phi0, a_xx, a_tt, v, dx, dt, n_steps, stride,
                           laplacian):
    steps = kernels.sample_steps(n_steps, stride)
    out_psi = np.empty((len(steps), len(psi0)), dtype=np.complex128)
    out_phi = np.empty_like(out_psi)
    # Without a spatial term the operator drops out; skipping it keeps the
    # one-point runs below fast.
    lap = _operator(len(psi0), dx, laplacian) if a_xx else _zero_operator
    wrote, _ = _telegraph_rk4_numpy(lap, out_psi, out_phi, psi0, phi0, a_xx,
                                    1.0 / a_tt, v, dt, n_steps, stride)
    return out_psi[:wrote], out_phi[:wrote], steps[:wrote]


def reference_first_order(psi0, a_xx, v, dx, dt, n_steps, stride, laplacian):
    steps = kernels.sample_steps(n_steps, stride)
    out_psi = np.empty((len(steps), len(psi0)), dtype=np.complex128)
    lap = _operator(len(psi0), dx, laplacian)
    wrote, _ = _schrodinger_rk4_numpy(lap, out_psi, psi0, 0.5 * a_xx, v, dt,
                                      n_steps, stride)
    psis = out_psi[:wrote]
    phis = np.array([1j * (0.5 * a_xx * lap(p) - v * p) for p in psis])
    return psis, phis, steps[:wrote]


def reference_uniform(psi0, phi0, v, dt, n_steps, stride):
    """The uniform system: the second-order reference on a one-point grid
    with a_xx = 0 and a_tt = 1."""
    psis, phis, steps = reference_second_order(
        np.array([psi0], dtype=np.complex128), np.array([phi0], dtype=np.complex128),
        0.0, 1.0, v, 1.0, dt, n_steps, stride, "stencil")
    return psis[:, 0], phis[:, 0], steps


# --------------------------------------------------------------------------
# Kernel runs, handed the coefficients ``evolve`` derives.
# --------------------------------------------------------------------------


def mode_coefficients(a_xx, a_tt, v, n, dx, laplacian):
    """(b, c), or (rate, None) in the first-order limit, of each mode of the
    n-point grid of spacing dx, as ``evolve`` derives them."""
    lam = Grid(n, n * dx).laplacian_eigenvalues(laplacian)
    return _mode_coefficients(CanonicalCoefficients(a_xx=a_xx, a_tt=a_tt, v=v), lam)


def uniform_coefficients(v):
    """(b, c) of the uniform system: one point, a_xx = 0 and a_tt = 1."""
    return _mode_coefficients(CanonicalCoefficients(a_xx=0.0, a_tt=1.0, v=v),
                              np.zeros(1))


def run_first_order(psi0, a_xx, v, dx, dt, n_steps, stride, laplacian):
    """The first-order kernel's run as (psis, dpsis_dt, steps, blow_slot), the
    order the reference returns, with the derivative made from the rows."""
    rate, _ = mode_coefficients(a_xx, 0.0, v, len(psi0), dx, laplacian)
    psis, steps, blow = kernels.run_field_first_order(psi0, rate, dt, n_steps,
                                                      stride)
    with np.errstate(all="ignore"):  # a blown-up row's derivative overflows
        dpsis = kernels.first_order_derivative(psis, rate)
    return psis, dpsis, steps, blow


def run_second_order(psi0, phi0, a_xx, a_tt, v, dx, dt, n_steps, stride,
                     laplacian):
    """The second-order kernel's run as (psis, dpsis_dt, steps, blow_slot)."""
    b, c = mode_coefficients(a_xx, a_tt, v, len(psi0), dx, laplacian)
    return kernels.run_field_second_order(psi0, phi0, b, c, dt, n_steps, stride)


def reference_blow_slot(psis, phis):
    """Index of the first row whose psi or dpsi_dt is bad, else -1."""
    for i, (psi, phi) in enumerate(zip(psis, phis)):
        if not max(np.abs(psi).max(), np.abs(phi).max()) < kernels.BLOWUP_MAGNITUDE:
            return i
    return -1


def assert_close(got, want, rel=1e-11):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want))


# --------------------------------------------------------------------------
# Layout and operators.
# --------------------------------------------------------------------------


def test_sample_steps_layout():
    assert list(kernels.sample_steps(0, 1)) == [0]
    assert list(kernels.sample_steps(0, 7)) == [0]
    assert list(kernels.sample_steps(10, 1)) == list(range(11))
    assert list(kernels.sample_steps(10, 4)) == [0, 4, 8, 10]
    assert list(kernels.sample_steps(12, 4)) == [0, 4, 8, 12]
    big = kernels.MAX_STEPS - 1
    assert list(kernels.sample_steps(big, 2**62)) == [0, 2**62, big]
    for n_steps, stride in ((0, 1), (10, 4), (12, 4), (7, 3), (1000, 7)):
        assert kernels.sample_rows(n_steps, stride) == len(
            kernels.sample_steps(n_steps, stride))
    assert kernels.sample_rows(big, 2**62) == 3
    for bad in ((-1, 1), (5, 0)):
        with pytest.raises(ValueError):
            kernels.sample_steps(*bad)
        with pytest.raises(ValueError):
            kernels.sample_rows(*bad)


def test_stored_samples_are_capped_before_allocation():
    # a one-point run counts 64 B a stored row, 280 B of work arrays, and is
    # refused above the cap whatever the stride
    assert kernels.run_bytes(1, 10, 2) == 10 * 64 + 280
    rows = (kernels.MAX_SAMPLE_BYTES - 280) // 64
    kernels.check_bytes(kernels.run_bytes(1, rows, 2), "x")
    with pytest.raises(ValueError, match="bytes"):
        kernels.check_bytes(kernels.run_bytes(1, rows + 1, 2), "x")
    for n_steps, stride, points in [(rows, 1, 1), (2 * rows, 2, 1), (rows // 2, 1, 4),
                                    (-1, 1, 1), (5, 0, 1)]:
        with pytest.raises(ValueError):
            kernels._run_field(np.zeros(points), 0.0, (np.zeros(points),) * 2,
                               1e-3, n_steps, stride)
    with pytest.raises(ValueError, match="bytes"):  # 64 TB of arrays
        kernels.run_uniform(0.0j, 2.0j, *uniform_coefficients(0.0), 1e-3, 10**12, 1)


@pytest.mark.parametrize("n_steps,stride", [(1000, 1), (10000, 10), (9999, 7),
                                            (65536, 1), (300000, 3)])
def test_uniform_run_allocates_within_the_run_bytes(n_steps, stride):
    # the one-point run's peak, the blow-up scan and the trajectory's times
    # included, stays within the count and near it
    need = kernels.run_bytes(1, kernels.sample_rows(n_steps, stride), 2)
    b, c = uniform_coefficients(0.0)
    runs = (lambda: kernels.run_uniform(0.0j, 2.0j, b, c, 1e-3, n_steps, stride),
            lambda: integrate_uniform(TemporalState(0.0j, 2.0j), 0.0,
                                      n_steps * 1e-3, 1e-3, stride))
    for run in runs:
        run()  # warm-up
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 * need < peak <= need


def test_stencil_laplacian_constant_is_zero():
    n, dx = 16, 0.5
    vals = np.full(n, 2.0 - 1.0j)
    assert np.max(np.abs(_operator(n, dx, "stencil")(vals))) == 0.0
    assert Grid(n, n * dx).laplacian_eigenvalues("stencil")[0] == 0.0


def assert_plane_waves_are_eigenvectors(mode, modes):
    # exp(i k_j xi) is an eigenvector of the operator, with eigenvalue -lam[j]
    n, length = 64, 8.0
    dx = length / n
    x = np.arange(n) * dx
    lam = Grid(n, length).laplacian_eigenvalues(mode)
    for j in modes:
        wave = np.exp(1j * 2.0 * np.pi * j / length * x)
        out = _operator(n, dx, mode)(wave)
        eig = lam[j % n]
        assert eig > 0.0
        assert np.max(np.abs(out + eig * wave)) < 1e-11 * eig


def test_stencil_laplacian_mode_eigenvalue():
    assert_plane_waves_are_eigenvectors("stencil", (1, 3, 7, -5, 32))


def test_spectral_laplacian_mode_eigenvalue():
    assert_plane_waves_are_eigenvectors("spectral", (1, 5, -9, 32))


def test_laplacian_eigenvalues_rejects_unknown_mode():
    with pytest.raises(ValueError):
        Grid(16, 8.0).laplacian_eigenvalues("foo")


# --------------------------------------------------------------------------
# Propagator against the reference.
# --------------------------------------------------------------------------

# a_xx = 0.05, v = 0.1 put the critical wavenumber at 4; with dx = 1 every
# mode of either Laplacian is below it, so no mode grows from round-off.
A_XX, V, DX, N = 0.05, 0.1, 1.0, 64


# A stride that divides n_steps, one that leaves a remainder, one longer
# than the run, an empty run, and two runs whose samples fill more than two
# capped blocks of dense output (the second ends with a partial stride).
STRIDE_CASES = [(120, 30), (120, 7), (120, 500), (0, 5), (1000, 1), (1000, 7)]


def assert_matches(got, want):
    assert got[3] == -1
    assert np.array_equal(got[2], want[2])
    assert_close(got[0], want[0])
    assert_close(got[1], want[1])


@pytest.mark.parametrize("n_steps,stride", STRIDE_CASES)
def test_uniform_kernel_matches_reference(n_steps, stride):
    psi, phi = 0.3 - 0.1j, 0.2j
    assert_matches(kernels.run_uniform(psi, phi, *uniform_coefficients(0.2), 0.05,
                                       n_steps, stride),
                   reference_uniform(psi, phi, 0.2, 0.05, n_steps, stride))


@pytest.mark.parametrize("n_steps,stride", STRIDE_CASES)
@pytest.mark.parametrize("laplacian", ["stencil", "spectral"])
@pytest.mark.parametrize("order", ["first", "second"])
def test_propagator_matches_reference(order, laplacian, n_steps, stride):
    psi, phi = random_state(N, 7)
    if order == "second":
        coeffs = CanonicalCoefficients(a_xx=A_XX, a_tt=1.0, v=V)
        dt = stability_dt(coeffs, Grid(N, N * DX), 0.9, laplacian)
        got = run_second_order(psi, phi, A_XX, 1.0, V, DX, dt, n_steps, stride,
                               laplacian)
        want = reference_second_order(psi, phi, A_XX, 1.0, V, DX, dt,
                                      n_steps, stride, laplacian)
    else:
        coeffs = CanonicalCoefficients(a_xx=A_XX, a_tt=0.0, v=V)
        dt = stability_dt(coeffs, Grid(N, N * DX), 0.9, laplacian)
        got = run_first_order(psi, A_XX, V, DX, dt, n_steps, stride, laplacian)
        want = reference_first_order(psi, A_XX, V, DX, dt, n_steps, stride,
                                     laplacian)
    assert_matches(got, want)


@settings(max_examples=60, deadline=None)
@given(order=st.sampled_from(["first", "second", "uniform"]),
       laplacian=st.sampled_from(["stencil", "spectral"]),
       n=st.sampled_from([8, 16, 32, 64]),
       dx_scale=st.floats(1.1, 3.0),
       r=st.floats(0.5, 2.0),
       v=st.floats(-0.5, 0.49),
       safety=st.floats(0.1, 1.0),
       n_steps=st.integers(0, 400),
       stride=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1))
def test_propagator_matches_reference_property(order, laplacian, n, dx_scale, r,
                                               v, safety, n_steps, stride, seed):
    # dx at least pi / k_crit keeps every mode of either Laplacian stable.
    # The uniform case is the one-point grid without a spatial term.
    dx = dx_scale * np.pi / np.sqrt((1.0 - 2.0 * v) / r)
    a_xx = 0.0 if order == "uniform" else r
    a_tt = 0.0 if order == "first" else 1.0
    coeffs = CanonicalCoefficients(a_xx=a_xx, a_tt=a_tt, v=v)
    dt = stability_dt(coeffs, Grid(n, n * dx), safety, laplacian)
    psi, phi = random_state(n, seed)
    if order == "uniform":
        got = kernels.run_uniform(psi[0], phi[0], *uniform_coefficients(v), dt,
                                  n_steps, stride)
        want = reference_uniform(psi[0], phi[0], v, dt, n_steps, stride)
    elif order == "second":
        got = run_second_order(psi, phi, r, 1.0, v, dx, dt, n_steps, stride,
                               laplacian)
        want = reference_second_order(psi, phi, r, 1.0, v, dx, dt, n_steps,
                                      stride, laplacian)
    else:
        got = run_first_order(psi, r, v, dx, dt, n_steps, stride, laplacian)
        want = reference_first_order(psi, r, v, dx, dt, n_steps, stride,
                                     laplacian)
    assert np.array_equal(got[2], kernels.sample_steps(n_steps, stride))
    assert_matches(got, want)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(k=st.integers(1, 8), data=st.data(), dt_scale=st.floats(0.05, 10.0),
       n_steps=st.integers(1, 200), stride=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_batched_uniform_run_matches_its_one_point_runs(k, data, dt_scale, n_steps,
                                                        stride, seed):
    # K systems side by side stop at the first row where any is bad, the
    # earliest of their own runs' slots.  b > 1 grows, and dt up to ten
    # times the fastest system's stability bound blows up from a few rows to
    # none in 200 steps, so the slots fall anywhere.
    b = np.array(data.draw(st.lists(st.floats(-20.0, 4.0), min_size=k, max_size=k)))
    # the eigenvalues of [[0, 1], [b, -2i]] are -i +- sqrt(b - 1)
    dt = dt_scale * kernels.RK4_IMAGINARY_STABILITY / (1.0 + np.sqrt(np.abs(b - 1.0)).max())
    psi0, phi0 = random_state(k, seed, scale=1.0)
    _, c = uniform_coefficients(0.0)
    psis, phis, steps, blow = kernels.run_uniform(psi0, phi0, b, c, dt, n_steps, stride)
    alone = [kernels.run_uniform(psi0[i], phi0[i], b[i], c, dt, n_steps, stride)
             for i in range(k)]
    assert blow == min((run[3] for run in alone if run[3] >= 0), default=-1)
    rows = blow + 1 if blow >= 0 else kernels.sample_rows(n_steps, stride)
    assert psis.shape == phis.shape == (rows, k)
    assert np.array_equal(steps, kernels.sample_steps(n_steps, stride)[:rows])
    # Rows before the slot agree to round-off, not bit for bit: numpy forms
    # a complex product of one-element operands by another inner loop than
    # one over K points, and the two round differently.  The tolerance is a
    # few thousand ulps of each system's largest value so far.
    good = rows - (blow >= 0)
    for i, (psi, phi, _, _) in enumerate(alone):
        scale = np.maximum.accumulate(np.maximum(np.abs(psi[:good]), np.abs(phi[:good])))
        assert np.all(np.abs(psis[:good, i] - psi[:good]) <= 1e-12 * scale)
        assert np.all(np.abs(phis[:good, i] - phi[:good]) <= 1e-12 * scale)
    one = kernels.run_uniform(psi0[:1], phi0[:1], b[:1], c, dt, n_steps, stride)
    assert one[0][:, 0].tobytes() == alone[0][0].tobytes()  # K = 1 is the scalar run
    assert one[1][:, 0].tobytes() == alone[0][1].tobytes()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(order=st.sampled_from(["first", "second"]),
       n=st.sampled_from([1, 2, 8, 32]),
       dx=st.floats(0.2, 4.0),
       r=st.floats(0.1, 2.0),
       v=st.floats(-0.5, 0.7),
       stride=st.integers(1, 5),
       n_steps=st.integers(0, 700),
       whole_strides=st.booleans(),
       dt_scale=st.floats(0.05, 2.0),
       seed=st.integers(0, 2**32 - 1))
# rows that wrap the ring more than once and end in a partial stride, and
# runs that blow up after the first wrap
@example("second", 8, 1.0, 1.0, 0.0, 2, 699, False, 0.5, 1)
@example("first", 32, 1.0, 1.0, 0.0, 1, 700, False, 1.3, 0)
@example("second", 32, 1.0, 1.0, 0.0, 1, 700, False, 1.0, 0)
def test_reduced_run_equals_the_materialised_run(order, n, dx, r, v, stride, n_steps,
                                                  whole_strides, dt_scale, seed):
    # Rows are read out of a ring of kernels.ring_rows(n) slots as the run goes;
    # up to 701 rows wrap it twice.  Up to twice the stability bound, the
    # doubling cap and the blow-up slot fall anywhere.
    if whole_strides:
        n_steps -= n_steps % stride
    coeffs = CanonicalCoefficients(a_xx=r, a_tt=1.0 if order == "second" else 0.0, v=v)
    lam = (2.0 * np.pi * np.fft.fftfreq(n, d=dx)) ** 2
    omegas = np.concatenate([np.atleast_1d(w) for w in dispersion_branches(coeffs, lam)])
    fastest = np.max(np.abs(omegas.real) + np.abs(omegas.imag))
    assume(fastest > 0.0)  # one point at v = 0 in the first-order limit is at rest
    dt = dt_scale * kernels.RK4_IMAGINARY_STABILITY / fastest
    b, c = _mode_coefficients(coeffs, lam)
    psi, phi = random_state(n, seed)
    if order == "second":
        args = (psi, phi, b, c, dt, n_steps, stride)
        run = kernels.run_field_second_order
    else:
        args = (psi, b, dt, n_steps, stride)
        run = kernels.run_field_first_order
    whole = run(*args)
    reduced = run(*args, reduce=lambda rows: rows.copy())
    assert whole[0].shape == reduced[0].shape
    assert whole[0].tobytes() == reduced[0].tobytes()
    assert np.array_equal(whole[-2], reduced[-2])
    assert whole[-1] == reduced[-1]
    if order == "second":
        assert reduced[1] is None


def test_reduced_run_counts_what_reduce_keeps():
    # the ring is counted before it is allocated, and what a row keeps once
    # the first rows are reduced: here 16 MiB a row, viewed, not allocated
    rate, _ = mode_coefficients(A_XX, 0.0, V, N, DX, "stencil")
    psi, _ = random_state(N, 8)
    need = kernels.run_bytes(N, 1001, 1, kept=16)
    assert need == kernels.ring_rows(N) * 24 * N + 1001 * (24 + 32) + 120 * N
    psis, steps, blow = kernels.run_field_first_order(
        psi, rate, 0.01, 1000, reduce=lambda rows: rows[:, 0].copy())
    assert blow == -1 and psis.shape == steps.shape == (1001,)
    with pytest.raises(ValueError, match="reduced"):
        kernels.run_field_first_order(
            psi, rate, 0.01, 1000,
            reduce=lambda rows: np.broadcast_to(0j, (len(rows), 2**20)))


def test_field_kernel_shapes_and_steps():
    psi, phi = random_state(16, 1)
    snap_psi, snap_phi, steps, blow = kernels.run_field_second_order(
        psi, phi, *mode_coefficients(0.1, 1.0, 0.0, 16, 0.5, "stencil"), 0.01, 100,
        stride=30)
    assert blow == -1
    assert list(steps) == [0, 30, 60, 90, 100]
    assert snap_psi.shape == (5, 16)
    assert snap_phi.shape == (5, 16)
    assert np.array_equal(snap_psi[0], psi)


def test_rerun_is_bit_identical():
    psi, phi = random_state(32, 4)
    args = (psi, phi, *mode_coefficients(0.05, 1.0, 0.0, 32, 0.5, "stencil"), 0.01,
            200)
    a = kernels.run_field_second_order(*args, stride=50)
    b = kernels.run_field_second_order(*args, stride=50)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_clean_first_order_run_transforms_its_rows_back_once(monkeypatch):
    # every row is cleared by the bound on its derivative, so none is formed
    calls = []
    ifft = np.fft.ifft

    def counted(*args, **kwargs):
        calls.append(args)
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    psi, _ = random_state(N, 2)
    rate, _ = mode_coefficients(A_XX, 0.0, V, N, DX, "spectral")
    psis, steps, blow = kernels.run_field_first_order(psi, rate, 0.5, 1000, 7)
    assert blow == -1 and len(psis) == len(steps) == 144
    assert len(calls) == 1


def test_first_order_evolution_steps_psi_alone():
    psi, _ = random_state(N, 5)
    coeffs = CanonicalCoefficients(a_xx=A_XX, a_tt=0.0, v=V)
    plan = PdeProblem(coeffs, Grid(N, N * DX), t_end=60.0, snapshot_stride=9,
                      laplacian="stencil")
    field = ComplexField(psi, plan.grid)
    result = evolve(plan, FieldState(field, field))
    assert result.dpsi_dt is None
    want = reference_first_order(psi, A_XX, V, DX, plan.dt, plan.n_steps,
                                 plan.snapshot_stride, "stencil")
    assert_close(result.psi, want[0])
    # the derivative is one call on the rows and the rates
    rate, _ = mode_coefficients(A_XX, 0.0, V, N, DX, "stencil")
    assert_close(kernels.first_order_derivative(result.psi, rate), want[1])


def test_clean_second_order_evolution_makes_two_inverse_ffts(monkeypatch):
    # every derivative row is cleared by the bound on its spectrum, so the
    # run transforms the psi rows and the derivative rows back once each
    calls = []
    ifft = np.fft.ifft

    def counted(*args, **kwargs):
        calls.append(args)
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    psi, phi = random_state(N, 6)
    coeffs = CanonicalCoefficients(a_xx=A_XX, a_tt=1.0, v=V)
    plan = PdeProblem(coeffs, Grid(N, N * DX), t_end=60.0, snapshot_stride=9,
                      laplacian="stencil")
    initial = FieldState(ComplexField(psi, plan.grid), ComplexField(phi, plan.grid))
    result = evolve(plan, initial)
    assert len(calls) == 2
    assert np.array_equal(result.dpsi_dt[0], phi)
    want = reference_second_order(psi, phi, A_XX, 1.0, V, DX, plan.dt,
                                  plan.n_steps, plan.snapshot_stride, "stencil")
    assert_close(result.psi, want[0])
    assert_close(result.dpsi_dt, want[1])


# --------------------------------------------------------------------------
# Propagator against the exact semi-discrete solution.  Mode k evolves as
# y' = A_k y, so the exact run is exp(t A_k) mode by mode: e^(rate t) in the
# first-order limit, and for the companion matrix A_k = [[0, 1], [b_k, c]]
# exp(t A_k) = alpha I + beta A_k (Cayley-Hamilton), with the eigenvalues
# -i omega of ``dispersion_branches``.
# --------------------------------------------------------------------------


def exact_run(coeffs, lam, psi0, phi0, times):
    """(psi, dpsi_dt) rows at ``times`` under exp(t A_k), for Laplacian
    eigenvalues ``lam``; ``phi0`` is ignored in the first-order limit."""
    t = np.asarray(times, dtype=float)[:, None]
    psi_hat = np.fft.fft(psi0)
    if coeffs.a_tt == 0.0:
        rate = -1j * dispersion_branches(coeffs, lam)[1]
        psi_hat = np.exp(rate * t) * psi_hat
        return np.fft.ifft(psi_hat, axis=-1), np.fft.ifft(rate * psi_hat, axis=-1)
    phi_hat = np.fft.fft(phi0)
    b = (2.0 * coeffs.v + coeffs.a_xx * lam) / coeffs.a_tt
    c = -2j / coeffs.a_tt
    plus, minus = dispersion_branches(coeffs, lam)
    l1, l2 = -1j * np.asarray(plus), -1j * np.asarray(minus)
    e1, e2 = np.exp(l1 * t), np.exp(l2 * t)
    # At a double root exp(tA) = (I + t (A - l I)) e^(l t).
    double = l1 == l2
    gap = np.where(double, 1.0, l1 - l2)
    beta = np.where(double, t * e1, (e1 - e2) / gap)
    alpha = np.where(double, (1.0 - t * l1) * e1, (l1 * e2 - l2 * e1) / gap)
    return (np.fft.ifft(alpha * psi_hat + beta * phi_hat, axis=-1),
            np.fft.ifft(beta * b * psi_hat + (alpha + beta * c) * phi_hat, axis=-1))


def charge(coeffs, psi, phi, dx):
    """Q = sum(|psi|^2 + a_tt Im(conj(psi) psi_t)) dx of each row, which the
    equation conserves for real v."""
    density = np.abs(psi) ** 2 + coeffs.a_tt * np.imag(np.conj(psi) * phi)
    return density.sum(axis=-1) * dx


def energy(coeffs, lam, psi, phi, dx):
    """(E, scale) of each row: E = (dx/n) sum_k [a_tt |Phi_k|^2 -
    (a_xx lam_k + 2 v) |Psi_k|^2] over the spectra Psi, Phi of psi and
    psi_t, which the equation conserves for real v, and the same sum with
    a_tt |Phi_k|^2 + (a_xx lam_k + 2 |v|) |Psi_k|^2, a positive scale."""
    per_point = dx / psi.shape[-1]
    kinetic = coeffs.a_tt * np.abs(np.fft.fft(phi, axis=-1)) ** 2
    potential = np.abs(np.fft.fft(psi, axis=-1)) ** 2
    e = (kinetic - (coeffs.a_xx * lam + 2.0 * coeffs.v) * potential).sum(axis=-1)
    scale = (kinetic + (coeffs.a_xx * lam + 2.0 * abs(coeffs.v)) * potential).sum(axis=-1)
    return e * per_point, scale * per_point


ORACLE_DTS = (0.2, 0.1, 0.05)
ORACLE_HORIZON = 400.0


def check_against_exact(run, coeffs, lam, psi0, phi0, dx):
    """``run(dt, n_steps, stride)`` -> (psi rows, dpsi_dt rows, steps) is
    fourth order against the exact run, and its charge and energy drifts
    each fall at least 16x per halving of dt; the exact run keeps both to
    round-off."""
    errors, drifts, energy_drifts = [], [], []
    for dt in ORACLE_DTS:
        n_steps = round(ORACLE_HORIZON / dt)
        psi, phi, steps = run(dt, n_steps, n_steps // 8)
        want_psi, want_phi = exact_run(coeffs, lam, psi0, phi0, steps * dt)
        exact_q = charge(coeffs, want_psi, want_phi, dx)
        assert np.abs(exact_q - exact_q[0]).max() < 1e-9 * abs(exact_q[0])
        exact_e, scale = energy(coeffs, lam, want_psi, want_phi, dx)
        assert np.abs(exact_e - exact_e[0]).max() < 1e-9 * scale[0]
        errors.append((dt, float(np.abs(psi - want_psi).max())))
        q = charge(coeffs, psi, phi, dx)
        drifts.append(float(np.abs(q - q[0]).max()))
        e = energy(coeffs, lam, psi, phi, dx)[0]
        energy_drifts.append(float(np.abs(e - e[0]).max()))
    assert convergence_order(errors) >= 3.8
    for d in (drifts, energy_drifts):
        assert all(coarse >= 16.0 * fine for coarse, fine in zip(d, d[1:]))


@pytest.mark.parametrize("laplacian", ["stencil", "spectral"])
@pytest.mark.parametrize("order", ["first", "second"])
def test_field_kernel_converges_to_the_exact_propagator(order, laplacian):
    # r = v = 0.1 keeps every mode of either Laplacian below the critical
    # wavenumber; phi0 excites the fast branch as well as the slow one.
    n, dx = 128, 1.25
    x = np.arange(n) * dx
    psi0 = np.exp(-((x - 80.0) / 6.0) ** 2 + 0.8j * x)
    phi0 = 0.5j * psi0
    coeffs = CanonicalCoefficients(a_xx=0.1, a_tt=0.0 if order == "first" else 1.0,
                                   v=0.1)
    lam = Grid(n, n * dx).laplacian_eigenvalues(laplacian)

    def run(dt, n_steps, stride):
        if order == "first":
            psi, phi, steps, blow = run_first_order(
                psi0, coeffs.a_xx, coeffs.v, dx, dt, n_steps, stride, laplacian)
        else:
            psi, phi, steps, blow = run_second_order(
                psi0, phi0, coeffs.a_xx, coeffs.a_tt, coeffs.v, dx, dt, n_steps,
                stride, laplacian)
        assert blow == -1
        return psi, phi, steps

    check_against_exact(run, coeffs, lam, psi0, phi0, dx)


@pytest.mark.parametrize("v", [0.1, 0.5])
def test_uniform_kernel_converges_to_the_exact_propagator(v):
    # v = 1/2 is the uniform system's double root
    coeffs = CanonicalCoefficients(a_xx=0.0, a_tt=1.0, v=v)
    psi0, phi0 = np.array([0.3 + 0.0j]), np.array([2.0j])

    def run(dt, n_steps, stride):
        psi, phi, steps, blow = kernels.run_uniform(
            psi0[0], phi0[0], *uniform_coefficients(v), dt, n_steps, stride)
        assert blow == -1
        return psi[:, None], phi[:, None], steps

    check_against_exact(run, coeffs, np.zeros(1), psi0, phi0, 1.0)


# --------------------------------------------------------------------------
# Blow-up truncation.
# --------------------------------------------------------------------------


def test_uniform_kernel_blow_up_slot():
    psis, phis, steps, blow = kernels.run_uniform(0.0j, 2.0j, *uniform_coefficients(0.0),
                                                  2.0, 5000, 1)
    assert blow >= 1
    last = psis[blow]
    assert not np.isfinite(last) or abs(last) >= kernels.BLOWUP_MAGNITUDE
    with np.errstate(all="ignore"):  # the reference overflows as it blows up
        want = reference_uniform(0.0j, 2.0j, 0.0, 2.0, 5000, 1)
    assert blow == reference_blow_slot(want[0], want[1])
    assert np.array_equal(steps, want[2][:blow + 1])
    assert_close(psis[:blow], want[0][:blow])
    assert_close(phis[:blow], want[1][:blow])


def run_both(order, laplacian, psi, phi, dx, dt, n_steps, stride):
    """(kernel output, reference output) for one run of a_xx = 1, v = 0."""
    if order == "second":
        got = run_second_order(psi, phi, 1.0, 1.0, 0.0, dx, dt, n_steps, stride,
                               laplacian)
        with np.errstate(all="ignore"):  # the reference overflows as it blows up
            want = reference_second_order(psi, phi, 1.0, 1.0, 0.0, dx, dt,
                                          n_steps, stride, laplacian)
    else:
        got = run_first_order(psi, 1.0, 0.0, dx, dt, n_steps, stride, laplacian)
        with np.errstate(all="ignore"):
            want = reference_first_order(psi, 1.0, 0.0, dx, dt, n_steps, stride,
                                         laplacian)
    return got, want


@pytest.mark.parametrize("laplacian", ["stencil", "spectral"])
@pytest.mark.parametrize("order", ["first", "second"])
def test_field_kernel_truncates_at_first_bad_row(order, laplacian):
    n, dx, stride = 32, 0.5, 7
    psi, phi = random_state(n, 9)
    a_tt = 1.0 if order == "second" else 0.0
    coeffs = CanonicalCoefficients(a_xx=1.0, a_tt=a_tt, v=0.0)
    dt = 3.0 * stability_dt(coeffs, Grid(n, n * dx), 1.0, laplacian)
    (psis, phis, steps, blow), want = run_both(order, laplacian, psi, phi, dx,
                                               dt, 2000, stride)
    assert blow >= 1
    assert blow == reference_blow_slot(want[0], want[1])
    assert len(psis) == len(phis) == len(steps) == blow + 1
    assert list(steps) == list(kernels.sample_steps(2000, stride)[:blow + 1])
    row = np.concatenate([psis[blow], phis[blow]])
    assert not np.all(np.isfinite(row)) or np.abs(row).max() >= kernels.BLOWUP_MAGNITUDE
    earlier = np.concatenate([psis[:blow], phis[:blow]])
    assert np.all(np.isfinite(earlier))
    assert np.abs(earlier).max() < kernels.BLOWUP_MAGNITUDE


@pytest.mark.parametrize("factor", [50.0, 250.0])
@pytest.mark.parametrize("laplacian", ["stencil", "spectral"])
@pytest.mark.parametrize("order", ["first", "second"])
def test_tiny_unstable_run_blows_up_where_the_reference_does(order, laplacian,
                                                              factor):
    # Content of 1e-250 grows for many samples before it reaches the blow-up
    # magnitude, while R^(m stride) - I overflows for moderate block sizes m
    # long before: a block must not advance by an infinite power.
    n, dx = 32, 0.5
    psi, phi = random_state(n, 9, scale=1e-250)
    a_tt = 1.0 if order == "second" else 0.0
    coeffs = CanonicalCoefficients(a_xx=1.0, a_tt=a_tt, v=0.0)
    dt = factor * stability_dt(coeffs, Grid(n, n * dx), 1.0, laplacian)
    (psis, phis, steps, blow), want = run_both(order, laplacian, psi, phi, dx,
                                               dt, 2000, 1)
    assert blow == reference_blow_slot(want[0], want[1])
    assert np.array_equal(steps, want[2][:blow + 1])
    assert_close(psis[:blow], want[0][:blow])
    assert_close(phis[:blow], want[1][:blow])


def test_field_kernel_flags_one_bad_point_in_either_component():
    psi, phi = random_state(16, 3)
    phi[5] = 2.0 * kernels.BLOWUP_MAGNITUDE
    psis, phis, steps, blow = run_second_order(
        psi, phi, 0.1, 1.0, 0.0, 0.5, 0.01, 5, 2, "stencil")
    assert blow == 0
    assert list(steps) == [0]
    assert np.array_equal(phis[0], phi)
