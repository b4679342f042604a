import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsblab import kernels
from nsblab.analytic import CanonicalCoefficients
from nsblab.integrator import TemporalState, integrate_uniform
from nsblab.pde import Grid, stability_dt


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
    # a one-point run counts 64 B a stored row, 400 B of work arrays, and is
    # refused above the cap whatever the stride
    assert kernels.run_bytes(1, 10, 2) == 10 * 64 + 400
    rows = (kernels.MAX_SAMPLE_BYTES - 400) // 64
    kernels.check_bytes(kernels.run_bytes(1, rows, 2), "x")
    with pytest.raises(ValueError, match="bytes"):
        kernels.check_bytes(kernels.run_bytes(1, rows + 1, 2), "x")
    for n_steps, stride, points in [(rows, 1, 1), (2 * rows, 2, 1), (rows // 2, 1, 4),
                                    (-1, 1, 1), (5, 0, 1)]:
        with pytest.raises(ValueError):
            kernels._run_field(np.zeros((points, 2, 2)), (np.zeros(points),) * 2,
                               1e-3, n_steps, stride)
    with pytest.raises(ValueError, match="bytes"):  # 64 TB of arrays
        kernels.run_uniform(0.0j, 2.0j, 0.0, 1e-3, 10**12, 1)


@pytest.mark.parametrize("n_steps,stride", [(1000, 1), (10000, 10), (9999, 7),
                                            (65536, 1), (300000, 3)])
def test_uniform_run_allocates_within_the_run_bytes(n_steps, stride):
    # the one-point run's peak, the blow-up scan and the trajectory's times
    # included, stays within the count and near it
    need = kernels.run_bytes(1, kernels.sample_rows(n_steps, stride), 2)
    runs = (lambda: kernels.run_uniform(0.0j, 2.0j, 0.0, 1e-3, n_steps, stride),
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
    assert kernels.laplacian_eigenvalues(n, dx, "stencil")[0] == 0.0


def assert_plane_waves_are_eigenvectors(mode, modes):
    # exp(i k_j xi) is an eigenvector of the operator, with eigenvalue -lam[j]
    n, length = 64, 8.0
    dx = length / n
    x = np.arange(n) * dx
    lam = kernels.laplacian_eigenvalues(n, dx, mode)
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
        kernels.laplacian_eigenvalues(16, 0.5, "foo")


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
    assert_matches(kernels.run_uniform(psi, phi, 0.2, 0.05, n_steps, stride),
                   reference_uniform(psi, phi, 0.2, 0.05, n_steps, stride))


@pytest.mark.parametrize("n_steps,stride", STRIDE_CASES)
@pytest.mark.parametrize("laplacian", ["stencil", "spectral"])
@pytest.mark.parametrize("order", ["first", "second"])
def test_propagator_matches_reference(order, laplacian, n_steps, stride):
    psi, phi = random_state(N, 7)
    if order == "second":
        coeffs = CanonicalCoefficients(a_xx=A_XX, a_tt=1.0, v=V)
        dt = stability_dt(coeffs, Grid(N, N * DX), 0.9, laplacian)
        got = kernels.run_field_second_order(psi, phi, A_XX, 1.0, V, DX, dt,
                                             n_steps, stride, laplacian)
        want = reference_second_order(psi, phi, A_XX, 1.0, V, DX, dt,
                                      n_steps, stride, laplacian)
    else:
        coeffs = CanonicalCoefficients(a_xx=A_XX, a_tt=0.0, v=V)
        dt = stability_dt(coeffs, Grid(N, N * DX), 0.9, laplacian)
        got = kernels.run_field_first_order(psi, A_XX, V, DX, dt, n_steps,
                                            stride, laplacian)
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
        got = kernels.run_uniform(psi[0], phi[0], v, dt, n_steps, stride)
        want = reference_uniform(psi[0], phi[0], v, dt, n_steps, stride)
    elif order == "second":
        got = kernels.run_field_second_order(psi, phi, r, 1.0, v, dx, dt,
                                             n_steps, stride, laplacian)
        want = reference_second_order(psi, phi, r, 1.0, v, dx, dt, n_steps,
                                      stride, laplacian)
    else:
        got = kernels.run_field_first_order(psi, r, v, dx, dt, n_steps, stride,
                                            laplacian)
        want = reference_first_order(psi, r, v, dx, dt, n_steps, stride,
                                     laplacian)
    assert np.array_equal(got[2], kernels.sample_steps(n_steps, stride))
    assert_matches(got, want)


def test_field_kernel_shapes_and_steps():
    psi, phi = random_state(16, 1)
    snap_psi, snap_phi, steps, blow = kernels.run_field_second_order(
        psi, phi, 0.1, 1.0, 0.0, 0.5, 0.01, 100, stride=30, laplacian="stencil")
    assert blow == -1
    assert list(steps) == [0, 30, 60, 90, 100]
    assert snap_psi.shape == (5, 16)
    assert snap_phi.shape == (5, 16)
    assert np.array_equal(snap_psi[0], psi)


def test_rerun_is_bit_identical():
    psi, phi = random_state(32, 4)
    args = (psi, phi, 0.05, 1.0, 0.0, 0.5, 0.01, 200)
    a = kernels.run_field_second_order(*args, stride=50, laplacian="stencil")
    b = kernels.run_field_second_order(*args, stride=50, laplacian="stencil")
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


# --------------------------------------------------------------------------
# Blow-up truncation.
# --------------------------------------------------------------------------


def test_uniform_kernel_blow_up_slot():
    psis, phis, steps, blow = kernels.run_uniform(0.0j, 2.0j, 0.0, 2.0, 5000, 1)
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
        got = kernels.run_field_second_order(psi, phi, 1.0, 1.0, 0.0, dx, dt,
                                             n_steps, stride, laplacian)
        with np.errstate(all="ignore"):  # the reference overflows as it blows up
            want = reference_second_order(psi, phi, 1.0, 1.0, 0.0, dx, dt,
                                          n_steps, stride, laplacian)
    else:
        got = kernels.run_field_first_order(psi, 1.0, 0.0, dx, dt, n_steps,
                                            stride, laplacian)
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
    psis, phis, steps, blow = kernels.run_field_second_order(
        psi, phi, 0.1, 1.0, 0.0, 0.5, 0.01, 5, 2, "stencil")
    assert blow == 0
    assert list(steps) == [0]
    assert np.array_equal(phis[0], phi)
