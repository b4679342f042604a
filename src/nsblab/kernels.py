"""Time stepping by one Fourier-space RK4 propagator.

Every system the package steps is linear, has constant coefficients and is
periodic, so it is diagonal in Fourier space: mode k evolves as y' = A_k y
with a d x d matrix A_k (d = 2 for the second-order system, 1 in the
first-order limit; the uniform system is the one-mode grid).  One classical
RK4 step of that mode is exactly the matrix polynomial

    R(h A) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,

so a stride of s steps is R^s, formed by repeated squaring.  This is the
same discrete scheme as stepping in physical space, with RK4's order and
stability region, up to round-off (see Kassam & Trefethen, SIAM J. Sci.
Comput. 26 (2005) 1214).

Stored samples are advanced a block at a time: rows [f, f + m) of the
spectra are rows [f - m, f) advanced by m strides, y + (R^(m s) - I) y.
The block size m doubles from 1 up to ``BLOCK_ROWS`` and then stays there,
so no temporary exceeds one capped block.  It doubles only while
R^(m s) - I stays finite: an overflowing power would turn rows that are
still finite into infinities and report the blow-up early.

Samples are stored every ``stride`` steps, plus the initial and final
states.  The first stored sample whose magnitude is non-finite or at or
above ``BLOWUP_MAGNITUDE`` ends the returned arrays; the caller turns that
into a blow-up error.
"""

from __future__ import annotations

import math

import numpy as np

BLOWUP_MAGNITUDE = 1e300

# Classical RK4 is stable for |lambda| dt up to about 2.8 on the imaginary
# axis; every step-size rule in the package derives from this number.
RK4_IMAGINARY_STABILITY = 2.8

# Step indices are int64, so a run takes fewer steps than this.
MAX_STEPS = 2**63 - 1


def whole_steps(horizon: float, dt: float) -> tuple[int, bool]:
    """(n, whole): the fewest steps of ``dt`` that reach ``horizon``, and
    whether n steps land on it to within 1e-9 of the larger of the two.

    A ``dt`` that divides ``horizon`` up to that round-off keeps the nearest
    count, so ``horizon / n`` gives n steps; otherwise n rounds up.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    if not (math.isfinite(horizon) and horizon >= 0.0):
        raise ValueError("the horizon must be non-negative and finite")
    if not horizon / dt < MAX_STEPS:
        raise ValueError(f"horizon {horizon!r} needs more than {MAX_STEPS} "
                         f"steps of {dt!r}")
    n = round(horizon / dt)
    if abs(n * dt - horizon) <= 1e-9 * max(dt, horizon):
        return n, True
    return math.ceil(horizon / dt), False


# Cap on the rows one block advances at once, so a block temporary holds at
# most this many rows of the grid.  Caps of 32 and 64 timed alike on a
# 256-point second-order run; 16 and 128 were slower.
BLOCK_ROWS = 64

# Cap on the bytes of arrays one run may ask for, as :func:`run_bytes`
# counts them.  A run above it is refused before anything is allocated.
MAX_SAMPLE_BYTES = 2**30

# There is no compiled path; the constant stays for callers that record it.
HAVE_NUMBA = False


def sample_rows(n_steps: int, stride: int) -> int:
    """The number of step indices :func:`sample_steps` stores."""
    if n_steps < 0 or stride < 1:
        raise ValueError("need n_steps >= 0 and stride >= 1")
    return -(-n_steps // stride) + 1


def sample_steps(n_steps: int, stride: int) -> np.ndarray:
    """Step indices stored by the kernels: multiples of stride, plus the end."""
    steps = np.arange(sample_rows(n_steps, stride), dtype=np.int64)
    steps[:-1] *= stride
    steps[-1] = n_steps
    return steps


# Bytes a run allocates, measured with tracemalloc (numpy 2.4) plus a
# margin.  Per stored row and grid point, 40: two complex128 components and
# a float64 magnitude for the blow-up scan and the diagnostics.  Per stored
# row, 24: the step index, the time and the scan's row maximum, most of a
# one-point run's 57.  Per grid point, the work arrays of the first- or
# second-order system: eigenvalues, a d x d matrix and the R^s temporaries.
_POINT_ROW_BYTES = 40
_ROW_BYTES = 24
_WORK_BYTES = {1: 128, 2: 400}


def run_bytes(points: int, rows: int, order: int) -> int:
    """Bytes of every array a run of ``order`` (1 or 2) allocates on
    ``points`` grid points while storing ``rows`` samples, times included."""
    return rows * (_POINT_ROW_BYTES * points + _ROW_BYTES) + _WORK_BYTES[order] * points


def check_bytes(need: int, what: str) -> int:
    """``need``, or ValueError when it exceeds ``MAX_SAMPLE_BYTES``; ``what``
    names the arrays counted."""
    if need > MAX_SAMPLE_BYTES:
        raise ValueError(f"{what} need {need:.3g} bytes of arrays, above the "
                         f"cap of {MAX_SAMPLE_BYTES} bytes")
    return need


def laplacian_eigenvalues(n: int, dx: float, mode: str) -> np.ndarray:
    """Eigenvalues k_eff^2 of minus the discrete Laplacian, in fft order.

    The stencil operator maps the mode exp(i k xi) to
    -(2 / dx^2) (1 - cos(k dx)) times itself; the spectral operator is
    exact (-k^2).
    """
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    if mode == "spectral":
        return k * k
    if mode == "stencil":
        return (2.0 / dx**2) * (1.0 - np.cos(k * dx))
    raise ValueError(f"unknown laplacian mode {mode!r}")


def _power(e: np.ndarray, s: int) -> np.ndarray:
    """(I + e)^s - I by repeated squaring, for a stack of matrices e."""
    out = np.zeros_like(e)
    while s:
        if s & 1:
            out = out + e + out @ e
        s >>= 1
        if s:
            e = e + e + e @ e
    return out


def _step_update(a: np.ndarray, dt: float) -> np.ndarray:
    """R(dt a) - I for a stack of matrices ``a``, shape (n, d, d).

    Powers are kept as their difference from I: a step close to the
    identity then keeps its digits, and an advanced sample is y + (R^s - I) y.
    """
    z = dt * a
    e = z / 4.0
    for j in (3.0, 2.0, 1.0):
        e = (z + z @ e) / j
    return e


def _advance(spectra: np.ndarray, e: np.ndarray, src: int, dst: int,
             count: int) -> None:
    """Rows [dst, dst + count) = rows [src, src + count) advanced by I + e.

    ``spectra`` holds components x rows x modes, ``e`` one d x d update per
    mode, shape (n, d, d), and the source rows lie before ``dst``.
    """
    d = e.shape[-1]
    x = spectra[:d, src:src + count]
    for i in range(d):
        acc = spectra[i, dst:dst + count]
        np.multiply(e[:, i, 0], x[0], out=acc)
        for j in range(1, d):
            acc += e[:, i, j] * x[j]
        acc += x[i]


def _propagate(a: np.ndarray, spectra: np.ndarray, dt: float, n_steps: int,
               stride: int) -> None:
    """Fill rows 1.. of ``spectra`` (components x samples x modes) from row 0.

    Rows 0 .. n_steps // stride are whole strides apart and are advanced a
    block at a time (see the module docstring); a final partial stride gets
    its own update.
    """
    step = _step_update(a, dt)
    rows = n_steps // stride + 1
    e, m, cap = _power(step, stride), 1, BLOCK_ROWS
    f = 1
    while f < rows:
        count = min(m, rows - f)
        _advance(spectra, e, f - m, f, count)
        f += count
        if m < cap:
            doubled = e + e + e @ e
            if np.isfinite(doubled).all():
                e, m = doubled, 2 * m
            else:
                cap = m
    e = doubled = None  # freed before the partial stride's update is formed
    if n_steps % stride:
        _advance(spectra, _power(step, n_steps % stride), rows - 1, rows, 1)


def _truncate(out: np.ndarray, steps: np.ndarray):
    """Cut ``out`` (components x samples x points) after its first bad row."""
    # One component at a time, so the temporary is a quarter of ``out``.
    ok = np.logical_and.reduce([np.abs(c).max(axis=1) < BLOWUP_MAGNITUDE
                                for c in out])
    bad = np.flatnonzero(~ok)
    blow_slot = int(bad[0]) if bad.size else -1
    rows = len(steps) if blow_slot < 0 else blow_slot + 1
    return out[0, :rows], out[1, :rows], steps[:rows], blow_slot


def run_uniform(psi0, phi0, v, dt, n_steps, stride=1):
    """Integrate the uniform system, returning (psis, phis, steps, blow_slot).

    The system is psi' = phi, phi' = 2 (v psi - i phi), stepped as the only
    mode of a one-point grid.  ``steps`` are the stored step indices (times
    are steps * dt); ``blow_slot`` is -1 for a clean run, else the index of
    the first stored sample that blew up (arrays are truncated to end there).
    """
    a = np.array([[[0.0, 1.0], [2.0 * float(v), -2j]]])
    psis, phis, steps, blow_slot = _run_field(
        a, ([complex(psi0)], [complex(phi0)]), float(dt), int(n_steps),
        int(stride))
    return psis[:, 0], phis[:, 0], steps, blow_slot


def _run_field(a, initial, dt, n_steps, stride):
    """Step the spectra of ``initial`` under ``a`` and return the fields.

    ``a`` stacks one matrix per Fourier mode, shape (n, d, d), and
    ``initial`` holds the d starting components.  In the first-order limit
    (d = 1) the second returned component is dpsi_dt = a psi.
    """
    points, d = a.shape[0], a.shape[-1]
    check_bytes(run_bytes(points, sample_rows(n_steps, stride), d),
                f"{n_steps} steps stored every {stride} on {points} point(s)")
    steps = sample_steps(n_steps, stride)
    out = np.empty((2, len(steps), points), dtype=np.complex128)
    np.fft.fft(initial, axis=-1, out=out[:d, 0])
    with np.errstate(all="ignore"):  # unstable runs overflow; rows are checked
        _propagate(a, out, dt, n_steps, stride)
        if d == 1:
            np.multiply(out[0], a[:, 0, 0], out=out[1])
        np.fft.ifft(out, axis=-1, out=out)
        out[:d, 0] = initial
        return _truncate(out, steps)


def run_field_second_order(psi0, phi0, a_xx, a_tt, v, dx, dt, n_steps,
                           stride=1, laplacian="stencil"):
    """Step psi' = phi, phi' = (2(v psi - i phi) - a_xx lap psi) / a_tt.

    Returns (psis, phis, steps, blow_slot) as :func:`run_uniform` does,
    with one row of grid values per stored sample.
    """
    if a_tt <= 0.0:
        raise ValueError("second-order stepping needs a_tt > 0")
    psi0 = np.asarray(psi0, dtype=np.complex128)
    lam = laplacian_eigenvalues(psi0.shape[0], dx, laplacian)
    a = np.zeros((lam.shape[0], 2, 2), dtype=np.complex128)
    a[:, 0, 1] = 1.0
    a[:, 1, 0] = (2.0 * v + a_xx * lam) / a_tt
    a[:, 1, 1] = -2j / a_tt
    return _run_field(a, (psi0, np.asarray(phi0, dtype=np.complex128)),
                      float(dt), int(n_steps), int(stride))


def run_field_first_order(psi0, a_xx, v, dx, dt, n_steps, stride=1,
                          laplacian="stencil"):
    """Step the Schrodinger limit psi' = i ((a_xx / 2) lap psi - v psi).

    Returns (psis, dpsis_dt, steps, blow_slot); the derivative is slaved to
    psi in this limit and is computed from the same spectra.
    """
    psi0 = np.asarray(psi0, dtype=np.complex128)
    lam = laplacian_eigenvalues(psi0.shape[0], dx, laplacian)
    a = (1j * (-0.5 * a_xx * lam - v)).reshape(-1, 1, 1)
    return _run_field(a, (psi0,), float(dt), int(n_steps), int(stride))
