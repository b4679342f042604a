"""Time stepping by one Fourier-space RK4 propagator.

Every system the package steps is linear, has constant coefficients and is
periodic, so it is diagonal in Fourier space.  The runners are pure
numerics: each is handed, in fft order, what every mode is stepped by
(``pde._mode_coefficients`` derives it from the equation).  Mode k of the
second-order system evolves as y' = A_k y, y = (psi_hat, phi_hat), with
A_k = [[0, 1], [b_k, c]] and c one non-zero value; in the first-order limit
psi_hat' = rate_k psi_hat.  The uniform system is the second-order system
on a one-point grid, whose spectrum is its value.

One classical RK4 step of a mode is exactly the polynomial
R(h A) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so a stride of s steps
is R^s, formed by repeated squaring.  This is the same discrete scheme as
stepping in physical space, with RK4's order and stability region, up to
round-off (see Kassam & Trefethen, SIAM J. Sci. Comput. 26 (2005) 1214).
As A_k^2 = c A_k + b_k I (Cayley-Hamilton), each such update is
p I + q A_k, held as two rows (p, q) of one value per mode; in the
first-order limit it is one row (Moler & Van Loan, SIAM Rev. 45 (2003) 3).

Stored samples are advanced a block at a time: rows [f, f + m) of the
spectra are rows [f - m, f) advanced by m strides, y + (R^(m s) - I) y.
The block size m doubles from 1 up to ``BLOCK_ROWS`` and then stays there,
so no temporary exceeds one capped block.  It doubles only while
R^(m s) - I stays finite: an overflowing power would turn rows that are
still finite into infinities and report the blow-up early.

Samples are stored every ``stride`` steps, plus the initial and final
states.  The first stored sample whose magnitude is non-finite or at or
above ``BLOWUP_MAGNITUDE`` ends the returned arrays; the caller turns that
into a blow-up error.  Only psi is transformed back to grid values.  The
second-order system's derivative rows are returned as spectra, for the
reader to transform.  In the first-order limit only psi is stored: its
derivative, rate * psi mode by mode, is made on demand by
:func:`first_order_derivative`.  Either derivative counts towards the
blow-up all the same: a row is formed and checked only where a bound on
its magnitude cannot clear it.
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
    if n_steps < 0 or not 1 <= stride <= MAX_STEPS:
        raise ValueError(f"need n_steps >= 0 and 1 <= stride <= {MAX_STEPS}, got "
                         f"{n_steps!r} and {stride!r}")
    return -(-n_steps // stride) + 1


def sample_steps(n_steps: int, stride: int) -> np.ndarray:
    """Step indices stored by the kernels: multiples of stride, plus the end."""
    steps = np.arange(sample_rows(n_steps, stride), dtype=np.int64)
    steps[:-1] *= stride
    steps[-1] = n_steps
    return steps


# Bytes a run allocates, measured with tracemalloc (numpy 2.4) plus a
# margin.  Per stored row and grid point, one complex128 per component (two
# in the second-order system, psi alone in the first-order limit) and a
# float64 magnitude for the blow-up scan and the diagnostics.  Per stored
# row, 24: the step index, the time and the scan's row maximum, most of a
# one-point run's 57.  Per grid point, the work arrays of the first- or
# second-order system: the rates, the update rows and their temporaries.
_POINT_ROW_BYTES = {1: 24, 2: 40}
_ROW_BYTES = 24
_WORK_BYTES = {1: 120, 2: 280}


def run_bytes(points: int, rows: int, order: int) -> int:
    """Bytes of every array a run of ``order`` (1 or 2) allocates on
    ``points`` grid points while storing ``rows`` samples, times included."""
    return (rows * (_POINT_ROW_BYTES[order] * points + _ROW_BYTES)
            + _WORK_BYTES[order] * points)


def check_bytes(need: int, what: str) -> int:
    """``need``, or ValueError when it exceeds ``MAX_SAMPLE_BYTES``; ``what``
    names the arrays counted."""
    if need > MAX_SAMPLE_BYTES:
        raise ValueError(f"{what} need {need:.3g} bytes of arrays, above the "
                         f"cap of {MAX_SAMPLE_BYTES} bytes")
    return need


def _rows(e: np.ndarray, b, c) -> tuple:
    """The rows of the update ``e``'s matrix, as updates: ``e`` alone in the
    first-order limit; else (p, q), the first row of p I + q A, and its
    product by A, (b q, p + c q) as A^2 = c A + b I."""
    return (e,) if len(e) == 1 else (e, np.array((b * e[1], e[0] + c * e[1])))


def _times(x: np.ndarray, rows: tuple) -> np.ndarray:
    """The update x y, for an update x and the :func:`_rows` of y."""
    out = x[0] * rows[0]
    return np.add(out, x[1] * rows[1], out=out) if len(x) == 2 else out


def _power(e: np.ndarray, s: int, b, c) -> np.ndarray:
    """(I + e)^s - I by repeated squaring, for an update e and s >= 1."""
    out = None
    while s:
        if s & 1:
            out = e if out is None else out + e + _times(out, _rows(e, b, c))
        s >>= 1
        if s:
            e = e + e + _times(e, _rows(e, b, c))
    return out


def _step_update(b: np.ndarray, c, dt: float, d: int) -> np.ndarray:
    """R(dt A) - I as an update of d rows.  Powers are kept as their
    difference from I: a step close to the identity then keeps its digits,
    and an advanced sample is y + (R^s - I) y."""
    z = np.zeros((d, len(b)), dtype=np.complex128)
    z[-1] = dt * b if d == 1 else dt  # z = dt A
    e = z / 4.0
    for j in (3.0, 2.0, 1.0):
        e = (z + _times(z, _rows(e, b, c))) / j
    return e


def _advance(spectra, rows: tuple, src: int, dst: int, count: int) -> None:
    """Rows [dst, dst + count) = rows [src, src + count) advanced by I + e,
    for the :func:`_rows` of e.  ``spectra`` holds components x rows x
    modes, and the source rows lie before ``dst``."""
    x = spectra[:len(rows), src:src + count]
    for i, row in enumerate(rows):
        acc = spectra[i, dst:dst + count]
        np.multiply(row[0], x[0], out=acc)
        for j in range(1, len(rows)):
            acc += row[j] * x[j]
        acc += x[i]


def _propagate(b, c, spectra, dt: float, n_steps: int, stride: int) -> None:
    """Fill rows 1.. of ``spectra`` (components x samples x modes) from row 0:
    rows whole strides apart a block at a time (see the module docstring),
    then a final partial stride by its own update."""
    step = _step_update(b, c, dt, len(spectra))
    rows = n_steps // stride + 1
    e, f, m, cap = _rows(_power(step, stride, b, c), b, c), 1, 1, BLOCK_ROWS
    while f < rows:
        count = min(m, rows - f)
        _advance(spectra, e, f - m, f, count)
        f += count
        if m < cap:
            doubled = _rows(e[0] + e[0] + _times(e[0], e), b, c)
            # as c != 0, the last row is finite only where every row is
            if np.isfinite(doubled[-1]).all():
                e, m = doubled, 2 * m
            else:
                cap = m
    e = doubled = None  # freed before the partial stride's update is formed
    if n_steps % stride:
        _advance(spectra, _rows(_power(step, n_steps % stride, b, c), b, c),
                 rows - 1, rows, 1)


def first_order_derivative(psis: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """dpsi_dt = rate psi, mode by mode, of a field or of each row of a stack."""
    out = np.fft.fft(psis, axis=-1)
    out *= rate
    return np.fft.ifft(out, axis=-1, out=out)


def _first_bad_row(ok: np.ndarray, cleared: np.ndarray, derivative) -> int:
    """Index of the first stored row whose psi or derivative is bad, else -1.

    ``ok`` marks the rows whose psi is good, and ``cleared`` those whose
    derivative a bound on its magnitude keeps below the blow-up magnitude.
    The others are formed by ``derivative(i)`` and checked, one at a time,
    up to the first row whose psi is bad.
    """
    end = len(ok) if ok.all() else int(np.argmin(ok))
    for i in np.flatnonzero(~cleared[:end]):
        if not np.abs(derivative(i)).max() < BLOWUP_MAGNITUDE:
            return int(i)
    return end if end < len(ok) else -1


def run_uniform(psi0, phi0, b, c, dt, n_steps, stride=1):
    """Step one mode y' = A y, A = [[0, 1], [b, c]], from y = (psi0, phi0).

    Returns (psis, phis, steps, blow_slot): the stored values, the stored
    step indices (times are steps * dt), and -1 for a clean run, else the
    index of the first stored sample that blew up (the arrays end there).
    """
    psis, phis, steps, blow_slot = _run_field(
        np.atleast_1d(b), c, ([complex(psi0)], [complex(phi0)]), float(dt),
        int(n_steps), int(stride))
    return psis[:, 0], phis[:, 0], steps, blow_slot


def _run_field(b, c, initial, dt, n_steps, stride):
    """Step the spectra of the d components ``initial`` under A_k (see the
    module docstring) and return psi (samples x points), the derivative's
    spectra when d = 2 (a one-point grid's spectrum is its value), the
    stored step indices and the blow-up slot, every array cut after it."""
    points, d = len(b), len(initial)
    check_bytes(run_bytes(points, sample_rows(n_steps, stride), d),
                f"{n_steps} steps stored every {stride} on {points} point(s)")
    steps = sample_steps(n_steps, stride)
    out = np.empty((d, len(steps), points), dtype=np.complex128)
    np.fft.fft(initial, axis=-1, out=out[:, 0])
    with np.errstate(all="ignore"):  # unstable runs overflow; rows are checked
        _propagate(b, c, out, dt, n_steps, stride)
        psis = np.fft.ifft(out[0], axis=-1, out=out[0])
        psis[0] = initial[0]
        # A row's derivative is cleared where twice a bound on its magnitude,
        # for rounding, lies below the blow-up magnitude; a NaN clears nothing.
        if d == 1:
            # |rate psi| <= max|rate| sqrt(n) max|psi| (Cauchy-Schwarz and
            # Parseval)
            peak = np.abs(psis).max(axis=1)
            bound = 2.0 * float(np.abs(b).max()) * math.sqrt(points)
            blow_slot = _first_bad_row(
                peak < BLOWUP_MAGNITUDE, bound * peak < BLOWUP_MAGNITUDE,
                lambda i: first_order_derivative(psis[i], b))
        else:
            # |phi| <= (1/n) sum |Phi_k| <= max |Phi_k|
            blow_slot = _first_bad_row(
                np.abs(psis).max(axis=1) < BLOWUP_MAGNITUDE,
                2.0 * np.abs(out[1]).max(axis=1) < BLOWUP_MAGNITUDE,
                lambda i: np.fft.ifft(out[1, i]) if i else initial[1])
    rows = len(steps) if blow_slot < 0 else blow_slot + 1
    return (*out[:, :rows], steps[:rows], blow_slot)


def run_field_second_order(psi0, phi0, b, c, dt, n_steps, stride=1):
    """Step the field psi and phi = psi' from (psi0, phi0), mode k under
    A_k = [[0, 1], [b_k, c]].

    Returns (psis, phis, steps, blow_slot) as :func:`run_uniform` does,
    with one row per stored sample: psi's grid values, and phi's spectrum
    (``np.fft.ifft`` makes its grid values; row 0's are ``phi0``).
    """
    return _run_field(b, c, (np.asarray(psi0, dtype=np.complex128),
                             np.asarray(phi0, dtype=np.complex128)),
                      float(dt), int(n_steps), int(stride))


def run_field_first_order(psi0, rate, dt, n_steps, stride=1):
    """Step the field psi from psi0, mode k as psi_hat' = rate_k psi_hat.

    Returns (psis, steps, blow_slot) as :func:`run_uniform` does, without
    the derivative: :func:`first_order_derivative` makes it from the rows
    and ``rate`` when asked.  The blow-up slot is the first row whose psi
    or derivative is bad.
    """
    return _run_field(rate, None, (np.asarray(psi0, dtype=np.complex128),),
                      float(dt), int(n_steps), int(stride))
