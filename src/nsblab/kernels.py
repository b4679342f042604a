"""Time stepping by one Fourier-space RK4 propagator.

Every system the package steps is linear, has constant coefficients and is
periodic, so it is diagonal in Fourier space.  The runners are pure
numerics: each is handed, in fft order, what every mode is stepped by
(``pde._mode_coefficients`` derives it from the equation).  Mode k of the
second-order system evolves as y' = A_k y, y = (psi_hat, phi_hat), with
A_k = [[0, 1], [b_k, c]] and c one non-zero value; in the first-order limit
psi_hat' = rate_k psi_hat.  The uniform system is the second-order system
on a one-point grid, whose spectrum is its value; :func:`run_uniform` steps
K independent one-mode systems, one (b_j, start) each and one c, as K
one-point grids side by side on the point axis, with no FFT.

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
The block size m doubles from 1 up to the grid's cap, :func:`block_rows`,
and then stays there, so no temporary exceeds one capped block.  The cap
is ``BLOCK_ROWS`` rows, cut to ``BLOCK_VALUES`` grid values and at least
one row: grids of 256 points or fewer take 64 rows, a 2048-point grid 8.
It doubles only while R^(m s) - I stays finite: an overflowing power would
turn rows that are still finite into infinities and report the blow-up
early.

Samples are stored every ``stride`` steps, plus the initial and final
states, in a ring of slots: row i in slot i mod its length.  A materialised
run's ring holds every row.  A reduced run's holds :func:`ring_rows`,
``RING_BLOCKS`` capped blocks, so its size is set in grid values, not rows:
4 x 2**14 values of each component on grids of 256 to 2**14 points, fewer
below, four rows above.  When a block would overwrite a row not yet read
out, every row below the block's source rows is read out: psi is
transformed back to grid values in place, the row is scanned for blow-up by
its |psi|, and a reduced run hands the rows, the index of the first and
those magnitudes to its ``reduce`` callable, which keeps what the caller
needs of them.  A materialised run therefore reads out once, at the end,
and a reduced run about once per ring's length, up to its first bad row.
The first stored sample whose magnitude is non-finite or at or above
``BLOWUP_MAGNITUDE`` ends the returned arrays; the caller turns that into a
blow-up error.  A materialised second-order run returns its derivative rows
as grid values too, made by one inverse FFT in place once the rows are read
out.  In the first-order limit only psi is stored; its derivative, rate *
psi mode by mode, is :func:`first_order_derivative` of the rows.  Either
derivative counts towards the blow-up all the same: a row is formed and
checked only where a bound on its magnitude cannot clear it.
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

# Cap on the grid values of one block: 256 KiB of complex128 a component.
# Grids of 256 points or fewer keep BLOCK_ROWS rows.
BLOCK_VALUES = 2**14

# Blocks in a reduced run's ring of rows.  A block and its source rows need
# two blocks.  Each read-out costs an inverse FFT, a blow-up scan and a
# ``reduce`` call, so a longer ring reads out fewer, longer runs of rows but
# holds more of the grid.  On a 256-point second-order run of 1,022 rows,
# rings of 4 to 8 blocks stepped as fast as a materialised run and 2 blocks
# (15 read-outs, against 7 at 4) 4 % slower; a scan's peak RSS grew by about
# 1.2 MiB per 2 blocks.
RING_BLOCKS = 4


def block_rows(points: int) -> int:
    """Rows of one capped block on a grid of ``points``: ``BLOCK_ROWS``, cut
    to ``BLOCK_VALUES`` grid values, at least 1."""
    return max(1, min(BLOCK_ROWS, BLOCK_VALUES // points))


def ring_rows(points: int) -> int:
    """Slots of a reduced run's ring on a grid of ``points``."""
    return RING_BLOCKS * block_rows(points)


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
# margin.  Per held row and grid point, one complex128 per component (two
# in the second-order system, psi alone in the first-order limit) and a
# float64 magnitude for the blow-up scan and the diagnostics; where it is
# more, 32 B a point of each row of a block that a second-order run on more
# than one point advances (at most half the rows): numpy's iterator buffer
# and a product.  Per stored row, 24: the step index, the time and the
# scan's row maximum, most of a one-point run's 57; a reduced run adds twice
# what ``reduce`` keeps of a row, as its outputs are joined at the end.  Per
# grid point, the work arrays: the rates, the update rows, their temporaries.
_COMPONENT_BYTES = {1: 16, 2: 32}
_ROW_BYTES = 24
_WORK_BYTES = {1: 120, 2: 280}


def run_bytes(points: int, rows: int, order: int, kept=None) -> int:
    """Bytes of every array a run of ``order`` (1 or 2) allocates on
    ``points`` grid points while storing ``rows`` samples, times included.
    With ``kept``, the bytes ``reduce`` keeps of a row, the run is reduced:
    it holds at most :func:`ring_rows` rows of the grid at once."""
    held = rows if kept is None else min(rows, ring_rows(points))
    block = min(rows // 2, block_rows(points)) if order == 2 and points > 1 else 0
    return ((held * _COMPONENT_BYTES[order] + max(8 * held, 32 * block)
             + _WORK_BYTES[order]) * points + rows * (_ROW_BYTES + 2 * (kept or 0)))


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
        # the rows of e serve both its product into out and its square
        rows = _rows(e, b, c) if s > 1 or out is not None else None
        if s & 1:
            out = e if out is None else out + e + _times(out, rows)
        s >>= 1
        if s:
            e = e + e + _times(e, rows)
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


def _propagate(b, c, ring, dt: float, n_steps: int, stride: int, free) -> None:
    """Fill rows 1.. of a run from row 0 in ``ring`` (components x slots x
    modes, row i in slot i mod slots): rows whole strides apart a block at a
    time (see the module docstring), then a final partial stride by its own
    update.  ``free(src, end)`` is called before rows below ``end`` are made
    from rows ``src`` on; the run stops where it returns False."""
    slots = ring.shape[1]
    step = _step_update(b, c, dt, len(ring))
    rows = n_steps // stride + 1
    e, f, m, cap = _rows(_power(step, stride, b, c), b, c), 1, 1, block_rows(len(b))
    while f < rows:
        count = min(m, rows - f)
        if not free(f - m, f + count):
            return
        _advance(ring, e, (f - m) % slots, f % slots, count)
        f += count
        if m < cap:
            doubled = _rows(e[0] + e[0] + _times(e[0], e), b, c)
            # as c != 0, the last row is finite only where every row is
            if np.isfinite(doubled[-1]).all():
                e, m = doubled, 2 * m
            else:
                cap = m
    e = doubled = None  # freed before the partial stride's update is formed
    if n_steps % stride and free(rows - 1, rows + 1):
        _advance(ring, _rows(_power(step, n_steps % stride, b, c), b, c),
                 (rows - 1) % slots, rows % slots, 1)


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


def _read_rows(rows: np.ndarray, start: int, initial, b, transform=True) -> tuple:
    """Turn the psi spectra of ``rows`` (components x k x modes), the stored
    rows from ``start`` on, into grid values in place; return the index in
    ``rows`` of the first bad row, else -1 (see :func:`_first_bad_row`), and
    the rows' |psi|.  Without ``transform`` the rows are values already:
    each point is its own one-point grid."""
    psis = np.fft.ifft(rows[0], axis=-1, out=rows[0]) if transform else rows[0]
    if start == 0:
        psis[0] = initial[0]
    # A row's derivative is cleared where twice a bound on its magnitude, for
    # rounding, lies below the blow-up magnitude; a NaN clears nothing.
    if len(rows) == 1:
        # |rate psi| <= max|rate| sqrt(n) max|psi| (Cauchy-Schwarz and Parseval)
        bound = 2.0 * float(np.abs(b).max()) * math.sqrt(len(b))
        magnitudes = np.abs(psis)
        peak = magnitudes.max(axis=1)
        return _first_bad_row(peak < BLOWUP_MAGNITUDE, bound * peak < BLOWUP_MAGNITUDE,
                              lambda i: first_order_derivative(psis[i], b)), magnitudes
    # |phi| <= (1/n) sum |Phi_k| <= max |Phi_k|, before |psi| is held
    cleared = 2.0 * np.abs(rows[1]).max(axis=1) < BLOWUP_MAGNITUDE
    magnitudes = np.abs(psis)
    return _first_bad_row(magnitudes.max(axis=1) < BLOWUP_MAGNITUDE, cleared,
                          lambda i: rows[1, i] if not transform
                          else np.fft.ifft(rows[1, i]) if start + i else initial[1]), magnitudes


def run_uniform(psi0, phi0, b, c, dt, n_steps, stride=1):
    """Step K independent one-mode systems y' = A_j y, A_j = [[0, 1], [b_j, c]],
    from y = (psi0_j, phi0_j), side by side on the point axis of one run.
    Each system is its own one-point grid, so its value is its spectrum.  A
    system's rows match its run alone to round-off, not bit for bit: numpy
    rounds a complex product of one-element arrays by another loop.

    Returns (psis, phis, steps, blow_slot): the stored values (samples x K,
    or one value a sample for scalar starts), the stored step indices
    (times are steps * dt), and -1 for a clean run, else the index of the
    first stored sample at which any system blew up (the arrays end there).
    """
    initial = tuple(np.atleast_1d(np.asarray(y, dtype=np.complex128))
                    for y in (psi0, phi0))
    psis, phis, steps, blow_slot = _run_field(
        np.atleast_1d(b), c, initial, float(dt), int(n_steps), int(stride),
        transform=False)
    if np.ndim(psi0) == 0:
        psis, phis = psis[:, 0], phis[:, 0]
    return psis, phis, steps, blow_slot


def _run_field(b, c, initial, dt, n_steps, stride, reduce=None, transform=True):
    """Step the spectra of the d components ``initial`` under A_k (see the
    module docstring) and return the grid values of psi (samples x points)
    and, when d = 2, of its derivative, row 0 the initial values exactly;
    then the stored step indices and the blow-up slot, every array cut
    after it.

    The ring holds every row of a materialised run, and :func:`ring_rows` of
    a reduced one, whose rows are read out as the module docstring says.  A
    reduced run checks its count again once the first ``reduce`` output
    shows what a row keeps, and it returns the outputs, joined along their
    first axis, for psi and None for the derivative.  Without
    ``transform``, each point is its own one-point grid: ``initial`` and the
    rows are values, and the run makes no FFT.
    """
    points, d = len(b), len(initial)
    rows = sample_rows(n_steps, stride)
    what = f"{n_steps} steps stored every {stride} on {points} point(s)"
    check_bytes(run_bytes(points, rows, d, None if reduce is None else 0), what)
    steps = sample_steps(n_steps, stride)
    slots = rows if reduce is None else min(rows, ring_rows(points))
    ring = np.empty((d, slots, points), dtype=np.complex128)
    if transform:
        np.fft.fft(initial, axis=-1, out=ring[:, 0])
    else:
        ring[:, 0] = initial
    outputs, done, blow = [], 0, -1

    def read_out(stop: int) -> bool:
        """Read out rows [done, stop), a run of slots at a time; False once
        a row is bad."""
        nonlocal done, blow
        while done < stop and blow < 0:
            s = done % slots
            k = min(stop - done, slots - s)
            bad, magnitudes = _read_rows(ring[:, s:s + k], done, initial, b, transform)
            if bad >= 0:
                blow, k = done + bad, bad + 1
            if reduce is not None:
                outputs.append(reduce(done, ring[0, s:s + k], magnitudes[:k]))
                if len(outputs) == 1:
                    check_bytes(run_bytes(points, rows, d, outputs[0].nbytes // k),
                                f"{what}, reduced")
            magnitudes = None  # freed before the next rows are read out
            done += k
        return blow < 0

    with np.errstate(all="ignore"):  # unstable runs overflow; rows are checked
        _propagate(b, c, ring, dt, n_steps, stride,
                   lambda src, end: end - slots <= done or read_out(src))
        read_out(rows)
        if reduce is None and transform and d == 2:
            np.fft.ifft(ring[1, :done], axis=-1, out=ring[1, :done])
            ring[1, 0] = initial[1]
    if reduce is None:
        return (*ring[:, :done], steps[:done], blow)
    return (np.concatenate(outputs), *[None] * (d - 1), steps[:done], blow)


def run_field_second_order(psi0, phi0, b, c, dt, n_steps, stride=1, reduce=None):
    """Step the field psi and phi = psi' from (psi0, phi0), mode k under
    A_k = [[0, 1], [b_k, c]].

    Returns (psis, phis, steps, blow_slot) as :func:`run_uniform` does,
    with one row of grid values per stored sample; row 0 is (psi0, phi0).
    With ``reduce(start, rows, magnitudes)``, psis holds its entries for the
    psi rows stored from ``start`` on, views of reused slots, handed with
    their float64 |psi|, a temporary it may overwrite; phis is None.
    """
    return _run_field(b, c, (np.asarray(psi0, dtype=np.complex128),
                             np.asarray(phi0, dtype=np.complex128)),
                      float(dt), int(n_steps), int(stride), reduce)


def run_field_first_order(psi0, rate, dt, n_steps, stride=1, reduce=None):
    """Step the field psi from psi0, mode k as psi_hat' = rate_k psi_hat.

    Returns (psis, steps, blow_slot) as :func:`run_uniform` does: psi's
    grid values alone, as the derivative is :func:`first_order_derivative`
    of the rows and ``rate``.  The blow-up slot is the first row whose psi
    or derivative is bad.  With ``reduce``, called as in
    :func:`run_field_second_order`, psis holds its outputs.
    """
    return _run_field(rate, None, (np.asarray(psi0, dtype=np.complex128),),
                      float(dt), int(n_steps), int(stride), reduce)
