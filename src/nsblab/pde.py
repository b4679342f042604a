"""Periodic 1-d method-of-lines solver for the dimensionless field equation.

The canonical form (see ``analytic``) is

    i psi_t = -(a_xx / 2) psi_xx + v psi - (a_tt / 2) psi_tt

on a periodic grid, discretised either with the second-order central
stencil (the documented baseline) or with an exact spectral Laplacian
(useful when spatial error must be isolated from time-integration error).
Time stepping is classical RK4 through the kernels module.

A physical fact worth keeping in mind: for a_xx > 0 every wavenumber above
``critical_wavenumber`` grows exponentially.  The solver reports growth, it
never silences it -- grids whose resolvable modes extend beyond the critical
wavenumber will amplify even round-off-level content at those modes, so
long runs should either keep max |k| below critical or accept (and budget
for) that growth.  A ``PdeProblem`` refuses a horizon beyond the growth
budget, and ``evolve`` refuses initial data with content at unstable
modes, unless ``allow_unstable`` is set.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from . import kernels
from .analytic import CanonicalCoefficients, dispersion_branches
from .integrator import BlowUpError, EvolutionResult

ArrayLike = Union[float, np.ndarray]

LAPLACIAN_MODES = ("stencil", "spectral")

# A grid's wavenumbers, from 2 pi / length up to the Nyquist pi / dx, lie in
# this range, so every Laplacian eigenvalue (at most their square) is a
# finite, normal float.
_WAVENUMBER_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n points (power of two, >= 8) on [0, length)."""

    n: int
    length: float

    def __post_init__(self) -> None:
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n!r}")
        if not math.isfinite(self.length) or self.length <= 0.0:
            raise ValueError("length must be positive and finite")
        low, high = _WAVENUMBER_RANGE
        if not (low <= 2.0 * math.pi / self.length and math.pi / self.dx <= high):
            raise ValueError(f"length {self.length!r} on {self.n} points puts the "
                             f"grid's wavenumbers outside [{low:.3g}, {high:.3g}]")

    @property
    def dx(self) -> float:
        return self.length / self.n

    def xi(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def wavenumbers(self) -> np.ndarray:
        """Mode wavenumbers in fft ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def laplacian_eigenvalues(self, laplacian: str = "stencil") -> np.ndarray:
        """Eigenvalues k_eff^2 of minus the discrete Laplacian, in fft order:
        (2 / dx^2) (1 - cos(k dx)) for the stencil, k^2 for the exact
        spectral operator."""
        if laplacian not in LAPLACIAN_MODES:
            raise ValueError(f"laplacian mode must be one of {LAPLACIAN_MODES}, "
                             f"got {laplacian!r}")
        k = self.wavenumbers()
        if laplacian == "spectral":
            return k * k
        return (2.0 / self.dx**2) * (1.0 - np.cos(k * self.dx))


@dataclass(frozen=True, eq=False)
class ComplexField:
    """Immutable complex field sampled on a grid."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.complex128, copy=True)
        if values.shape != (self.grid.n,):
            raise ValueError(f"values must have shape ({self.grid.n},)")
        if not np.all(np.isfinite(values.real) & np.isfinite(values.imag)):
            raise ValueError("field values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, grid: Grid, value: complex) -> "ComplexField":
        return cls(np.full(grid.n, value, dtype=np.complex128), grid)


@dataclass(frozen=True, eq=False)
class FieldState:
    """Field value and its time derivative at one instant."""

    psi: ComplexField
    dpsi_dt: ComplexField

    def __post_init__(self) -> None:
        if self.psi.grid != self.dpsi_dt.grid:
            raise ValueError("psi and dpsi_dt must share a grid")

    @property
    def grid(self) -> Grid:
        return self.psi.grid

    @classmethod
    def uniform(cls, grid: Grid, psi: complex, dpsi_dt: complex) -> "FieldState":
        return cls(ComplexField.constant(grid, psi), ComplexField.constant(grid, dpsi_dt))


def stability_dt(coeffs: CanonicalCoefficients, grid: Grid, safety: float = 0.7,
                 laplacian: str = "stencil") -> float:
    """Largest RK4-stable step for the discrete system, times ``safety``.

    The fastest discrete frequency is taken over both dispersion branches
    with the discrete Laplacian eigenvalues substituted for k^2, and the
    step bound is safety * 2.8 / max(|Re omega| + |Im omega|).  For v >= 1/2
    every wavenumber grows, and the same bound is returned: it remains the
    right scale for resolving the dynamics.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must be in (0, 1]")
    eigs = grid.laplacian_eigenvalues(laplacian)
    # A frequency beyond the float range is refused below, without a warning.
    with np.errstate(all="ignore"):
        omegas = np.concatenate([np.atleast_1d(branch) for branch
                                 in dispersion_branches(coeffs, eigs)])
        bound = float(np.max(np.abs(omegas.real) + np.abs(omegas.imag)))
    if not math.isfinite(bound):
        raise ValueError("the grid's fastest frequency is not a finite float; "
                         "coarsen the grid or shrink the coefficients")
    if bound <= 0.0:
        raise ValueError("coefficients generate no dynamics; choose dt directly")
    return safety * kernels.RK4_IMAGINARY_STABILITY / bound


def step_plan(coeffs: CanonicalCoefficients, grid: Grid, horizon: float,
              dt: Optional[float] = None, laplacian: str = "stencil",
              safety: float = 0.7, allow_unstable: bool = False,
              min_steps: int = 1) -> tuple[float, int]:
    """(dt, n_steps): the fewest whole steps, at least ``min_steps``, that reach
    ``horizon`` with a step of at most ``dt`` (None: the stability rule at
    ``safety``), up to the round-off :func:`kernels.whole_steps` allows.
    Refused with ValueError unless ``allow_unstable``: v >= 1/2, and a dt
    above the stability bound."""
    if coeffs.v >= 0.5 and not allow_unstable:
        raise ValueError("all wavenumbers unstable (v >= 1/2); "
                         "set allow_unstable to run anyway")
    if dt is None:
        dt = stability_dt(coeffs, grid, safety, laplacian)
    elif not allow_unstable:
        bound = stability_dt(coeffs, grid, 1.0, laplacian)
        if dt > bound * (1.0 + 1e-9):
            raise ValueError(f"dt={dt!r} exceeds the stability bound "
                             f"{bound!r}; set allow_unstable to override")
    n_steps = max(min_steps, kernels.whole_steps(horizon, dt)[0])  # checks both, even at 0
    return (dt, 0) if horizon == 0.0 else (horizon / n_steps, n_steps)


# Largest growth rate x horizon a run may carry: modes above the critical
# wavenumber amplify round-off by e^(rate t), and e^25 keeps round-off seeded
# at 1e-16 below 1e-5 of the data.
_ROGUE_BUDGET = 25.0


def growth_rates(coeffs: CanonicalCoefficients, grid: Grid,
                 laplacian: str) -> np.ndarray:
    """Growth rate Im omega_plus of each of the grid's modes, in fft order;
    not finite where the frequency leaves the float range."""
    with np.errstate(all="ignore"):
        plus, _ = dispersion_branches(coeffs, grid.laplacian_eigenvalues(laplacian))
    return np.atleast_1d(plus).imag


def growth_horizon(rate: float) -> float:
    """Longest horizon over which growth at ``rate`` stays within the
    round-off budget (inf when nothing grows)."""
    return _ROGUE_BUDGET / rate if rate > 0.0 else math.inf


@dataclass(frozen=True, eq=False)
class PdeProblem:
    """The plan of one evolution run, made and checked before any field exists.

    Its steps to ``t_end`` are :func:`step_plan`'s, of at most ``dt`` (None:
    the stability rule at ``safety``) and at least ``min_steps`` of them.
    ``snapshot_stride`` is an int, a function of the step count, or None for
    about 512 snapshots.  ``kept`` is None for a materialised run, or the
    bytes of a row that the run's ``reduce`` keeps (see :func:`evolve`):
    ``n_bytes`` counts the run the plan will make, :func:`kernels.run_bytes`
    of every stored row or of a reduced run's ring.  Refused with ValueError:
    what :func:`step_plan` refuses, and round-off growth beyond
    ``_ROGUE_BUDGET`` e-folds, unless ``allow_unstable`` is set; and always
    ``n_bytes`` above the byte cap.
    """

    coeffs: CanonicalCoefficients
    grid: Grid
    t_end: float
    dt: Optional[float] = None
    snapshot_stride: Union[int, Callable[[int], int], None] = None
    laplacian: str = "stencil"
    safety: float = 0.7
    allow_unstable: bool = False
    min_steps: int = 1
    kept: Optional[int] = None
    n_steps: int = field(init=False)
    n_bytes: int = field(init=False)
    unstable_modes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.min_steps < 1:
            raise ValueError("min_steps must be >= 1")
        order = 1 if self.coeffs.a_tt == 0.0 else 2
        # The work arrays first, before any eigenvalue exists; the stored
        # rows once the stride is known.
        kernels.check_bytes(kernels.run_bytes(self.grid.n, 1, order),
                            f"a run on {self.grid.n} points")
        dt, n_steps = step_plan(self.coeffs, self.grid, self.t_end, self.dt, self.laplacian,
                                self.safety, self.allow_unstable, self.min_steps)
        rates = growth_rates(self.coeffs, self.grid, self.laplacian)
        rate = float(rates.max())
        if self.t_end > growth_horizon(rate) and not self.allow_unstable:
            raise ValueError(f"modes growing at up to {rate:.6g} amplify round-off by "
                             f"e^{rate * self.t_end:.4g} over t_end={self.t_end!r}, beyond "
                             f"e^{_ROGUE_BUDGET:g}; shorten t_end or set allow_unstable")
        stride = self.snapshot_stride
        if stride is None:  # about 512 snapshots
            stride = max(1, n_steps // 512)
        elif callable(stride):
            stride = stride(n_steps)
        rows = kernels.sample_rows(n_steps, stride)  # refuses a stride below 1
        need = kernels.check_bytes(
            kernels.run_bytes(self.grid.n, rows, order, self.kept),
            f"{rows} stored rows of {self.grid.n} points"
            + ("" if self.kept is None else ", reduced"))
        resolved = {"dt": dt, "n_steps": n_steps, "snapshot_stride": stride,
                    "n_bytes": need, "unstable_modes": rates > 1e-14}
        for name, value in resolved.items():
            object.__setattr__(self, name, value)


def schrodinger_rate(lam: np.ndarray, a_xx: float, v: float) -> np.ndarray:
    """Rate of each mode in the first-order limit, psi_hat' = rate psi_hat:
    i (-(a_xx / 2) lam - v), for Laplacian eigenvalues ``lam``."""
    return 1j * (-0.5 * a_xx * lam - v)


def _mode_coefficients(coeffs: CanonicalCoefficients, lam: np.ndarray) -> tuple:
    """What each mode is stepped by, for Laplacian eigenvalues ``lam``: (b, c)
    of A_k = [[0, 1], [b_k, c]], phi_hat' = b_k psi_hat + c phi_hat; in the
    first-order limit (rate, None)."""
    if coeffs.a_tt == 0.0:
        return schrodinger_rate(lam, coeffs.a_xx, coeffs.v), None
    return (2.0 * coeffs.v + coeffs.a_xx * lam) / coeffs.a_tt, -2j / coeffs.a_tt


def evolve(problem: PdeProblem, initial: FieldState, reduce=None) -> EvolutionResult:
    """Run ``problem``'s plan from ``initial``: the record's ``psi`` and
    ``dpsi_dt`` are grid values, one row per stored sample, and ``dpsi_dt``
    is None in the first-order limit, which steps psi alone.

    Initial data with content at the plan's unstable modes is refused with
    ValueError unless ``allow_unstable`` is set.  Raises
    :class:`BlowUpError` (with the offending time and the dominant
    wavenumber of the last finite snapshot) if the field leaves the
    representable range.

    With ``reduce``, the run is reduced as it is stepped: the record's
    ``psi`` holds ``reduce``'s outputs, one entry per stored row, and its
    ``dpsi_dt`` is None.  ``reduce(start, rows, magnitudes)`` maps the psi
    rows (rows x points) stored from index ``start`` on, in time order up
    to and including a blow-up's row, and their float64 |psi|, a temporary
    it may overwrite, to one entry a row; the rows are views of a ring of
    :func:`kernels.ring_rows` slots that later rows reuse, and whatever
    ``reduce`` raises ends the run.  A plan made with ``kept``, the bytes
    ``reduce`` keeps a row, has counted this run; the kernel checks the
    count again once the first outputs show what a row keeps.
    """
    grid = problem.grid
    if initial.grid != grid:
        raise ValueError("initial state lives on a different grid")
    unstable = problem.unstable_modes
    if not problem.allow_unstable and unstable.any():
        for component in (initial.psi, initial.dpsi_dt):
            spectrum = np.abs(np.fft.fft(component.values))
            if spectrum[unstable].max() > 1e-12 * spectrum.max():
                raise ValueError("initial data has content at unstable wavenumbers; "
                                 "filter it (spectral_filter) or set allow_unstable")
    plan = (problem.dt, problem.n_steps, problem.snapshot_stride)
    # the eigenvalues are a temporary: only the coefficients outlive this line
    b, c = _mode_coefficients(problem.coeffs,
                              grid.laplacian_eigenvalues(problem.laplacian))
    kept, keep = [], reduce
    if reduce is not None:
        def keep(start, rows, magnitudes):
            # the last two rows read out: once the ring has moved on, the
            # only copy of a blow-up's last good row
            kept[:] = [*kept, *rows[-2:].copy()][-2:]
            return reduce(start, rows, magnitudes)
    psi0, dpsis = initial.psi.values, None
    if c is None:
        psis, steps, blow = kernels.run_field_first_order(psi0, b, *plan,
                                                          reduce=keep)
    else:
        psis, dpsis, steps, blow = kernels.run_field_second_order(
            psi0, initial.dpsi_dt.values, b, c, *plan, reduce=keep)
    if blow >= 0:
        t_blow = float(steps[blow]) * problem.dt
        detail = ""
        if blow > 0:
            last_good = kept[0] if reduce else psis[blow - 1]
            spectrum = np.abs(np.fft.fft(last_good))
            k_dom = grid.wavenumbers()[int(np.argmax(spectrum))]
            detail = f"dominant content near k_hat={k_dom:.4g}"
        raise BlowUpError(t_blow, detail)
    return EvolutionResult(steps.astype(float) * problem.dt, psis, dpsis)


def spectral_filter(state: FieldState, k_cut: float) -> FieldState:
    """Zero all modes with |k| strictly above ``k_cut`` in both components."""
    if not math.isfinite(k_cut) or k_cut < 0.0:
        raise ValueError("k_cut must be non-negative and finite")
    grid = state.grid
    keep = np.abs(grid.wavenumbers()) <= k_cut
    out = []
    for component in (state.psi, state.dpsi_dt):
        spectrum = np.fft.fft(component.values)
        spectrum[~keep] = 0.0
        out.append(ComplexField(np.fft.ifft(spectrum), grid))
    return FieldState(out[0], out[1])


# --------------------------------------------------------------------------
# Initial data builders.
# --------------------------------------------------------------------------


def wrapped_offsets(grid: Grid, center: Optional[float] = None) -> np.ndarray:
    """Minimum-image offset of each point from ``center`` (default: domain
    middle) on the periodic domain."""
    if center is None:
        center = 0.5 * grid.length
    d = grid.xi() - center
    return (d + 0.5 * grid.length) % grid.length - 0.5 * grid.length


def gaussian_packet(grid: Grid, sigma0: float, center: Optional[float] = None) -> ComplexField:
    """Normalised Gaussian packet: |psi|^2 has standard deviation sigma0."""
    if not math.isfinite(sigma0) or sigma0 <= 0.0:
        raise ValueError("sigma0 must be positive and finite")
    d = wrapped_offsets(grid, center)
    psi = (2.0 * np.pi * sigma0**2) ** (-0.25) * np.exp(-(d * d) / (4.0 * sigma0**2))
    return ComplexField(psi.astype(np.complex128), grid)


def schrodinger_consistent_state(psi: ComplexField, coeffs: CanonicalCoefficients,
                                 laplacian_mode: str = "stencil") -> FieldState:
    """Pair psi with the slow-branch derivative i((a_xx/2) lap psi - v psi).

    Starting a packet with this derivative keeps the fast branch
    unexcited, so the run follows Schrodinger-like dynamics; any other
    choice mixes in oscillation at twice the reference frequency.  The
    derivative applies the evolution's discrete Laplacian mode by mode,
    through its eigenvalues.
    """
    rate = schrodinger_rate(psi.grid.laplacian_eigenvalues(laplacian_mode),
                            coeffs.a_xx, coeffs.v)
    phi = kernels.first_order_derivative(psi.values, rate)
    return FieldState(psi, ComplexField(phi, psi.grid))


def plane_wave_state(grid: Grid, mode_index: int, coeffs: CanonicalCoefficients,
                     branch: str = "minus", laplacian_mode: str = "stencil"
                     ) -> tuple[FieldState, float, tuple[complex, complex]]:
    """Single-mode initial data that excites exactly one dispersion branch.

    Returns (state, k_hat, (omega_plus, omega_minus)) where the omegas are
    the discrete-operator branch frequencies for that mode; ``branch``
    selects which one the derivative locks onto.
    """
    if branch not in ("plus", "minus"):
        raise ValueError("branch must be 'plus' or 'minus'")
    if abs(mode_index) > grid.n // 2:
        raise ValueError(f"mode_index must satisfy |j| <= n/2, got {mode_index}")
    k = 2.0 * np.pi * mode_index / grid.length
    eig = grid.laplacian_eigenvalues(laplacian_mode)[mode_index % grid.n]
    omega_plus, omega_minus = dispersion_branches(coeffs, eig)
    omega = omega_plus if branch == "plus" else omega_minus
    psi = np.exp(1j * k * grid.xi())
    phi = -1j * omega * psi
    state = FieldState(ComplexField(psi, grid), ComplexField(phi, grid))
    return state, k, (complex(omega_plus), complex(omega_minus))


# --------------------------------------------------------------------------
# Measurement helpers.
# --------------------------------------------------------------------------


def mode_amplitudes(psi_snapshots: np.ndarray, mode_index: int) -> np.ndarray:
    """Complex amplitude of one Fourier mode across snapshots: its one DFT
    coefficient over n, a matrix-vector product with its twiddles."""
    n = psi_snapshots.shape[1]
    twiddles = np.exp(-2j * np.pi * ((np.arange(n) * mode_index) % n) / n)
    return psi_snapshots @ twiddles / n


def _slopes(times: np.ndarray, values: np.ndarray):
    """Least-squares slope of each column of a (rows, K) stack ``values``, or a
    float for 1-D ``values``, from pairwise sums along the column alone: it
    reads the same in a stack of any width, where np.polyfit's lstsq rounds it
    by the stack's width."""
    t = times - times.mean()
    y = np.ascontiguousarray(values.T)
    slope = ((y - y.mean(axis=-1, keepdims=True)) * t).sum(axis=-1) / (t @ t)
    return float(slope) if slope.ndim == 0 else slope


def fit_mode_frequency(times: np.ndarray, amplitudes: np.ndarray):
    """Oscillation frequency from the slope of the unwrapped phase, per column."""
    return -_slopes(times, np.unwrap(np.angle(amplitudes), axis=0))


def fit_mode_growth(times: np.ndarray, amplitudes: np.ndarray):
    """Exponential growth rate from the slope of log |amplitude|, per column."""
    mags = np.abs(amplitudes)
    if np.any(mags <= 0.0):
        raise ValueError("amplitudes must be non-zero for a growth fit")
    return _slopes(times, np.log(mags))


def field_width(values: np.ndarray, grid: Grid, center: Optional[float] = None,
                offsets: Optional[np.ndarray] = None) -> ArrayLike:
    """Root-mean-square width of |psi|^2 about ``center`` (default: domain
    middle): a float for one field, an array for a stack of rows (samples x
    points, real rows read as |psi|), in blocks of :func:`kernels.block_rows`
    rows.  ``offsets``, the :func:`wrapped_offsets` about ``center``, spares
    a caller that measures many stacks remaking them."""
    values = np.asarray(values)
    rows = values.reshape(-1, grid.n)
    d = wrapped_offsets(grid, center) if offsets is None else offsets
    widths = np.empty(rows.shape[0])
    block = kernels.block_rows(grid.n)
    for a in range(0, rows.shape[0], block):
        w = np.abs(rows[a:a + block])
        w *= w
        total = w.sum(axis=-1)
        if (total <= 0.0).any():
            raise ValueError("field has no mass")
        w *= d  # in this order: w * (d * d) can differ in the last bit
        w *= d
        widths[a:a + block] = np.sqrt(w.sum(axis=-1) / total)
    return float(widths[0]) if values.ndim == 1 else widths


def width_law(sigma0: float, r: float, t: ArrayLike) -> ArrayLike:
    """Free-particle Gaussian spreading law for the first-order limit.

    A packet of initial width sigma0 under i psi_t = -(r/2) psi_xx spreads
    as sigma(t) = sigma0 sqrt(1 + (r t / (2 sigma0^2))^2).
    """
    if sigma0 <= 0.0 or r <= 0.0:
        raise ValueError("sigma0 and r must be positive")
    t = np.asarray(t, dtype=float)
    out = sigma0 * np.sqrt(1.0 + (r * t / (2.0 * sigma0**2)) ** 2)
    if out.ndim == 0:
        return float(out)
    return out
