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
for) that growth.  Problem construction refuses initial data with content
at unstable modes unless ``allow_unstable`` is set.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import kernels
from .analytic import CanonicalCoefficients, dispersion_branches
from .integrator import BlowUpError, _resolve_steps

ArrayLike = Union[float, np.ndarray]

LAPLACIAN_MODES = ("stencil", "spectral")

# A grid's wavenumbers, from 2 pi / length up to the Nyquist pi / dx, lie in
# this range, so every Laplacian eigenvalue (at most their square) is a
# finite, normal float.
_WAVENUMBER_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))


def _check_laplacian_mode(mode: str) -> None:
    if mode not in LAPLACIAN_MODES:
        raise ValueError(f"laplacian mode must be one of {LAPLACIAN_MODES}, got {mode!r}")


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
        """Positive eigenvalues k_eff^2 of minus the discrete Laplacian."""
        _check_laplacian_mode(laplacian)
        return kernels.laplacian_eigenvalues(self.n, self.dx, laplacian)


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
    every wavenumber grows; a warning is issued and the same bound is
    returned (it remains the right scale for resolving the dynamics).
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must be in (0, 1]")
    eigs = grid.laplacian_eigenvalues(laplacian)
    omegas = np.concatenate([np.atleast_1d(branch) for branch
                             in dispersion_branches(coeffs, eigs)])
    bound = float(np.max(np.abs(omegas.real) + np.abs(omegas.imag)))
    if coeffs.v >= 0.5:
        warnings.warn("all wavenumbers are unstable (v >= 1/2); "
                      "step bound taken from |Re omega| + |Im omega|")
    if not math.isfinite(bound):
        raise ValueError("the grid's fastest frequency is not a finite float; "
                         "coarsen the grid or shrink the coefficients")
    if bound <= 0.0:
        raise ValueError("coefficients generate no dynamics; choose dt directly")
    return safety * kernels.RK4_IMAGINARY_STABILITY / bound


def _step_plan(horizon: float, dt_max: float, min_steps: int = 1) -> tuple[float, int]:
    """(dt, n_steps): the fewest whole steps, at least ``min_steps``, that
    reach ``horizon`` exactly with ``dt <= dt_max``."""
    if not horizon / dt_max < kernels.MAX_STEPS:
        raise ValueError(f"horizon {horizon!r} needs more than "
                         f"{kernels.MAX_STEPS} steps of at most {dt_max!r}")
    n_steps = max(min_steps, math.ceil(horizon / dt_max))
    return horizon / n_steps, n_steps


def _unstable_mode_mask(coeffs: CanonicalCoefficients, grid: Grid,
                        laplacian: str) -> np.ndarray:
    eigs = grid.laplacian_eigenvalues(laplacian)
    plus, _ = dispersion_branches(coeffs, eigs)
    return np.atleast_1d(plus).imag > 1e-14


@dataclass(frozen=True, eq=False)
class PdeProblem:
    """One fully specified evolution run.

    ``dt=None`` picks the stability-rule step.  An explicit dt above the
    stability bound, or initial data with content at unstable wavenumbers,
    is rejected unless ``allow_unstable`` is set -- that flag is the
    documented escape hatch for deliberately driving a run into blow-up.
    """

    coeffs: CanonicalCoefficients
    grid: Grid
    initial: FieldState
    t_end: float
    dt: Optional[float] = None
    snapshot_stride: Optional[int] = None
    laplacian: str = "stencil"
    safety: float = 0.7
    allow_unstable: bool = False

    def __post_init__(self) -> None:
        _check_laplacian_mode(self.laplacian)
        if self.initial.grid != self.grid:
            raise ValueError("initial state lives on a different grid")
        if not math.isfinite(self.t_end) or self.t_end < 0.0:
            raise ValueError("t_end must be non-negative and finite")
        if self.snapshot_stride is not None and self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.dt is None:
            bound = stability_dt(self.coeffs, self.grid, self.safety,
                                 self.laplacian)
            dt = _step_plan(self.t_end, bound)[0] if self.t_end > 0.0 else bound
            object.__setattr__(self, "dt", dt)
        else:
            if self.dt <= 0.0 or not math.isfinite(self.dt):
                raise ValueError("dt must be positive and finite")
            if not self.allow_unstable:
                bound = stability_dt(self.coeffs, self.grid, 1.0, self.laplacian)
                if self.dt > bound * (1.0 + 1e-9):
                    raise ValueError(
                        f"dt={self.dt!r} exceeds the stability bound {bound!r}; "
                        "set allow_unstable to override")
        if not self.allow_unstable:
            self._check_spectral_content()

    def _check_spectral_content(self) -> None:
        if self.coeffs.v >= 0.5:
            raise ValueError("all wavenumbers unstable (v >= 1/2); "
                             "set allow_unstable to run anyway")
        mask = _unstable_mode_mask(self.coeffs, self.grid, self.laplacian)
        if not np.any(mask):
            return
        for field in (self.initial.psi, self.initial.dpsi_dt):
            spectrum = np.abs(np.fft.fft(field.values))
            scale = float(spectrum.max())
            if scale == 0.0:
                continue
            if float(spectrum[mask].max()) > 1e-12 * scale:
                raise ValueError(
                    "initial data has content at unstable wavenumbers; "
                    "filter it (spectral_filter) or set allow_unstable")


@dataclass(eq=False)
class EvolutionResult:
    """Snapshots and per-snapshot diagnostics of one evolution run."""

    times: np.ndarray
    psi: np.ndarray
    dpsi_dt: np.ndarray
    l2_norm: np.ndarray
    max_abs: np.ndarray
    dt: float
    n_steps: int
    snapshot_stride: int
    laplacian: str


def _auto_stride(n_steps: int, target_snapshots: int = 512) -> int:
    return max(1, n_steps // target_snapshots)


def evolve(problem: PdeProblem) -> EvolutionResult:
    """Run the method-of-lines integration described by ``problem``.

    Raises :class:`BlowUpError` (with the offending time and the dominant
    wavenumber of the last finite snapshot) if the field leaves the
    representable range.
    """
    n_steps = _resolve_steps(problem.t_end, problem.dt)
    stride = problem.snapshot_stride or _auto_stride(n_steps)
    grid = problem.grid
    psi0 = problem.initial.psi.values
    phi0 = problem.initial.dpsi_dt.values
    if problem.coeffs.a_tt == 0.0:
        psis, phis, steps, blow = kernels.run_field_first_order(
            psi0, problem.coeffs.a_xx, problem.coeffs.v, grid.dx, problem.dt,
            n_steps, stride, problem.laplacian)
    else:
        psis, phis, steps, blow = kernels.run_field_second_order(
            psi0, phi0, problem.coeffs.a_xx, problem.coeffs.a_tt,
            problem.coeffs.v, grid.dx, problem.dt, n_steps, stride,
            problem.laplacian)
    if blow >= 0:
        t_blow = float(steps[blow]) * problem.dt
        detail = ""
        if blow > 0:
            last_good = psis[blow - 1]
            spectrum = np.abs(np.fft.fft(last_good))
            k_dom = grid.wavenumbers()[int(np.argmax(spectrum))]
            detail = f"dominant content near k_hat={k_dom:.4g}"
        raise BlowUpError(t_blow, detail)
    times = steps.astype(float) * problem.dt
    l2 = np.sqrt(np.sum(np.abs(psis) ** 2, axis=1) * grid.dx)
    return EvolutionResult(
        times=times, psi=psis, dpsi_dt=phis, l2_norm=l2,
        max_abs=np.abs(psis).max(axis=1), dt=problem.dt, n_steps=n_steps,
        snapshot_stride=stride, laplacian=problem.laplacian,
    )


def spectral_filter(state: FieldState, k_cut: float) -> FieldState:
    """Zero all modes with |k| strictly above ``k_cut`` in both components."""
    if not math.isfinite(k_cut) or k_cut < 0.0:
        raise ValueError("k_cut must be non-negative and finite")
    grid = state.grid
    keep = np.abs(grid.wavenumbers()) <= k_cut
    out = []
    for field in (state.psi, state.dpsi_dt):
        spectrum = np.fft.fft(field.values)
        spectrum[~keep] = 0.0
        out.append(ComplexField(np.fft.ifft(spectrum), grid))
    return FieldState(out[0], out[1])


# --------------------------------------------------------------------------
# Initial data builders.
# --------------------------------------------------------------------------


def _wrapped_offsets(grid: Grid, center: float) -> np.ndarray:
    # Minimum-image distance to the centre on the periodic domain.
    d = grid.xi() - center
    return (d + 0.5 * grid.length) % grid.length - 0.5 * grid.length


def gaussian_packet(grid: Grid, sigma0: float, center: Optional[float] = None) -> ComplexField:
    """Normalised Gaussian packet: |psi|^2 has standard deviation sigma0."""
    if not math.isfinite(sigma0) or sigma0 <= 0.0:
        raise ValueError("sigma0 must be positive and finite")
    if center is None:
        center = 0.5 * grid.length
    d = _wrapped_offsets(grid, center)
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
    lam = psi.grid.laplacian_eigenvalues(laplacian_mode)
    rate = 1j * (-0.5 * coeffs.a_xx * lam - coeffs.v)
    phi = np.fft.ifft(rate * np.fft.fft(psi.values))
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
    """Complex amplitude of one Fourier mode across snapshots."""
    n = psi_snapshots.shape[1]
    return np.fft.fft(psi_snapshots, axis=1)[:, mode_index % n] / n


def fit_mode_frequency(times: np.ndarray, amplitudes: np.ndarray) -> float:
    """Oscillation frequency from the slope of the unwrapped phase."""
    phase = np.unwrap(np.angle(amplitudes))
    return -float(np.polyfit(times, phase, 1)[0])


def fit_mode_growth(times: np.ndarray, amplitudes: np.ndarray) -> float:
    """Exponential growth rate from the slope of log |amplitude|."""
    mags = np.abs(amplitudes)
    if np.any(mags <= 0.0):
        raise ValueError("amplitudes must be non-zero for a growth fit")
    return float(np.polyfit(times, np.log(mags), 1)[0])


def field_width(values: np.ndarray, grid: Grid, center: Optional[float] = None) -> float:
    """Root-mean-square width of |psi|^2 about ``center`` (default: domain middle)."""
    if center is None:
        center = 0.5 * grid.length
    w = np.abs(np.asarray(values)) ** 2
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("field has no mass")
    d = _wrapped_offsets(grid, center)
    return math.sqrt(float((w * d * d).sum()) / total)


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
