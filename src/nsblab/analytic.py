"""Closed-form layer: regimes, canonical coefficients, roots and dispersion.

The model treated here is a telegraph-type extension of the Schrodinger
equation.  In dimensionless Planck-scale variables (see ``constants``) it
reads

    i psi_t = -(a_xx / 2) psi_xx + v psi - (a_tt / 2) psi_tt

with ``a_xx = r`` (mass ratio M_p / m) and ``a_tt = 1`` in the full form.
For a heavy particle the spatial term drops entirely (``a_xx = 0``) and the
equation becomes mass independent; for a light particle the same coefficient
set as the full form applies.  Spatially uniform solutions exp(gamma * t)
obey the quadratic

    gamma^2 / 2 + i gamma - v = 0

and plane waves exp(i (k x - omega t)) obey

    omega^2 / 2 - omega + (r / 2) k^2 + v = 0.

All closed forms below are in dimensionless units: gamma in 1/tau_p, omega
in 1/tau_p, k in 1/length_p, v in units of the Planck energy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

DEFAULT_REGIME_THRESHOLD = 100.0


class Regime(Enum):
    MICROSCOPIC = "microscopic"  # m << M_p, i.e. r >> 1
    MACROSCOPIC = "macroscopic"  # m >> M_p, i.e. r << 1
    INTERMEDIATE = "intermediate"


class EquationForm(Enum):
    FULL = "full"
    MICROSCOPIC = "microscopic"
    MACROSCOPIC = "macroscopic"


class AllWavenumbersUnstableError(ValueError):
    """Raised when v >= 1/2, where every wavenumber grows."""


def classify_regime(r: float, threshold: float = DEFAULT_REGIME_THRESHOLD) -> Regime:
    """Classify the mass ratio r = M_p / m against a contrast threshold."""
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError(f"mass ratio r must be positive and finite, got {r!r}")
    if threshold <= 1.0:
        raise ValueError("threshold must exceed 1")
    if r >= threshold:
        return Regime.MICROSCOPIC
    if r <= 1.0 / threshold:
        return Regime.MACROSCOPIC
    return Regime.INTERMEDIATE


@dataclass(frozen=True)
class EquationParameters:
    """Dimensionless inputs selecting one concrete equation.

    ``form`` may only be paired with a mass ratio that is not strictly in
    the opposite regime (see :func:`classify_regime`): the macroscopic
    reduction is rejected for r >= 100 and the microscopic one for r <= 1/100.
    """

    r: float
    v: float
    form: EquationForm = EquationForm.FULL

    def __post_init__(self) -> None:
        if not math.isfinite(self.r) or self.r <= 0.0:
            raise ValueError(f"mass ratio r must be positive and finite, got {self.r!r}")
        if not math.isfinite(self.v):
            raise ValueError("potential v must be finite")
        regime = classify_regime(self.r)
        if self.form is EquationForm.MACROSCOPIC and regime is Regime.MICROSCOPIC:
            raise ValueError(
                f"macroscopic form not permitted at r={self.r!r} (microscopic regime)"
            )
        if self.form is EquationForm.MICROSCOPIC and regime is Regime.MACROSCOPIC:
            raise ValueError(
                f"microscopic form not permitted at r={self.r!r} (macroscopic regime)"
            )


@dataclass(frozen=True)
class CanonicalCoefficients:
    """Coefficients of i psi_t = -(a_xx/2) psi_xx + v psi - (a_tt/2) psi_tt."""

    a_xx: float
    a_tt: float
    v: float

    def __post_init__(self) -> None:
        for name in ("a_xx", "a_tt", "v"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.a_xx < 0.0 or self.a_tt < 0.0:
            raise ValueError("a_xx and a_tt must be non-negative")


def reduce_equation(params: EquationParameters) -> CanonicalCoefficients:
    """Map an equation form to its canonical coefficient set.

    The raw right-hand side carries two extra spatial terms of equal size
    and opposite sign (-psi_xx/2 and +psi_xx/2 in dimensionless variables);
    they cancel exactly, which is why the full and microscopic forms share
    a_xx = r.  The macroscopic form keeps no spatial term at all, so its
    coefficients are independent of r.
    """
    if params.form is EquationForm.MACROSCOPIC:
        return CanonicalCoefficients(a_xx=0.0, a_tt=1.0, v=params.v)
    return CanonicalCoefficients(a_xx=params.r, a_tt=1.0, v=params.v)


@dataclass(frozen=True)
class CharacteristicRoots:
    """Roots of the uniform-solution quadratic, in 1/tau_p units.

    ``stable`` is true when neither root has a positive real part, which
    happens exactly for v <= 1/2.
    """

    gamma1: complex
    gamma2: complex
    discriminant: complex
    stable: bool


def characteristic_roots(v: float) -> CharacteristicRoots:
    """Solve gamma^2/2 + i gamma - v = 0 for exp(gamma t) uniform solutions."""
    if not math.isfinite(v):
        raise ValueError("potential v must be finite")
    disc = complex(-1.0 + 2.0 * v)
    s = cmath.sqrt(disc)
    gamma1 = -1j + s
    gamma2 = -1j - s
    stable = gamma1.real <= 0.0 and gamma2.real <= 0.0
    return CharacteristicRoots(gamma1=gamma1, gamma2=gamma2, discriminant=disc, stable=stable)


@dataclass(frozen=True)
class FreeSolutionSpec:
    """Amplitudes of the free uniform solution A + B * exp(-2 i t_hat)."""

    A: complex
    B: complex

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.A) and cmath.isfinite(self.B)):
            raise ValueError("A and B must be finite")

    @classmethod
    def zero_initial(cls, A: complex) -> "FreeSolutionSpec":
        """Spec satisfying psi(0) = 0, i.e. B = -A."""
        return cls(A=A, B=-A)

    @property
    def satisfies_zero_initial(self) -> bool:
        return self.B == -self.A


def free_solution(spec: FreeSolutionSpec, t_hat: ArrayLike) -> ArrayLike:
    """Evaluate the free (v = 0) uniform solution at dimensionless times.

    For the zero-initial spec this is A * (1 - exp(-2 i t_hat)): the real
    part swings between 0 and 2A with period pi in t_hat.
    """
    t = np.asarray(t_hat, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t_hat must be non-negative")
    out = spec.A + spec.B * np.exp(-2j * t)
    if np.isscalar(t_hat) or t.ndim == 0:
        return complex(out)
    return out


def dispersion_branches(
    coeffs: CanonicalCoefficients, k_sq: ArrayLike
) -> tuple[ArrayLike, ArrayLike]:
    """Frequency branches (omega_plus, omega_minus) for given k^2 eigenvalues.

    Solves (a_tt/2) omega^2 - omega + (a_xx/2) k^2 + v = 0.  For a_tt = 0
    the equation is first order in time and the single branch
    omega = (a_xx/2) k^2 + v is returned in both slots.  For a negative
    discriminant omega_plus is the branch with positive imaginary part,
    i.e. the growing mode of exp(-i omega t).  omega_minus is the slow,
    Schrodinger-like branch; omega_plus the fast one (2/tau_p at k = v = 0).
    """
    ksq = np.asarray(k_sq, dtype=float)
    scalar = np.isscalar(k_sq) or ksq.ndim == 0
    sigma = 0.5 * coeffs.a_xx * ksq + coeffs.v
    if coeffs.a_tt == 0.0:
        omega = sigma.astype(complex)
        if scalar:
            return complex(omega), complex(omega)
        return omega, omega
    disc = np.asarray(1.0 - 2.0 * coeffs.a_tt * sigma, dtype=complex)
    s = np.sqrt(disc)
    plus = (1.0 + s) / coeffs.a_tt
    minus = (1.0 - s) / coeffs.a_tt
    if scalar:
        return complex(plus), complex(minus)
    return plus, minus


def critical_wavenumber(params: EquationParameters) -> float:
    """Largest stable wavenumber sqrt((1 - 2v) / a_xx) of the reduced form.

    Modes with k above this value have complex frequencies and grow.  For
    v >= 1/2 no wavenumber is stable and an error is raised; with no
    spatial term (a_xx = 0) no finite k is unstable and inf is returned.
    """
    coeffs = reduce_equation(params)
    if coeffs.v >= 0.5:
        raise AllWavenumbersUnstableError(
            f"all wavenumbers unstable for v={coeffs.v!r} >= 1/2"
        )
    if coeffs.a_xx == 0.0:
        return math.inf
    return math.sqrt((1.0 - 2.0 * coeffs.v) / coeffs.a_xx)
