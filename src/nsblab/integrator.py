"""Fixed-step RK4 integration of the uniform temporal system.

The spatially uniform equation reduces to a second-order complex ODE,
written as the first-order system

    psi' = phi,    phi' = 2 (v psi - i phi)

with time in tau_p units.  A classical fixed-step RK4 scheme is used
throughout the package (order 4, stability |lambda| dt <= 2.8 on the
imaginary axis); the same scheme also drives the method-of-lines field
solver in ``pde``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .kernels import RK4_IMAGINARY_STABILITY


class BlowUpError(RuntimeError):
    """A trajectory left the finite range the solver can represent."""

    event = "blew up"

    def __init__(self, time: float, detail: str = ""):
        self.time = time
        self.detail = detail
        msg = f"solution {self.event} at t_hat={time:.6g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class UnderflowError(BlowUpError):
    """A field decayed to exactly zero, below the range the solver can
    represent, so none of its digits are left."""

    event = "underflowed to zero"


@dataclass(frozen=True)
class TemporalState:
    """Value and time derivative of the uniform field at one instant."""

    psi: complex
    dpsi_dt: complex

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.psi) and cmath.isfinite(self.dpsi_dt)):
            raise ValueError("state components must be finite")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of one integration run.

    ``times`` are the sample instants (strictly increasing, starting at 0),
    ``psis``/``dpsis_dt`` the corresponding values, and ``sample_stride``
    the number of solver steps between stored samples.
    """

    times: np.ndarray
    psis: np.ndarray
    dpsis_dt: np.ndarray
    sample_stride: int

    def __post_init__(self) -> None:
        if not (len(self.times) == len(self.psis) == len(self.dpsis_dt)):
            raise ValueError("times and state arrays must have equal length")
        if len(self.times) == 0:
            raise ValueError("trajectory cannot be empty")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> TemporalState:
        return TemporalState(complex(self.psis[i]), complex(self.dpsis_dt[i]))

    @property
    def final_state(self) -> TemporalState:
        return self.state(len(self) - 1)


def rhs_uniform(state: TemporalState, v: float) -> TemporalState:
    """Derivative of the uniform system: (phi, 2 (v psi - i phi))."""
    return TemporalState(
        psi=state.dpsi_dt,
        dpsi_dt=2.0 * (v * state.psi - 1j * state.dpsi_dt),
    )


Rhs = Callable[[TemporalState], TemporalState]


def rk4_step(state: TemporalState, rhs: Rhs, dt: float) -> TemporalState:
    """One classical RK4 step of size dt."""
    if dt <= 0.0 or not math.isfinite(dt):
        raise ValueError("dt must be positive and finite")
    half = 0.5 * dt
    sixth = dt / 6.0
    k1 = rhs(state)
    k2 = rhs(TemporalState(state.psi + half * k1.psi,
                           state.dpsi_dt + half * k1.dpsi_dt))
    k3 = rhs(TemporalState(state.psi + half * k2.psi,
                           state.dpsi_dt + half * k2.dpsi_dt))
    k4 = rhs(TemporalState(state.psi + dt * k3.psi,
                           state.dpsi_dt + dt * k3.dpsi_dt))
    return TemporalState(
        state.psi + sixth * (k1.psi + 2.0 * k2.psi + 2.0 * k3.psi + k4.psi),
        state.dpsi_dt + sixth * (k1.dpsi_dt + 2.0 * k2.dpsi_dt
                                 + 2.0 * k3.dpsi_dt + k4.dpsi_dt),
    )


def _resolve_steps(t_end: float, dt: float) -> int:
    if dt <= 0.0 or not math.isfinite(dt):
        raise ValueError("dt must be positive and finite")
    if t_end < 0.0 or not math.isfinite(t_end):
        raise ValueError("t_end must be non-negative and finite")
    if not t_end / dt < kernels.MAX_STEPS:
        raise ValueError(f"t_end={t_end!r} needs more than {kernels.MAX_STEPS} "
                         f"steps of dt={dt!r}")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(dt, t_end):
        raise ValueError("t_end must be an integer number of dt steps")
    return n_steps


def integrate(initial: TemporalState, rhs: Rhs, t_end: float, dt: float,
              sample_stride: int = 1) -> Trajectory:
    """Integrate an arbitrary rhs, sampling every ``sample_stride`` steps.

    The samples always include t = 0 and t = t_end.  A state that leaves
    the representable range (non-finite, or magnitude above 1e300 at a
    sample point) raises :class:`BlowUpError` carrying the offending time.
    """
    n_steps = _resolve_steps(t_end, dt)
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    steps = kernels.sample_steps(n_steps, sample_stride)
    psis = np.empty(steps.shape[0], dtype=np.complex128)
    phis = np.empty_like(psis)
    state = initial
    psis[0] = state.psi
    phis[0] = state.dpsi_dt
    wrote = 1
    for step in range(n_steps):
        try:
            state = rk4_step(state, rhs, dt)
        except ValueError:
            # A non-finite intermediate surfaced inside the step.
            raise BlowUpError((step + 1) * dt) from None
        s = step + 1
        if s % sample_stride == 0 or s == n_steps:
            psis[wrote] = state.psi
            phis[wrote] = state.dpsi_dt
            wrote += 1
            if not (abs(state.psi) < kernels.BLOWUP_MAGNITUDE
                    and abs(state.dpsi_dt) < kernels.BLOWUP_MAGNITUDE):
                raise BlowUpError(s * dt)
    times = steps.astype(float) * dt
    return Trajectory(times=times, psis=psis, dpsis_dt=phis,
                      sample_stride=sample_stride)


def integrate_uniform(initial: TemporalState, v: float, t_end: float,
                      dt: float, sample_stride: int = 1) -> Trajectory:
    """Kernel-backed fast path of :func:`integrate` for the uniform rhs.

    Produces the same trajectory as ``integrate(initial, rhs, ...)`` with
    ``rhs = lambda s: rhs_uniform(s, v)``, up to round-off: the kernel
    applies the RK4 amplification matrix of the system (see ``kernels``).
    """
    if not math.isfinite(v):
        raise ValueError("potential v must be finite")
    n_steps = _resolve_steps(t_end, dt)
    psis, phis, steps, blow_slot = kernels.run_uniform(
        initial.psi, initial.dpsi_dt, v, dt, n_steps, sample_stride)
    if blow_slot >= 0:
        raise BlowUpError(float(steps[blow_slot]) * dt)
    times = steps.astype(float) * dt
    return Trajectory(times=times, psis=psis, dpsis_dt=phis,
                      sample_stride=sample_stride)


def convergence_order(errors: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log error against log dt.

    Expects at least three (dt, error) pairs with successively halved dt
    and strictly positive errors; anything else is rejected so a silently
    degenerate fit cannot masquerade as an order.
    """
    if len(errors) < 3:
        raise ValueError("need at least three (dt, error) points")
    dts = np.asarray([p[0] for p in errors], dtype=float)
    errs = np.asarray([p[1] for p in errors], dtype=float)
    if np.any(dts <= 0.0) or not np.all(np.isfinite(dts)):
        raise ValueError("dt values must be positive and finite")
    ratios = dts[1:] / dts[:-1]
    if np.any(np.abs(ratios - 0.5) > 1e-6):
        raise ValueError("dt values must halve from one point to the next")
    if np.any(errs <= 0.0) or not np.all(np.isfinite(errs)):
        raise ValueError("errors must be positive and finite")
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    return float(slope)


def fit_exponential_rate(times: np.ndarray, magnitudes: np.ndarray,
                         fit_window: float = 0.5) -> float:
    """Growth rate from a least-squares line through log |psi|.

    Only the trailing ``fit_window`` fraction of the samples is used, which
    lets any non-dominant branch of the solution decay out of the fit.
    """
    times = np.asarray(times, dtype=float)
    mags = np.asarray(magnitudes, dtype=float)
    if times.shape != mags.shape or times.ndim != 1:
        raise ValueError("times and magnitudes must be matching 1-d arrays")
    if not 0.0 < fit_window <= 1.0:
        raise ValueError("fit_window must be in (0, 1]")
    start = int(round((1.0 - fit_window) * (len(times) - 1)))
    t = times[start:]
    m = mags[start:]
    if len(t) < 2:
        raise ValueError("not enough samples in the fit window")
    if np.any(m <= 0.0) or not np.all(np.isfinite(m)):
        raise ValueError("magnitudes must be positive and finite in the window")
    return float(np.polyfit(t, np.log(m), 1)[0])
