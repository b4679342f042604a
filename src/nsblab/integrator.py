"""Time stepping of the uniform temporal system.

The spatially uniform equation reduces to a second-order complex ODE,
written as the first-order system

    psi' = phi,    phi' = 2 (v psi - i phi)

with time in tau_p units.  It is stepped by classical fixed-step RK4
(order 4, stability |lambda| dt <= 2.8 on the imaginary axis) as the one
mode of a one-point grid in ``kernels``, the propagator that also drives
the field solver in ``pde``.  This module holds the run records, the
step-count rule and the blow-up errors the scenarios share.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels


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


def integrate_uniform(initial: TemporalState, v: float, t_end: float,
                      dt: float, sample_stride: int = 1) -> Trajectory:
    """RK4 trajectory of the uniform system from ``initial`` to ``t_end``.

    ``t_end`` must be a whole number of steps of ``dt``.  Samples are stored
    every ``sample_stride`` steps and always include t = 0 and t = t_end.
    A sample that is non-finite or of magnitude ``kernels.BLOWUP_MAGNITUDE``
    or more raises :class:`BlowUpError` carrying its time; a run whose
    samples would exceed ``kernels.MAX_SAMPLE_BYTES`` raises ValueError.
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
