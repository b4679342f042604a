"""Time stepping of the uniform temporal system.

The spatially uniform equation reduces to a second-order complex ODE,
written as the first-order system

    psi' = phi,    phi' = 2 (v psi - i phi)

with time in tau_p units: y' = A y for y = (psi, phi) and the companion
matrix A = [[0, 1], [2 v, -2 i]].  It is stepped by classical fixed-step
RK4 (order 4, stability |lambda| dt <= 2.8 on the imaginary axis) as the
one mode of a one-point grid in ``kernels``, the propagator that also
drives the field solver in ``pde``.  This module holds the run record that
it and ``pde.evolve`` return, the stored rows' values as plain arrays, and
the blow-up errors the scenarios share.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

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


@dataclass(eq=False)
class EvolutionResult:
    """Stored samples of one run: ``times`` from 0, and ``psi`` and
    ``dpsi_dt``, one row of values (a value, for the uniform system) per
    sample.

    ``dpsi_dt`` is None where the run stepped no derivative.  A first-order
    field run steps psi alone: its derivative is
    ``kernels.first_order_derivative`` of the rows and the mode rates.  A
    reduced run (see ``pde.evolve``) holds ``reduce``'s output in ``psi``,
    one entry per stored row.
    """

    times: np.ndarray
    psi: np.ndarray
    dpsi_dt: Optional[np.ndarray] = None


def integrate_uniform(initial: TemporalState, v: float, t_end: float,
                      dt: float, sample_stride: int = 1) -> EvolutionResult:
    """RK4 run of the uniform system from ``initial`` to ``t_end``.

    ``t_end`` must be a whole number of steps of ``dt``, as
    :func:`kernels.whole_steps` decides.  Samples are stored every
    ``sample_stride`` steps and always include t = 0 and t = t_end.
    A sample that is non-finite or of magnitude ``kernels.BLOWUP_MAGNITUDE``
    or more raises :class:`BlowUpError` carrying its time; a run whose
    arrays would exceed ``kernels.MAX_SAMPLE_BYTES`` raises ValueError.
    """
    if not math.isfinite(v):
        raise ValueError("potential v must be finite")
    n_steps, whole = kernels.whole_steps(t_end, dt)
    if not whole:
        raise ValueError("t_end must be an integer number of dt steps")
    psis, phis, steps, blow_slot = kernels.run_uniform(
        initial.psi, initial.dpsi_dt, 2.0 * float(v), -2j, dt, n_steps,
        sample_stride)
    if blow_slot >= 0:
        raise BlowUpError(float(steps[blow_slot]) * dt)
    return EvolutionResult(steps.astype(float) * dt, psis, phis)


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
