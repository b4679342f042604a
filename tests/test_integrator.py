import math

import numpy as np
import pytest

from nsblab.analytic import FreeSolutionSpec, free_solution
from nsblab.integrator import (
    BlowUpError,
    TemporalState,
    convergence_order,
    integrate_uniform,
)
from nsblab.pde import fit_mode_growth

SPEC = FreeSolutionSpec.zero_initial(1.0)
INITIAL = TemporalState(0.0 + 0.0j, 2.0j)

# Measured constant of the RK4 global-error model err <= C * t * dt^4 for
# the free problem (the largest eigenvalue is 2i, so the local error per
# step is ~ (2 dt)^5/120 and C comes out just below 0.27).
ERROR_RATE = 0.27


def test_state_must_be_finite():
    with pytest.raises(ValueError):
        TemporalState(float("nan"), 0.0)
    with pytest.raises(ValueError):
        TemporalState(0.0, complex(float("inf"), 0.0))


def test_single_step_matches_analytic():
    dt = 1e-3
    out = integrate_uniform(INITIAL, 0.0, dt, dt)
    assert out.psi[-1] == pytest.approx(free_solution(SPEC, dt), abs=1e-14)


def test_zero_state_is_fixed_point():
    out = integrate_uniform(TemporalState(0.0, 0.0), 0.0, 0.1, 0.1)
    assert out.psi[-1] == 0.0 and out.dpsi_dt[-1] == 0.0


def test_step_error_ratio_is_fourth_order():
    t_end = 1.0
    errs = []
    for dt in (0.1, 0.05):
        run = integrate_uniform(INITIAL, 0.0, t_end, dt)
        errs.append(abs(run.psi[-1] - free_solution(SPEC, t_end)))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)


def test_integrate_uniform_rejects_bad_dt():
    for dt in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            integrate_uniform(INITIAL, 0.0, 1.0, dt)


def test_integrate_long_horizon_accuracy():
    traj = integrate_uniform(INITIAL, 0.0, 100.0, 1e-3, sample_stride=100)
    exact = free_solution(SPEC, traj.times)
    assert np.max(np.abs(traj.psi - exact)) < 1e-8


def test_trajectory_shape_and_endpoints():
    traj = integrate_uniform(INITIAL, 0.0, 1.0, 1e-3, sample_stride=64)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(traj.times) > 0.0)
    assert len(traj.psi) == len(traj.dpsi_dt) == len(traj.times)


def test_zero_horizon_gives_single_sample():
    traj = integrate_uniform(INITIAL, 0.0, 0.0, 0.1)
    assert len(traj.times) == 1
    assert traj.times[0] == 0.0
    assert traj.psi[0] == INITIAL.psi


def test_non_divisible_horizon_rejected():
    with pytest.raises(ValueError):
        integrate_uniform(INITIAL, 0.0, 1.0, 0.3)


def test_determinism():
    a = integrate_uniform(INITIAL, 0.2, 5.0, 1e-3, sample_stride=10)
    b = integrate_uniform(INITIAL, 0.2, 5.0, 1e-3, sample_stride=10)
    assert np.array_equal(a.psi, b.psi)
    assert np.array_equal(a.dpsi_dt, b.dpsi_dt)


def test_linearity():
    alpha = 1.7 - 0.4j
    scaled = TemporalState(alpha * INITIAL.psi, alpha * INITIAL.dpsi_dt)
    a = integrate_uniform(INITIAL, 0.0, 3.0, 1e-3, sample_stride=100)
    b = integrate_uniform(scaled, 0.0, 3.0, 1e-3, sample_stride=100)
    assert np.max(np.abs(b.psi - alpha * a.psi)) < 1e-12 * abs(alpha) * 2.0


def test_error_model_over_long_horizon():
    # max error stays under the pinned C * t * dt^4 envelope out to t = 1000
    dt = math.pi / 100.0
    traj = integrate_uniform(INITIAL, 0.0, 1000.0 - (1000.0 % dt) + dt, dt,
                             sample_stride=50)
    exact = free_solution(SPEC, traj.times)
    err = np.abs(traj.psi - exact)
    envelope = ERROR_RATE * np.maximum(traj.times, 1.0) * dt**4
    assert np.all(err <= envelope)
    assert np.max(np.abs(traj.psi)) <= 2.0 + 1e-6


def test_unstable_potential_growth_rate():
    # v = 1 has a growing branch with rate Re gamma = 1
    traj = integrate_uniform(INITIAL, 1.0, 20.0, 1e-3, sample_stride=100)
    half = len(traj.times) // 2  # the decaying branch has left the trailing half
    rate = fit_mode_growth(traj.times[half:], traj.psi[half:])
    assert rate == pytest.approx(1.0, rel=0.02)


def test_blow_up_reported_with_time():
    # dt far above the stability bound makes RK4 diverge quickly
    with pytest.raises(BlowUpError) as info:
        integrate_uniform(INITIAL, 0.0, 20000.0, 2.0, sample_stride=1)
    assert info.value.time > 0.0
    assert "blew up" in str(info.value)


def test_convergence_order_synthetic():
    quartic = [(4e-3, (4e-3) ** 4), (2e-3, (2e-3) ** 4), (1e-3, (1e-3) ** 4)]
    assert convergence_order(quartic) == pytest.approx(4.0, abs=1e-9)
    quadratic = [(4e-3, (4e-3) ** 2), (2e-3, (2e-3) ** 2), (1e-3, (1e-3) ** 2)]
    assert convergence_order(quadratic) == pytest.approx(2.0, abs=1e-9)


def test_convergence_order_on_free_problem():
    pairs = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = integrate_uniform(INITIAL, 0.0, 10.0, dt,
                                 sample_stride=max(1, int(round(10.0 / dt)) // 100))
        exact = free_solution(SPEC, traj.times)
        pairs.append((dt, float(np.max(np.abs(traj.psi - exact)))))
    assert convergence_order(pairs) == pytest.approx(4.0, abs=0.2)


def test_convergence_order_input_checks():
    with pytest.raises(ValueError):
        convergence_order([(4e-3, 1e-8), (2e-3, 1e-9)])
    with pytest.raises(ValueError):
        convergence_order([(4e-3, 1e-8), (3e-3, 1e-9), (2e-3, 1e-10)])
    with pytest.raises(ValueError):
        convergence_order([(4e-3, 1e-8), (2e-3, 0.0), (1e-3, 1e-10)])
    with pytest.raises(ValueError):
        convergence_order([(4e-3, 1e-8), (2e-3, -1e-9), (1e-3, 1e-10)])

