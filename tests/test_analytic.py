import cmath
import math

import numpy as np
import pytest

from nsblab.analytic import (
    AllWavenumbersUnstableError,
    CanonicalCoefficients,
    EquationForm,
    EquationParameters,
    FreeSolutionSpec,
    Regime,
    characteristic_roots,
    classify_regime,
    critical_wavenumber,
    dispersion_branches,
    free_solution,
    reduce_equation,
)

# Slow-branch frequency at r=1, k=0.2, v=0: 1 - sqrt(0.96), checked by
# substituting back into omega^2/2 - omega + k^2/2 = 0.
OMEGA_MINUS_K02 = 0.020204102886728803


# ---------------------------------------------------------------- regimes


def test_classify_regime_thresholds():
    assert classify_regime(1e4, 100.0) is Regime.MICROSCOPIC
    assert classify_regime(1e-4, 100.0) is Regime.MACROSCOPIC
    assert classify_regime(1.0, 100.0) is Regime.INTERMEDIATE
    # boundary values belong to the named regimes
    assert classify_regime(100.0, 100.0) is Regime.MICROSCOPIC
    assert classify_regime(0.01, 100.0) is Regime.MACROSCOPIC


def test_classify_regime_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_regime(0.0, 100.0)
    with pytest.raises(ValueError):
        classify_regime(-1.0, 100.0)
    with pytest.raises(ValueError):
        classify_regime(1.0, 1.0)


def test_form_must_match_regime():
    # a macroscopic reduction makes no sense deep in the microscopic regime
    with pytest.raises(ValueError):
        EquationParameters(1e4, 0.0, EquationForm.MACROSCOPIC)
    with pytest.raises(ValueError):
        EquationParameters(1e-4, 0.0, EquationForm.MICROSCOPIC)
    EquationParameters(1e-4, 0.0, EquationForm.MACROSCOPIC)
    EquationParameters(1e4, 0.0, EquationForm.MICROSCOPIC)
    EquationParameters(1.0, 0.0, EquationForm.FULL)


# ------------------------------------------------------------- reduction


def test_reduce_full_form():
    c = reduce_equation(EquationParameters(1.0, 0.0, EquationForm.FULL))
    assert c == CanonicalCoefficients(a_xx=1.0, a_tt=1.0, v=0.0)


def test_reduce_macroscopic_form():
    c = reduce_equation(EquationParameters(1e-3, 0.3, EquationForm.MACROSCOPIC))
    assert c.a_xx == 0.0
    assert c.a_tt == 1.0
    assert c.v == 0.3


def test_reduce_microscopic_keeps_spatial_term():
    c = reduce_equation(EquationParameters(1e4, 0.0, EquationForm.MICROSCOPIC))
    assert c.a_xx == 1e4
    assert c.a_tt == 1.0


def test_macroscopic_coefficients_mass_independent():
    ratios = [1e-3, 1e-2, 5e-3]
    coeffs = [reduce_equation(EquationParameters(r, 0.2, EquationForm.MACROSCOPIC))
              for r in ratios]
    assert all(c == coeffs[0] for c in coeffs)


def test_full_form_approaches_macroscopic():
    macro = reduce_equation(EquationParameters(1e-8, 0.1, EquationForm.MACROSCOPIC))
    for r in (1e-4, 1e-6, 1e-8):
        full = reduce_equation(EquationParameters(r, 0.1, EquationForm.FULL))
        assert full.a_xx == r
        assert full.a_tt == macro.a_tt
        assert full.v == macro.v


def test_literal_assembly_matches_reduced():
    # assembling the spatial terms separately (with the cancelling pair kept
    # apart) must give the same coefficients as the reduced form
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = 10.0 ** rng.uniform(-3, 3)
        v = rng.uniform(-2, 2)
        params = EquationParameters(r, v, EquationForm.FULL)
        # kinetic -r/2 plus the cancelling pair -1/2 and +1/2, the pair
        # combined first so its exact cancellation survives floating point
        spatial = -0.5 * r + (-0.5 + 0.5)
        literal = CanonicalCoefficients(a_xx=-2.0 * spatial, a_tt=1.0, v=v)
        assert literal == reduce_equation(params)


# ------------------------------------------------------ characteristic roots


def test_free_roots_are_exact():
    roots = characteristic_roots(0.0)
    assert roots.gamma1 == 0j
    assert roots.gamma2 == -2j
    assert roots.stable is True


def test_double_root_at_half():
    roots = characteristic_roots(0.5)
    assert roots.gamma1 == roots.gamma2 == -1j
    assert roots.discriminant == 0j


def test_unstable_example():
    roots = characteristic_roots(1.0)
    assert roots.gamma1 == pytest.approx(1.0 - 1.0j, abs=1e-15)
    assert roots.gamma2 == pytest.approx(-1.0 - 1.0j, abs=1e-15)
    assert roots.stable is False


def test_root_residual_and_vieta_randomized():
    rng = np.random.default_rng(7)
    for v in rng.uniform(-2.0, 2.0, size=1000):
        roots = characteristic_roots(float(v))
        for g in (roots.gamma1, roots.gamma2):
            assert abs(g * g / 2.0 + 1j * g - v) < 1e-12
        assert abs(roots.gamma1 + roots.gamma2 + 2j) < 1e-12
        assert abs(roots.gamma1 * roots.gamma2 + 2.0 * v) < 1e-12


def test_stability_flips_exactly_at_half():
    assert characteristic_roots(0.5 - 1e-9).stable is True
    assert characteristic_roots(0.5).stable is True
    assert characteristic_roots(0.5 + 1e-9).stable is False


# ------------------------------------------------------------ free solution


def test_free_solution_values():
    spec = FreeSolutionSpec.zero_initial(1.0)
    assert free_solution(spec, 0.0) == 0.0
    assert free_solution(spec, math.pi / 2.0) == pytest.approx(2.0, abs=1e-15)
    assert free_solution(spec, math.pi / 4.0) == pytest.approx(1.0 + 1.0j, abs=1e-15)


def test_zero_initial_forces_opposite_amplitudes():
    spec = FreeSolutionSpec.zero_initial(2.0 - 1.0j)
    assert spec.B == -spec.A
    assert spec.satisfies_zero_initial
    assert not FreeSolutionSpec(1.0, 1.0).satisfies_zero_initial


def test_free_solution_periodicity_and_bounds():
    spec = FreeSolutionSpec.zero_initial(1.0)
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 50.0, size=500)
    psi = free_solution(spec, t)
    psi_shift = free_solution(spec, t + math.pi)
    assert np.max(np.abs(psi - psi_shift)) < 1e-12
    assert np.all(psi.real >= -1e-12)
    assert np.all(psi.real <= 2.0 + 1e-12)
    assert np.all(np.abs(psi) <= 2.0 + 1e-12)


def test_free_solution_satisfies_uniform_equation():
    # residual of i psi' + psi''/2 with exact derivatives of A(1-e^{-2it})
    spec = FreeSolutionSpec.zero_initial(1.3 - 0.2j)
    rng = np.random.default_rng(13)
    h = 1e-5
    for t in rng.uniform(0.0, 20.0, size=200):
        first = -2j * spec.B * cmath.exp(-2j * t)  # d/dt of A + B e^{-2it}
        second = -4.0 * spec.B * cmath.exp(-2j * t)  # d/dt of -2iB e^{-2it}
        assert abs(1j * first + 0.5 * second) < 1e-10
        # the closed-form derivative is the derivative of free_solution
        central = (free_solution(spec, t + h) - free_solution(spec, t - h)) / (2 * h)
        assert abs(central - first) < 1e-8


def test_free_solution_rejects_negative_time():
    with pytest.raises(ValueError):
        free_solution(FreeSolutionSpec.zero_initial(1.0), -0.1)


# --------------------------------------------------------------- dispersion


def roots_at(params, k):
    """(omega_plus, omega_minus) of the reduced form at wavenumber k."""
    return dispersion_branches(reduce_equation(params), k**2)


def test_dispersion_at_zero_wavenumber_matches_roots():
    plus, minus = roots_at(EquationParameters(1.0, 0.0), 0.0)
    assert plus == pytest.approx(2.0, abs=1e-15)
    assert minus == pytest.approx(0.0, abs=1e-15)


def test_dispersion_double_root():
    # r k^2 + 2v = 1 collapses both branches to 1
    plus, minus = roots_at(EquationParameters(1.0, 0.25), math.sqrt(0.5))
    assert plus == pytest.approx(1.0, abs=1e-12)
    assert minus == pytest.approx(1.0, abs=1e-12)


def test_dispersion_slow_branch_value():
    _, minus = roots_at(EquationParameters(1.0, 0.0), 0.2)
    assert minus == pytest.approx(OMEGA_MINUS_K02, rel=1e-14)
    assert minus.real == pytest.approx(0.02, rel=2e-2)  # Schrodinger value


def test_dispersion_residual_randomized():
    rng = np.random.default_rng(17)
    for _ in range(300):
        r = 10.0 ** rng.uniform(-2, 2)
        v = rng.uniform(-1, 1)
        k = rng.uniform(0.0, 3.0)
        for w in roots_at(EquationParameters(r, v), k):
            assert abs(0.5 * w * w - w + 0.5 * r * k * k + v) < 1e-12


def test_dispersion_matches_characteristic_roots_at_k0():
    # gamma = -i omega at k = 0, as unordered pairs
    rng = np.random.default_rng(19)
    for v in rng.uniform(-1.5, 1.5, size=200):
        roots = characteristic_roots(float(v))
        omegas = roots_at(EquationParameters(1.0, float(v)), 0.0)
        got = sorted((-1j * w for w in omegas), key=lambda z: (z.real, z.imag))
        want = sorted((roots.gamma1, roots.gamma2), key=lambda z: (z.real, z.imag))
        assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))


def test_unstable_branch_ordering():
    # below the double root the two branches are complex conjugates and the
    # plus branch carries the positive imaginary part (the growing one)
    plus, minus = roots_at(EquationParameters(1.0, 0.0), 1.5)
    assert plus.imag > 0.0
    assert minus == pytest.approx(plus.conjugate(), abs=1e-15)


def test_schrodinger_limit_quadratic_error():
    # omega_minus - (r k^2 / 2 + v) shrinks like the square of the argument
    r, v = 1.0, 0.0
    ks = [0.2, 0.1, 0.05, 0.025]
    devs = []
    for k in ks:
        _, minus = roots_at(EquationParameters(r, v), k)
        schro = 0.5 * r * k * k + v
        devs.append(abs(minus.real - schro))
    # each halving of k divides the deviation by ~16 (fourth power in k)
    for a, b in zip(devs, devs[1:]):
        assert a / b == pytest.approx(16.0, rel=0.05)
    # and the deviation matches (r k^2 + 2v)^2 / 8 to leading order
    assert devs[0] == pytest.approx((r * ks[0] ** 2) ** 2 / 8.0, rel=0.05)


def test_dispersion_branches_single_branch_when_att_zero():
    coeffs = CanonicalCoefficients(a_xx=1.0, a_tt=0.0, v=0.1)
    plus, minus = dispersion_branches(coeffs, 0.04)
    assert plus == minus == pytest.approx(0.5 * 0.04 + 0.1, abs=1e-15)


# ------------------------------------------------------ critical wavenumber


def test_critical_wavenumber_values():
    assert critical_wavenumber(EquationParameters(1.0, 0.0)) == pytest.approx(1.0)
    assert critical_wavenumber(EquationParameters(0.25, 0.0)) == pytest.approx(2.0)
    assert critical_wavenumber(EquationParameters(1.0, 0.375)) == pytest.approx(0.5)


def test_critical_wavenumber_all_unstable():
    with pytest.raises(AllWavenumbersUnstableError):
        critical_wavenumber(EquationParameters(1.0, 0.5))
    with pytest.raises(AllWavenumbersUnstableError):
        critical_wavenumber(EquationParameters(1.0, 0.7))


def test_critical_wavenumber_infinite_without_spatial_term():
    params = EquationParameters(1e-3, 0.0, EquationForm.MACROSCOPIC)
    assert critical_wavenumber(params) == math.inf


def test_modes_across_critical_change_character():
    params = EquationParameters(1.0, 0.0)
    kc = critical_wavenumber(params)
    below = roots_at(params, 0.99 * kc)
    above = roots_at(params, 1.01 * kc)
    assert all(abs(w.imag) < 1e-12 for w in below)
    assert any(w.imag > 1e-3 for w in above)
