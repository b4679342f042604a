"""Numerical and analytic laboratory for a Planck-scale wave equation.

The package studies a dimensionless Schrödinger-type equation carrying an
extra second time derivative.  ``constants`` owns unit conversion,
``analytic`` the closed-form solutions and dispersion branches,
``integrator`` the uniform-field time stepping, ``pde`` the periodic
field solver and ``scenarios`` reproducible end-to-end runs with CSV and
manifest outputs.
"""

__version__ = "0.1.0"

from .constants import (
    DerivedScales,
    DimensionlessInputs,
    PhysicalConstants,
    PhysicalInputs,
    derive_scales,
    from_dimensionless,
    to_dimensionless,
)
from .analytic import (
    AllWavenumbersUnstableError,
    CanonicalCoefficients,
    CharacteristicRoots,
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
from .integrator import (
    BlowUpError,
    TemporalState,
    convergence_order,
    integrate_uniform,
)
from .pde import (
    ComplexField,
    EvolutionResult,
    FieldState,
    Grid,
    PdeProblem,
    evolve,
    field_width,
    gaussian_packet,
    plane_wave_state,
    schrodinger_consistent_state,
    spectral_filter,
    stability_dt,
    width_law,
)
from .scenarios import (
    ConfigError,
    format_planck_report,
    report_planck_numbers,
    resolve_config,
    run_scenario,
    scenario_names,
)

__all__ = [
    "__version__",
    # constants
    "PhysicalConstants", "DerivedScales", "derive_scales",
    "DimensionlessInputs", "PhysicalInputs",
    "to_dimensionless", "from_dimensionless",
    # analytic
    "Regime", "EquationForm", "EquationParameters", "CanonicalCoefficients",
    "CharacteristicRoots", "FreeSolutionSpec",
    "classify_regime", "reduce_equation",
    "characteristic_roots", "free_solution",
    "dispersion_branches", "critical_wavenumber",
    "AllWavenumbersUnstableError",
    # integrator
    "TemporalState", "BlowUpError", "integrate_uniform",
    "convergence_order",
    # pde
    "Grid", "ComplexField", "FieldState", "PdeProblem", "EvolutionResult",
    "evolve", "stability_dt", "spectral_filter", "gaussian_packet",
    "schrodinger_consistent_state", "plane_wave_state", "field_width",
    "width_law",
    # scenarios
    "ConfigError", "run_scenario", "resolve_config", "scenario_names",
    "report_planck_numbers", "format_planck_report",
]
