"""Named end-to-end runs with reproducible CSV + manifest outputs.

Every scenario writes ``<out>/<scenario>_<name>.csv`` files (comma
separated, LF line endings, UTF-8, floats in scientific notation with 17
significant digits) followed by a single ``<out>/manifest.json`` recording
the resolved configuration, the constants and derived scales in effect,
solver settings, wall-clock time and the emitted files with their row
counts.  Re-running a scenario with the same configuration and code version
reproduces the CSV files byte for byte; manifests match except for the
wall-clock entry and the output directory.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

from . import __version__, kernels
from .analytic import (
    DEFAULT_REGIME_THRESHOLD,
    EquationForm,
    EquationParameters,
    CanonicalCoefficients,
    FreeSolutionSpec,
    dispersion_branches,
    free_solution,
    reduce_equation,
)
from .constants import PhysicalConstants, derive_scales
from .integrator import (
    BlowUpError,
    TemporalState,
    UnderflowError,
    convergence_order,
    integrate_uniform,
)
from .kernels import (
    BLOWUP_MAGNITUDE,
    MAX_SAMPLE_BYTES,
    check_bytes,
    run_bytes,
    sample_rows,
    whole_steps,
)
from .pde import (
    LAPLACIAN_MODES,
    FieldState,
    Grid,
    PdeProblem,
    _mode_coefficients,
    evolve,
    field_width,
    fit_mode_frequency,
    fit_mode_growth,
    gaussian_packet,
    growth_horizon,
    growth_rates,
    mode_amplitudes,  # not called here; perfbench's tracer wraps it by this name
    schrodinger_consistent_state,
    stability_dt,  # not called here; perfbench's tracer wraps it by this name
    step_plan,
    width_law,
    wrapped_offsets,
)


class ConfigError(ValueError):
    """Configuration input the scenario layer refuses to run."""


# --------------------------------------------------------------------------
# Config schema.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KeySpec:
    """One config key: its kind, its default and the rule on its value.

    ``check`` is the rule as a predicate on the coerced value (the whole
    list for ``list_float``), and ``doc`` states the same rule in words, so
    ``nsb list`` shows it.  Every number must also be finite.
    """

    kind: str  # float | int | bool | str | list_float | opt_float
    default: object
    doc: str
    check: Optional[Callable[[object], bool]] = None


def _as_float(value) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return value if math.isfinite(value) else None


def _as_float_list(value) -> Optional[list[float]]:
    if not isinstance(value, (list, tuple)):
        return None
    out = [_as_float(x) for x in value]
    return None if None in out else out


# kind -> (parser giving the coerced value or None, what the kind accepts)
_KINDS = {
    "float": (_as_float, "a finite number"),
    "opt_float": (_as_float, "a finite number or null"),
    "int": (lambda x: x if isinstance(x, int) and not isinstance(x, bool) else None,
            "an integer"),
    "bool": (lambda x: x if isinstance(x, bool) else None, "a boolean"),
    "str": (lambda x: x if isinstance(x, str) else None, "a string"),
    "list_float": (_as_float_list, "a list of finite numbers"),
}


def _coerce(name: str, spec: KeySpec, value):
    if spec.kind == "opt_float" and value is None:
        return None
    parse, accepts = _KINDS[spec.kind]
    out = parse(value)
    if out is None:
        raise ConfigError(f"key {name!r} must be {accepts}, got {value!r}")
    if spec.check is not None and not spec.check(out):
        raise ConfigError(f"key {name!r} breaks its rule ({spec.doc}), got {value!r}")
    return out


# Lengths, times, step sizes, mass ratios and amplitudes keep their size
# within [1e-100, 1e100], and a potential within 1e100: the square of any
# one of them, and the product or ratio of any two, then stays inside the
# float range.
_SIZE = "in [1e-100, 1e100]"


def _sized(x: float) -> bool:
    return 1e-100 <= x <= 1e100


def _halving(dts: list[float]) -> bool:
    return len(dts) >= 3 and all(_sized(dt) for dt in dts) and all(
        abs(b / a - 0.5) <= 1e-6 for a, b in zip(dts, dts[1:]))


_SAFETY = KeySpec("float", 0.7, "fraction of the RK4 stability bound used for dt, "
                  "in (0, 1]", lambda x: 0.0 < x <= 1.0)
_LAPLACIAN = KeySpec("str", "spectral", "spatial operator: stencil or spectral",
                     lambda x: x in LAPLACIAN_MODES)
_AMPLITUDE = KeySpec("float", 1.0, f"free-solution amplitude, |A| {_SIZE}",
                     lambda x: _sized(abs(x)))
_POTENTIAL = KeySpec("float", 0.0, "dimensionless potential, |v| <= 1e100",
                     lambda x: abs(x) <= 1e100)
_DT = KeySpec("opt_float", None, f"explicit step, {_SIZE} (default: stability "
              "rule)", _sized)


def _grid_points(default: int) -> KeySpec:
    # The largest grid on which a second-order run storing only its first
    # and last rows fits the byte cap: 2^21.
    top = 8
    while run_bytes(2 * top, 2, 2) <= MAX_SAMPLE_BYTES:
        top *= 2
    return KeySpec("int", default, f"grid points: a power of two in [8, {top}]",
                   lambda n: 8 <= n <= top and n & (n - 1) == 0)


def _positive_float(default: float, doc: str) -> KeySpec:
    return KeySpec("float", default, f"{doc}, {_SIZE}", _sized)


SCENARIO_KEYS: dict[str, dict[str, KeySpec]] = {
    "fig1": {
        "A": _AMPLITUDE,
        # The bounds keep the step and row counts finite integers, and the
        # step rule's |A| * horizon from underflowing to zero.
        "horizon_tau": KeySpec(
            "list_float", [100.0, 1000.0],
            "time horizons in tau_p units, one CSV each, named by the horizon's "
            "%g form: at least one, each in [1e-100, 1e6], no two of one name",
            lambda hs: len(hs) > 0 and all(1e-100 <= h <= 1e6 for h in hs)
            and len({f"{h:g}" for h in hs}) == len(hs)),
        "samples_per_period": KeySpec("int", 32,
                                      "CSV samples per pi-long period, in [4, 4096]",
                                      lambda x: 4 <= x <= 4096),
    },
    "dispersion_scan": {
        "k_values": KeySpec("list_float", [0.125, 0.25, 0.375, 0.5],
                            "wavenumbers to probe (snapped to grid modes, "
                            "at most the grid's Nyquist wavenumber)"),
        "r": _positive_float(1.0, "mass ratio"),
        "v": _POTENTIAL,
        "n": _grid_points(256),
        "L": _positive_float(32.0 * math.pi, "domain length"),
        "laplacian": _LAPLACIAN,
        "safety": _SAFETY,
        "horizon_tau": KeySpec("float", 50.0,
                               f"measurement window, {_SIZE}; auto-capped "
                               "where a probed mode grows", _sized),
        "dt": _DT,
        "allow_unstable": KeySpec("bool", False,
                                  "permit probing wavenumbers above critical"),
    },
    "regime_compare": {
        "r": KeySpec("list_float", [0.1, 0.01, 0.001],
                     f"mass ratios to compare: at least one, each in "
                     f"(0, {DEFAULT_REGIME_THRESHOLD:g}), where the macroscopic "
                     f"form is defined",
                     lambda rs: len(rs) > 0 and all(
                         0.0 < r < DEFAULT_REGIME_THRESHOLD for r in rs)),
        "v": _POTENTIAL,
        "horizon_tau": _positive_float(20.0, "comparison horizon"),
        "n": _grid_points(32),
        "L": _positive_float(40.0, "domain length"),
        "sigma0": _positive_float(2.0, "packet width for the band-limited case"),
        "laplacian": _LAPLACIAN,
        "safety": _SAFETY,
    },
    "convergence": {
        "dts": KeySpec("list_float", [4e-3, 2e-3, 1e-3],
                       f"step sizes: at least three, each {_SIZE} and half "
                       "the one before", _halving),
        "A": _AMPLITUDE,
        "horizon_tau": _positive_float(10.0, "integration horizon"),
    },
    "pde_packet": {
        "form": KeySpec("str", "schrodinger",
                        "'schrodinger' (first-order limit) or 'full'",
                        lambda x: x in ("schrodinger", "full")),
        "n": _grid_points(256),
        "L": _positive_float(80.0, "domain length"),
        "sigma0": _positive_float(2.0, "initial packet width"),
        "r": _positive_float(1.0, "mass ratio"),
        "v": _POTENTIAL,
        "horizon_tau": KeySpec("opt_float", None,
                               f"horizon, {_SIZE} (default: width-doubling "
                               "time)", _sized),
        "dt": _DT,
        "safety": _SAFETY,
        "laplacian": _LAPLACIAN,
        "allow_unstable": KeySpec("bool", False,
                                  "run despite unstable wavenumbers / oversized dt"),
        "samples": KeySpec("int", 128, "target number of stored snapshots, >= 1",
                           lambda x: x >= 1),
    },
}

SCENARIO_DESCRIPTIONS = {
    "fig1": "free uniform solution: RK4 against the closed form over two horizons",
    "dispersion_scan": "single-mode frequency/growth measurements against the "
                       "dispersion branches",
    "regime_compare": "full versus spatial-term-free evolution across mass ratios",
    "convergence": "RK4 error against the closed form for halving step sizes",
    "pde_packet": "Gaussian packet spreading against the free-particle width law",
}


def scenario_names() -> list[str]:
    return list(SCENARIO_KEYS)


def resolve_config(scenario: str, file_params: Optional[dict] = None,
                   overrides: Optional[dict] = None) -> dict:
    """Merge defaults, config-file values and CLI overrides; reject unknowns."""
    if scenario not in SCENARIO_KEYS:
        raise ConfigError(f"unknown scenario {scenario!r}; "
                          f"available: {', '.join(scenario_names())}")
    keys = SCENARIO_KEYS[scenario]
    merged = {name: spec.default for name, spec in keys.items()}
    for source in (file_params or {}, overrides or {}):
        for name, value in source.items():
            if name == "scenario":
                if value != scenario:
                    raise ConfigError(
                        f"config names scenario {value!r} but {scenario!r} was requested")
                continue
            if name not in keys:
                raise ConfigError(f"unknown key {name!r} for scenario {scenario!r}")
            merged[name] = _coerce(name, keys[name], value)
    return merged


def load_config_file(path: str | Path) -> dict:
    """Read a JSON config file (a single flat object)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def parse_set_overrides(pairs: Iterable[str]) -> dict:
    """Parse repeated ``--set key=value`` fragments (values as JSON, else text)."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
        except RecursionError as exc:
            raise ConfigError(f"--set value for {key!r} nests too deeply: {exc}") from exc
    return out


# --------------------------------------------------------------------------
# Output writing.
# --------------------------------------------------------------------------


# Rows formatted per write, which bounds the Python objects alive at once to
# _CHUNK_VALUE_BYTES a value (85 to 120 B measured with tracemalloc).
_CHUNK_ROWS = 1024
_CHUNK_VALUE_BYTES = 128


def write_csv(path: Path, header: list[str], columns: list) -> int:
    """Write ``header`` and the rows of ``columns`` (equal lengths); return the
    row count.  Integers are written ``%d``, other values ``%.16e`` or ``nan``."""
    columns = [np.asarray(c) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError("columns differ in length")
    fmt = ",".join("%d" if c.dtype.kind in "iu" else "%.16e" for c in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, n_rows, _CHUNK_ROWS):
            rows = zip(*(c[a:a + _CHUNK_ROWS].tolist() for c in columns))
            fh.write("".join([fmt % row for row in rows]))
    return n_rows


@dataclass
class OutputFile:
    name: str
    header: list[str]
    columns: list  # equal-length arrays or sequences, one per CSV column


def _parts(z: np.ndarray) -> list[np.ndarray]:
    """Real part, imaginary part and magnitude of ``z``.  ``np.hypot`` gives
    ``abs`` of each complex scalar bit for bit; ``np.abs`` can differ by an ulp."""
    return [z.real, z.imag, np.hypot(z.real, z.imag)]


def report_planck_numbers(constants: Optional[PhysicalConstants] = None) -> dict:
    """Planck-scale numbers behind the dimensionless units, as a flat dict."""
    consts = constants if constants is not None else PhysicalConstants()
    scales = derive_scales(consts)
    return {
        "tau_p_seconds": scales.tau_p,
        "length_p_meters": scales.length_p,
        "energy_p_joules": scales.energy_p,
        "energy_p_gev": scales.energy_p_gev,
        "reference_angular_frequency_per_second": scales.omega,
        "oscillation_angular_frequency_per_second": 2.0 * scales.omega,
        "oscillation_period_seconds": scales.period,
        "period_over_attosecond": scales.period / 1e-18,
    }


def format_planck_report(numbers: dict) -> str:
    lines = ["Planck-scale reference values"]
    labels = {
        "tau_p_seconds": "reference time tau_p [s]",
        "length_p_meters": "reference length [m]",
        "energy_p_joules": "reference energy [J]",
        "energy_p_gev": "reference energy [GeV]",
        "reference_angular_frequency_per_second": "reference frequency 1/tau_p [1/s]",
        "oscillation_angular_frequency_per_second": "free-solution frequency 2/tau_p [1/s]",
        "oscillation_period_seconds": "free-solution period pi*tau_p [s]",
        "period_over_attosecond": "period / 1 as",
    }
    for key, label in labels.items():
        lines.append(f"  {label:<42} {numbers[key]:.6e}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Scenario runners.  Each returns (outputs, solver_info).
# --------------------------------------------------------------------------


_FIG1_ERROR_TARGET = 1e-7
_FIG1_ERROR_RATE = 0.27  # measured max-error growth per unit time at dt = 1
# Least phase (or log-growth) a probed mode must advance over the window, in
# rad: below it the measured change is round-off and the fit reads noise.
_MIN_PHASE_ADVANCE = 1e-9


def _fig1_dt(horizon: float, amplitude: float, interval: float) -> tuple[float, int]:
    """Sample-aligned step meeting both the smoothness and error budgets."""
    generic = math.pi / 100.0  # 50 steps per fastest half-period
    budget = 0.8 * (_FIG1_ERROR_TARGET
                    / (_FIG1_ERROR_RATE * abs(amplitude) * horizon)) ** 0.25
    steps_per_sample = max(1, math.ceil(interval / min(generic, budget)))
    return interval / steps_per_sample, steps_per_sample


_FIG1_HEADER = ["t_over_tau", "re_psi", "im_psi", "abs_psi",
                "re_psi_analytic", "im_psi_analytic", "abs_psi_analytic"]


def _fig1_bytes(rows: list[int]) -> int:
    """Bytes a fig1 run storing ``rows`` samples per horizon holds at once:
    every horizon's kernel run and 32 B a row for its closed form and two
    magnitude columns, all held until written, and the writer's chunk."""
    return (sum(run_bytes(1, n, 2) + 32 * n for n in rows)
            + _CHUNK_ROWS * _CHUNK_VALUE_BYTES * len(_FIG1_HEADER))


def _run_fig1(params: dict) -> tuple[list[OutputFile], dict]:
    amplitude = params["A"]
    interval = math.pi / params["samples_per_period"]
    spec = FreeSolutionSpec.zero_initial(amplitude)
    initial = TemporalState(0.0 + 0.0j, 2j * amplitude)
    runs = []
    for horizon in params["horizon_tau"]:
        dt, stride = _fig1_dt(horizon, amplitude, interval)
        n_samples = int(math.floor(horizon / interval + 1e-12))
        runs.append({"horizon_tau": horizon, "dt": dt, "sample_stride": stride,
                     "n_steps": n_samples * stride})
    rows = [_refused(sample_rows, run["n_steps"], run["sample_stride"]) for run in runs]
    _refused(check_bytes, _fig1_bytes(rows),
             f"{sum(rows)} stored rows over {len(rows)} horizon(s)")
    outputs = []
    for run in runs:
        traj = _refused(integrate_uniform, initial, 0.0, run["n_steps"] * run["dt"],
                        run["dt"], sample_stride=run["sample_stride"])
        exact = free_solution(spec, traj.times)
        outputs.append(OutputFile(
            name=f"fig1_horizon{run['horizon_tau']:g}.csv", header=_FIG1_HEADER,
            columns=[traj.times, *_parts(traj.psi), *_parts(exact)],
        ))
    return outputs, {"runs": runs}


def _refused(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with its refusals as configuration errors.

    For the planning calls, ``evolve``'s check of the initial data and the
    scan's kernel runs, a ValueError means the inputs ask for a run that
    cannot be made: a size beyond the float or int64 range, a horizon that
    is not whole steps, arrays above ``kernels.MAX_SAMPLE_BYTES``, or what
    ``step_plan`` and ``PdeProblem`` refuse without ``allow_unstable``.
    """
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Bytes the fits hold a probe's stored row (phases, temporaries, and a copy
# of the columns where a run mixes stable and growing probes) beyond its
# kernel run's count: tracemalloc measured 20 to 48, 1 to 120 probes of 885
# to 30,614 rows.
_FIT_ROW_BYTES = 48

# Bytes a grid point of the temporaries that ``step_plan``'s ``stability_dt``
# and the manifest's ``growth_rates`` make (the Laplacian eigenvalues, both
# branches and their magnitudes): tracemalloc measured 80 B a point, plus
# about 1.4 kB, on 2**4 to 2**20 points.
_GRID_POINT_BYTES = 80


def _scan_bytes(probes: int, rows: int, points: int) -> int:
    """Bytes a dispersion_scan run holds at once: one kernel run of ``probes``
    one-point systems of ``rows`` stored rows, its fits, the grid-wide
    temporaries of its step rule and growth rates on ``points`` points, and
    the numpy iterator buffers, 16 B a value up to np.getbufsize() values,
    that the fits fill (two of float64) and the grid temporaries (one of
    complex128, on up to 2**13 points)."""
    return (16 * (min(np.getbufsize(), probes * rows) + min(np.getbufsize(), points))
            + _GRID_POINT_BYTES * points + run_bytes(probes, rows, 2)
            + _FIT_ROW_BYTES * probes * rows)


def _run_dispersion_scan(params: dict) -> tuple[list[OutputFile], dict]:
    grid = _refused(Grid, params["n"], params["L"])
    lap_mode = params["laplacian"]
    coeffs = reduce_equation(
        EquationParameters(params["r"], params["v"], EquationForm.FULL))
    # Python floats: a product beyond the float range is inf, without a warning
    modes = np.array([k * grid.length / (2.0 * math.pi) for k in params["k_values"]])
    inside = np.abs(modes) <= grid.n // 2 + 0.5
    js = np.rint(np.where(inside, modes, 0.0)).astype(int)
    k_snap = 2.0 * np.pi * js / grid.length
    lam = grid.laplacian_eigenvalues(lap_mode)[js % grid.n]
    b, c = _mode_coefficients(coeffs, lam)
    omega_p, omega_m = dispersion_branches(coeffs, lam)
    # C pow, as the scalar k**2 was: squaring differs in one k in a thousand
    exact_p, exact_m = dispersion_branches(coeffs, np.float_power(k_snap, 2))
    stable = np.abs(omega_m.imag) <= 1e-14
    # A probe steps its own mode alone: only growing probes cut the window to
    # their round-off budget, and dt and the step count are a field run's.
    window = min(params["horizon_tau"], growth_horizon(
        float(np.max(omega_p.imag[inside & ~stable], initial=0.0))))
    dt, n_steps = _refused(step_plan, coeffs, grid, window, params["dt"], lap_mode,
                           params["safety"], params["allow_unstable"], min_steps=16)
    stored = sample_rows(n_steps, 1)
    _refused(check_bytes, _scan_bytes(1, stored, grid.n),
             f"{stored} stored rows a probe and their fit")
    rate = np.where(stable, np.abs(omega_m), np.abs(omega_p.imag))
    slow = (rate > 0.0) & (rate * window < _MIN_PHASE_ADVANCE)
    # Every entry is checked before any run, in order, each first against the
    # Nyquist wavenumber, then the phase a fit can measure, then stability.
    bad = ~inside | slow | ~(stable | params["allow_unstable"])
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigError(
            f"k_values entry {params['k_values'][i]!r} lies beyond the grid's Nyquist "
            f"wavenumber {math.pi / grid.dx:.6g}" if not inside[i] else
            f"k_hat={k_snap[i]:.6g} advances {rate[i] * window:.3g} rad over the "
            f"{window:.6g}-long window, below the {_MIN_PHASE_ADVANCE:g} rad "
            "a fit can measure; lengthen horizon_tau" if slow[i] else
            f"requested k_hat={k_snap[i]:.6g} lies above the critical wavenumber; "
            "set allow_unstable to probe growth")
    with np.errstate(divide="ignore"):  # k_hat = 0 is resolved
        resolved = (2.0 * math.pi / (np.abs(k_snap) * grid.dx) >= 8.0).astype(int)
    # A probe is the plane wave of mode j on its slow branch, or its growing
    # one if unstable: coefficients over n psi_hat = 1, phi_hat = -i omega.
    # The propagator is diagonal in k, so it is a one-point system of (b_j, c).
    phi0 = -1j * np.where(stable, omega_m, omega_p)
    # The probes share c, dt and the step count, so a kernel run steps as many
    # side by side as the byte cap holds, in runs that differ by at most one.
    base = _scan_bytes(0, stored, grid.n)
    per = (kernels.MAX_SAMPLE_BYTES - base) // (_scan_bytes(1, stored, grid.n) - base)
    count = len(js)
    measured = np.full((2, count), np.nan)  # frequencies, growth rates
    for batch in np.array_split(np.arange(count), -(-count // per)) if count else ():
        amps, phis, steps, blow = _refused(kernels.run_uniform, np.ones_like(phi0[batch]),
                                           phi0[batch], b[batch], c, dt, n_steps)
        if blow >= 0:  # name the first probe bad in the row the run stops at
            hit = ~(np.maximum(np.abs(amps[blow]), np.abs(phis[blow])) < BLOWUP_MAGNITUDE)
            raise BlowUpError(float(steps[blow]) * dt, "" if blow == 0 else
                              f"dominant content near k_hat={k_snap[batch][np.argmax(hit)]:.4g}")
        times = steps * dt
        del phis, steps  # the fits need only the times and the amplitudes
        for row, fit, columns in ((0, fit_mode_frequency, stable[batch]),
                                  (1, fit_mode_growth, ~stable[batch])):
            if columns.any():
                measured[row, batch[columns]] = fit(
                    times, amps if columns.all() else amps[:, columns])
        del amps, times  # freed before the next run
    reference = np.where(stable, exact_m.real, np.nan)
    rel = np.abs(measured[0] - reference) / np.where(reference != 0.0, np.abs(reference), 1.0)
    outputs = [OutputFile(
        name="dispersion_scan_modes.csv",
        header=["k_hat", "omega_minus_analytic", "omega_minus_measured",
                "rel_err", "resolved", "growth_rate_analytic",
                "growth_rate_measured"],
        columns=[k_snap, reference, measured[0], rel, resolved,
                 np.where(stable, np.nan, exact_p.imag), measured[1]],
    )]
    solver = {"dt": dt, "n_steps": n_steps, "window_tau": window,
              "window_capped": window < params["horizon_tau"],
              "max_growth_rate_on_grid": float(np.max(growth_rates(coeffs, grid, lap_mode))),
              "laplacian": lap_mode}
    return outputs, solver


def _regime_bytes(plan_bytes: int, rows: int, points: int) -> int:
    """Bytes a regime_compare run holds at once: its plan's count, the closed
    form's uniform run, and 32 B a value of a block of rows for the distance
    (the closed form's rows and their difference from the full run's)."""
    return (plan_bytes + run_bytes(2, rows, 2)
            + 32 * min(rows, kernels.block_rows(points)) * points)


def _run_regime_compare(params: dict) -> tuple[list[OutputFile], dict]:
    grid = _refused(Grid, params["n"], params["L"])
    lap_mode = params["laplacian"]
    block = kernels.block_rows(grid.n)
    uniform_initial = FieldState.uniform(grid, 0.0, 2.0j)
    packet_psi = gaussian_packet(grid, params["sigma0"])
    rows, dts = [], []
    for r in params["r"]:
        full, macro = (reduce_equation(EquationParameters(r, params["v"], form))
                       for form in (EquationForm.FULL, EquationForm.MACROSCOPIC))
        # The macroscopic growth rates are the full form's at k = 0, so the
        # full plan makes every refusal the macroscopic one would, and first.
        plan = _refused(PdeProblem, full, grid, t_end=params["horizon_tau"], snapshot_stride=1,
                        laplacian=lap_mode, safety=params["safety"], min_steps=8, kept=8)
        stored = sample_rows(plan.n_steps, 1)
        _refused(check_bytes, _regime_bytes(plan.n_bytes, stored, grid.n),
                 f"the reduced full run of {stored} rows on {grid.n} points and its closed form")
        dts.append(plan.dt)
        # The macroscopic form steps every mode by its k = 0 coefficients: its
        # row s is p_s psi0 + q_s phi0, from the starts (1, 0) and (0, 1).  For
        # v < 1/2 that mode is stable at the plan's dt, so this run cannot blow up.
        pq = kernels.run_uniform([1.0, 0.0], [0.0, 1.0], *_mode_coefficients(
            macro, np.zeros(2)), plan.dt, plan.n_steps)[0]
        packet_initial = schrodinger_consistent_state(packet_psi, full, lap_mode)
        rows.append([r])
        for initial in (uniform_initial, packet_initial):
            basis = np.stack((initial.psi.values, initial.dpsi_dt.values))

            def distance(start: int, stack: np.ndarray, _) -> np.ndarray:
                """max |row - p_s psi0 - q_s phi0| of rows start.., a block at a time."""
                closed = pq[start:start + len(stack)]
                return np.concatenate([
                    np.abs(stack[a:a + block] - closed[a:a + block] @ basis).max(axis=1)
                    for a in range(0, len(stack), block)])

            rows[-1].append(float(_refused(evolve, plan, initial, reduce=distance).psi.max()))
    outputs = [OutputFile(
        name="regime_compare_distances.csv",
        header=["r", "sup_distance_uniform", "sup_distance_packet"],
        columns=list(zip(*rows)),
    )]
    solver = {"dts": dts, "horizon_tau": params["horizon_tau"], "laplacian": lap_mode}
    return outputs, solver


def _run_convergence(params: dict) -> tuple[list[OutputFile], dict]:
    amplitude = params["A"]
    horizon = params["horizon_tau"]
    dts = params["dts"]
    spec = FreeSolutionSpec.zero_initial(amplitude)
    initial = TemporalState(0.0 + 0.0j, 2j * amplitude)
    pairs = []
    for dt in dts:
        n_steps, _ = _refused(whole_steps, horizon, dt)
        stride = max(1, n_steps // 1000)
        traj = _refused(integrate_uniform, initial, 0.0, horizon, dt,
                        sample_stride=stride)
        exact = free_solution(spec, traj.times)
        pairs.append((dt, float(np.max(np.abs(traj.psi - exact)))))
    try:
        order = convergence_order(pairs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    outputs = [OutputFile(
        name="convergence_errors.csv",
        header=["dt", "max_error"],
        columns=list(zip(*pairs)),
    )]
    solver = {"fitted_order": order, "horizon_tau": horizon}
    return outputs, solver


_PACKET_HEADER = ["t_hat", "width_measured", "width_analytic", "rel_err"]

# Bytes a pde_packet run keeps of a stored row as it is stepped: its width.
_WIDTH_BYTES = 8


def _packet_bytes(plan_bytes: int, rows: int) -> int:
    """Bytes a pde_packet run holds at once: its plan's count of the reduced
    run, whose times and widths are two of the four width columns, 16 B a
    stored row for the other two, and the writer's chunk."""
    return plan_bytes + 16 * rows + _CHUNK_ROWS * _CHUNK_VALUE_BYTES * len(_PACKET_HEADER)


def _run_pde_packet(params: dict) -> tuple[list[OutputFile], dict]:
    form = params["form"]
    grid = _refused(Grid, params["n"], params["L"])
    lap_mode = params["laplacian"]
    r, v = params["r"], params["v"]
    if form == "full":
        coeffs = reduce_equation(EquationParameters(r, v, EquationForm.FULL))
    else:
        coeffs = CanonicalCoefficients(a_xx=r, a_tt=0.0, v=v)
    sigma0 = params["sigma0"]
    if sigma0 < 2.0 * grid.dx:
        raise ConfigError("sigma0 must be at least two grid spacings")
    horizon = params["horizon_tau"]
    if horizon is None:
        # Default: time for the free packet width to double.
        horizon = 2.0 * math.sqrt(3.0) * sigma0**2 / r if form == "schrodinger" \
            else 10.0 * math.pi
    # The horizon is the physics here, so a run beyond the growth budget is
    # refused rather than shortened.
    plan = _refused(PdeProblem, coeffs, grid, t_end=horizon, dt=params["dt"],
                    snapshot_stride=lambda n_steps: max(1, n_steps // params["samples"]),
                    laplacian=lap_mode, safety=params["safety"],
                    allow_unstable=params["allow_unstable"], kept=_WIDTH_BYTES)
    psi0 = gaussian_packet(grid, sigma0)
    initial = schrodinger_consistent_state(psi0, coeffs, lap_mode)
    rows = sample_rows(plan.n_steps, plan.snapshot_stride)
    _refused(check_bytes, _packet_bytes(plan.n_bytes, rows),
             f"{rows} stored rows of {grid.n} points and their widths")
    offsets = wrapped_offsets(grid)
    last = None

    def widths(start: int, block: np.ndarray, magnitudes: np.ndarray) -> np.ndarray:
        """The widths of the rows from ``start`` on, handed in time order
        with their |psi|; a copy of the last row is kept for the profile."""
        nonlocal last
        try:
            out = field_width(magnitudes, grid, offsets=offsets)
        except ValueError:  # a row with no mass: RK4's damping can underflow it
            magnitudes *= magnitudes
            empty = np.flatnonzero(magnitudes.sum(axis=1) == 0.0)
            if not empty.size:
                raise
            # raised here, as a runtime error: the run is not a refused input
            step = min((start + int(empty[0])) * plan.snapshot_stride, plan.n_steps)
            raise UnderflowError(float(step) * plan.dt) from None
        if start + len(block) == rows:
            last = block[-1].copy()
        return out

    result = _refused(evolve, plan, initial, reduce=widths)
    measured = result.psi
    if form == "schrodinger" and v == 0.0:
        expected = width_law(sigma0, r, result.times)
        rel = np.abs(measured - expected) / expected
    else:
        expected = rel = np.full(rows, np.nan)
    outputs = [
        OutputFile("pde_packet_width.csv", _PACKET_HEADER,
                   [result.times, measured, expected, rel]),
        OutputFile("pde_packet_profile.csv",
                   ["xi_hat", "re_psi", "im_psi", "abs_psi"],
                   [grid.xi(), *_parts(last)]),
    ]
    solver = {"form": form, "dt": plan.dt, "n_steps": plan.n_steps,
              "snapshot_stride": plan.snapshot_stride, "horizon_tau": horizon,
              "laplacian": lap_mode}
    return outputs, solver


_RUNNERS: dict[str, Callable[[dict], tuple[list[OutputFile], dict]]] = {
    "fig1": _run_fig1,
    "dispersion_scan": _run_dispersion_scan,
    "regime_compare": _run_regime_compare,
    "convergence": _run_convergence,
    "pde_packet": _run_pde_packet,
}


# --------------------------------------------------------------------------
# Plot scripts (gnuplot) for quick inspection of the CSVs.
# --------------------------------------------------------------------------


def _plotscript(scenario: str, outputs: list[OutputFile]) -> str:
    lines = [
        "# gnuplot script generated alongside the CSV outputs",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set grid",
    ]
    if scenario == "fig1":
        for out in outputs:
            lines += [
                f"set title 'free uniform solution ({out.name})'",
                f"plot '{out.name}' using 1:2 with lines, \\",
                f"     '{out.name}' using 1:5 with lines dashtype 2",
                "pause -1",
            ]
    elif scenario == "dispersion_scan":
        lines += [
            "set title 'dispersion scan'",
            "set logscale y",
            "plot 'dispersion_scan_modes.csv' using 1:4 with linespoints",
            "pause -1",
        ]
    elif scenario == "regime_compare":
        lines += [
            "set title 'full vs macroscopic distance'",
            "set logscale xy",
            "plot 'regime_compare_distances.csv' using 1:2 with linespoints, \\",
            "     'regime_compare_distances.csv' using 1:3 with linespoints",
            "pause -1",
        ]
    elif scenario == "convergence":
        lines += [
            "set title 'RK4 convergence'",
            "set logscale xy",
            "plot 'convergence_errors.csv' using 1:2 with linespoints",
            "pause -1",
        ]
    elif scenario == "pde_packet":
        lines += [
            "set title 'packet width'",
            "plot 'pde_packet_width.csv' using 1:2 with lines, \\",
            "     'pde_packet_width.csv' using 1:3 with lines dashtype 2",
            "pause -1",
        ]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------


def run_scenario(scenario: str, params: Optional[dict] = None,
                 out_dir: str | Path = ".", plotscript: bool = False,
                 constants: Optional[PhysicalConstants] = None) -> dict:
    """Run one scenario end to end; returns the manifest dictionary.

    ``params`` must already be resolved via :func:`resolve_config` (pass
    None for all defaults).  A manifest left by an earlier run is removed
    before the first CSV is written, and the new one is renamed into place
    last, so ``manifest.json`` only ever sits next to a complete run.  An
    ``out_dir`` that cannot be made raises ConfigError before any run.
    """
    resolved = resolve_config(scenario, params or {})
    consts = constants if constants is not None else PhysicalConstants()
    scales = derive_scales(consts)
    out_path = Path(out_dir)
    try:
        out_path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"cannot make output directory {out_path}: {exc}") from exc
    started = time.perf_counter()
    outputs, solver = _RUNNERS[scenario](resolved)
    manifest_path = out_path / "manifest.json"
    manifest_path.unlink(missing_ok=True)  # a stale manifest would vouch for new CSVs
    manifest_outputs = []
    for out in outputs:
        rows = write_csv(out_path / out.name, out.header, out.columns)
        manifest_outputs.append({"path": out.name, "rows": rows})
    if plotscript:
        script_name = f"plot_{scenario}.gp"
        (out_path / script_name).write_text(_plotscript(scenario, outputs),
                                            encoding="utf-8", newline="\n")
        manifest_outputs.append({"path": script_name, "rows": None})
    elapsed = time.perf_counter() - started
    manifest = {
        "scenario": scenario,
        "config": resolved,
        "constants": {"hbar": consts.hbar, "c": consts.c,
                      "planck_mass": consts.planck_mass},
        "derived_scales": {
            "tau_p": scales.tau_p, "length_p": scales.length_p,
            "energy_p": scales.energy_p, "energy_p_gev": scales.energy_p_gev,
            "omega": scales.omega, "period": scales.period,
        },
        "solver": solver,
        "outputs": manifest_outputs,
        "version": __version__,
        "wall_clock_seconds": elapsed,
        "output_dir": str(out_path),
    }
    # Written aside and renamed, so a manifest is either whole or absent.
    tmp_path = out_path / "manifest.json.tmp"
    tmp_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8", newline="\n")
    os.replace(tmp_path, manifest_path)
    return manifest
