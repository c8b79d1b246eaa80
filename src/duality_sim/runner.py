"""Experiment orchestration: configs, the three stages, sweeps, suites.

A run executes build -> interact -> readout -> free flight -> screen
pattern, and reports the preparation's duality triple next to the measured
pattern.  Every stage runs it; the stage chooses only the fields.  Stage 1,
the bare double slit, has the vacuum and no drive, so its interaction is the
identity; stage 2 adds the quantised mode, stage 3 the classical drive too.

The config schema is the dataclasses themselves: each field of
ExperimentConfig, NumericSpec and GridSpec is a JSON key of the same name,
with the field's default.  One reader and one writer walk those fields and
coerce each value by its annotation: bool, int, float, complex (a number or
[re, im]), str, or a nested spec.  Only case (a sphere-case name or an
explicit PreparationParams object) and readout ("trace" or a quadrature
object whose chi may be "most-probable") have forms of their own.  Each
value is checked once, by the type that holds it, with ConfigError.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass, field as dataclass_field, fields, replace
from pathlib import Path

import numpy as np

from .duality import DualityMetrics, SPHERE_CASE_NAMES, gamma_of_phi, metrics, sphere_case
from .errors import ConfigError, NumericError
from .evolution import InteractionParams
from .fock import (QGrid, coherent_state, create_output, husimi_q, quadrature_projector,
                   write_columns)
from .interferometer import (GridSpec, JointState, PreparationParams, build_initial,
                             condition_on_quadrature, field_density, interact,
                             quadrature_pdf, trace_out_field)
from .propagation import ScreenPattern, free_propagate, fringe_visibility, screen_distribution
from .runtime import keep_freed_memory, one_blas_thread

CHI_AXIS = np.linspace(-7.0, 7.0, 281)
QGRID_AXIS = np.linspace(-7.0, 7.0, 141)
MOST_PROBABLE = "most-probable"

__all__ = [
    "ReadoutSpec",
    "NumericSpec",
    "ExperimentConfig",
    "RunResult",
    "SweepPoint",
    "read_config",
    "run",
    "most_probable_chi",
    "epsilon_sweep",
    "sphere_suite",
]


def _require(ok: bool, message: str) -> None:
    """Raise ConfigError unless ok; NaN comparisons are False, so NaN fails."""
    if not ok:
        raise ConfigError(message)


def _finite(z: complex) -> bool:
    z = complex(z)
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class ReadoutSpec:
    """Field readout: "trace" it out, or condition on a "quadrature" outcome.

    chi None takes the most probable outcome.
    """

    type: str = "trace"
    theta: float = 0.0
    chi: float | None = None

    def __post_init__(self):
        _require(self.type in ("trace", "quadrature"),
                 "readout type must be 'trace' or 'quadrature'")
        _require(math.isfinite(self.theta), "readout theta must be finite")
        _require(self.chi is None or math.isfinite(self.chi), "readout chi must be finite")


@dataclass(frozen=True)
class NumericSpec:
    n_max: int = 96
    grid: GridSpec = dataclass_field(default_factory=GridSpec)
    tail_tolerance: float = 1e-9
    boundary_tolerance: float = 1e-6
    detuning_ratio: float = 200.0

    def __post_init__(self):
        _require(self.n_max >= 1, "numeric.n_max must be at least 1")
        _require(0.0 < self.tail_tolerance < 1.0,  # at 1 no weight check could fire
                 "numeric.tail_tolerance must lie in (0, 1)")
        _require(0.0 < self.boundary_tolerance < math.inf,
                 "numeric.boundary_tolerance must be positive and finite")
        _require(0.0 < self.detuning_ratio < math.inf,
                 "numeric.detuning_ratio must be positive and finite")


@dataclass(frozen=True)
class ExperimentConfig:
    stage: int
    case: PreparationParams
    alpha: complex = math.sqrt(8.0)
    epsilon: complex = 0.0
    theta_int: float = math.pi
    mode: str = "dispersive"
    kick: str = "slit"
    readout: ReadoutSpec = dataclass_field(default_factory=ReadoutSpec)
    t_prime: float = 3.0
    emit_qgrid: bool = False
    emit_quadrature_pdf: bool = False
    numeric: NumericSpec = dataclass_field(default_factory=NumericSpec)

    def __post_init__(self):
        _require(self.stage in (1, 2, 3), "stage must be 1, 2 or 3")
        _require(self.mode in ("dispersive", "exact"), "mode must be 'dispersive' or 'exact'")
        _require(self.kick in ("slit", "local"), "kick must be 'slit' or 'local'")
        _require(self.stage == 3 or complex(self.epsilon) == 0.0,
                 "stages 1 and 2 have no classical drive; epsilon must be 0")
        _require(_finite(self.alpha), "alpha must be finite")
        _require(_finite(self.epsilon), "epsilon must be finite")
        _require(0.0 < self.theta_int < math.inf, "theta_int must be positive and finite")
        _require(0.0 <= self.t_prime < math.inf, "t_prime must be non-negative and finite")

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        return _read_fields(ExperimentConfig, data, "config")

    def to_dict(self) -> dict:
        return _write(ExperimentConfig, self)

    def interaction_params(self) -> InteractionParams:
        return InteractionParams(epsilon=self.epsilon, theta_int=self.theta_int,
                                 detuning_ratio=self.numeric.detuning_ratio)


@functools.cache
def _schema(cls) -> tuple:
    """(name, type, required) per field of a config dataclass, resolved once per class.

    A field annotated X | None is read as X; None stands for the key left out.
    """
    hints, schema = typing.get_type_hints(cls), []
    for f in fields(cls):
        kind, args = hints[f.name], typing.get_args(hints[f.name])
        if type(None) in args:
            (kind,) = (arg for arg in args if arg is not type(None))
        schema.append((f.name, kind, f.default is MISSING and f.default_factory is MISSING))
    return tuple(schema)


def _read(kind, value, label: str):
    """The JSON value as the annotated type kind; ConfigError if it is not one."""
    if kind is PreparationParams:
        return _read_case(value)
    if kind is ReadoutSpec:
        return _read_readout(value)
    if kind is bool or kind is str:
        if isinstance(value, kind):
            return value
    elif isinstance(value, (bool, str)):
        pass  # true, false and strings are not numbers
    elif kind is int:
        if isinstance(value, int) or isinstance(value, float) and value.is_integer():
            return int(value)
    elif kind is float or kind is complex:
        try:
            if kind is float:
                return float(value)
            if isinstance(value, (int, float, complex)):
                return complex(value)
            if isinstance(value, (list, tuple)) and len(value) == 2:
                return complex(_read(float, value[0], label), _read(float, value[1], label))
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float
            pass
    else:
        return _read_fields(kind, value, label)
    pair = " or a [re, im] pair" if kind is complex else ""
    raise ConfigError(f"{label} must be a {kind.__name__}{pair}, got {value!r}")


def _read_fields(cls, data, where: str):
    """An instance of the dataclass cls from a JSON object, field by field."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    schema = _schema(cls)
    unknown = data.keys() - {name for name, _, _ in schema}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = [name for name, _, required in schema if required and name not in data]
    if missing:
        raise ConfigError(f"{where} requires {missing}")
    return cls(**{name: _read(kind, data[name], f"{where}.{name}")
                  for name, kind, _ in schema if name in data})


def _write(kind, value):
    """The JSON form of a value of the annotated type kind, which _read reads back."""
    if kind is complex:
        z = complex(value)
        return z.real if z.imag == 0.0 else [z.real, z.imag]
    if kind in (bool, int, float, str):
        return value
    if kind is PreparationParams and value.name is not None:
        return value.name
    if kind is ReadoutSpec and value.type == "trace":
        return "trace"
    # a field holding None is left out: it reads back as its default
    data = {name: _write(sub, getattr(value, name))
            for name, sub, _ in _schema(kind) if getattr(value, name) is not None}
    return {"chi": MOST_PROBABLE, **data} if kind is ReadoutSpec else data


def _read_case(value) -> PreparationParams:
    if isinstance(value, str):
        try:
            return PreparationParams(*sphere_case(value), name=value)
        except ValueError as exc:
            raise ConfigError(str(exc))
    # only a sphere case has a name; an explicit object gives the amplitudes
    _require(isinstance(value, dict) and "name" not in value,
             "case must be a sphere-case name or an explicit {c_up, c_down, phi} object")
    return _read_fields(PreparationParams, value, "case")


def _read_readout(value) -> ReadoutSpec:
    if value == "trace":
        return ReadoutSpec()
    if isinstance(value, dict) and value.get("chi") == MOST_PROBABLE:
        value = {key: item for key, item in value.items() if key != "chi"}
    spec = _read_fields(ReadoutSpec, value, "readout")
    _require(spec.type == "quadrature", "readout must be 'trace' or a quadrature object")
    return spec


def read_config(path) -> dict:
    """The JSON object of a config file, not yet validated."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, not JSON
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig
    pattern: ScreenPattern
    metrics: DualityMetrics
    visibility: float | None
    diagnostics: dict
    qgrid: QGrid | None = None
    chi_pdf: np.ndarray | None = None

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        self.pattern.to_csv(out / "pattern.csv")
        payload = {
            "V0": self.metrics.V0,
            "D0": self.metrics.D0,
            "C0": self.metrics.C0,
            "residual": self.metrics.residual,
            "visibility": self.visibility,
            "config": self.config.to_dict(),
        }
        _write_json(out / "metrics.json", payload)
        _write_json(out / "diagnostics.json", self.diagnostics)
        if self.qgrid is not None:
            self.qgrid.to_csv(out / "qgrid.csv")
        if self.chi_pdf is not None:
            write_columns(out / "quadrature_pdf.csv", "chi,density", CHI_AXIS, self.chi_pdf)


def _write_json(path, payload) -> None:
    with create_output(path) as fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii"))


def most_probable_chi(state: JointState, theta: float, scan=None) -> float:
    """Locate the maximum of the quadrature outcome density over CHI_AXIS.

    A coarse scan brackets the best peak, then golden-section search
    refines it; ties resolve towards the smaller chi, deterministically.
    Both read the densities b_chi G b_chi^dag off the field Gram G.  scan,
    if given, is quadrature_pdf at theta on CHI_AXIS, already evaluated.
    An end of the axis whose density is above rounding, its inner neighbour's
    and the density 1e-4 inward raises NumericError: the peak may lie beyond.
    """
    gram = state.field_gram

    def density(chi):
        row = quadrature_projector(theta, chi, state.n_max)
        return float((row @ gram @ row.conj()).real)

    scan = quadrature_pdf(state, theta, CHI_AXIS) if scan is None else scan
    floor = CHI_AXIS.size * np.finfo(float).eps * float(np.max(scan))
    for end, inner, inward in ((0, 1, 1e-4), (-1, -2, -1e-4)):
        chi = CHI_AXIS[end]
        if scan[end] > max(floor, scan[inner]) and density(chi) > density(chi + inward):
            raise NumericError(f"the outcome density at theta={theta:g} still rises at the end "
                               f"chi={chi:g} of the scanned axis")
    best = int(np.argmax(scan))
    a, b = CHI_AXIS[max(best - 1, 0)], CHI_AXIS[min(best + 1, CHI_AXIS.size - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = density(c), density(d)
    while b - a > 1e-10:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = density(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = density(d)
    return 0.5 * (a + b)


def _cavity_exit(config: ExperimentConfig, diagnostics: dict | None = None) -> JointState:
    """build -> interact: the joint state leaving the cavities.

    diagnostics, if given, receives the initial norm and the carried columns, rows and tails.
    """
    tail_tol = config.numeric.tail_tolerance
    state = build_initial(config.case, config.alpha, config.numeric.grid, config.numeric.n_max,
                          tail_tol=tail_tol)
    if diagnostics is not None:  # the norm is a pass over the state; the sweep reports none
        diagnostics.update(initial_norm_sq=state.norm_sq(), initial_fock_tail=state.fock_tail,
                           fock_columns=state.n_max, support_rows=[state.start, state.stop],
                           initial_window_tail=state.window_tail)
    return interact(state, config.interaction_params(), mode=config.mode, kick=config.kick,
                    tail_tol=tail_tol)


@one_blas_thread
def run(config: ExperimentConfig) -> RunResult:
    """Execute one configured experiment end to end; stage 1 runs, and echoes, alpha = 0."""
    keep_freed_memory()
    config = replace(config, alpha=0.0) if config.stage == 1 else config
    prep = config.case
    duality_triple = metrics(prep.c_up, prep.c_down, gamma_of_phi(prep.phi))
    diagnostics = {"stage": config.stage}
    state = _cavity_exit(config, diagnostics)
    diagnostics.update(leak=state.leak, truncation_loss=state.truncation_loss,
                       post_interaction_norm_sq=state.norm_sq())

    qgrid = None
    if config.emit_qgrid:
        qgrid = husimi_q(field_density(state), QGRID_AXIS, QGRID_AXIS)

    chi_pdf = None
    if config.emit_quadrature_pdf:
        chi_pdf = quadrature_pdf(state, config.readout.theta, CHI_AXIS)

    if config.readout.type == "quadrature":
        chi = config.readout.chi
        if chi is None:
            chi = most_probable_chi(state, config.readout.theta, chi_pdf)
        rho, density = condition_on_quadrature(state, config.readout.theta, chi)
        diagnostics["readout"] = {"kind": "quadrature", "theta": config.readout.theta,
                                  "chi": chi, "outcome_density": density}
    else:
        rho = trace_out_field(state, tail_tol=config.numeric.tail_tolerance)
        diagnostics["readout"] = {"kind": "trace"}
    diagnostics["schmidt_rank"] = rho.rank
    diagnostics["discarded_weight"] = rho.discarded_weight
    del state  # nothing reads it after the readout; free it before the flight buffer

    purity_before = rho.purity()
    rho_screen = free_propagate(rho, config.t_prime, config.numeric.boundary_tolerance,
                                tail_tol=config.numeric.tail_tolerance)
    diagnostics["flight_discarded_weight"] = rho_screen.discarded_weight
    diagnostics["trace"] = rho_screen.trace()
    diagnostics["boundary_weight"] = rho_screen.boundary_weight()
    diagnostics["nyquist_band_weight"] = rho_screen.nyquist_band_weight
    diagnostics["purity_before_flight"] = purity_before
    diagnostics["purity_after_flight"] = rho_screen.purity()

    pattern = screen_distribution(rho_screen)
    visibility = fringe_visibility(pattern)
    diagnostics["visibility"] = visibility
    return RunResult(config=config, pattern=pattern, metrics=duality_triple,
                     visibility=visibility, diagnostics=diagnostics,
                     qgrid=qgrid, chi_pdf=chi_pdf)


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    qgrid: QGrid
    overlap_with_initial: float


@one_blas_thread
def epsilon_sweep(base: ExperimentConfig, epsilons, level: str) -> list[SweepPoint]:
    """Husimi picture and initial-field overlap across classical amplitudes.

    Sends the whole atom down the top path (c_up = 1) in level |b>
    (phi = pi/2) or |c> (phi = 0) and reports, for each epsilon, the
    post-interaction field's Husimi grid and its overlap with the initial
    coherent state.
    """
    if level not in ("b", "c"):
        raise ConfigError("sweep level must be 'b' or 'c'")
    keep_freed_memory()
    case = PreparationParams(1.0, 0.0, math.pi / 2.0 if level == "b" else 0.0)
    points = []
    for eps in epsilons:
        state = _cavity_exit(replace(base, stage=3, epsilon=eps, case=case))
        rho = field_density(state)
        c = coherent_state(base.alpha, state.n_max)
        points.append(SweepPoint(epsilon=float(eps), qgrid=husimi_q(rho, QGRID_AXIS, QGRID_AXIS),
                                 overlap_with_initial=float((c.conj() @ rho @ c).real)))
    return points


def sphere_suite(base: ExperimentConfig) -> dict[str, RunResult]:
    """Run all seven named sphere cases on everything of base but its case."""
    return {name: run(replace(base, case=_read_case(name))) for name in SPHERE_CASE_NAMES}
