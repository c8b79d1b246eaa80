"""Experiment orchestration: configs, the three stages, sweeps, suites.

A run executes build -> (interact) -> readout -> free flight -> screen
pattern, and reports the preparation's duality triple next to the measured
pattern.  Stage 1 is the bare double slit (no cavity), stage 2 adds the
quantised mode, stage 3 adds the classical drive as well.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field, replace
from pathlib import Path

import numpy as np

from .duality import DualityMetrics, SPHERE_CASE_NAMES, gamma_of_phi, metrics, sphere_case
from .errors import ConfigError, UndefinedVisibilityError
from .evolution import InteractionParams
from .fock import QGrid, QuadratureSpec, coherent_state, husimi_q
from .interferometer import (GridSpec, JointState, PreparationParams, SlitGeometry,
                             build_initial, condition_on_quadrature, field_density,
                             interact, quadrature_pdf, trace_out_field)
from .propagation import (FlightSpec, ScreenPattern, free_propagate, fringe_visibility,
                          screen_distribution, write_columns)

DEFAULT_ALPHA = math.sqrt(8.0)
DEFAULT_T_PRIME = 3.0
CHI_SEARCH_RANGE = (-7.0, 7.0)
QGRID_AXIS = np.linspace(-7.0, 7.0, 141)

__all__ = [
    "CaseSpec",
    "ReadoutSpec",
    "NumericSpec",
    "ExperimentConfig",
    "RunResult",
    "SweepPoint",
    "load_config",
    "run",
    "most_probable_chi",
    "epsilon_sweep",
    "sphere_suite",
]


def _as_complex(value, label: str) -> complex:
    if isinstance(value, bool):
        raise ConfigError(f"{label} must be a number or a [re, im] pair")
    if isinstance(value, (int, float, complex)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_float(value[0], label), _as_float(value[1], label))
    raise ConfigError(f"{label} must be a number or a [re, im] pair")


def _as_float(value, label: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{label} must be a number")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{label} must be a number, got {value!r}")


def _as_int(value, label: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{label} must be an integer, got {value!r}")


def _as_bool(value, label: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{label} must be true or false, got {value!r}")
    return value


def _require(ok: bool, message: str) -> None:
    """Raise ConfigError unless ok; NaN comparisons are False, so NaN fails."""
    if not ok:
        raise ConfigError(message)


def _finite(z: complex) -> bool:
    z = complex(z)
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _num_json(z: complex):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def _check_keys(mapping: dict, allowed, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


@dataclass(frozen=True)
class CaseSpec:
    """Either a named sphere case or an explicit (c_up, c_down, phi)."""

    name: str | None = None
    c_up: complex = 1.0 / math.sqrt(2.0)
    c_down: complex = 1.0 / math.sqrt(2.0)
    phi: float = 0.0

    def __post_init__(self):
        _require(_finite(self.c_up) and _finite(self.c_down) and math.isfinite(self.phi),
                 "case parameters must be finite")

    @staticmethod
    def from_value(value) -> "CaseSpec":
        if isinstance(value, str):
            try:
                case = sphere_case(value)
            except ValueError as exc:
                raise ConfigError(str(exc))
            return CaseSpec(name=case.name, c_up=case.c_up, c_down=case.c_down, phi=case.phi)
        if isinstance(value, dict):
            _check_keys(value, {"c_up", "c_down", "phi"}, "case")
            try:
                return CaseSpec(
                    name=None,
                    c_up=_as_complex(value["c_up"], "c_up"),
                    c_down=_as_complex(value["c_down"], "c_down"),
                    phi=_as_float(value["phi"], "phi"),
                )
            except KeyError as missing:
                raise ConfigError(f"explicit case needs c_up, c_down and phi ({missing} missing)")
        raise ConfigError("case must be a sphere-case name or an explicit parameter object")

    def to_json(self):
        if self.name is not None:
            return self.name
        return {"c_up": _num_json(self.c_up), "c_down": _num_json(self.c_down), "phi": self.phi}

    def preparation(self) -> PreparationParams:
        return PreparationParams(c_up=self.c_up, c_down=self.c_down, phi=self.phi)


@dataclass(frozen=True)
class ReadoutSpec:
    """Field readout: trace it out, or condition on a quadrature outcome."""

    kind: str = "trace"
    theta: float = 0.0
    chi: float | None = None  # None means take the most probable outcome

    def __post_init__(self):
        if self.kind not in ("trace", "quadrature"):
            raise ConfigError("readout kind must be 'trace' or 'quadrature'")
        _require(math.isfinite(self.theta), "readout theta must be finite")
        _require(self.chi is None or math.isfinite(self.chi), "readout chi must be finite")

    @staticmethod
    def from_value(value) -> "ReadoutSpec":
        if value == "trace":
            return ReadoutSpec(kind="trace")
        if isinstance(value, dict):
            _check_keys(value, {"type", "theta", "chi"}, "readout")
            if value.get("type") != "quadrature":
                raise ConfigError("readout object must have type 'quadrature'")
            chi = value.get("chi", "most-probable")
            if chi == "most-probable":
                chi_val = None
            else:
                chi_val = _as_float(chi, "readout chi")
            return ReadoutSpec(kind="quadrature",
                               theta=_as_float(value.get("theta", 0.0), "readout theta"),
                               chi=chi_val)
        raise ConfigError("readout must be 'trace' or a quadrature object")

    def to_json(self):
        if self.kind == "trace":
            return "trace"
        return {"type": "quadrature", "theta": self.theta,
                "chi": "most-probable" if self.chi is None else self.chi}


@dataclass(frozen=True)
class NumericSpec:
    n_max: int = 96
    grid: GridSpec = dataclass_field(default_factory=GridSpec)
    tail_tolerance: float = 1e-9
    boundary_tolerance: float = 1e-6
    detuning_ratio: float = 200.0

    def __post_init__(self):
        _require(self.n_max >= 1, "numeric.n_max must be at least 1")
        for name in ("tail_tolerance", "boundary_tolerance", "detuning_ratio"):
            value = getattr(self, name)
            _require(0.0 < value < math.inf, f"numeric.{name} must be positive and finite")

    @staticmethod
    def from_value(value: dict) -> "NumericSpec":
        _check_keys(value, {"n_max", "grid", "tail_tolerance", "boundary_tolerance",
                            "detuning_ratio"}, "numeric")
        grid_value = value.get("grid", {})
        _check_keys(grid_value, {"x_min", "x_max", "n_points"}, "numeric.grid")
        default_grid = GridSpec()
        grid = GridSpec(
            x_min=_as_float(grid_value.get("x_min", default_grid.x_min), "numeric.grid.x_min"),
            x_max=_as_float(grid_value.get("x_max", default_grid.x_max), "numeric.grid.x_max"),
            n_points=_as_int(grid_value.get("n_points", default_grid.n_points),
                             "numeric.grid.n_points"),
        )
        return NumericSpec(
            n_max=_as_int(value.get("n_max", 96), "numeric.n_max"),
            grid=grid,
            tail_tolerance=_as_float(value.get("tail_tolerance", 1e-9), "numeric.tail_tolerance"),
            boundary_tolerance=_as_float(value.get("boundary_tolerance", 1e-6),
                                         "numeric.boundary_tolerance"),
            detuning_ratio=_as_float(value.get("detuning_ratio", 200.0), "numeric.detuning_ratio"),
        )

    def to_json(self):
        return {
            "n_max": self.n_max,
            "grid": {"x_min": self.grid.x_min, "x_max": self.grid.x_max,
                     "n_points": self.grid.n_points},
            "tail_tolerance": self.tail_tolerance,
            "boundary_tolerance": self.boundary_tolerance,
            "detuning_ratio": self.detuning_ratio,
        }


_TOP_LEVEL_KEYS = {"stage", "case", "alpha", "epsilon", "theta_int", "mode", "kick",
                   "readout", "t_prime", "emit_qgrid", "emit_quadrature_pdf", "numeric"}


@dataclass(frozen=True)
class ExperimentConfig:
    stage: int
    case: CaseSpec
    alpha: complex = DEFAULT_ALPHA
    epsilon: complex = 0.0
    theta_int: float = math.pi
    mode: str = "dispersive"
    kick: str = "slit"
    readout: ReadoutSpec = dataclass_field(default_factory=ReadoutSpec)
    t_prime: float = DEFAULT_T_PRIME
    emit_qgrid: bool = False
    emit_quadrature_pdf: bool = False
    numeric: NumericSpec = dataclass_field(default_factory=NumericSpec)

    def __post_init__(self):
        if self.stage not in (1, 2, 3):
            raise ConfigError("stage must be 1, 2 or 3")
        if self.mode not in ("dispersive", "exact"):
            raise ConfigError("mode must be 'dispersive' or 'exact'")
        if self.kick not in ("slit", "local"):
            raise ConfigError("kick must be 'slit' or 'local'")
        if self.stage == 2 and complex(self.epsilon) != 0.0:
            raise ConfigError("stage 2 has no classical drive; epsilon must be 0")
        _require(_finite(self.alpha), "alpha must be finite")
        _require(_finite(self.epsilon), "epsilon must be finite")
        _require(0.0 < self.theta_int < math.inf, "theta_int must be positive and finite")
        _require(0.0 <= self.t_prime < math.inf, "t_prime must be non-negative and finite")

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        _check_keys(data, _TOP_LEVEL_KEYS, "config")
        if "stage" not in data or "case" not in data:
            raise ConfigError("config requires at least 'stage' and 'case'")
        return ExperimentConfig(
            stage=_as_int(data["stage"], "stage"),
            case=CaseSpec.from_value(data["case"]),
            alpha=_as_complex(data.get("alpha", DEFAULT_ALPHA), "alpha"),
            epsilon=_as_complex(data.get("epsilon", 0.0), "epsilon"),
            theta_int=_as_float(data.get("theta_int", math.pi), "theta_int"),
            mode=str(data.get("mode", "dispersive")),
            kick=str(data.get("kick", "slit")),
            readout=ReadoutSpec.from_value(data.get("readout", "trace")),
            t_prime=_as_float(data.get("t_prime", DEFAULT_T_PRIME), "t_prime"),
            emit_qgrid=_as_bool(data.get("emit_qgrid", False), "emit_qgrid"),
            emit_quadrature_pdf=_as_bool(data.get("emit_quadrature_pdf", False),
                                         "emit_quadrature_pdf"),
            numeric=NumericSpec.from_value(data.get("numeric", {})),
        )

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "case": self.case.to_json(),
            "alpha": _num_json(self.alpha),
            "epsilon": _num_json(self.epsilon),
            "theta_int": self.theta_int,
            "mode": self.mode,
            "kick": self.kick,
            "readout": self.readout.to_json(),
            "t_prime": self.t_prime,
            "emit_qgrid": self.emit_qgrid,
            "emit_quadrature_pdf": self.emit_quadrature_pdf,
            "numeric": self.numeric.to_json(),
        }

    def interaction_params(self) -> InteractionParams:
        eps = 0.0 if self.stage == 2 else self.epsilon
        return InteractionParams(epsilon=eps, theta_int=self.theta_int,
                                 detuning_ratio=self.numeric.detuning_ratio)


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return ExperimentConfig.from_dict(data)


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig
    pattern: ScreenPattern
    metrics: DualityMetrics
    visibility: float | None
    diagnostics: dict
    qgrid: QGrid | None = None
    chi_axis: np.ndarray | None = None
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
            write_columns(out / "quadrature_pdf.csv", "chi,density", self.chi_axis, self.chi_pdf)


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="ascii")


def most_probable_chi(state: JointState, theta: float,
                      search=CHI_SEARCH_RANGE) -> float:
    """Locate the maximum of the quadrature outcome density.

    A coarse scan brackets the best peak, then golden-section search
    refines it; ties resolve towards the smaller chi, deterministically.
    """
    coarse = np.linspace(search[0], search[1], 281)
    dens = quadrature_pdf(state, theta, coarse)
    best = int(np.argmax(dens))
    lo = coarse[max(best - 1, 0)]
    hi = coarse[min(best + 1, coarse.size - 1)]

    def density_at(chi: float) -> float:
        return float(quadrature_pdf(state, theta, np.array([chi]))[0])

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = density_at(c), density_at(d)
    while b - a > 1e-10:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = density_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = density_at(d)
    return 0.5 * (a + b)


def _visibility_or_none(pattern: ScreenPattern) -> float | None:
    try:
        return fringe_visibility(pattern)
    except UndefinedVisibilityError:
        return None


def run(config: ExperimentConfig) -> RunResult:
    """Execute one configured experiment end to end."""
    prep = config.case.preparation()
    duality_triple = metrics(prep.c_up, prep.c_down, gamma_of_phi(prep.phi))
    geom = SlitGeometry()
    alpha = 0.0 if config.stage == 1 else config.alpha
    tail_tol = config.numeric.tail_tolerance
    state = build_initial(prep, geom, alpha, config.numeric.grid, config.numeric.n_max,
                          tail_tol=tail_tol)
    diagnostics = {"stage": config.stage, "initial_norm_sq": state.norm_sq(),
                   "support_rows": [state.start, state.stop]}

    if config.stage >= 2:
        state = interact(state, config.interaction_params(), mode=config.mode,
                         kick=config.kick, tail_tol=tail_tol)
        diagnostics["leak"] = state.diagnostics.leak
        diagnostics["truncation_loss"] = state.diagnostics.truncation_loss
        diagnostics["post_interaction_norm_sq"] = state.norm_sq()

    qgrid = None
    if config.emit_qgrid and config.stage >= 2:
        qgrid = husimi_q(field_density(state), QGRID_AXIS, QGRID_AXIS)

    chi_axis = chi_pdf = None
    if config.emit_quadrature_pdf and config.stage >= 2:
        chi_axis = np.linspace(CHI_SEARCH_RANGE[0], CHI_SEARCH_RANGE[1], 281)
        chi_pdf = quadrature_pdf(state, config.readout.theta, chi_axis)

    if config.readout.kind == "quadrature" and config.stage >= 2:
        chi = config.readout.chi
        if chi is None:
            chi = most_probable_chi(state, config.readout.theta)
        rho, density = condition_on_quadrature(
            state, QuadratureSpec(theta=config.readout.theta, chi=chi))
        diagnostics["readout"] = {"kind": "quadrature", "theta": config.readout.theta,
                                  "chi": chi, "outcome_density": density}
    else:
        rho = trace_out_field(state, tail_tol=tail_tol)
        diagnostics["readout"] = {"kind": "trace"}
    diagnostics["schmidt_rank"] = rho.rank
    diagnostics["discarded_weight"] = rho.discarded_weight

    purity_before = rho.purity()
    rho_screen = free_propagate(rho, FlightSpec(config.t_prime),
                                boundary_tol=config.numeric.boundary_tolerance)
    diagnostics["trace"] = rho_screen.trace()
    diagnostics["boundary_weight"] = rho_screen.boundary_weight()
    diagnostics["purity_before_flight"] = purity_before
    diagnostics["purity_after_flight"] = rho_screen.purity()

    pattern = screen_distribution(rho_screen)
    visibility = _visibility_or_none(pattern)
    diagnostics["visibility"] = visibility
    return RunResult(config=config, pattern=pattern, metrics=duality_triple,
                     visibility=visibility, diagnostics=diagnostics,
                     qgrid=qgrid, chi_axis=chi_axis, chi_pdf=chi_pdf)


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    qgrid: QGrid
    overlap_with_initial: float


def epsilon_sweep(base: ExperimentConfig, epsilons, level: str) -> list[SweepPoint]:
    """Husimi picture and initial-field overlap across classical amplitudes.

    Sends the whole atom down the top path (c_up = 1) in level |b>
    (phi = pi/2) or |c> (phi = 0) and reports, for each epsilon, the
    post-interaction field's Husimi grid and its overlap with the initial
    coherent state.
    """
    if level not in ("b", "c"):
        raise ConfigError("sweep level must be 'b' or 'c'")
    case = CaseSpec(c_up=1.0, c_down=0.0, phi=math.pi / 2.0 if level == "b" else 0.0)
    alpha_vec = coherent_state(base.alpha, base.numeric.n_max).amps
    points = []
    for eps in epsilons:
        config = replace(base, stage=3, epsilon=eps, case=case)
        tail_tol = config.numeric.tail_tolerance
        state = build_initial(case.preparation(), SlitGeometry(), config.alpha,
                              config.numeric.grid, config.numeric.n_max, tail_tol=tail_tol)
        state = interact(state, config.interaction_params(), mode=config.mode,
                         kick=config.kick, tail_tol=tail_tol)
        rho_f = field_density(state)
        ov = float(np.real(alpha_vec.conj() @ rho_f @ alpha_vec))
        points.append(SweepPoint(
            epsilon=float(eps),
            qgrid=husimi_q(rho_f, QGRID_AXIS, QGRID_AXIS),
            overlap_with_initial=ov,
        ))
    return points


def sphere_suite(t_prime: float, stage: int, alpha: complex, epsilon: complex,
                 base: ExperimentConfig | None = None) -> dict[str, RunResult]:
    """Run all seven named sphere cases with shared numerics."""
    results = {}
    for name in SPHERE_CASE_NAMES:
        seed = base.to_dict() if base is not None else {"stage": stage, "case": name}
        seed.update({
            "stage": stage,
            "case": name,
            "alpha": _num_json(alpha),
            "epsilon": _num_json(epsilon if stage == 3 else 0.0),
            "t_prime": float(t_prime),
        })
        results[name] = run(ExperimentConfig.from_dict(seed))
    return results
