"""The config schema: JSON in, a checked ExperimentConfig, the same JSON out.

The echo is what metrics.json embeds, so its bytes are pinned, not just
the object it reads back as.  Any JSON value either raises ConfigError or
gives a config whose echo reads back equal and holds no NaN or infinity.
"""

import json
import math
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duality_sim.duality import SPHERE_CASE_NAMES
from duality_sim.errors import ConfigError
from duality_sim.interferometer import GridSpec, PreparationParams
from duality_sim.runner import ExperimentConfig, NumericSpec, ReadoutSpec

# (config, json.dumps(config.to_dict(), indent=2, sort_keys=True)): the bytes
# that metrics.json embeds, so that -40 for -40.0 would show
GOLDEN_ECHOES = [
    ({"stage": 1, "case": "V1"},
     """\
{
  "alpha": 2.8284271247461903,
  "case": "V1",
  "emit_qgrid": false,
  "emit_quadrature_pdf": false,
  "epsilon": 0.0,
  "kick": "slit",
  "mode": "dispersive",
  "numeric": {
    "boundary_tolerance": 1e-06,
    "detuning_ratio": 200.0,
    "grid": {
      "n_points": 4096,
      "x_max": 14.0,
      "x_min": -12.0
    },
    "n_max": 96,
    "tail_tolerance": 1e-09
  },
  "readout": "trace",
  "stage": 1,
  "t_prime": 3.0,
  "theta_int": 3.141592653589793
}"""),
    ({"stage": 3, "case": {"c_up": [0.6, 0.0], "c_down": [0.0, 0.8], "phi": 0.3},
      "epsilon": [1.5, -0.5]},
     """\
{
  "alpha": 2.8284271247461903,
  "case": {
    "c_down": [
      0.0,
      0.8
    ],
    "c_up": 0.6,
    "phi": 0.3
  },
  "emit_qgrid": false,
  "emit_quadrature_pdf": false,
  "epsilon": [
    1.5,
    -0.5
  ],
  "kick": "slit",
  "mode": "dispersive",
  "numeric": {
    "boundary_tolerance": 1e-06,
    "detuning_ratio": 200.0,
    "grid": {
      "n_points": 4096,
      "x_max": 14.0,
      "x_min": -12.0
    },
    "n_max": 96,
    "tail_tolerance": 1e-09
  },
  "readout": "trace",
  "stage": 3,
  "t_prime": 3.0,
  "theta_int": 3.141592653589793
}"""),
    ({"stage": 2, "case": "VD", "alpha": [2.5, 0.5]},
     """\
{
  "alpha": [
    2.5,
    0.5
  ],
  "case": "VD",
  "emit_qgrid": false,
  "emit_quadrature_pdf": false,
  "epsilon": 0.0,
  "kick": "slit",
  "mode": "dispersive",
  "numeric": {
    "boundary_tolerance": 1e-06,
    "detuning_ratio": 200.0,
    "grid": {
      "n_points": 4096,
      "x_max": 14.0,
      "x_min": -12.0
    },
    "n_max": 96,
    "tail_tolerance": 1e-09
  },
  "readout": "trace",
  "stage": 2,
  "t_prime": 3.0,
  "theta_int": 3.141592653589793
}"""),
    ({"stage": 1, "case": "C1", "numeric": {
        "n_max": 40.0, "grid": {"x_min": -40, "x_max": 42, "n_points": 16384.0},
        "tail_tolerance": 1e-08}},
     """\
{
  "alpha": 2.8284271247461903,
  "case": "C1",
  "emit_qgrid": false,
  "emit_quadrature_pdf": false,
  "epsilon": 0.0,
  "kick": "slit",
  "mode": "dispersive",
  "numeric": {
    "boundary_tolerance": 1e-06,
    "detuning_ratio": 200.0,
    "grid": {
      "n_points": 16384,
      "x_max": 42.0,
      "x_min": -40.0
    },
    "n_max": 40,
    "tail_tolerance": 1e-08
  },
  "readout": "trace",
  "stage": 1,
  "t_prime": 3.0,
  "theta_int": 3.141592653589793
}"""),
    ({"stage": 2.0, "case": "DC", "theta_int": 3},
     """\
{
  "alpha": 2.8284271247461903,
  "case": "DC",
  "emit_qgrid": false,
  "emit_quadrature_pdf": false,
  "epsilon": 0.0,
  "kick": "slit",
  "mode": "dispersive",
  "numeric": {
    "boundary_tolerance": 1e-06,
    "detuning_ratio": 200.0,
    "grid": {
      "n_points": 4096,
      "x_max": 14.0,
      "x_min": -12.0
    },
    "n_max": 96,
    "tail_tolerance": 1e-09
  },
  "readout": "trace",
  "stage": 2,
  "t_prime": 3.0,
  "theta_int": 3.0
}"""),
    ({"stage": 2, "case": "CV", "readout": {"type": "quadrature", "theta": 1, "chi": -1}},
     """\
{
  "alpha": 2.8284271247461903,
  "case": "CV",
  "emit_qgrid": false,
  "emit_quadrature_pdf": false,
  "epsilon": 0.0,
  "kick": "slit",
  "mode": "dispersive",
  "numeric": {
    "boundary_tolerance": 1e-06,
    "detuning_ratio": 200.0,
    "grid": {
      "n_points": 4096,
      "x_max": 14.0,
      "x_min": -12.0
    },
    "n_max": 96,
    "tail_tolerance": 1e-09
  },
  "readout": {
    "chi": -1.0,
    "theta": 1.0,
    "type": "quadrature"
  },
  "stage": 2,
  "t_prime": 3.0,
  "theta_int": 3.141592653589793
}"""),
    ({"stage": 3, "case": "VDC", "mode": "exact", "kick": "local", "emit_qgrid": True,
      "readout": {"type": "quadrature", "chi": "most-probable"}},
     """\
{
  "alpha": 2.8284271247461903,
  "case": "VDC",
  "emit_qgrid": true,
  "emit_quadrature_pdf": false,
  "epsilon": 0.0,
  "kick": "local",
  "mode": "exact",
  "numeric": {
    "boundary_tolerance": 1e-06,
    "detuning_ratio": 200.0,
    "grid": {
      "n_points": 4096,
      "x_max": 14.0,
      "x_min": -12.0
    },
    "n_max": 96,
    "tail_tolerance": 1e-09
  },
  "readout": {
    "chi": "most-probable",
    "theta": 0.0,
    "type": "quadrature"
  },
  "stage": 3,
  "t_prime": 3.0,
  "theta_int": 3.141592653589793
}"""),
]


@pytest.mark.parametrize("data,echo", GOLDEN_ECHOES)
def test_golden_echo(data, echo):
    config = ExperimentConfig.from_dict(data)
    assert json.dumps(config.to_dict(), indent=2, sort_keys=True) == echo


def test_unnormalised_case_rejected_on_load():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"stage": 1, "case": {"c_up": 0.6, "c_down": 0.6, "phi": 0.0}})


# 10**400 is beyond float(); |1e200|^2 and |1e300|^2 overflow
HUGE = [1e200, -1e200, 1e300, 1.7e308, 10 ** 400, math.inf, -math.inf, math.nan]
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(HUGE)
           | st.text(max_size=4)
           | st.sampled_from(["trace", "quadrature", "most-probable", "exact", "local", "V1"]))
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)
FLOATS = st.floats(1e-3, 50.0) | st.integers(1, 100)
COMPLEX = FLOATS | st.floats(-50.0, 50.0) | st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=2)
NUMERIC_STRINGS = st.floats().map(repr) | st.integers().map(str)
WILD = (st.floats() | st.sampled_from(HUGE) | NUMERIC_STRINGS
        | st.lists(st.floats() | st.sampled_from(HUGE) | NUMERIC_STRINGS, min_size=2, max_size=2))
# the only strings a config holds: names of cases, readouts, modes and kicks
KEYWORDS = {"trace", "quadrature", "most-probable", "dispersive", "exact", "slit", "local",
            *SPHERE_CASE_NAMES}


def strings(value):
    """The string values (not keys) anywhere in a JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [s for item in value for s in strings(item)]
    return [value] if isinstance(value, str) else []


@st.composite
def objects(draw, cls, plausible: dict, required=(), rare=()):
    """A JSON object over the fields of cls: each key but the required ones
    may be left out, the rare ones mostly are; a value is plausible, a wild
    number or any JSON value; rarely a key is unknown.  (The rare picks sit
    mid-range because hypothesis favours the ends.)"""
    data = {}
    for f in fields(cls):
        present = draw(st.integers(0, 19)) == 7 if f.name in rare else draw(st.booleans())
        if f.name in required or present:
            pick = draw(st.integers(0, 39))
            values = (JSON_VALUES if pick == 7 else WILD if pick == 13
                      else plausible.get(f.name, FLOATS))
            data[f.name] = draw(values)
    if draw(st.integers(0, 19)) == 7:
        data[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    return data


@st.composite
def cases(draw):
    """A sphere-case name, or mostly normalised explicit amplitudes in either form."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SPHERE_CASE_NAMES + ("W9",)))
    t = draw(st.floats(0.0, math.pi / 2.0))
    c_up, c_down = math.cos(t), math.sin(t)
    plausible = {"c_up": st.sampled_from([c_up, [c_up, 0.0], [0.0, c_up], 1e200, [1e308, 1e308]]),
                 "c_down": st.sampled_from([c_down, [c_down, -0.0], 0.6]),
                 "phi": st.floats(-4.0, 4.0),
                 "name": st.sampled_from(SPHERE_CASE_NAMES)}
    return draw(objects(PreparationParams, plausible, required=("c_up", "c_down", "phi"),
                        rare=("name",)))


READOUTS = st.just("trace") | objects(ReadoutSpec, {
    "type": st.just("quadrature") | st.just("trace"),
    "theta": st.floats(-4.0, 4.0),
    "chi": st.floats(-7.0, 7.0) | st.just("most-probable")}, required=("type",))
NUMERICS = objects(NumericSpec, {
    "n_max": st.integers(1, 200) | st.just(40.0),
    "grid": objects(GridSpec, {"x_min": st.floats(-50.0, -1.0) | st.just(-math.inf),
                               "x_max": st.floats(2.0, 50.0) | st.just(math.inf),
                               "n_points": st.integers(16, 10 ** 6) | st.just(16384.0)})})
SCHEMA_CONFIGS = objects(ExperimentConfig, {
    "stage": st.sampled_from([1, 2, 3, 2.0]),
    "case": cases(),
    "alpha": COMPLEX,
    "epsilon": st.just(0) | COMPLEX | st.sampled_from(HUGE),
    "t_prime": FLOATS | st.just(0.0),
    "mode": st.sampled_from(["dispersive", "exact", "other"]),
    "kick": st.sampled_from(["slit", "local"]),
    "readout": READOUTS,
    "emit_qgrid": st.booleans(),
    "emit_quadrature_pdf": st.booleans(),
    "numeric": NUMERICS}, required=("stage", "case"))


@st.composite
def configs(draw):
    """Mostly objects shaped like the schema, sometimes any JSON value."""
    return draw(JSON_VALUES if draw(st.integers(0, 19)) == 7 else SCHEMA_CONFIGS)


@settings(max_examples=300, deadline=None)
@given(data=configs())
@example(data={"stage": 1, "case": {"c_up": 1e200, "c_down": 0, "phi": 0}})
@example(data={"stage": 1, "case": "V1", "alpha": 10 ** 400})
@example(data={"stage": 1, "case": "V1", "numeric": {"grid": {"x_max": math.inf}}})
@example(data={"stage": 2, "case": "V1", "t_prime": "2.5"})
def test_any_json_is_rejected_or_echoed_faithfully(data):
    # parse level only: a drawn n_points of 1e9 must never reach run
    try:
        config = ExperimentConfig.from_dict(data)
    except ConfigError:
        return
    assert set(strings(data)) <= KEYWORDS  # a numeric string is never read as a number
    echo = config.to_dict()
    assert ExperimentConfig.from_dict(echo) == config
    json.dumps(echo, allow_nan=False)
