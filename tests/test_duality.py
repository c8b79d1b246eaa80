import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duality_sim.duality import SPHERE_CASE_NAMES, gamma_of_phi, metrics, sphere_case
from duality_sim.errors import ConfigError

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT3 = 1.0 / math.sqrt(3.0)


def triple(m):
    return (m.V0, m.D0, m.C0)


def test_total_interference():
    assert triple(metrics(INV_SQRT2, INV_SQRT2, 1.0)) == pytest.approx((1, 0, 0), abs=1e-15)


def test_full_distinguishability():
    assert triple(metrics(1.0, 0.0, 0.3)) == pytest.approx((0, 1, 0), abs=1e-15)


def test_full_concurrence():
    assert triple(metrics(INV_SQRT2, INV_SQRT2, 0.0)) == pytest.approx((0, 0, 1), abs=1e-15)


def test_gamma_of_phi():
    assert gamma_of_phi(0.0) == 1.0
    assert gamma_of_phi(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert gamma_of_phi(math.pi / 4) == pytest.approx(INV_SQRT2)


def test_invalid_inputs():
    with pytest.raises(ConfigError, match=r"must satisfy \|c_up\|\^2 \+ \|c_down\|\^2 = 1"):
        metrics(1.0, 1.0, 0.5)
    with pytest.raises(ConfigError, match=r"\|gamma\| cannot exceed 1"):
        metrics(INV_SQRT2, INV_SQRT2, 1.5)
    with pytest.raises(ConfigError, match="unknown sphere case 'XYZ'"):
        sphere_case("XYZ")


def case_metrics(name):
    c_up, c_down, phi = sphere_case(name)
    return metrics(c_up, c_down, gamma_of_phi(phi))


@pytest.mark.parametrize("name,expected", [
    ("V1", (1.0, 0.0, 0.0)),
    ("D1", (0.0, 1.0, 0.0)),
    ("C1", (0.0, 0.0, 1.0)),
    ("VD", (INV_SQRT2, INV_SQRT2, 0.0)),
    ("DC", (0.0, INV_SQRT2, INV_SQRT2)),
    ("CV", (INV_SQRT2, 0.0, INV_SQRT2)),
    ("VDC", (INV_SQRT3, INV_SQRT3, INV_SQRT3)),
])
def test_sphere_cases(name, expected):
    m = case_metrics(name)
    assert triple(m) == pytest.approx(expected, abs=1e-12)
    assert abs(m.residual) < 1e-12


def test_case_table_is_complete():
    assert set(SPHERE_CASE_NAMES) == {"V1", "VD", "D1", "DC", "C1", "CV", "VDC"}


@settings(max_examples=200, deadline=None)
@given(t=st.floats(0.0, math.pi / 2), phi=st.floats(0.0, 2.0 * math.pi))
def test_sum_rule(t, phi):
    m = metrics(math.cos(t), math.sin(t), gamma_of_phi(phi))
    assert abs(m.residual) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    t=st.floats(0.0, math.pi / 2),
    g=st.floats(0.0, 1.0),
    p1=st.floats(0.0, 2.0 * math.pi),
    p2=st.floats(0.0, 2.0 * math.pi),
    p3=st.floats(0.0, 2.0 * math.pi),
)
@example(t=1.0, g=0.9999999999999999, p1=0.0, p2=0.0, p3=2.748219626453448)
def test_phase_invariance(t, g, p1, p2, p3):
    # compare against the moduli of the rotated inputs: rotating g by p3
    # can move |g| by an ulp, which near g = 1 moves C0 by ~1e-8 through
    # sqrt(1 - g^2) -- a rounding of the input, not of metrics
    c_up = math.cos(t) * cmath.exp(1j * p1)
    c_down = math.sin(t) * cmath.exp(1j * p2)
    gamma = g * cmath.exp(1j * p3)
    base = metrics(abs(c_up), abs(c_down), abs(gamma))
    rotated = metrics(c_up, c_down, gamma)
    assert triple(rotated) == pytest.approx(triple(base), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(t=st.floats(0.0, math.pi / 2), g=st.floats(0.0, 1.0))
def test_exchange_symmetry(t, g):
    a = metrics(math.cos(t), math.sin(t), g)
    b = metrics(math.sin(t), math.cos(t), g)
    assert triple(a) == pytest.approx(triple(b), abs=1e-14)
