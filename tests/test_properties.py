"""Property tests of the true-rank atom state and the de-duplicated kick.

Random preparations, coherent amplitudes, drives, interaction phases, both
interaction maps and both kick policies, at the reduced test numerics.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_NUMERIC
from duality_sim.errors import NumericError
from duality_sim.evolution import InteractionParams, branch_multipliers
from duality_sim.interferometer import (LEVEL_INDEX, AtomDensity, GridSpec, JointState,
                                        PreparationParams, SlitGeometry, build_initial,
                                        interact, trace_out_field)
from duality_sim.propagation import FlightSpec, free_propagate, screen_distribution

TAIL_TOLERANCE = 1e-9
GRID = GridSpec(**SMALL_NUMERIC["grid"])
N_MAX = SMALL_NUMERIC["n_max"]


@st.composite
def kicked_states(draw):
    """(initial state, interaction params, mode, kick) for a random run."""
    t = draw(st.floats(0.0, math.pi / 2))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    prep = PreparationParams(math.cos(t), math.sin(t) * cmath.exp(1j * phase),
                             draw(st.floats(0.0, 2.0 * math.pi)))
    alpha = draw(st.floats(0.5, 3.0))
    params = InteractionParams(epsilon=draw(st.floats(0.0, 9.0)),
                               theta_int=draw(st.floats(0.1, 2.0 * math.pi)))
    mode = draw(st.sampled_from(["dispersive", "exact"]))
    kick = draw(st.sampled_from(["slit", "local"]))
    state = build_initial(prep, SlitGeometry(), alpha, GRID, N_MAX, tail_tol=TAIL_TOLERANCE)
    return state, params, mode, kick


def interact_at_every_point(state, params, mode, kick):
    """The interaction with its multipliers evaluated at every grid point."""
    x = state.grid.x
    geom = state.geometry
    xs = x if kick == "local" else np.where(x < geom.midpoint, geom.x_top, geom.x_bottom)
    stay_b, cross_b, _ = branch_multipliers("b", xs, params, state.n_max, mode)
    stay_c, cross_c, _ = branch_multipliers("c", xs, params, state.n_max, mode)
    in_b = state.amps[:, LEVEL_INDEX["b"], :]
    in_c = state.amps[:, LEVEL_INDEX["c"], :]
    out = np.zeros_like(state.amps)
    out_b = out[:, LEVEL_INDEX["b"], :]
    out_c = out[:, LEVEL_INDEX["c"], :]
    out_b += stay_b * in_b
    out_c += stay_c * in_c
    out_c[:, 1:] += cross_b[:, :-1] * in_b[:, :-1]
    out_b[:, :-1] += cross_c[:, 1:] * in_c[:, 1:]
    return out


def screen(rho):
    flown = free_propagate(rho, FlightSpec(1.0), boundary_tol=math.inf)
    return flown, screen_distribution(flown).intensity


@settings(max_examples=25, deadline=None)
@given(kicked_states())
def test_deduplicated_kick_is_bit_identical(case):
    state, params, mode, kick = case
    fast = interact(state, params, mode=mode, kick=kick, tail_tol=TAIL_TOLERANCE)
    assert np.array_equal(fast.amps, interact_at_every_point(state, params, mode, kick))


@settings(max_examples=25, deadline=None)
@given(kicked_states())
def test_true_rank_factors_match_the_fock_slices(case):
    state, params, mode, kick = case
    state = interact(state, params, mode=mode, kick=kick, tail_tol=TAIL_TOLERANCE)
    rho = trace_out_field(state, tail_tol=TAIL_TOLERANCE)
    full = AtomDensity(grid=state.grid, factors=state.amps / math.sqrt(state.norm_sq()))
    assert rho.rank <= state.n_max
    assert 0.0 <= rho.discarded_weight <= TAIL_TOLERANCE
    assert rho.trace() == pytest.approx(full.trace(), abs=1e-12)
    assert rho.purity() == pytest.approx(full.purity(), abs=1e-12)
    flown, pattern = screen(rho)
    flown_full, pattern_full = screen(full)
    assert np.max(np.abs(pattern - pattern_full)) <= 1e-12
    assert flown.purity() == pytest.approx(flown_full.purity(), abs=1e-12)


def test_rank_is_one_without_the_field():
    prep = PreparationParams(0.6, 0.8, 1.1)
    rho = trace_out_field(build_initial(prep, SlitGeometry(), 0.0, GRID, N_MAX))
    assert rho.rank == 1
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


def test_which_path_record_has_rank_two():
    prep = PreparationParams(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)
    state = interact(build_initial(prep, SlitGeometry(), math.sqrt(8.0), GRID, N_MAX),
                     InteractionParams(epsilon=0.0, theta_int=math.pi))
    assert trace_out_field(state).rank == 2


def test_discarded_weight_above_tolerance_raises():
    # a second Schmidt direction of relative weight 1e-16 sits below the
    # rounding cut, so it is dropped and reported rather than kept
    prep = PreparationParams(1.0, 0.0, 0.0)
    state = build_initial(prep, SlitGeometry(), 0.0, GRID, N_MAX)
    amps = state.amps.copy()
    amps[:, LEVEL_INDEX["b"], 1] = 1e-8 * amps[:, LEVEL_INDEX["c"], 0]
    faint = JointState(grid=state.grid, geometry=state.geometry, amps=amps)
    rho = trace_out_field(faint)
    assert rho.rank == 1
    assert rho.discarded_weight == pytest.approx(1e-16, rel=1e-6)
    with pytest.raises(NumericError):
        trace_out_field(faint, tail_tol=1e-17)
