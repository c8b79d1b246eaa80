"""Property tests of the true-rank atom state, the de-duplicated kick, the
support window and the field Gram.

Random preparations (single packets included), coherent amplitudes, drives,
interaction phases, both interaction maps and both kick policies, at the
reduced test numerics.  The oracle of the window is the same state embedded
into every grid row (start = 0).
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from analytic import golden_section_chi, joint_state_pdf, uncached_field_gram
from conftest import SMALL_NUMERIC
from duality_sim.errors import NumericError
from duality_sim.evolution import InteractionParams, branch_multipliers
from duality_sim.fock import QuadratureSpec, coherent_state
from duality_sim.interferometer import (LEVEL_INDEX, MIDPOINT, X_BOTTOM, X_TOP, AtomDensity,
                                        GridSpec, JointState, PreparationParams, _slit_profile,
                                        build_initial, condition_on_quadrature, field_density,
                                        interact, quadrature_pdf, trace_out_field)
from duality_sim.propagation import free_propagate, screen_distribution
from duality_sim.runner import CHI_SEARCH_RANGE, ExperimentConfig, most_probable_chi

TAIL_TOLERANCE = 1e-9
GRID = GridSpec(**SMALL_NUMERIC["grid"])
N_MAX = SMALL_NUMERIC["n_max"]


@st.composite
def two_paths(draw):
    t = draw(st.floats(0.0, math.pi / 2))
    return math.cos(t), math.sin(t) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))


@st.composite
def kicked_states(draw):
    """(initial state, interaction params, mode, kick) for a random run."""
    c_up, c_down = draw(st.one_of(st.sampled_from([(1.0, 0.0), (0.0, 1.0)]), two_paths()))
    prep = PreparationParams(c_up, c_down, draw(st.floats(0.0, 2.0 * math.pi)))
    alpha = draw(st.floats(0.5, 3.0))
    params = InteractionParams(epsilon=draw(st.floats(0.0, 9.0)),
                               theta_int=draw(st.floats(0.1, 2.0 * math.pi)))
    mode = draw(st.sampled_from(["dispersive", "exact"]))
    kick = draw(st.sampled_from(["slit", "local"]))
    state = build_initial(prep, alpha, GRID, N_MAX, tail_tol=TAIL_TOLERANCE)
    return state, params, mode, kick


def full_grid(state):
    """The same state with a row for every grid point (start = 0)."""
    amps = np.zeros((state.grid.n_points,) + state.amps.shape[1:], dtype=complex)
    amps[state.start:state.stop] = state.amps
    return JointState(grid=state.grid, amps=amps)


def interact_at_every_point(state, params, mode, kick):
    """The interaction with its multipliers evaluated at every row."""
    x = state.x
    xs = x if kick == "local" else np.where(x < MIDPOINT, X_TOP, X_BOTTOM)
    stay_b, cross_b, _ = branch_multipliers(xs, params, state.n_max, mode)["b"]
    stay_c, cross_c, _ = branch_multipliers(xs, params, state.n_max, mode)["c"]
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
    flown = free_propagate(rho, 1.0, boundary_tol=math.inf)
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
    full = AtomDensity(grid=state.grid,
                       factors=full_grid(state).amps / math.sqrt(state.norm_sq()))
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
    rho = trace_out_field(build_initial(prep, 0.0, GRID, N_MAX))
    assert rho.rank == 1
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


def test_which_path_record_has_rank_two():
    prep = PreparationParams(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)
    state = interact(build_initial(prep, math.sqrt(8.0), GRID, N_MAX),
                     InteractionParams(epsilon=0.0, theta_int=math.pi))
    assert trace_out_field(state).rank == 2


def test_discarded_weight_above_tolerance_raises():
    # a second Schmidt direction of relative weight 1e-16 sits below the
    # rounding cut, so it is dropped and reported rather than kept
    prep = PreparationParams(1.0, 0.0, 0.0)
    state = build_initial(prep, 0.0, GRID, N_MAX)
    amps = state.amps.copy()
    amps[:, LEVEL_INDEX["b"], 1] = 1e-8 * amps[:, LEVEL_INDEX["c"], 0]
    faint = JointState(grid=state.grid, amps=amps, start=state.start)
    rho = trace_out_field(faint)
    assert rho.rank == 1
    assert rho.discarded_weight == pytest.approx(1e-16, rel=1e-6)
    with pytest.raises(NumericError):
        trace_out_field(faint, tail_tol=1e-17)


@pytest.mark.parametrize("c_up, c_down, phi", [
    (1 / math.sqrt(2), 1 / math.sqrt(2), 0.0),
    (0.6, 0.8j, 1.1),
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.3),
    (1.0, 0.0, math.pi / 2),
])
def test_window_is_the_nonzero_span_of_the_slit_profiles(c_up, c_down, phi):
    state = build_initial(PreparationParams(c_up, c_down, phi), 1.5, GRID, N_MAX)
    ground = (c_up * math.cos(phi) * _slit_profile(GRID, X_TOP)
              + c_down * _slit_profile(GRID, X_BOTTOM))
    mixed = c_up * math.sin(phi) * _slit_profile(GRID, X_TOP)
    nonzero = np.flatnonzero((ground != 0.0) | (mixed != 0.0))
    assert (state.start, state.stop) == (nonzero[0], nonzero[-1] + 1)
    # embedded into the full grid, the window is the full-grid build, bit for bit
    c_m = coherent_state(1.5, N_MAX)
    full = full_grid(state).amps
    assert np.array_equal(full[:, LEVEL_INDEX["c"], :], np.outer(ground, c_m))
    assert np.array_equal(full[:, LEVEL_INDEX["b"], :], np.outer(mixed, c_m))


@settings(max_examples=25, deadline=None)
@given(kicked_states())
def test_windowed_interaction_matches_the_full_grid(case):
    state, params, mode, kick = case
    windowed = interact(state, params, mode=mode, kick=kick, tail_tol=TAIL_TOLERANCE)
    oracle = interact(full_grid(state), params, mode=mode, kick=kick,
                      tail_tol=TAIL_TOLERANCE).amps
    assert (windowed.start, windowed.stop) == (state.start, state.stop)
    assert np.array_equal(windowed.amps, oracle[state.start:state.stop])
    assert not oracle[:state.start].any() and not oracle[state.stop:].any()
    if mode == "dispersive":
        assert windowed.leak == 0.0


# a weak kick leaves a flat peak, where the two most-probable searches part
WEAK_KICK = (build_initial(PreparationParams(1.0, 0.0, 0.0), 0.5, GRID, N_MAX),
             InteractionParams(epsilon=0.0, theta_int=0.1), "dispersive", "slit")


@settings(max_examples=15, deadline=None)
@given(kicked_states(), st.floats(0.0, math.pi))
@example(WEAK_KICK, 0.0)
def test_windowed_readouts_match_the_full_grid(case, theta):
    state, params, mode, kick = case
    windowed = interact(state, params, mode=mode, kick=kick, tail_tol=TAIL_TOLERANCE)
    oracle = full_grid(windowed)
    _, pattern = screen(trace_out_field(windowed, tail_tol=TAIL_TOLERANCE))
    _, pattern_full = screen(trace_out_field(oracle, tail_tol=TAIL_TOLERANCE))
    assert np.max(np.abs(pattern - pattern_full)) <= 1e-12
    chis = np.linspace(*CHI_SEARCH_RANGE, 281)
    np.testing.assert_allclose(quadrature_pdf(windowed, theta, chis),
                               quadrature_pdf(oracle, theta, chis), rtol=1e-14, atol=0.0)
    chi = most_probable_chi(windowed, theta)
    chi_full = most_probable_chi(oracle, theta)
    # golden section fixes chi only to where the density is flat to rounding:
    # on WEAK_KICK a 1e-16 relative change of one density moves chi by 7.6e-9.
    # Both searches must still end on the maximum of the same density.
    peak = quadrature_pdf(oracle, theta, np.array([chi, chi_full]))
    assert peak[0] == pytest.approx(peak[1], rel=1e-14)
    spec = QuadratureSpec(theta=theta, chi=chi)
    rho, density = condition_on_quadrature(windowed, spec)
    rho_full, density_full = condition_on_quadrature(oracle, spec)
    assert density == pytest.approx(density_full, rel=1e-14)
    assert np.max(np.abs(screen(rho)[1] - screen(rho_full)[1])) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(kicked_states())
def test_field_readouts_match_the_uncached_gram(case):
    state, params, mode, kick = case
    state = interact(state, params, mode=mode, kick=kick, tail_tol=TAIL_TOLERANCE)
    gram = uncached_field_gram(state)
    scale = np.max(np.abs(gram))
    assert np.max(np.abs(state.field_gram - gram)) <= 1e-14 * scale
    total = np.trace(gram).real
    assert np.trace(state.field_gram).real == pytest.approx(state.norm_sq(), rel=1e-14)
    assert np.max(np.abs(field_density(state) * total - gram.T)) <= 1e-14 * scale
    # rho = L L^dag of the trace readout is flat flat^dag / total, on the window only
    rho = trace_out_field(state, tail_tol=TAIL_TOLERANCE)
    assert not rho.factors[:state.start].any() and not rho.factors[state.stop:].any()
    window = rho.factors[state.start:state.stop].reshape(-1, rho.rank)
    flat = state.amps.reshape(-1, state.n_max)
    probe = np.random.default_rng(0).standard_normal((flat.shape[0], 2)) @ np.array([1.0, 1.0j])
    applied = flat @ (flat.conj().T @ probe) / total
    assert np.max(np.abs(window @ (window.conj().T @ probe) - applied)) <= 1e-12 * np.max(
        np.abs(applied))


@settings(max_examples=20, deadline=None)
@given(kicked_states(), st.floats(0.0, math.pi))
def test_quadrature_pdf_from_the_gram_matches_the_joint_state(case, theta):
    state, params, mode, kick = case
    state = interact(state, params, mode=mode, kick=kick, tail_tol=TAIL_TOLERANCE)
    chis = np.linspace(*CHI_SEARCH_RANGE, 281)
    pdf, oracle = quadrature_pdf(state, theta, chis), joint_state_pdf(state, theta, chis)
    # relative to the peak: in the far tails (densities of 1e-40) both are
    # rounding, b G b^dag of order eps times the peak, so neither is a reference
    assert np.max(np.abs(pdf - oracle)) <= 1e-13 * np.max(oracle)
    assert np.all(pdf >= 0.0)


@settings(max_examples=15, deadline=None)
@given(kicked_states(), st.floats(0.0, math.pi))
@example(WEAK_KICK, 0.0)
def test_most_probable_chi_is_the_joint_state_search(case, theta):
    state, params, mode, _ = case
    state = interact(state, params, mode=mode, kick="slit", tail_tol=TAIL_TOLERANCE)
    assert most_probable_chi(state, theta) == golden_section_chi(state, theta)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2])
def test_most_probable_chi_of_the_reference_configs(theta):
    # the stage-2 VDC X and Y readouts that bench/reference.npz pins
    config = ExperimentConfig.from_dict({"stage": 2, "case": "VDC"})
    state = build_initial(config.case, config.alpha,
                          config.numeric.grid, config.numeric.n_max)
    state = interact(state, config.interaction_params())
    assert most_probable_chi(state, theta) == golden_section_chi(state, theta)
