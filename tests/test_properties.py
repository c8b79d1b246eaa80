"""Property tests of the true-rank atom state, the de-duplicated kick, the
support window, the cut at the weight floor and the field Gram.

Random preparations (single packets included), coherent amplitudes, drives,
interaction phases, both interaction maps and both kick policies, at the
reduced test numerics.  The oracle of the window is the same state embedded
into every grid row (start = 0); the oracle of the cut is the uncut state,
on every row where a packet is exactly nonzero and at all N_MAX Fock columns.
"""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from analytic import (assert_same_readouts, atom_trace, flown_full_grid, full_grid,
                      full_grid_atom, golden_section_chi, joint_state_chi, joint_state_pdf,
                      uncached_field_gram, uncut_initial)
from conftest import SMALL_NUMERIC
from duality_sim.errors import NumericError
from duality_sim.evolution import InteractionParams, branch_multipliers
from duality_sim.fock import coherent_state
from duality_sim.interferometer import (LEVEL_INDEX, MIDPOINT, WEIGHT_FLOOR, X_BOTTOM, X_TOP,
                                        AtomDensity, GridSpec, JointState, PreparationParams,
                                        _slit_profile, build_initial, condition_on_quadrature,
                                        field_density, interact, quadrature_pdf, trace_out_field)
from duality_sim.propagation import free_propagate, screen_distribution
from duality_sim.runner import CHI_SEARCH_RANGE, ExperimentConfig, most_probable_chi

TAIL_TOLERANCE = 1e-9
REFERENCE_FILE = Path(__file__).resolve().parent.parent / "bench" / "reference.npz"
GRID = GridSpec(**SMALL_NUMERIC["grid"])
N_MAX = SMALL_NUMERIC["n_max"]


@st.composite
def two_paths(draw):
    t = draw(st.floats(0.0, math.pi / 2))
    return math.cos(t), math.sin(t) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))


@st.composite
def kicked_states(draw, uncut=False):
    """(initial state, interaction params, mode, kick) for a random run.

    With uncut, the uncut initial state follows the initial state.
    """
    c_up, c_down = draw(st.one_of(st.sampled_from([(1.0, 0.0), (0.0, 1.0)]), two_paths()))
    prep = PreparationParams(c_up, c_down, draw(st.floats(0.0, 2.0 * math.pi)))
    alpha = draw(st.floats(0.5, 3.0))
    params = InteractionParams(epsilon=draw(st.floats(0.0, 9.0)),
                               theta_int=draw(st.floats(0.1, 2.0 * math.pi)))
    mode = draw(st.sampled_from(["dispersive", "exact"]))
    kick = draw(st.sampled_from(["slit", "local"]))
    state = build_initial(prep, alpha, GRID, N_MAX, tail_tol=TAIL_TOLERANCE)
    if uncut:
        return state, uncut_initial(prep, alpha, GRID, N_MAX), params, mode, kick
    return state, params, mode, kick


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
    assert atom_trace(rho) == pytest.approx(atom_trace(full), abs=1e-12)
    assert rho.purity() == pytest.approx(full.purity(), abs=1e-12)
    flown, pattern = screen(rho)
    flown_full, pattern_full = screen(full)
    assert np.max(np.abs(pattern - pattern_full)) <= 1e-12
    assert flown.purity() == pytest.approx(flown_full.purity(), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(start=st.integers(0, 63), length=st.integers(1, 64), rank=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
@example(start=0, length=10, rank=2, seed=0)  # holds row 0
@example(start=54, length=10, rank=2, seed=1)  # holds row N - 1
@example(start=0, length=64, rank=3, seed=2)  # the whole grid
@example(start=20, length=10, rank=1, seed=3)  # away from both edges
def test_window_density_matches_its_full_grid_embedding(start, length, rank, seed):
    grid = GridSpec(-6.0, 8.0, 64)
    rows = min(length, grid.n_points - start)
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((rows, 2, rank)) + 1j * rng.standard_normal((rows, 2, rank))
    factors /= math.sqrt(float(np.sum(np.abs(factors) ** 2)) * grid.dx)
    rho = AtomDensity(grid=grid, factors=factors, start=start)
    full = full_grid_atom(rho)
    assert_same_readouts(*(free_propagate(r, 1.0, boundary_tol=math.inf) for r in (rho, full)))
    assert abs(rho.purity() - full.purity()) <= 1e-15


# 2100 rows: two full Gram blocks of 1024 rows and a short third
FLIGHT_GRID = GridSpec(-6.0, 8.0, 2100)
N_ROWS = FLIGHT_GRID.n_points
WINDOWS = st.one_of(
    st.integers(1, N_ROWS).map(lambda rows: (0, rows)),  # holds row 0
    st.integers(1, N_ROWS).map(lambda rows: (N_ROWS - rows, N_ROWS)),  # holds row N - 1
    st.tuples(st.integers(0, N_ROWS - 1), st.integers(1, N_ROWS)).map(
        lambda w: (w[0], min(w[0] + w[1], N_ROWS))))


@settings(max_examples=60, deadline=None)
@given(window=WINDOWS, rank=st.integers(1, 4), order=st.sampled_from("CF"),
       t_prime=st.floats(0.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_level_by_level_flight_matches_the_whole_buffer_flight(window, rank, order, t_prime,
                                                               seed):
    start, stop = window
    rng = np.random.default_rng(seed)
    shape = (stop - start, 2, rank)
    factors = np.asarray(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), order=order)
    factors /= math.sqrt(float(np.sum(np.abs(factors) ** 2)) * FLIGHT_GRID.dx)
    rho = AtomDensity(grid=FLIGHT_GRID, factors=factors, start=start)
    flown = free_propagate(rho, t_prime, boundary_tol=math.inf)
    assert_same_readouts(flown, flown_full_grid(rho, t_prime))
    assert flown.density.flags.f_contiguous


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
    # nonzero at the weight floor: the rows whose density exceeds eps^2 of its
    # peak, and the Fock columns whose coherent tail does, plus one
    state = build_initial(PreparationParams(c_up, c_down, phi), 1.5, GRID, N_MAX)
    ground = (c_up * math.cos(phi) * _slit_profile(GRID, X_TOP)
              + c_down * _slit_profile(GRID, X_BOTTOM))
    mixed = c_up * math.sin(phi) * _slit_profile(GRID, X_TOP)
    density = np.abs(ground) ** 2 + np.abs(mixed) ** 2
    rows = np.flatnonzero(density > WEIGHT_FLOOR * np.max(density))
    start, stop = rows[0], rows[-1] + 1
    assert (state.start, state.stop) == (start, stop)
    c_m = coherent_state(1.5, N_MAX)
    tails = np.cumsum(np.abs(c_m[::-1]) ** 2)[::-1]
    c_m = c_m[:min(np.count_nonzero(tails > WEIGHT_FLOOR) + 1, N_MAX)]
    assert state.n_max == c_m.size < N_MAX  # |alpha|^2 = 2.25 needs fewer than 48
    # embedded into the full grid, the window is the cut profile times c[:n_c], bit for bit
    full = full_grid(state).amps
    for level, profile in (("c", ground), ("b", mixed)):
        cut = np.zeros_like(profile)
        cut[start:stop] = profile[start:stop]
        assert np.array_equal(full[:, LEVEL_INDEX[level], :], np.outer(cut, c_m))
    assert 0.0 < state.window_tail <= 1e-30


@pytest.mark.parametrize("alpha, n_max", [(0.5, N_MAX), (1.5, N_MAX), (math.sqrt(8.0), 96)])
def test_the_fock_tail_is_the_dropped_weight(alpha, n_max):
    # the coherent weight beyond the carried columns, not the rounding of
    # 1 - ||c||^2, which read -2.2e-16 at alpha = 0.5 and 1.5
    state = build_initial(PreparationParams(1.0, 0.0, 0.0), alpha, GRID, n_max)
    assert state.n_max < n_max  # 62 columns at alpha = sqrt(8)
    assert 0.0 <= state.fock_tail <= WEIGHT_FLOOR


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
    pdf, pdf_full = quadrature_pdf(windowed, theta, chis), quadrature_pdf(oracle, theta, chis)
    # relative to the peak: the two Grams sum their rows in different orders, and
    # in the far tails both densities are rounding
    assert np.max(np.abs(pdf - pdf_full)) <= 1e-13 * np.max(pdf_full)
    chi = most_probable_chi(windowed, theta)
    chi_full = most_probable_chi(oracle, theta)
    # golden section fixes chi only to where the density is flat to rounding:
    # on WEAK_KICK a 1e-16 relative change of one density moves chi by 7.6e-9.
    # Both searches must still end on the maximum of the same density.
    peak = quadrature_pdf(oracle, theta, np.array([chi, chi_full]))
    assert peak[0] == pytest.approx(peak[1], rel=1e-14)
    rho, density = condition_on_quadrature(windowed, theta, chi)
    rho_full, density_full = condition_on_quadrature(oracle, theta, chi)
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
    full = full_grid_atom(rho).factors
    assert not full[:state.start].any() and not full[state.stop:].any()
    window = full[state.start:state.stop].reshape(-1, rho.rank)
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
def test_most_probable_chi_is_the_gram_search(case, theta):
    state, params, mode, _ = case
    state = interact(state, params, mode=mode, kick="slit", tail_tol=TAIL_TOLERANCE)
    chi = most_probable_chi(state, theta)
    assert chi == golden_section_chi(state, theta)
    # refined on the joint-state contraction instead, the search may end ~1e-8
    # away on a flat peak (WEAK_KICK), but on the maximum of the same density
    peak = joint_state_pdf(state, theta, np.array([chi, joint_state_chi(state, theta)]))
    assert peak[0] == pytest.approx(peak[1], rel=1e-14)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2])
def test_most_probable_chi_of_the_reference_configs(theta):
    # the stage-2 VDC X and Y readouts that bench/reference.npz pins, to the
    # bit: the search fixes chi only to ~sqrt(eps), so any rounding change
    # to its densities shows here first (the file is read, never written)
    config = ExperimentConfig.from_dict({"stage": 2, "case": "VDC"})
    state = build_initial(config.case, config.alpha,
                          config.numeric.grid, config.numeric.n_max)
    state = interact(state, config.interaction_params())
    chi = most_probable_chi(state, theta)
    assert chi == golden_section_chi(state, theta)
    axis = "x" if theta == 0.0 else "y"
    with np.load(REFERENCE_FILE) as stored:
        pinned = stored[f"stage2_{axis}_most_probable_VDC.chi"]
    assert np.float64(chi).view(np.int64) == pinned.view(np.int64)


@settings(max_examples=20, deadline=None)
@given(kicked_states(uncut=True))
def test_the_cut_drops_no_weight(case):
    state, uncut, _, _, _ = case
    assert state.n_max <= N_MAX
    assert uncut.start <= state.start < state.stop <= uncut.stop
    fock = float(np.sum(np.abs(uncut.amps[:, :, state.n_max:]) ** 2)) * GRID.dx
    outside = np.ones(uncut.amps.shape[0], dtype=bool)
    outside[state.start - uncut.start:state.stop - uncut.start] = False
    rows = float(np.sum(np.abs(uncut.amps[outside]) ** 2)) * GRID.dx
    assert 0.0 <= fock <= 1e-30 and 0.0 <= rows <= 1e-30
    assert 0.0 <= state.window_tail <= 1e-30


@settings(max_examples=15, deadline=None)
@given(kicked_states(uncut=True), st.floats(0.0, math.pi))
def test_readouts_of_the_cut_state_match_the_uncut_state(case, theta):
    state, uncut, params, mode, kick = case
    cut = interact(state, params, mode=mode, kick=kick, tail_tol=TAIL_TOLERANCE)
    oracle = interact(uncut, params, mode=mode, kick=kick, tail_tol=TAIL_TOLERANCE)
    pattern = screen(trace_out_field(cut, tail_tol=TAIL_TOLERANCE))[1]
    want = screen(trace_out_field(oracle, tail_tol=TAIL_TOLERANCE))[1]
    assert np.max(np.abs(pattern - want)) <= 1e-13 * np.max(want)
    chis = np.linspace(*CHI_SEARCH_RANGE, 281)
    pdf, want = quadrature_pdf(cut, theta, chis), quadrature_pdf(oracle, theta, chis)
    assert np.max(np.abs(pdf - want)) <= 1e-13 * np.max(want)
    rho, want = np.zeros((N_MAX, N_MAX), dtype=complex), field_density(oracle)
    rho[:cut.n_max, :cut.n_max] = field_density(cut)
    assert np.max(np.abs(rho - want)) <= 1e-13 * np.max(np.abs(want))
