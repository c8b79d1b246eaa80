import math
from dataclasses import replace

import numpy as np
import pytest

from analytic import atom_trace, dense_rho, fidelity, full_grid_atom, top_path_weight
from duality_sim import interferometer
from duality_sim.errors import (ConfigError, ImpossibleOutcomeError, NumericError,
                                 NumericRangeError)
from duality_sim.evolution import InteractionParams
from duality_sim.fock import coherent_state
from duality_sim.interferometer import (LEVEL_INDEX, SIGMA, X_BOTTOM, X_TOP,
                                        GridSpec, JointState, PreparationParams, build_initial,
                                        condition_on_quadrature, field_density, interact,
                                        quadrature_pdf, trace_out_field)

ALPHA = math.sqrt(8.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)
PI_KICK = InteractionParams(epsilon=0.0, theta_int=math.pi)


def prep_v1():
    return PreparationParams(INV_SQRT2, INV_SQRT2, 0.0)


def nearest_index(grid, x0):
    return int(np.argmin(np.abs(grid.x - x0)))


class TestBuildInitial:
    def test_no_mixing_leaves_intermediate_empty(self, default_grid):
        state = build_initial(prep_v1(), ALPHA, default_grid, 32)
        assert np.all(state.amps[:, LEVEL_INDEX["b"], :] == 0.0)

    def test_full_mixing_feeds_top_packet_only(self, default_grid):
        prep = PreparationParams(1.0, 0.0, math.pi / 2)
        state = build_initial(prep, ALPHA, default_grid, 32)
        c_weight = np.sum(np.abs(state.amps[:, LEVEL_INDEX["c"], :]) ** 2)
        assert c_weight < 1e-28
        dens = np.sum(np.abs(state.amps[:, LEVEL_INDEX["b"], :]) ** 2, axis=1)
        assert abs(state.x[np.argmax(dens)] - X_TOP) < 2 * default_grid.dx

    def test_unit_norm(self, default_grid):
        state = build_initial(prep_v1(), ALPHA, default_grid, 64)
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-10)

    def test_grid_must_cover_slits(self):
        with pytest.raises(ConfigError):
            build_initial(prep_v1(), ALPHA, GridSpec(-12.0, 0.1, 512), 16)

    def test_normalisation_rejected(self):
        with pytest.raises(ConfigError):
            PreparationParams(1.0, 1.0, 0.0)


class TestInteract:
    def test_fields_conditioned_on_packets(self, default_grid):
        state = interact(build_initial(prep_v1(), ALPHA, default_grid, 96), PI_KICK)
        i_top = nearest_index(default_grid, X_TOP)
        i_bot = nearest_index(default_grid, X_BOTTOM)
        minus = coherent_state(-ALPHA, state.n_max)
        plus = coherent_state(ALPHA, state.n_max)
        for idx, ref in ((i_top, minus), (i_bot, plus)):
            field = state.amps[idx - state.start, LEVEL_INDEX["c"], :]
            assert fidelity(field, ref) > 1.0 - 1e-6

    def test_local_kick_fidelity_at_packet_centre(self, default_grid):
        state = interact(build_initial(prep_v1(), ALPHA, default_grid, 96),
                         PI_KICK, kick="local")
        i_top = nearest_index(default_grid, X_TOP)
        field = state.amps[i_top - state.start, LEVEL_INDEX["c"], :]
        assert fidelity(field, coherent_state(-ALPHA, state.n_max)) > 1.0 - 1e-6

    def test_intermediate_level_is_left_alone(self, default_grid):
        # without the classical drive the intermediate level is dark: its
        # amplitudes survive bit for bit and nothing crosses levels.
        # (cos(pi/2) leaves a ~1e-17 float residue on the ground level,
        # which is why the comparison is restricted to |b> and to weights.)
        prep = PreparationParams(1.0, 0.0, math.pi / 2)
        before = build_initial(prep, ALPHA, default_grid, 64)
        after = interact(before, PI_KICK)
        b = LEVEL_INDEX["b"]
        c = LEVEL_INDEX["c"]
        assert np.array_equal(after.amps[:, b, :], before.amps[:, b, :])
        assert float(np.sum(np.abs(after.amps[:, c, :]) ** 2)) < 1e-30

    def test_norm_preserved_without_drive(self, default_grid):
        prep = PreparationParams(0.6, 0.8, 1.1)
        state = interact(build_initial(prep, ALPHA, default_grid, 96), PI_KICK)
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert state.truncation_loss == 0.0

    def test_norm_preserved_with_drive(self, default_grid):
        params = InteractionParams(epsilon=3.0, theta_int=math.pi)
        state = interact(build_initial(prep_v1(), ALPHA, default_grid, 96), params)
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_node_point_untouched_by_local_kick(self):
        # grid built so the node itself is (up to one ulp) a sample point
        node = X_BOTTOM
        grid = GridSpec(node - 13.0, node + 13.0, 4096)
        params = InteractionParams(epsilon=3.0, theta_int=math.pi)
        before = build_initial(prep_v1(), ALPHA, grid, 64)
        after = interact(before, params, kick="local")
        i_node = nearest_index(grid, node)
        assert np.array_equal(after.amps[i_node - after.start],
                              before.amps[i_node - before.start])
        # across the packet the field is nearly (not exactly) unkicked
        for offset in (-SIGMA, SIGMA):
            idx = nearest_index(grid, node + offset)
            f_after = after.amps[idx - after.start, LEVEL_INDEX["c"], :]
            f_before = before.amps[idx - before.start, LEVEL_INDEX["c"], :]
            # measured 0.958 one sigma off the node at eps=3
            assert fidelity(f_after, f_before) > 0.95

    def test_unknown_kick_rejected(self, default_grid):
        state = build_initial(prep_v1(), ALPHA, default_grid, 32)
        with pytest.raises(ConfigError):
            interact(state, PI_KICK, kick="antinode")


class TestTraceOutField:
    def test_product_state_is_pure(self, default_grid):
        rho = trace_out_field(build_initial(prep_v1(), ALPHA, default_grid, 48))
        assert atom_trace(rho) == pytest.approx(1.0, abs=1e-12)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_which_path_suppresses_coherence(self, default_grid):
        # the packet-centre coherence shrinks by |<alpha|-alpha>| = e^{-16}
        pre = build_initial(prep_v1(), ALPHA, default_grid, 96)
        post = interact(pre, PI_KICK)
        i_top = nearest_index(default_grid, X_TOP)
        i_bot = nearest_index(default_grid, X_BOTTOM)
        c = LEVEL_INDEX["c"]

        def coherence(state):
            return complex(np.vdot(state.amps[i_bot - state.start, c, :],
                                    state.amps[i_top - state.start, c, :]))

        ratio = abs(coherence(post)) / abs(coherence(pre))
        assert ratio == pytest.approx(math.exp(-16.0), rel=1e-6)

    def test_cross_level_coherence_survives(self, default_grid):
        prep = PreparationParams(INV_SQRT2, INV_SQRT2, math.pi / 2)
        post = interact(build_initial(prep, ALPHA, default_grid, 64), PI_KICK)
        i_top = nearest_index(default_grid, X_TOP)
        i_bot = nearest_index(default_grid, X_BOTTOM)
        amp_b = post.amps[i_top - post.start, LEVEL_INDEX["b"], :]
        amp_c = post.amps[i_bot - post.start, LEVEL_INDEX["c"], :]
        # full field overlap between the branches, but orthogonal levels
        assert abs(np.vdot(amp_c, amp_b)) > 0.5 * np.linalg.norm(amp_c) * np.linalg.norm(amp_b)

    def test_zero_state_rejected(self, default_grid):
        state = build_initial(prep_v1(), ALPHA, default_grid, 32)
        zero = JointState(grid=state.grid, amps=np.zeros_like(state.amps))
        with pytest.raises(NumericError):
            trace_out_field(zero)

    def test_zero_state_field_density_rejected(self, default_grid):
        state = build_initial(prep_v1(), ALPHA, default_grid, 32)
        zero = JointState(grid=state.grid, amps=np.zeros_like(state.amps))
        with pytest.raises(NumericError):
            field_density(zero)

    def test_nan_row_rejected_before_the_eigensolver(self, default_grid):
        state = build_initial(prep_v1(), ALPHA, default_grid, 32)
        amps = state.amps.copy()
        amps[len(amps) // 2] = math.nan
        broken = JointState(grid=state.grid, amps=amps,
                            start=state.start)
        with pytest.raises(NumericRangeError):
            trace_out_field(broken)
        with pytest.raises(NumericRangeError):
            field_density(broken)


class TestReadoutBlasThreads:
    def test_trace_and_purity_use_one_thread(self, monkeypatch, blas_threads,
                                             default_grid):
        seen = []
        real_eigh, real_gram = np.linalg.eigh, interferometer._gram

        def eigh(*args, **kwargs):
            seen.append(("eigh", blas_threads()))
            return real_eigh(*args, **kwargs)

        def gram(*args, **kwargs):
            seen.append(("gram", blas_threads()))
            return real_gram(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(interferometer, "_gram", gram)
        rho = trace_out_field(build_initial(prep_v1(), ALPHA, default_grid, 48))
        rho.purity()
        assert seen == [("gram", 1), ("eigh", 1), ("gram", 1)]
        assert blas_threads() == 2

    def test_quadrature_readouts_use_one_thread(self, monkeypatch, blas_threads,
                                                default_grid):
        seen, real_columns = [], JointState.atom_columns
        real_projectors = interferometer.quadrature_projectors

        def atom_columns(*args, **kwargs):
            seen.append(("atom_columns", blas_threads()))
            return real_columns(*args, **kwargs)

        def quadrature_projectors(*args, **kwargs):
            seen.append(("projectors", blas_threads()))
            return real_projectors(*args, **kwargs)

        monkeypatch.setattr(JointState, "atom_columns", atom_columns)
        monkeypatch.setattr(interferometer, "quadrature_projectors", quadrature_projectors)
        state = interact(build_initial(prep_v1(), ALPHA, default_grid, 48), PI_KICK)
        quadrature_pdf(state, 0.0, [-1.0, 1.0])
        condition_on_quadrature(state, 0.0, ALPHA)
        assert blas_threads() == 2
        # far enough out that the outcome density underflows the 1e-300 floor
        with pytest.raises(ImpossibleOutcomeError):
            condition_on_quadrature(state, 0.0, -26.0)
        assert seen == [("projectors", 1), ("atom_columns", 1), ("atom_columns", 1)]
        assert blas_threads() == 2

    def test_field_gram_is_computed_once_on_one_thread(self, monkeypatch, blas_threads,
                                                       default_grid):
        seen, real_gram = [], interferometer._gram

        def gram(*args, **kwargs):
            seen.append(blas_threads())
            return real_gram(*args, **kwargs)

        monkeypatch.setattr(interferometer, "_gram", gram)
        state = interact(build_initial(prep_v1(), ALPHA, default_grid, 48), PI_KICK)
        field_density(state)
        quadrature_pdf(state, 0.0, [-1.0, 1.0])
        trace_out_field(state)
        assert seen == [1]
        assert blas_threads() == 2

    def test_count_restored_when_trace_raises(self, blas_threads, default_grid):
        state = build_initial(prep_v1(), ALPHA, default_grid, 32)
        zero = JointState(grid=state.grid, amps=np.zeros_like(state.amps))
        with pytest.raises(NumericError):
            trace_out_field(zero)
        assert blas_threads() == 2


@pytest.fixture(scope="module")
def kicked(default_grid):
    return interact(build_initial(prep_v1(), ALPHA, default_grid, 96), PI_KICK)


class TestConditioning:
    def test_amplitude_outcomes_localise_the_atom(self, kicked, default_grid):
        for chi, want_top in ((-ALPHA, True), (ALPHA, False)):
            rho, density = condition_on_quadrature(kicked, 0.0, chi)
            top = top_path_weight(rho)
            assert density > 0.0
            assert (top > 0.999) == want_top
            assert (top < 0.001) == (not want_top)

    def test_phase_quadrature_erases_path_information(self, kicked, default_grid):
        rho, _ = condition_on_quadrature(kicked, math.pi / 2, 0.0)
        top = top_path_weight(rho)
        assert top == pytest.approx(0.5, abs=1e-9)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_pdf_shapes(self, kicked):
        chis = np.linspace(-7.0, 7.0, 281)
        step = chis[1] - chis[0]
        pdf_x = quadrature_pdf(kicked, 0.0, chis)
        assert np.trapezoid(pdf_x, chis) == pytest.approx(1.0, abs=1e-3)
        top_two = np.sort(chis[np.argsort(pdf_x)[-2:]])
        assert abs(top_two[0] + ALPHA) <= step and abs(top_two[1] - ALPHA) <= step
        pdf_y = quadrature_pdf(kicked, math.pi / 2, chis)
        assert np.trapezoid(pdf_y, chis) == pytest.approx(1.0, abs=1e-3)
        assert abs(chis[np.argmax(pdf_y)]) <= step

    def test_impossible_outcome(self, kicked):
        # far enough out that the outcome density underflows the 1e-300 floor
        with pytest.raises(ImpossibleOutcomeError):
            condition_on_quadrature(kicked, 0.0, -26.0)

    def test_nan_outcome_density_is_impossible(self, kicked):
        amps = kicked.amps.copy()
        amps[0] = np.nan
        with pytest.raises(ImpossibleOutcomeError):
            condition_on_quadrature(replace(kicked, amps=amps), 0.0, 1.0)

    def test_decomposition_consistency(self):
        # integrating outcome-weighted conditional projectors over chi
        # rebuilds the traced state (law of total probability)
        grid = GridSpec(-0.75, 2.35, 256)
        state = interact(build_initial(prep_v1(), 1.0, grid, 24), PI_KICK)
        dense_traced = dense_rho(full_grid_atom(trace_out_field(state))).reshape(512, 512)
        chis = np.linspace(-6.0, 6.0, 241)
        acc = np.zeros_like(dense_traced)
        for chi in chis:
            rho_c, density = condition_on_quadrature(state, 0.0, chi)
            acc += density * dense_rho(full_grid_atom(rho_c)).reshape(512, 512)
        acc *= chis[1] - chis[0]
        eigs = np.linalg.eigvalsh((dense_traced - acc) * grid.dx)
        assert 0.5 * float(np.sum(np.abs(eigs))) < 1e-3


class TestFieldDensity:
    def test_product_state_field(self, default_grid):
        state = build_initial(prep_v1(), ALPHA, default_grid, 64)
        rho_f = field_density(state)
        amps = coherent_state(ALPHA, state.n_max)
        ref = np.outer(amps, amps.conj())
        assert np.max(np.abs(rho_f - ref / np.trace(ref).real)) < 1e-12

    def test_which_path_mixture_purity(self, default_grid):
        state = interact(build_initial(prep_v1(), ALPHA, default_grid, 96), PI_KICK)
        rho_f = field_density(state)
        purity = float(np.trace(rho_f @ rho_f).real)
        expected = 0.5 + 0.5 * math.exp(-32.0)
        assert purity == pytest.approx(expected, abs=1e-9)
