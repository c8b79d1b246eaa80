import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from analytic import dense_husimi, quadrature_operator
from duality_sim.errors import NumericRangeError
from duality_sim.fock import (QGrid, QuadratureSpec, coherent_state, husimi_q,
                              quadrature_projector, quadrature_projectors)
from duality_sim.runner import QGRID_AXIS

ALPHA = math.sqrt(8.0)


def normalised_projector(spec, n_max):
    """Truncated quadrature eigenstate: the projector coefficients at unit norm."""
    coeffs = quadrature_projector(spec, n_max)
    return coeffs / np.linalg.norm(coeffs)


class TestCoherentState:
    def test_vacuum(self):
        st = coherent_state(0.0, 8)
        assert st[0] == 1.0
        assert np.all(st[1:] == 0.0)

    def test_poisson_mean(self):
        st = coherent_state(ALPHA, 64)
        m = np.arange(64)
        assert np.sum(m * np.abs(st) ** 2) == pytest.approx(8.0, abs=1e-9)

    def test_tail_weight(self):
        # oracle: Poisson survival function for the truncated photon numbers
        st = coherent_state(ALPHA, 64)
        tail = float(poisson.sf(63, 8.0))
        norm_sq = float(np.vdot(st, st).real)
        assert 1.0 - norm_sq < 1e-12
        assert 1.0 - norm_sq == pytest.approx(tail, abs=1e-13)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            coherent_state(float("nan"), 8)
        with pytest.raises(ValueError):
            coherent_state(complex("inf"), 8)

    def test_complex_amplitude_phase(self):
        st = coherent_state(1j, 16)
        assert st[1] == pytest.approx(1j * st[0])


class TestQuadratureOperator:
    def test_single_ladder_step(self):
        X = quadrature_operator(0.0, 2)
        assert X[0, 1] == pytest.approx(0.5)
        assert X[1, 0] == pytest.approx(0.5)
        assert X[0, 0] == 0.0

    def test_exact_hermiticity(self):
        X = quadrature_operator(0.7, 32)
        assert np.array_equal(X, X.conj().T)

    def test_coherent_expectation(self):
        st = coherent_state(ALPHA, 96)
        X = quadrature_operator(0.0, 96)
        mean = np.vdot(st, X @ st).real
        assert mean == pytest.approx(ALPHA, abs=1e-9)
        Y = quadrature_operator(math.pi / 2, 96)
        assert np.vdot(st, Y @ st).real == pytest.approx(0.0, abs=1e-9)

    def test_commutator_interior(self):
        # [X, Y] = i/2 except on the truncation edge
        n_max = 24
        X = quadrature_operator(0.0, n_max)
        Y = quadrature_operator(math.pi / 2, n_max)
        comm = X @ Y - Y @ X
        interior = comm[: n_max - 1, : n_max - 1] - 0.5j * np.eye(n_max - 1)
        assert np.max(np.abs(interior)) < 1e-12


class TestQuadratureEigenstate:
    def test_parity_at_origin(self):
        st = normalised_projector(QuadratureSpec(0.0, 0.0), 64)
        assert np.all(st[1::2] == 0.0)
        assert np.vdot(st, st).real == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalue_residual(self):
        # The residual is carried entirely by the truncation edge: away from
        # the last Fock row the eigenvalue relation holds to rounding.
        n_max = 96
        st = normalised_projector(QuadratureSpec(0.0, ALPHA), n_max)
        X = quadrature_operator(0.0, n_max)
        resid = X @ st - ALPHA * st
        assert np.linalg.norm(resid[: n_max - 1]) < 1e-10
        assert np.linalg.norm(resid) < 0.12  # measured 0.096 at these parameters

    @pytest.mark.parametrize("theta", [0.3, math.pi / 2, 4.0])
    def test_eigenvalue_relation_rotated(self, theta):
        n_max = 80
        st = normalised_projector(QuadratureSpec(theta, 1.1), n_max)
        X = quadrature_operator(theta, n_max)
        resid = X @ st - 1.1 * st
        assert np.linalg.norm(resid[: n_max - 1]) < 1e-10

    def test_coherent_overlap_is_gaussian(self):
        # |<chi|alpha>|^2 sweeps out a normalised Gaussian centred on alpha
        cs = coherent_state(ALPHA, 96)
        xs = np.linspace(-6.0, 6.0, 241)
        probs = np.array([
            abs(np.vdot(quadrature_projector(QuadratureSpec(0.0, x), 96), cs)) ** 2
            for x in xs
        ])
        analytic = math.sqrt(2.0 / math.pi) * np.exp(-2.0 * (xs - ALPHA) ** 2)
        assert np.max(np.abs(probs - analytic)) < 1e-12
        assert np.trapezoid(probs, xs) == pytest.approx(1.0, abs=1e-9)

    def test_overflow_guard(self):
        with pytest.raises(NumericRangeError):
            normalised_projector(QuadratureSpec(0.0, 50.0), 32)

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 0.7, 7.5])
    def test_sweep_rows_equal_single_projectors(self, theta):
        chis = np.linspace(-7.0, 7.0, 57)
        rows = quadrature_projectors(theta, chis, 32)
        assert rows.shape == (57, 32)
        for chi, row in zip(chis, rows):
            assert np.array_equal(row, quadrature_projector(QuadratureSpec(theta, chi), 32))

    def test_sweep_underflow_guard_per_outcome(self):
        with pytest.raises(NumericRangeError):
            quadrature_projectors(0.0, [0.0, 50.0], 32)


class TestHusimi:
    def test_coherent_peak_and_norm(self):
        axis = np.linspace(-7.0, 7.0, 141)
        amps = coherent_state(ALPHA, 96)
        grid = husimi_q(np.outer(amps, amps.conj()), axis, axis)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        cell = axis[1] - axis[0]
        assert abs(axis[i] - ALPHA) <= cell
        assert abs(axis[j]) <= cell
        assert np.sum(grid.values) * cell * cell == pytest.approx(1.0, abs=1e-3)
        assert np.all(grid.values >= 0.0)

    def test_pi_shifted_peak(self):
        axis = np.linspace(-7.0, 7.0, 141)
        amps = coherent_state(-ALPHA, 96)
        grid = husimi_q(np.outer(amps, amps.conj()), axis, axis)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert abs(axis[i] + ALPHA) <= axis[1] - axis[0]
        assert abs(axis[j]) <= axis[1] - axis[0]

    # |beta| <= 10 on every grid point; n_max = 1 leaves Horner no step
    @settings(max_examples=60, deadline=None)
    @given(n_max=st.integers(1, 96), rank_share=st.floats(0.0, 1.0),
           trace=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
           xs=st.lists(st.floats(-7.07, 7.07), min_size=1, max_size=12),
           ys=st.lists(st.floats(-7.07, 7.07), min_size=1, max_size=12))
    @example(n_max=1, rank_share=1.0, trace=0.5, seed=0, xs=[0.0, -7.07], ys=[7.07])
    @example(n_max=96, rank_share=1.0, trace=1.0, seed=1, xs=[7.07, -7.07], ys=[7.07, 0.0])
    def test_matches_dense_oracle(self, n_max, rank_share, trace, seed, xs, ys):
        rank = 1 + round(rank_share * (n_max - 1))
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(n_max, rank)) + 1j * rng.normal(size=(n_max, rank))
        rho = f @ f.conj().T
        rho *= trace / np.trace(rho).real
        grid = husimi_q(rho, xs, ys)
        betas = (np.array(xs)[:, None] + 1j * np.array(ys)[None, :]).ravel()
        oracle = dense_husimi(rho, betas).reshape(len(xs), len(ys))
        assert np.max(np.abs(grid.values - oracle)) <= 1e-14
        assert np.all(grid.values >= 0.0)

    @pytest.mark.parametrize("n_max", [1, 96])
    def test_zero_matrix_gives_zero(self, n_max):
        grid = husimi_q(np.zeros((n_max, n_max)), QGRID_AXIS, QGRID_AXIS)
        assert grid.values.shape == (QGRID_AXIS.size, QGRID_AXIS.size)
        assert not grid.values.any()

    def test_rank_two_field_allocates_no_grid_sized_matrix(self):
        # a 96 x 19881 coherent matrix alone takes 29 MiB
        plus, minus = coherent_state(ALPHA, 96), coherent_state(-ALPHA, 96)
        rho = 0.5 * (np.outer(plus, plus.conj()) + np.outer(minus, minus.conj()))
        tracemalloc.start()
        try:
            husimi_q(rho, QGRID_AXIS, QGRID_AXIS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_overflowing_point_raises(self):
        # |300^95 / sqrt(95!)|^2 overflows, and exp(-300^2) underflows to 0
        with pytest.raises(NumericRangeError):
            husimi_q(np.eye(96) / 96, [300.0], [0.0])

    def test_eigenproblem_runs_on_one_blas_thread(self, monkeypatch, blas_threads):
        seen, real_eigh = [], np.linalg.eigh

        def eigh(*args, **kwargs):
            seen.append(blas_threads())
            return real_eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        amps = coherent_state(ALPHA, 96)
        husimi_q(np.outer(amps, amps.conj()), QGRID_AXIS, QGRID_AXIS)
        assert seen == [1]
        assert blas_threads() == 2

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_blas_thread_count_restored_when_husimi_raises(self, blas_threads):
        with pytest.raises(NumericRangeError):
            husimi_q(np.eye(96) / 96, [300.0], [0.0])
        assert blas_threads() == 2

    def test_csv_bytes_match_per_cell_format(self, tmp_path):
        # zeros, negative axis values and values down to the smallest subnormal
        rng = np.random.default_rng(11)
        x_axis = np.linspace(-7.0, 7.0, 141)
        y_axis = np.linspace(-3.5, 0.0, 36)
        values = rng.random((141, 36)) * 10.0 ** rng.integers(-300, 1, (141, 36))
        values[::7] = 0.0
        values[1, :3] = (1e-300, 5e-324, 1.0)
        QGrid(x_axis, y_axis, values).to_csv(tmp_path / "qgrid.csv")
        oracle = "," + ",".join(f"{y:.9g}" for y in y_axis) + "\n" + "".join(
            f"{x:.9g}," + ",".join(f"{v:.9g}" for v in row) + "\n"
            for x, row in zip(x_axis, values))
        assert (tmp_path / "qgrid.csv").read_bytes() == oracle.encode("ascii")


class TestOverlap:
    def test_self_overlap_is_norm(self):
        st = coherent_state(1.3 + 0.2j, 48)
        assert np.vdot(st, st).real == pytest.approx(np.sum(np.abs(st) ** 2), abs=1e-14)

    def test_opposite_coherent_states(self):
        val = np.vdot(coherent_state(ALPHA, 96), coherent_state(-ALPHA, 96))
        assert abs(val) == pytest.approx(math.exp(-16.0), abs=1e-10)

    def test_unit_vacuum_overlap(self):
        val = np.vdot(coherent_state(1.0, 64), coherent_state(0.0, 64))
        assert val.real == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert val.imag == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(re=st.floats(-2, 2), im=st.floats(-2, 2))
    def test_coherent_overlap_formula(self, re, im):
        # <a|b> = exp(-(|a|^2+|b|^2)/2 + conj(a) b)
        a, b = 1.0 + 0.5j, complex(re, im)
        got = np.vdot(coherent_state(a, 72), coherent_state(b, 72))
        expect = np.exp(-(abs(a) ** 2 + abs(b) ** 2) / 2 + np.conj(a) * b)
        assert got == pytest.approx(expect, abs=1e-10)
