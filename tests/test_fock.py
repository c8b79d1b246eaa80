import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from analytic import quadrature_operator
from duality_sim.errors import NumericRangeError
from duality_sim.fock import (FieldState, QuadratureSpec, coherent_state, husimi_q,
                              quadrature_projector, quadrature_projectors)

ALPHA = math.sqrt(8.0)


def normalised_projector(spec, n_max):
    """Truncated quadrature eigenstate: the projector coefficients at unit norm."""
    coeffs = quadrature_projector(spec, n_max)
    return coeffs / np.linalg.norm(coeffs)


class TestCoherentState:
    def test_vacuum(self):
        st = coherent_state(0.0, 8)
        assert st.amps[0] == 1.0
        assert np.all(st.amps[1:] == 0.0)

    def test_poisson_mean(self):
        st = coherent_state(ALPHA, 64)
        m = np.arange(64)
        assert np.sum(m * np.abs(st.amps) ** 2) == pytest.approx(8.0, abs=1e-9)

    def test_tail_weight(self):
        # oracle: Poisson survival function for the truncated photon numbers
        st = coherent_state(ALPHA, 64)
        tail = float(poisson.sf(63, 8.0))
        assert 1.0 - st.norm_sq() < 1e-12
        assert 1.0 - st.norm_sq() == pytest.approx(tail, abs=1e-13)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            coherent_state(float("nan"), 8)
        with pytest.raises(ValueError):
            coherent_state(complex("inf"), 8)

    def test_complex_amplitude_phase(self):
        st = coherent_state(1j, 16)
        assert st.amps[1] == pytest.approx(1j * st.amps[0])


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
        mean = np.vdot(st.amps, X @ st.amps).real
        assert mean == pytest.approx(ALPHA, abs=1e-9)
        Y = quadrature_operator(math.pi / 2, 96)
        assert np.vdot(st.amps, Y @ st.amps).real == pytest.approx(0.0, abs=1e-9)

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
            abs(np.vdot(quadrature_projector(QuadratureSpec(0.0, x), 96), cs.amps)) ** 2
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
        amps = coherent_state(ALPHA, 96).amps
        grid = husimi_q(np.outer(amps, amps.conj()), axis, axis)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        cell = axis[1] - axis[0]
        assert abs(axis[i] - ALPHA) <= cell
        assert abs(axis[j]) <= cell
        assert grid.integral() == pytest.approx(1.0, abs=1e-3)
        assert np.all(grid.values >= 0.0)

    def test_pi_shifted_peak(self):
        axis = np.linspace(-7.0, 7.0, 141)
        amps = coherent_state(-ALPHA, 96).amps
        grid = husimi_q(np.outer(amps, amps.conj()), axis, axis)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert abs(axis[i] + ALPHA) <= axis[1] - axis[0]
        assert abs(axis[j]) <= axis[1] - axis[0]


class TestOverlap:
    def test_self_overlap_is_norm(self):
        st = coherent_state(1.3 + 0.2j, 48)
        assert np.vdot(st.amps, st.amps).real == pytest.approx(st.norm_sq(), abs=1e-14)

    def test_opposite_coherent_states(self):
        val = np.vdot(coherent_state(ALPHA, 96).amps, coherent_state(-ALPHA, 96).amps)
        assert abs(val) == pytest.approx(math.exp(-16.0), abs=1e-10)

    def test_unit_vacuum_overlap(self):
        val = np.vdot(coherent_state(1.0, 64).amps, coherent_state(0.0, 64).amps)
        assert val.real == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert val.imag == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(re=st.floats(-2, 2), im=st.floats(-2, 2))
    def test_coherent_overlap_formula(self, re, im):
        # <a|b> = exp(-(|a|^2+|b|^2)/2 + conj(a) b)
        a, b = 1.0 + 0.5j, complex(re, im)
        got = np.vdot(coherent_state(a, 72).amps, coherent_state(b, 72).amps)
        expect = np.exp(-(abs(a) ** 2 + abs(b) ** 2) / 2 + np.conj(a) * b)
        assert got == pytest.approx(expect, abs=1e-10)


def test_field_state_validation():
    with pytest.raises(ValueError):
        FieldState(np.zeros((2, 2)))
