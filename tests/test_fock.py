import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from analytic import dense_husimi, quadrature_operator
from duality_sim import fock
from duality_sim.errors import ConfigError, NumericError
from duality_sim.fock import QGrid, coherent_state, husimi_q, quadrature_projector, write_columns
from duality_sim.runner import QGRID_AXIS

ALPHA = math.sqrt(8.0)


def normalised_projector(theta, chi, n_max):
    """Truncated quadrature eigenstate: the projector coefficients at unit norm."""
    coeffs = quadrature_projector(theta, chi, n_max)
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
        with pytest.raises(ConfigError, match="coherent amplitude must be finite"):
            coherent_state(float("nan"), 8)
        with pytest.raises(ConfigError, match="coherent amplitude must be finite"):
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
        st = normalised_projector(0.0, 0.0, 64)
        assert np.all(st[1::2] == 0.0)
        assert np.vdot(st, st).real == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalue_residual(self):
        # The residual is carried entirely by the truncation edge: away from
        # the last Fock row the eigenvalue relation holds to rounding.
        n_max = 96
        st = normalised_projector(0.0, ALPHA, n_max)
        X = quadrature_operator(0.0, n_max)
        resid = X @ st - ALPHA * st
        assert np.linalg.norm(resid[: n_max - 1]) < 1e-10
        assert np.linalg.norm(resid) < 0.12  # measured 0.096 at these parameters

    @pytest.mark.parametrize("theta", [0.3, math.pi / 2, 4.0])
    def test_eigenvalue_relation_rotated(self, theta):
        n_max = 80
        st = normalised_projector(theta, 1.1, n_max)
        X = quadrature_operator(theta, n_max)
        resid = X @ st - 1.1 * st
        assert np.linalg.norm(resid[: n_max - 1]) < 1e-10

    def test_coherent_overlap_is_gaussian(self):
        # |<chi|alpha>|^2 sweeps out a normalised Gaussian centred on alpha
        cs = coherent_state(ALPHA, 96)
        xs = np.linspace(-6.0, 6.0, 241)
        probs = np.array([
            abs(np.vdot(quadrature_projector(0.0, x, 96), cs)) ** 2
            for x in xs
        ])
        analytic = math.sqrt(2.0 / math.pi) * np.exp(-2.0 * (xs - ALPHA) ** 2)
        assert np.max(np.abs(probs - analytic)) < 1e-12
        assert np.trapezoid(probs, xs) == pytest.approx(1.0, abs=1e-9)

    def test_overflow_guard(self):
        with pytest.raises(NumericError, match="oscillator functions underflow"):
            normalised_projector(0.0, 50.0, 32)

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 0.7, 7.5])
    def test_sweep_rows_equal_single_projectors(self, theta):
        chis = np.linspace(-7.0, 7.0, 57)
        rows = quadrature_projector(theta, chis, 32)
        assert rows.shape == (57, 32)
        for chi, row in zip(chis, rows):
            assert np.array_equal(row, quadrature_projector(theta, chi, 32))

    # a 0-d outcome runs the recurrence on Python floats, a one-element sweep on
    # arrays; beyond |chi| ~ 20 the oscillator functions underflow and both must refuse
    @settings(max_examples=300, deadline=None)
    @given(theta=st.floats(-10.0, 10.0), n_max=st.integers(1, 96),
           chi=st.one_of(st.floats(-8.0, 8.0), st.floats(-40.0, 40.0), st.floats()),
           zero_d=st.sampled_from([float, np.float64, np.array]))
    @example(theta=7.5, n_max=32, chi=50.0, zero_d=np.float64)
    @example(theta=-1.0, n_max=1, chi=0.0, zero_d=float)
    def test_single_projector_is_the_sweep_row_bit_for_bit(self, theta, n_max, chi, zero_d):
        chi = zero_d(chi)
        try:
            row = quadrature_projector(theta, [chi], n_max)[0]
        except NumericError as exc:
            with pytest.raises(NumericError, match=re.escape(str(exc))):
                quadrature_projector(theta, chi, n_max)
            return
        single = quadrature_projector(theta, chi, n_max)
        assert single.shape == (n_max,)
        assert np.array_equal(single.view(np.int64), row.view(np.int64))  # bit for bit

    def test_sweep_underflow_guard_per_outcome(self):
        with pytest.raises(NumericError, match="oscillator functions underflow"):
            quadrature_projector(0.0, [0.0, 50.0], 32)


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
        with pytest.raises(NumericError, match="too far out for the Bargmann polynomials"):
            husimi_q(np.eye(96) / 96, [300.0], [0.0])

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


def test_write_columns_bytes_match_the_format_spec(tmp_path):
    # signed zeros, subnormals, the float range's ends, values that round
    # at the 9th significant digit (some up to the next power of ten), inf and nan
    edge = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.7976931348623157e308,
            0.1234567895, 9.999999995, -9.9999999949, 1.0000000005, 123456789.5,
            999999999.5, 2.5e-7, 1e16, math.inf, -math.inf, math.nan]
    x = np.array(edge)
    values = np.array([edge[::-1], edge[3:] + edge[:3]]).T
    write_columns(tmp_path / "edge.csv", "x,a,b", x, values)
    oracle = "x,a,b\n" + "".join(f"{a:.9g},{b:.9g},{c:.9g}\n" for a, (b, c) in zip(x, values))
    assert (tmp_path / "edge.csv").read_bytes() == oracle.encode("ascii")


CSV_EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.7976931348623157e308,
                   0.1234567895, 9.999999995, -9.9999999949, 1.0000000005, 123456789.5,
                   999999999.5, 2.5e-7, 1e16, math.inf, -math.inf, math.nan]


def csv_oracle(header, x, rows) -> bytes:
    return (header + "\n" + "".join(
        f"{a:.9g}" + "".join(f",{v:.9g}" for v in row) + "\n" for a, row in zip(x, rows))
    ).encode("ascii")


def few_ulps_from(centres):
    """Values within 4 ulps of centres, of either sign."""
    return st.builds(lambda c, n, sign: sign * (c + n * math.ulp(c)), centres,
                     st.integers(-4, 4), st.sampled_from([1.0, -1.0]))


# every value class the writer formats: any float (nan, inf, subnormals, +-0), the edge
# values, values next to a 9-digit rounding tie (m + 0.5) 10^k or a power of ten, and
# the [10, 1e9) range of a wide grid's x axis
CSV_CELLS = st.one_of(
    st.floats(), st.sampled_from(CSV_EDGE_VALUES),
    few_ulps_from(st.builds(lambda m, k: (m + 0.5) * 10.0 ** k,
                            st.integers(10 ** 8, 10 ** 9 - 1), st.integers(-300, 290))),
    few_ulps_from(st.integers(-300, 300).map(lambda k: float(f"1e{k}"))),
    st.floats(10.0, 1e9, exclude_max=True))


@settings(max_examples=30, deadline=None)
@given(cells=st.lists(CSV_CELLS, min_size=1, max_size=300), width=st.sampled_from([1, 2, 141]),
       chunks=st.sampled_from([(1, -1), (1, 0), (1, 1), (2, 1)]), seed=st.integers(0, 2**32 - 1))
def test_vectorised_writer_bytes_match_the_format_spec(cells, width, chunks, seed):
    # the drawn cells, scattered over a table whose row count is just short of, at or
    # past the end of one of the writer's chunks, or past two
    per_chunk = fock.CHUNK_CELLS // (width + 1)
    rows = chunks[0] * per_chunk + chunks[1]
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, width + 1)) * 10.0 ** rng.integers(-320, 300, (rows, 1))
    table.flat[rng.choice(table.size, len(cells), replace=False)] = cells
    x, values = table[:, 0], table[:, 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "columns.csv"
        write_columns(path, "x,values", x, values[:, 0] if width == 1 else values)
        assert path.read_bytes() == csv_oracle("x,values", x, values)


def test_write_columns_memory_is_bounded_by_the_chunk(tmp_path):
    # the writer formats and writes CHUNK_CELLS cells at a time, so four times the
    # rows leave its peak where it was
    def peak(rows):
        x, values = np.linspace(-40.0, 42.0, rows), np.random.default_rng(3).random(rows)
        tracemalloc.start()
        try:
            write_columns(tmp_path / "pattern.csv", "x_lambda,intensity", x, values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(65536) <= 1.2 * peak(16384)


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
