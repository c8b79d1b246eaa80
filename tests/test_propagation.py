import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analytic import (assert_close_readouts, full_grid_atom, gaussian_spread_sigma,
                      intensity_l2, level_flight, loop_interior_extrema, two_slit_intensity,
                      window_density)
from conftest import SMALL_NUMERIC
from duality_sim.errors import NumericError
from duality_sim.evolution import InteractionParams
from duality_sim.interferometer import (MIDPOINT, SIGMA, X_BOTTOM, X_TOP, AtomDensity,
                                        GridSpec, PreparationParams, build_initial, interact,
                                        trace_out_field)
from duality_sim.propagation import (DISPERSION_RATE, WAVELENGTH, ScreenPattern,
                                     _interior_extrema, free_propagate, fringe_visibility,
                                     screen_distribution)
from duality_sim.runner import ExperimentConfig, run

ALPHA = math.sqrt(8.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


class RecordsProducts(np.ndarray):
    """An array that records every operand of a matrix product it enters, as plain arrays."""

    operands = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [a.view(np.ndarray) if isinstance(a, RecordsProducts) else a for a in inputs]
        if ufunc is np.matmul:
            RecordsProducts.operands += plain
        return getattr(ufunc, method)(*plain, **kwargs)


def single_packet_density(default_grid, t_prime):
    prep = PreparationParams(1.0, 0.0, 0.0)
    rho = trace_out_field(build_initial(prep, 0.0, default_grid, 4))
    out = free_propagate(rho, t_prime)
    return out, out.density


class TestFreePropagate:
    def test_zero_time_is_identity(self, default_grid):
        # the flown density and Gram are the unflown ones within 1e-14, and the
        # readouts are the level-by-level flight's to rounding
        rho = trace_out_field(build_initial(
            PreparationParams(INV_SQRT2, INV_SQRT2, 0.0), 0.0, default_grid, 4))
        out = free_propagate(rho, 0.0)
        unflown = window_density(full_grid_atom(rho)).sum(axis=1)
        assert np.max(np.abs(out.density - unflown)) <= 1e-14 * np.max(unflown)
        assert np.max(np.abs(out.gram - rho.gram)) <= 1e-14
        assert_close_readouts(out, level_flight(rho, 0.0))

    @pytest.mark.parametrize("t_prime", [0.5, 1.0, 3.0])
    def test_gaussian_spreading_oracle(self, default_grid, t_prime):
        out, dens = single_packet_density(default_grid, t_prime)
        x = default_grid.x
        dx = default_grid.dx
        mean = float(np.sum(x * dens)) * dx
        sigma = math.sqrt(float(np.sum((x - mean) ** 2 * dens)) * dx)
        predicted = gaussian_spread_sigma(SIGMA, t_prime)
        assert abs(sigma - predicted) / predicted < 1e-3

    def test_norm_and_purity_invariant(self, default_grid):
        state = interact(
            build_initial(PreparationParams(INV_SQRT2, INV_SQRT2, 0.0),
                          ALPHA, default_grid, 96),
            InteractionParams(epsilon=0.0, theta_int=math.pi))
        rho = trace_out_field(state)
        out = free_propagate(rho, 3.0)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)
        assert abs(out.purity() - rho.purity()) < 1e-10

    def test_flight_is_the_spectral_kernel(self, default_grid):
        # the level-by-level flight is the kernel applied to every factor column
        # bit for bit, and the mode flight is that flight to rounding
        state = interact(
            build_initial(PreparationParams(INV_SQRT2, INV_SQRT2, 0.0),
                          ALPHA, default_grid, 48),
            InteractionParams(epsilon=0.0, theta_int=math.pi))
        rho = trace_out_field(state)
        flight = 12.0  # long enough to put weight on the grid edge
        out = free_propagate(rho, flight, boundary_tol=math.inf)
        k = 2.0 * math.pi * np.fft.fftfreq(default_grid.n_points, d=default_grid.dx)
        kernel = np.exp(-1j * (DISPERSION_RATE * flight) * k * k)
        embedded = full_grid_atom(rho).factors
        factors = np.fft.ifft(kernel[:, None, None] * np.fft.fft(embedded, axis=0), axis=0)
        full = AtomDensity(grid=default_grid, factors=factors)
        oracle = level_flight(rho, flight)
        assert np.array_equal(oracle.density, window_density(full).sum(axis=1))
        assert np.array_equal(oracle.gram, full.gram)
        assert_close_readouts(out, oracle)
        assert oracle.boundary_weight() > 1e-6  # past the default boundary tolerance

    def test_flight_multiplies_a_view_of_the_factors(self, default_grid):
        # the (rows, 2 rank) matrix that the modes multiply is a view of rho.factors, not a copy
        state = interact(build_initial(PreparationParams(INV_SQRT2, INV_SQRT2, math.pi / 4.0),
                                       ALPHA, default_grid, 48),
                         InteractionParams(epsilon=0.0, theta_int=math.pi))
        rho = trace_out_field(state)
        spied = AtomDensity(grid=default_grid, factors=rho.factors.view(RecordsProducts),
                            start=rho.start)
        RecordsProducts.operands = []
        free_propagate(spied, 1.0)
        shape = (len(rho.factors), 2 * rho.rank)
        matrices = [a for a in RecordsProducts.operands if a.shape == shape]
        assert rho.rank >= 2 and matrices
        assert all(np.shares_memory(a, rho.factors) for a in matrices)

    def test_grid_too_small_raises(self, default_grid):
        rho = trace_out_field(build_initial(
            PreparationParams(1.0, 0.0, 0.0), 0.0, default_grid, 4))
        with pytest.raises(NumericError, match="too small for this flight time"):
            free_propagate(rho, 30.0)

    def test_nan_boundary_weight_raises(self, default_grid):
        rho = AtomDensity(grid=default_grid, factors=np.full((default_grid.n_points, 2, 1), np.nan,
                                                             dtype=complex))
        with pytest.raises(NumericError, match="the state to fly is not finite"):
            free_propagate(rho, 1.0)

    def test_kick_past_the_nyquist_frequency_raises(self, default_grid):
        # a packet carrying momentum at 0.8 of the grid's Nyquist frequency: sampled, it
        # stays on the grid, so only its spectrum shows that the grid cannot resolve it
        rho = trace_out_field(build_initial(
            PreparationParams(1.0, 0.0, 0.0), 0.0, default_grid, 4))
        boost = np.exp(0.8j * (math.pi / default_grid.dx) * default_grid.x[rho.start:rho.stop])
        kicked = AtomDensity(grid=default_grid, factors=rho.factors * boost[:, None, None],
                             start=rho.start)
        assert free_propagate(rho, 0.0).nyquist_band_weight <= 1e-20
        with pytest.raises(NumericError, match="refine the grid"):
            free_propagate(kicked, 0.0)
        flown = free_propagate(kicked, 0.0, boundary_tol=math.inf)
        assert flown.trace() == pytest.approx(1.0)
        # the reported band weight is the kicked state's spectrum summed over |k| above 3/4
        # of the Nyquist frequency
        n = default_grid.n_points
        spectrum = np.fft.fft(full_grid_atom(kicked).factors, axis=0)
        band = float(np.sum(np.abs(spectrum[3 * n // 8 + 1:n - 3 * n // 8]) ** 2))
        band *= default_grid.dx / n
        assert 0.5 < flown.nyquist_band_weight == pytest.approx(band, rel=1e-12)

    def test_mode_cut_weight_is_reported(self, default_grid):
        # level b holds a profile orthogonal to level c's with 1e-20 of the trace:
        # below fock.rank_cut, so that position mode does not fly, and its share is reported
        rho = trace_out_field(build_initial(
            PreparationParams(1.0, 0.0, 0.0), 0.0, default_grid, 4))
        packet = rho.factors[:, 1, 0]
        odd = packet * rho.grid.x[rho.start:rho.stop]
        odd -= np.vdot(packet, odd) / np.vdot(packet, packet) * packet
        odd *= 1e-10 * np.linalg.norm(packet) / np.linalg.norm(odd)  # 1e-20 of the weight
        factors = np.stack([odd, packet], axis=1)[:, :, None] / math.sqrt(1.0 + 1e-20)
        faint = AtomDensity(grid=default_grid, factors=factors, start=rho.start)
        out = free_propagate(faint, 1.0)
        assert abs(out.discarded_weight - 1e-20) <= 1e-25
        assert out.purity() == pytest.approx(1.0, abs=1e-14)

    def test_zero_state_rejected(self, default_grid):
        # the rank cut keeps no mode of a zero state: nothing can fly
        zero = AtomDensity(grid=default_grid, factors=np.zeros((64, 2, 1), dtype=complex),
                           start=2000)
        with pytest.raises(NumericError, match="zero-norm"):
            free_propagate(zero, 1.0)

    def test_slit_kick_trace_run_transforms_at_most_two_columns(self, monkeypatch):
        # the traced slit-kick atom has 2-3 factor columns per level but 1-2 position modes
        columns = {"fft": 0, "ifft": 0}
        for name, transform in ((name, getattr(np.fft, name)) for name in columns):
            def counted(a, *args, _name=name, _transform=transform, **kwargs):
                columns[_name] += a.shape[1]
                return _transform(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        config = ExperimentConfig.from_dict({"stage": 2, "case": "VDC", "numeric": SMALL_NUMERIC})
        assert run(config).diagnostics["schmidt_rank"] >= 2
        assert 1 <= columns["fft"] <= 2
        assert 1 <= columns["ifft"] <= 2

    def test_propagate_then_trace_equals_trace_then_propagate(self):
        # conjugating the traced state is the same as evolving every Fock
        # slice of the joint state and tracing afterwards
        grid = GridSpec(-6.0, 8.0, 1024)
        state = interact(
            build_initial(PreparationParams(INV_SQRT2, INV_SQRT2, 0.0),
                          1.0, grid, 24),
            InteractionParams(epsilon=0.0, theta_int=math.pi))
        flight = 1.0
        pat_a = screen_distribution(free_propagate(trace_out_field(state), flight))

        k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
        kernel = np.exp(-1j * (DISPERSION_RATE * flight) * k * k)
        amps = np.zeros((grid.n_points,) + state.amps.shape[1:], dtype=complex)
        amps[state.start:state.stop] = state.amps
        evolved = np.fft.ifft(kernel[:, None, None] * np.fft.fft(amps, axis=0), axis=0)
        from duality_sim.interferometer import JointState
        moved = JointState(grid=grid, amps=evolved)
        pat_b = window_density(trace_out_field(moved)).sum(axis=1) * WAVELENGTH
        assert intensity_l2(pat_a, pat_b) < 1e-12


class TestScreenDistribution:
    def test_axis_in_wavelengths_and_normalised(self, default_grid):
        out, _ = single_packet_density(default_grid, 3.0)
        pattern = screen_distribution(out)
        assert pattern.x_axis[0] == pytest.approx(default_grid.x_min / WAVELENGTH)
        dx = default_grid.dx / WAVELENGTH
        assert float(np.sum(pattern.intensity)) * dx == pytest.approx(1.0, abs=1e-9)

    def test_two_slit_oracle(self, default_grid):
        prep = PreparationParams(INV_SQRT2, INV_SQRT2, 0.0)
        rho = trace_out_field(build_initial(prep, 0.0, default_grid, 4))
        pattern = screen_distribution(free_propagate(rho, 3.0))
        oracle = two_slit_intensity(default_grid, (X_TOP, X_BOTTOM),
                                    (INV_SQRT2, INV_SQRT2), SIGMA, 3.0)
        assert intensity_l2(pattern, oracle) < 1e-6

    def test_symmetric_preparation_gives_symmetric_pattern(self):
        # grid chosen so mirror pairs about the slit midpoint are sample points
        mid = MIDPOINT
        n = 4096
        width = 13.0
        delta = 2.0 * width / (n - 1)
        grid = GridSpec(mid - width, mid + width + delta, n)
        prep = PreparationParams(INV_SQRT2, INV_SQRT2, 0.0)
        rho = trace_out_field(build_initial(prep, 0.0, grid, 4))
        pattern = screen_distribution(free_propagate(rho, 3.0))
        assert np.max(np.abs(pattern.intensity - pattern.intensity[::-1])) < 1e-8

    def test_csv_bytes_match_per_line_format(self, tmp_path):
        # 16384 rows with zeros, negatives and values down to the smallest subnormal
        rng = np.random.default_rng(7)
        x_axis = np.linspace(-40.0, 42.0, 16384, endpoint=False) / WAVELENGTH
        intensity = rng.random(16384) * 10.0 ** rng.integers(-300, 3, 16384)
        intensity[::97] = 0.0
        intensity[5::101] *= -1.0
        intensity[:3] = (1e-300, 5e-324, 1.0)
        ScreenPattern(x_axis, intensity).to_csv(tmp_path / "pattern.csv")
        oracle = "x_lambda,intensity\n" + "".join(
            f"{x:.9g},{v:.9g}\n" for x, v in zip(x_axis, intensity))
        assert (tmp_path / "pattern.csv").read_bytes() == oracle.encode("ascii")


@settings(max_examples=10, deadline=None)
@given(
    w=st.floats(0.1, 0.9),
    rel_phase=st.floats(0.0, 2.0 * math.pi),
    t_prime=st.floats(0.5, 3.0),
)
def test_fresnel_oracle_for_weighted_superpositions(w, rel_phase, t_prime):
    # any two-Gaussian superposition with a constant relative phase matches
    # the closed-form free evolution
    grid = GridSpec()
    weights = (math.sqrt(w), math.sqrt(1.0 - w) * np.exp(1j * rel_phase))
    prep = PreparationParams(weights[0], weights[1], 0.0)
    rho = trace_out_field(build_initial(prep, 0.0, grid, 4))
    pattern = screen_distribution(free_propagate(rho, t_prime))
    oracle = two_slit_intensity(grid, (X_TOP, X_BOTTOM),
                                weights, SIGMA, t_prime)
    assert intensity_l2(pattern, oracle) < 1e-6


@pytest.fixture(scope="module")
def fringed(default_grid):
    prep = PreparationParams(INV_SQRT2, INV_SQRT2, 0.0)
    rho = trace_out_field(build_initial(prep, 0.0, default_grid, 4))
    return screen_distribution(free_propagate(rho, 3.0))


class TestFringeVisibility:
    def test_ideal_fringes_near_unity(self, fringed):
        assert fringe_visibility(fringed) > 0.95

    def test_fringe_free_pattern_is_undefined(self, default_grid):
        out, _ = single_packet_density(default_grid, 3.0)
        assert fringe_visibility(screen_distribution(out)) is None

    def test_tiny_window_is_undefined(self, fringed):
        # every 512th sample is ~0.52 wavelengths apart, so the window holds at most one
        coarse = ScreenPattern(fringed.x_axis[::512], fringed.intensity[::512])
        assert fringe_visibility(coarse) is None

    # few distinct values make plateaus; NaN and the infinities make NaN slopes
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, 2.0, math.nan, math.inf, -math.inf])
                    | st.floats(allow_nan=True), max_size=40))
    def test_extrema_match_the_slope_by_slope_loop(self, values):
        values = np.array(values, dtype=float)
        with np.errstate(invalid="ignore"):  # inf - inf
            got, want = _interior_extrema(values), loop_interior_extrema(values)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_partial_contrast(self, default_grid):
        # traced single-photon-level field: contrast should sit near e^{-2}
        prep = PreparationParams(INV_SQRT2, INV_SQRT2, 0.0)
        state = interact(build_initial(prep, 1.0, default_grid, 48),
                         InteractionParams(epsilon=0.0, theta_int=math.pi))
        pattern = screen_distribution(free_propagate(trace_out_field(state), 3.0))
        assert fringe_visibility(pattern) == pytest.approx(math.exp(-2.0), abs=0.02)
