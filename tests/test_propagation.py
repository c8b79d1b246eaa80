import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analytic import (assert_same_readouts, evolved_gaussian, flown_factors, flown_full_grid,
                      full_grid_atom, gaussian_spread_sigma, intensity_l2, two_slit_intensity,
                      window_density)
from duality_sim.errors import GridError, UndefinedVisibilityError
from duality_sim.evolution import InteractionParams
from duality_sim.interferometer import (MIDPOINT, SIGMA, X_BOTTOM, X_TOP, AtomDensity,
                                        GridSpec, PreparationParams, build_initial,
                                        condition_on_quadrature, interact, trace_out_field)
from duality_sim.propagation import (DISPERSION_RATE, WAVELENGTH, ScreenPattern,
                                     free_propagate, fringe_visibility,
                                     screen_distribution)

ALPHA = math.sqrt(8.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def single_packet_density(default_grid, t_prime):
    prep = PreparationParams(1.0, 0.0, 0.0)
    rho = trace_out_field(build_initial(prep, 0.0, default_grid, 4))
    out = free_propagate(rho, t_prime)
    return out, out.density.sum(axis=1)


class TestFreePropagate:
    def test_zero_time_is_identity(self, default_grid):
        # the whole-buffer flight keeps the factors within 1e-14, and the
        # flight's readouts are that flight's bit for bit
        rho = trace_out_field(build_initial(
            PreparationParams(INV_SQRT2, INV_SQRT2, 0.0), 0.0, default_grid, 4))
        assert np.max(np.abs(flown_factors(rho, 0.0) - full_grid_atom(rho).factors)) < 1e-14
        assert_same_readouts(free_propagate(rho, 0.0), flown_full_grid(rho, 0.0))

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

    def test_flight_is_the_spectral_kernel_bit_for_bit(self, default_grid):
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
        assert np.array_equal(out.density, window_density(full))
        assert np.array_equal(out.gram, full.gram)
        edge = float(np.sum(window_density(full)[[0, -1], :])) * default_grid.dx
        assert edge > 0.0
        assert np.array_equal(out.boundary_weight(), edge)

    def test_grid_too_small_raises(self, default_grid):
        rho = trace_out_field(build_initial(
            PreparationParams(1.0, 0.0, 0.0), 0.0, default_grid, 4))
        with pytest.raises(GridError):
            free_propagate(rho, 30.0)

    def test_nan_boundary_weight_raises(self, default_grid):
        rho = AtomDensity(grid=default_grid, factors=np.full((default_grid.n_points, 2, 1), np.nan,
                                                             dtype=complex))
        with pytest.raises(GridError):
            free_propagate(rho, 1.0)

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

    def test_window_dilution(self, fringed):
        # fringe contrast decays away from the pattern centre, so a very
        # wide window averages in low-contrast pairs
        wide = fringe_visibility(fringed, (0.125 - 1.0, 0.125 + 1.0))
        assert wide < fringe_visibility(fringed)

    def test_fringe_free_pattern_is_undefined(self, default_grid):
        out, _ = single_packet_density(default_grid, 3.0)
        with pytest.raises(UndefinedVisibilityError):
            fringe_visibility(screen_distribution(out))

    def test_tiny_window_is_undefined(self, fringed):
        with pytest.raises(UndefinedVisibilityError):
            fringe_visibility(fringed, (0.125, 0.1251))

    def test_partial_contrast(self, default_grid):
        # traced single-photon-level field: contrast should sit near e^{-2}
        prep = PreparationParams(INV_SQRT2, INV_SQRT2, 0.0)
        state = interact(build_initial(prep, 1.0, default_grid, 48),
                         InteractionParams(epsilon=0.0, theta_int=math.pi))
        pattern = screen_distribution(free_propagate(trace_out_field(state), 3.0))
        assert fringe_visibility(pattern) == pytest.approx(math.exp(-2.0), abs=0.02)
