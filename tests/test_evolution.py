import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from analytic import fidelity
from conftest import kick_row
from duality_sim.errors import TruncationError
from duality_sim.evolution import InteractionParams, branch_multipliers
from duality_sim.fock import coherent_state

ALPHA = math.sqrt(8.0)
NODE = math.pi / 2.0


def coupled_multipliers(level, g1, g2, eps, theta, n_max, detuning=None):
    """(stay, cross, leak) of one input level from the closed form, couplings g1, g2 given.

    Dispersive without a detuning (leak None), exact with one (g = 1, so the
    coupling time is theta * detuning); leak is the |a> amplitude factor.
    n_eff is m+1 from |b> and m from |c>.
    Where A + B is below 1e-200 the map is taken as the identity: the
    correction is below 1e-200 * theta there.
    """
    n_eff = np.arange(n_max) + (1.0 if level == "b" else 0.0)
    quantum, drive = g1 * g1 * n_eff, g2 * g2 * abs(eps) ** 2
    total = quantum + drive
    numer = drive if level == "b" else quantum
    amp = eps if level == "b" else np.conj(eps)
    coupling = g2 * eps if level == "b" else g1 * np.sqrt(n_eff)
    leak = None
    if detuning is None:
        ring = np.exp(1j * theta * total) - 1.0
    else:
        gt = theta * detuning
        # d * d / 4, not d ** 2 / 4: at phases ~1e5 rad one ulp of mu moves stay by ~1e-11
        root = np.sqrt(total + detuning * detuning / 4.0)
        ring = (np.exp(-0.5j * detuning * gt)
                * (np.cos(root * gt) + 0.5j * detuning * np.sin(root * gt) / root) - 1.0)
        leak = np.where(total > 1e-200, coupling * np.sin(root * gt) / root, 0.0)
    with np.errstate(all="ignore"):
        stay = np.where(total > 1e-200, 1.0 + numer * ring / total, 1.0)
        cross = np.where(total > 1e-200, g1 * g2 * amp * np.sqrt(n_eff) * ring / total, 0.0)
    return stay, cross, leak


def one_point_phase(m, level, x, params):
    """Phase of the stay multiplier of Fock index m at x: Theta * (A + B) without drive."""
    stay, _, _ = branch_multipliers(x, params, m + 1)[level]
    return float(np.angle(stay[m]))


class TestCoupling:
    # the kernel's couplings are g1 = cos(3x), g2 = cos(x) (g' = g): read
    # back through the closed-form map at points where they are known
    params = InteractionParams(epsilon=2.0, theta_int=0.7)

    def assert_couplings(self, x, g1, g2):
        for level in ("b", "c"):
            stay, cross, _ = branch_multipliers(x, self.params, 16)[level]
            ref_stay, ref_cross, _ = coupled_multipliers(level, g1, g2, 2.0, 0.7, 16)
            assert np.max(np.abs(stay - ref_stay)) < 1e-15
            assert np.max(np.abs(cross - ref_cross)) < 1e-15

    def test_common_antinode(self):
        self.assert_couplings(0.0, 1.0, 1.0)

    def test_common_node(self):
        for level in ("b", "c"):
            stay, cross, _ = branch_multipliers(NODE, self.params, 16)[level]
            assert np.all(stay == 1.0) and not np.any(cross)

    def test_half_quantum_wavelength(self):
        self.assert_couplings(math.pi / 3.0, -1.0, 0.5)


class TestDispersiveRow:
    def test_pi_kick_from_ground_level(self):
        # the antinode flips the coherent field's phase photon by photon
        field = coherent_state(ALPHA, 96)
        params = InteractionParams(epsilon=0.0, theta_int=math.pi)
        stay, cross, _ = kick_row("c", field, params)
        assert not np.any(cross)
        assert fidelity(stay, coherent_state(-ALPHA, 96)) > 1.0 - 1e-12

    def test_intermediate_level_untouched_without_drive(self):
        field = coherent_state(ALPHA, 96)
        params = InteractionParams(epsilon=0.0, theta_int=math.pi)
        stay, cross, _ = kick_row("b", field, params)
        assert not np.any(cross)
        assert np.array_equal(stay, field)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 3.0, 5.0, 9.0])
    def test_node_is_bitwise_identity(self, eps):
        field = coherent_state(ALPHA, 96)
        params = InteractionParams(epsilon=eps, theta_int=math.pi)
        for level in ("b", "c"):
            stay, cross, _ = kick_row(level, field, params, slit="bottom")
            assert not np.any(cross)
            assert np.array_equal(stay, field)

    def test_total_weight_conserved_with_drive(self):
        field = coherent_state(ALPHA, 96)
        params = InteractionParams(epsilon=3.0, theta_int=math.pi)
        stay, cross, _ = kick_row("c", field, params)
        total = float(np.sum(np.abs(stay) ** 2) + np.sum(np.abs(cross) ** 2))
        assert total == pytest.approx(float(np.vdot(field, field).real), abs=1e-12)

    def test_zero_drive_reduces_to_number_phase(self):
        params = InteractionParams(epsilon=0.0, theta_int=1.3)
        for level in ("b", "c"):
            stay, cross, _ = branch_multipliers(0.37, params, 64)[level]
            assert not np.any(cross)  # cross branch carries no weight
            assert np.max(np.abs(np.abs(stay[1:]) - 1.0)) < 1e-12

    def test_complex_drive_unitary(self):
        stay, cross, _ = branch_multipliers(0.41, InteractionParams(epsilon=2.0 - 1.5j), 48)["b"]
        assert np.max(np.abs(np.abs(stay) ** 2 + np.abs(cross) ** 2 - 1.0)) < 1e-12

    def test_raman_transfer_grows_from_small_drive(self):
        # cross weight rises with the drive up to its resonance near
        # |eps|^2 ~ <n>+1, measured 0.058 / 0.192 / 0.486 at eps 0.5 / 1 / 3
        field = coherent_state(ALPHA, 96)
        weights = []
        for eps in (0.5, 1.0, 3.0):
            _, cross, _ = branch_multipliers(0.0, InteractionParams(epsilon=eps), 96)["b"]
            weights.append(float(np.sum(np.abs(cross * field) ** 2)))
        assert weights[0] < weights[1] < weights[2]
        assert weights[2] > 0.4

    def test_truncation_error_on_top_row(self):
        field = coherent_state(6.0, 40)  # mean 36 photons, heavy top row
        params = InteractionParams(epsilon=3.0, theta_int=math.pi)
        with pytest.raises(TruncationError):
            kick_row("b", field, params, tail_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(-3.0, 3.0),
    eps=st.floats(0.0, 9.0),
    theta=st.floats(0.05, 2.0 * math.pi),
    level=st.sampled_from(["b", "c"]),
)
def test_per_index_unitarity(x, eps, theta, level):
    stay, cross, _ = branch_multipliers(x, InteractionParams(epsilon=eps, theta_int=theta), 64)[level]
    assert np.max(np.abs(np.abs(stay) ** 2 + np.abs(cross) ** 2 - 1.0)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-3.2, 3.2) | st.just(NODE),
    eps=st.complex_numbers(max_magnitude=9.0),
    theta=st.floats(0.05, 2.0 * math.pi),
    n_max=st.integers(1, 96),
    detuning=st.none() | st.floats(0.5, 400.0),
)
@example(x=NODE, eps=3.0, theta=math.pi, n_max=96, detuning=None)
@example(x=NODE, eps=3.0, theta=math.pi, n_max=96, detuning=200.0)
def test_pair_kernel_matches_the_per_level_closed_form(x, eps, theta, n_max, detuning):
    # one evaluation per pair |b, k-1> <-> |c, k>, checked level by level
    mode = "dispersive" if detuning is None else "exact"
    params = InteractionParams(epsilon=eps, theta_int=theta, detuning_ratio=detuning or 200.0)
    kernel = branch_multipliers(x, params, n_max, mode)
    for level in ("b", "c"):
        stay, cross, leak = kernel[level]
        ref_stay, ref_cross, ref_leak = coupled_multipliers(
            level, np.cos(3.0 * x), np.cos(x), eps, theta, n_max, detuning)
        assert np.max(np.abs(stay - ref_stay)) < 1e-14
        assert np.max(np.abs(cross - ref_cross)) < 1e-14
        if detuning is None:
            assert leak is None
        else:
            assert np.max(np.abs(leak - ref_leak)) < 1e-14


class TestEffectivePhase:
    def test_node_phase_vanishes(self):
        params = InteractionParams(epsilon=3.0, theta_int=math.pi)
        assert abs(one_point_phase(7, "b", NODE, params)) < 1e-30

    def test_vacuum_from_ground_gets_no_phase(self):
        params = InteractionParams(epsilon=0.0, theta_int=math.pi)
        assert one_point_phase(0, "c", 0.0, params) == 0.0

    def test_one_photon_pi(self):
        params = InteractionParams(epsilon=0.0, theta_int=math.pi)
        assert one_point_phase(1, "c", 0.0, params) == pytest.approx(math.pi)


class TestExactRow:
    def test_node_identity_and_no_leak(self):
        field = coherent_state(ALPHA, 96)
        params = InteractionParams(epsilon=3.0, theta_int=math.pi)
        stay, cross, state = kick_row("c", field, params, slit="bottom", mode="exact")
        assert state.leak == 0.0
        assert not np.any(cross)
        assert np.array_equal(stay, field)

    def test_three_level_unitarity(self):
        params = InteractionParams(epsilon=3.0, theta_int=math.pi, detuning_ratio=13.7)
        for level in ("b", "c"):
            stay, cross, leak = branch_multipliers(0.37, params, 64, mode="exact")[level]
            total = np.abs(stay) ** 2 + np.abs(cross) ** 2 + np.abs(leak) ** 2
            assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_dispersive_limit(self):
        # at detuning_ratio 200 the exact map is within 1e-2 per amplitude
        field = coherent_state(ALPHA, 96)
        params = InteractionParams(epsilon=0.0, theta_int=math.pi, detuning_ratio=200.0)
        exact_stay, _, state = kick_row("c", field, params, mode="exact")
        disp_stay, _, _ = kick_row("c", field, params)
        assert np.max(np.abs(exact_stay - disp_stay)) < 1e-2
        assert state.leak < 1e-2
