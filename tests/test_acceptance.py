"""Acceptance suite: every shipped guarantee, one printed line per criterion.

Runs on the production numerics (grid of 4096 points over [-12, 14],
96 Fock states) and asserts each criterion at its quoted tolerance.
Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math

import numpy as np
import pytest

from analytic import (fidelity, intensity_l2, pattern_l2, top_path_weight, two_slit_intensity,
                      visibility_or_zero)
from conftest import kick_row
from duality_sim.duality import SPHERE_CASE_NAMES, gamma_of_phi, metrics
from duality_sim.evolution import InteractionParams, branch_multipliers
from duality_sim.fock import coherent_state
from duality_sim.interferometer import (MIDPOINT, SIGMA, X_BOTTOM, X_TOP, GridSpec,
                                        PreparationParams, build_initial,
                                        condition_on_quadrature, interact, trace_out_field)
from duality_sim.propagation import free_propagate, screen_distribution
from duality_sim.runner import ExperimentConfig, epsilon_sweep, run

ALPHA = math.sqrt(8.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)
PI_KICK = InteractionParams(epsilon=0.0, theta_int=math.pi)


def report(number: int, label: str, ok: bool, detail: str):
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"criterion {number} failed: {label} ({detail})"


def config(**overrides) -> ExperimentConfig:
    data = {"stage": 1, "case": "V1"}
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


@pytest.fixture(scope="module")
def stage1_results():
    return {name: run(config(stage=1, case=name)) for name in SPHERE_CASE_NAMES}


@pytest.fixture(scope="module")
def stage2_v1_state():
    state = build_initial(PreparationParams(INV_SQRT2, INV_SQRT2, 0.0),
                          ALPHA, GridSpec(), 96)
    return interact(state, PI_KICK)


def test_criterion_1_phase_kick_exactness():
    # the kernel applied at the top slit's centre, the common antinode
    stay, cross, _ = kick_row("c", coherent_state(ALPHA, 96), PI_KICK)
    fid = fidelity(stay, coherent_state(-ALPHA, 96))
    report(1, "pi phase kick lands on the opposite coherent state",
           not np.any(cross) and fid >= 1.0 - 1e-8, f"fidelity 1-{1-fid:.2e}")


def test_criterion_2_no_kick_exactness():
    field = coherent_state(ALPHA, 96)
    stay, cross, _ = kick_row("b", field, PI_KICK)
    dark_ok = not np.any(cross) and np.array_equal(stay, field)
    node_ok = True
    for eps in (0.0, 1.0, 3.0, 5.0, 9.0):
        params = InteractionParams(epsilon=eps, theta_int=math.pi)
        for level in ("b", "c"):
            # the kernel applied at the bottom slit's centre, the common node
            stay, cross, _ = kick_row(level, field, params, slit="bottom")
            node_ok &= not np.any(cross) and np.array_equal(stay, field)
    report(2, "dark level and node leave the field bit-for-bit",
           dark_ok and node_ok, f"dark={dark_ok} node={node_ok}")


def test_criterion_3_sum_rule():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(10_000):
        t = rng.uniform(0.0, math.pi / 2)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=2))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        m = metrics(math.cos(t) * phases[0], math.sin(t) * phases[1], gamma_of_phi(phi))
        worst = max(worst, abs(m.residual))
    report(3, "V0^2 + D0^2 + C0^2 = 1 over 10^4 preparations",
           worst < 1e-12, f"worst residual {worst:.2e}")


def test_criterion_4_dispersive_unitarity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0)
        params = InteractionParams(epsilon=rng.uniform(0.0, 9.0),
                                   theta_int=rng.uniform(0.1, 2.0 * math.pi))
        for level in ("b", "c"):
            stay, cross, _ = branch_multipliers(x, params, 96)[level]
            worst = max(worst, float(np.max(np.abs(
                np.abs(stay) ** 2 + np.abs(cross) ** 2 - 1.0))))
    report(4, "per-photon-number two-level unitarity",
           worst < 1e-12, f"worst identity deviation {worst:.2e}")


def test_criterion_5_exact_dispersive_convergence():
    field = coherent_state(ALPHA, 96)
    weights = np.abs(field) ** 2
    devs, leaks = [], []
    for ratio in (50.0, 100.0, 200.0, 400.0):
        worst = 0.0
        leak_worst = 0.0
        for level in ("b", "c"):
            params = InteractionParams(epsilon=3.0, theta_int=math.pi, detuning_ratio=ratio)
            sd, cd, _ = branch_multipliers(0.0, params, 96)[level]
            se, ce, leak = branch_multipliers(0.0, params, 96, mode="exact")[level]
            worst = max(worst,
                        float(np.max(np.abs((sd - se) * field))),
                        float(np.max(np.abs((cd - ce) * field))))
            leak_worst = max(leak_worst, float(np.sum(np.abs(leak) ** 2 * weights)))
        devs.append(worst)
        leaks.append(leak_worst)
    monotone = all(a > b for a, b in zip(devs, devs[1:]))
    ok = monotone and devs[2] < 1e-2 and leaks[2] < 1e-2
    report(5, "exact propagator converges to the dispersive map", ok,
           f"deviations {['%.1e' % d for d in devs]}, leak@200 {leaks[2]:.1e}")


def test_criterion_6_stage1_fresnel_oracle(stage1_results):
    pattern = stage1_results["V1"].pattern
    oracle = two_slit_intensity(GridSpec(), (X_TOP, X_BOTTOM),
                                (INV_SQRT2, INV_SQRT2), SIGMA, 3.0)
    err = intensity_l2(pattern, oracle)
    report(6, "stage-1 pattern matches the closed-form two-slit solution",
           err < 1e-6, f"L2 error {err:.2e}")


def test_criterion_7_stage2_suppression():
    vis_big = visibility_or_zero(run(config(stage=2, case="V1", alpha=ALPHA)).pattern)
    vis_small = run(config(stage=2, case="V1", alpha=1.0)).visibility
    ok = vis_big <= 1e-3 and vis_small is not None and abs(vis_small - 0.135) <= 0.03
    report(7, "which-path field kills fringes at alpha=sqrt(8), partial at alpha=1",
           ok, f"visibility {vis_big:.1e} / {vis_small:.4f}")


def test_criterion_8_eraser_restoration(stage1_results):
    worst = 0.0
    for name in SPHERE_CASE_NAMES:
        erased = run(config(stage=2, case=name,
                            readout={"type": "quadrature", "theta": math.pi / 2,
                                     "chi": 0.0}))
        worst = max(worst, pattern_l2(stage1_results[name].pattern, erased.pattern))
    report(8, "phase-quadrature conditioning restores every stage-1 pattern",
           worst < 1e-2, f"worst L2 distance {worst:.2e}")


def test_criterion_9_which_path_readout(stage2_v1_state):
    weights = {}
    for chi in (-ALPHA, ALPHA):
        rho, _ = condition_on_quadrature(stage2_v1_state, 0.0, chi)
        weights[chi] = top_path_weight(rho)
    ok = weights[-ALPHA] >= 0.999 and 1.0 - weights[ALPHA] >= 0.999
    report(9, "amplitude-quadrature outcomes localise the atom per path",
           ok, f"top weight {weights[-ALPHA]:.6f} / bottom weight {1-weights[ALPHA]:.6f}")


def test_criterion_10_classical_drive_trend():
    base = config(stage=3)
    b_points = {p.epsilon: p.overlap_with_initial
                for p in epsilon_sweep(base, [0.0, 5.0], "b")}
    c_points = {p.epsilon: p.overlap_with_initial
                for p in epsilon_sweep(base, [0.0, 9.0], "c")}
    ok = (b_points[0.0] > 0.999 and b_points[5.0] < 0.5
          and c_points[9.0] > c_points[0.0])
    report(10, "drive degrades the dark-level record and restores the bright one",
           ok, f"b: 1->{b_points[5.0]:.3f}, c: {c_points[0.0]:.1e}->{c_points[9.0]:.3f}")


def test_criterion_11_c1_robustness():
    traced = visibility_or_zero(run(config(stage=2, case="C1")).pattern)
    vis = [traced]
    for theta in (0.0, math.pi / 4, math.pi / 2):
        result = run(config(stage=2, case="C1",
                            readout={"type": "quadrature", "theta": theta,
                                     "chi": "most-probable"}))
        vis.append(visibility_or_zero(result.pattern))
    ok = all(v < 1e-3 for v in vis)
    report(11, "maximum concurrence resists every quadrature readout",
           ok, f"visibilities {['%.1e' % v for v in vis]}")


def test_criterion_12_propagation_invariants(stage2_v1_state):
    rho = trace_out_field(stage2_v1_state)
    out = free_propagate(rho, 3.0)
    trace_drift = abs(out.trace() - 1.0)
    purity_drift = abs(out.purity() - rho.purity())

    # parity: mirror-symmetric grid about the slit midpoint
    n, width = 4096, 13.0
    delta = 2.0 * width / (n - 1)
    grid = GridSpec(MIDPOINT - width, MIDPOINT + width + delta, n)
    sym = build_initial(PreparationParams(INV_SQRT2, INV_SQRT2, 0.0), 0.0, grid, 4)
    pattern = screen_distribution(free_propagate(trace_out_field(sym), 3.0))
    asym = float(np.max(np.abs(pattern.intensity - pattern.intensity[::-1])))

    ok = trace_drift < 1e-12 and purity_drift < 1e-10 and asym < 1e-8
    report(12, "flight preserves norm and purity; symmetric input, symmetric screen",
           ok, f"trace {trace_drift:.1e}, purity {purity_drift:.1e}, parity {asym:.1e}")
