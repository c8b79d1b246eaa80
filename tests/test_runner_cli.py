import ctypes
import functools
import json
import math
import resource
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from analytic import pattern_l2, unkicked_local_pattern, visibility_or_zero
from conftest import SMALL_NUMERIC
from duality_sim import runner, runtime
from duality_sim.cli import main
from duality_sim.duality import SPHERE_CASE_NAMES
from duality_sim.errors import ConfigError
from duality_sim.fock import coherent_state
from duality_sim.interferometer import JointState, build_initial, interact
from duality_sim.propagation import WAVELENGTH
from duality_sim.runner import (ExperimentConfig, epsilon_sweep, load_config,
                                most_probable_chi, run, sphere_suite)

ALPHA = math.sqrt(8.0)


def small_config(**overrides):
    data = {"stage": 1, "case": "V1", "numeric": SMALL_NUMERIC}
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


class TestConfig:
    def test_round_trip(self):
        cfg = small_config(stage=3, epsilon=3.0,
                           readout={"type": "quadrature", "theta": 0.0, "chi": 1.5})
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_most_probable(self):
        cfg = small_config(stage=2,
                           readout={"type": "quadrature", "theta": math.pi / 2,
                                    "chi": "most-probable"})
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"stage": 1, "case": "V1", "sigma": 0.1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"stage": 1, "case": "V1", "numeric": {"nmax": 32}})

    def test_stage2_rejects_classical_drive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"stage": 2, "case": "V1", "epsilon": 3.0})

    def test_explicit_case(self):
        cfg = ExperimentConfig.from_dict(
            {"stage": 1, "case": {"c_up": 0.6, "c_down": 0.8, "phi": 0.2}})
        assert cfg.case.c_up == pytest.approx(0.6)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_bad_case_name(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"stage": 1, "case": "W9"})


class TestRun:
    def test_stage1_interference(self):
        result = run(small_config())
        assert result.visibility is not None and result.visibility > 0.95
        assert abs(result.metrics.residual) < 1e-12
        assert result.diagnostics["trace"] == pytest.approx(1.0, abs=1e-12)

    def test_stage2_suppression_and_stage3_restoration(self):
        blind = run(small_config(stage=2, alpha=ALPHA))
        assert visibility_or_zero(blind.pattern) <= 1e-3
        partial = run(small_config(stage=3, alpha=ALPHA, epsilon=3.0))
        assert partial.visibility is not None and 0.05 < partial.visibility < 0.95

    def test_stage2_equals_stage3_without_drive(self):
        a = run(small_config(stage=2))
        b = run(small_config(stage=3, epsilon=0.0))
        assert np.array_equal(a.pattern.intensity, b.pattern.intensity)

    def test_determinism_of_written_files(self, tmp_path):
        cfg = small_config(stage=2, emit_qgrid=True)
        run(cfg).write(tmp_path / "a")
        run(cfg).write(tmp_path / "b")
        for name in ("pattern.csv", "metrics.json", "diagnostics.json", "qgrid.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_diagnostics_report_rank_and_discarded_weight(self):
        result = run(small_config(stage=2))
        assert result.diagnostics["schmidt_rank"] == 2
        assert 0.0 <= result.diagnostics["discarded_weight"] < 1e-12
        readout = run(small_config(stage=2, readout={"type": "quadrature", "theta": 0.0,
                                                     "chi": 1.0}))
        assert readout.diagnostics["schmidt_rank"] == 1
        assert readout.diagnostics["discarded_weight"] == 0.0

    def test_diagnostics_report_support_rows_and_boundary_weight(self, tmp_path):
        result = run(small_config(stage=2))
        start, stop = result.diagnostics["support_rows"]
        assert 0 < start < stop < SMALL_NUMERIC["grid"]["n_points"]
        assert 0.0 <= result.diagnostics["boundary_weight"] <= 1e-6
        # alpha = sqrt(8) carries 62 Fock columns, more than the n_max ceiling of 48
        assert result.diagnostics["fock_columns"] == SMALL_NUMERIC["n_max"]
        assert 0.0 < result.diagnostics["initial_window_tail"] <= 1e-30
        result.write(tmp_path)
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert payload["support_rows"] == [start, stop]
        assert payload["boundary_weight"] == result.diagnostics["boundary_weight"]
        assert payload["fock_columns"] == SMALL_NUMERIC["n_max"]
        assert payload["initial_window_tail"] == result.diagnostics["initial_window_tail"]
        assert run(small_config()).diagnostics["fock_columns"] == 2  # the vacuum, plus one

    def test_diagnostics_report_the_initial_fock_tail(self, tmp_path):
        numeric = {**SMALL_NUMERIC, "n_max": 20, "tail_tolerance": 1e-2}
        result = run(small_config(stage=2, numeric=numeric))
        field = coherent_state(ALPHA, 20)
        tail = 1.0 - float(np.vdot(field, field).real)
        assert 1e-4 < tail < 1e-2
        assert result.diagnostics["initial_fock_tail"] == tail
        result.write(tmp_path)
        assert json.loads((tmp_path / "diagnostics.json").read_text())["initial_fock_tail"] == tail
        assert run(small_config()).diagnostics["initial_fock_tail"] == 0.0

    @pytest.mark.parametrize("readout", [
        "trace",
        {"type": "quadrature", "theta": 0.0, "chi": "most-probable"},
        {"type": "quadrature", "theta": 0.0, "chi": 1.0},
    ])
    def test_post_interaction_norm_is_the_state_norm(self, readout):
        config = small_config(stage=3, epsilon=3.0, readout=readout)
        state = build_initial(config.case, config.alpha,
                              config.numeric.grid, config.numeric.n_max)
        state = interact(state, config.interaction_params())
        assert run(config).diagnostics["post_interaction_norm_sq"] == pytest.approx(
            state.norm_sq(), rel=1e-14)

    def test_two_column_files_match_per_line_format(self, tmp_path):
        result = run(small_config(stage=2, emit_quadrature_pdf=True))
        result.write(tmp_path)
        pattern = result.pattern
        for name, header, x, v in (
                ("pattern.csv", "x_lambda,intensity", pattern.x_axis, pattern.intensity),
                ("quadrature_pdf.csv", "chi,density", result.chi_axis, result.chi_pdf)):
            oracle = header + "\n" + "".join(f"{a:.9g},{b:.9g}\n" for a, b in zip(x, v))
            assert (tmp_path / name).read_bytes() == oracle.encode("ascii")

    def test_metrics_file_keys(self, tmp_path):
        run(small_config()).write(tmp_path)
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert {"V0", "D0", "C0", "residual", "visibility", "config"} <= set(payload)
        echo = ExperimentConfig.from_dict(payload["config"])
        assert echo == small_config()

    def test_quadrature_readout_records_outcome(self):
        cfg = small_config(stage=2, readout={"type": "quadrature", "theta": 0.0,
                                             "chi": "most-probable"})
        result = run(cfg)
        chi = result.diagnostics["readout"]["chi"]
        assert abs(abs(chi) - ALPHA) < 0.05
        assert result.diagnostics["readout"]["outcome_density"] > 0.0

    def test_most_probable_run_contracts_the_joint_state_once(self, monkeypatch):
        # the search reads every density off the field Gram; the readout's
        # atom column is the one contraction of the joint state
        calls = []
        real_columns, real_gram = JointState.atom_columns, JointState.__dict__["field_gram"].func

        def atom_columns(*args, **kwargs):
            calls.append("atom_columns")
            return real_columns(*args, **kwargs)

        def field_gram(state):
            calls.append("field_gram")
            return real_gram(state)

        cached_gram = functools.cached_property(field_gram)
        cached_gram.__set_name__(JointState, "field_gram")
        monkeypatch.setattr(JointState, "atom_columns", atom_columns)
        monkeypatch.setattr(JointState, "field_gram", cached_gram)
        run(small_config(stage=2, readout={"type": "quadrature", "theta": 0.0,
                                           "chi": "most-probable"}))
        assert calls == ["field_gram", "atom_columns"]

    def test_emitted_densities_are_the_most_probable_scan(self, monkeypatch):
        # the search scans the emitted quadrature_pdf.csv densities instead of
        # evaluating the same 281 outcomes again
        calls = []
        real_pdf = runner.quadrature_pdf

        def quadrature_pdf(state, theta, chi_samples):
            calls.append((theta, np.size(chi_samples)))
            return real_pdf(state, theta, chi_samples)

        monkeypatch.setattr(runner, "quadrature_pdf", quadrature_pdf)
        readout = {"type": "quadrature", "theta": 0.0, "chi": "most-probable"}
        emitted = run(small_config(stage=2, case="VDC", readout=readout, emit_quadrature_pdf=True))
        assert calls == [(0.0, 281)]
        plain = run(small_config(stage=2, case="VDC", readout=readout))
        assert emitted.diagnostics == plain.diagnostics
        assert np.array_equal(emitted.pattern.intensity, plain.pattern.intensity)

    def test_most_probable_chi_deterministic(self):
        from duality_sim.evolution import InteractionParams
        from duality_sim.interferometer import (GridSpec, PreparationParams,
                                                build_initial, interact)
        grid = GridSpec(**SMALL_NUMERIC["grid"])
        prep = PreparationParams(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)
        state = interact(build_initial(prep, ALPHA, grid, 48),
                         InteractionParams(epsilon=0.0, theta_int=math.pi))
        a = most_probable_chi(state, math.pi / 2)
        b = most_probable_chi(state, math.pi / 2)
        assert a == b
        assert abs(a) < 1e-6


def test_local_kick_run_peaks_near_one_flight_array():
    # the flight's full-grid (N, rank) buffer, which holds one level at a time,
    # is the one large array of a run; readouts, purity and screen work on the
    # window, in small blocks or on (N, 2) slabs, and the joint state is freed
    # before the flight (1.32x one level's buffer measured)
    config = ExperimentConfig.from_dict({
        "stage": 3, "case": "VDC", "epsilon": 2.5, "t_prime": 2.0, "kick": "local",
        "numeric": {"grid": {"x_min": -40.0, "x_max": 42.0, "n_points": 16384}}})
    tracemalloc.start()
    try:
        result = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    level_buffer = 16384 * result.diagnostics["schmidt_rank"] * np.dtype(complex).itemsize
    assert peak <= 1.5 * level_buffer


@pytest.mark.parametrize("t_prime", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("case", ["V1", "CV", "VDC", "DC"])
def test_local_kick_without_drive_matches_the_phase_oracle(case, t_prime):
    # the whole local-kick pipeline against its closed form at epsilon = 0,
    # computed without a joint state (analytic.unkicked_local_pattern)
    config = ExperimentConfig.from_dict({
        "stage": 2, "case": case, "t_prime": t_prime, "kick": "local",
        "numeric": {"grid": {"x_min": -40.0, "x_max": 42.0, "n_points": 16384}}})
    got = run(config).pattern.intensity
    want = unkicked_local_pattern(config.case, config.alpha, config.theta_int,
                                  config.numeric.grid, t_prime, config.numeric.n_max)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


class TestFreedMemory:
    def test_run_and_sweep_keep_freed_memory(self, monkeypatch):
        calls = []
        monkeypatch.setattr(runner, "keep_freed_memory", lambda: calls.append(1))
        run(small_config())
        epsilon_sweep(small_config(stage=3), [0.0], "b")
        assert calls == [1, 1]

    def test_thresholds_are_set_once(self, monkeypatch):
        calls, real_cdll = [], ctypes.CDLL

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        libc = type("Libc", (), {"mallopt": staticmethod(mallopt)})()
        monkeypatch.setattr(ctypes, "CDLL", lambda name, *a, **k:
                            libc if name is None else real_cdll(name, *a, **k))
        runtime.keep_freed_memory.cache_clear()
        try:
            runtime.keep_freed_memory()
            runtime.keep_freed_memory()
            assert calls == [(-3, 32 << 20), (-1, 128 << 20)]
            libc = object()  # no mallopt: nothing to call, nothing raised
            runtime.keep_freed_memory.cache_clear()
            runtime.keep_freed_memory()
        finally:
            runtime.keep_freed_memory.cache_clear()

    def test_freed_array_is_reused_without_page_faults(self):
        if getattr(ctypes.CDLL(None), "mallopt", None) is None:
            pytest.skip("no glibc mallopt")
        runtime.keep_freed_memory()
        # writing 16 MiB of fresh pages takes ~4096 minor faults (~500 with
        # transparent huge pages); the second array reuses the first's pages
        faults = []
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            array = np.ones(2 << 20)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            del array
        assert faults[1] < 64, faults


class TestSweep:
    def test_epsilon_sweep_orderings(self):
        base = small_config(stage=3)
        b_points = epsilon_sweep(base, [0.0, 5.0], "b")
        assert b_points[0].overlap_with_initial == pytest.approx(1.0, abs=1e-9)
        assert b_points[1].overlap_with_initial < 0.5
        c_points = epsilon_sweep(base, [0.0, 9.0], "c")
        assert c_points[1].overlap_with_initial > c_points[0].overlap_with_initial

    def test_unkicked_husimi_matches_initial(self):
        from duality_sim.fock import coherent_state, husimi_q
        from duality_sim.runner import QGRID_AXIS
        base = small_config(stage=3)
        point = epsilon_sweep(base, [0.0], "b")[0]
        amps = coherent_state(ALPHA, SMALL_NUMERIC["n_max"])
        ref = husimi_q(np.outer(amps, amps.conj()) / float(np.vdot(amps, amps).real),
                       QGRID_AXIS, QGRID_AXIS)
        assert np.max(np.abs(point.qgrid.values - ref.values)) < 1e-12
        i, j = np.unravel_index(np.argmax(point.qgrid.values), point.qgrid.values.shape)
        assert abs(QGRID_AXIS[i] - ALPHA) <= 0.1 and abs(QGRID_AXIS[j]) <= 0.1

    def test_overlap_and_grid_come_from_the_field_density(self):
        from duality_sim.fock import coherent_state, husimi_q
        from duality_sim.interferometer import (PreparationParams, build_initial,
                                                field_density, interact)
        from duality_sim.runner import QGRID_AXIS
        base = small_config(stage=3, epsilon=3.0)
        point = epsilon_sweep(base, [3.0], "b")[0]
        state = build_initial(PreparationParams(1.0, 0.0, math.pi / 2.0), ALPHA,
                              base.numeric.grid, base.numeric.n_max)
        rho_f = field_density(interact(state, base.interaction_params()))
        amps = coherent_state(ALPHA, base.numeric.n_max)
        assert point.overlap_with_initial == pytest.approx(
            float(np.real(amps.conj() @ rho_f @ amps)), abs=1e-14)
        assert np.array_equal(point.qgrid.values,
                              husimi_q(rho_f, QGRID_AXIS, QGRID_AXIS).values)

    def test_bad_level(self):
        with pytest.raises(ConfigError):
            epsilon_sweep(small_config(stage=3), [0.0], "a")


class TestSphereSuite:
    def test_stage1_extreme_cases_fringe_free(self):
        results = sphere_suite(3.0, 1, ALPHA, 0.0, base=small_config())
        assert set(results) == {"V1", "VD", "D1", "DC", "C1", "CV", "VDC"}
        for name in ("D1", "C1"):
            assert results[name].visibility is None
        assert results["V1"].visibility > 0.95

    def test_stage2_small_alpha_restores_contrast(self):
        big = sphere_suite(3.0, 2, ALPHA, 0.0, base=small_config())
        small = sphere_suite(3.0, 2, 1.0, 0.0, base=small_config())
        for name in ("V1", "VD", "CV", "VDC"):
            assert visibility_or_zero(small[name].pattern) > visibility_or_zero(big[name].pattern)

    def test_most_probable_phase_outcome_restores_stage1(self):
        # the most probable phase-quadrature outcome is ~0, so conditioning
        # on it should hand back the field-free pattern
        stage1 = run(small_config(stage=1, case="VD"))
        erased = run(small_config(stage=2, case="VD",
                                  readout={"type": "quadrature",
                                           "theta": math.pi / 2,
                                           "chi": "most-probable"}))
        assert pattern_l2(stage1.pattern, erased.pattern) < 1e-2


class TestCli:
    def write_cfg(self, tmp_path, data):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_run_command(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"stage": 1, "case": "V1", "numeric": SMALL_NUMERIC})
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "pattern.csv").exists()
        assert (tmp_path / "out" / "metrics.json").exists()
        assert (tmp_path / "out" / "diagnostics.json").exists()
        assert "V0=1" in capsys.readouterr().out

    def test_run_flag_overrides(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"stage": 1, "case": "V1", "numeric": SMALL_NUMERIC})
        out = tmp_path / "out2"
        code = main(["run", "--config", cfg, "--out", str(out),
                     "--stage", "2", "--case", "C1", "--readout", "quadrature",
                     "--theta", str(math.pi / 2), "--chi", "0.0"])
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["C0"] == pytest.approx(1.0)
        assert payload["config"]["stage"] == 2

    def test_config_error_exit_code(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"stage": 7, "case": "V1"})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_numeric_error_exit_code(self, tmp_path):
        # flight time far too long for the grid: aliasing guard trips
        cfg = self.write_cfg(tmp_path, {"stage": 1, "case": "V1",
                                        "numeric": SMALL_NUMERIC, "t_prime": 40.0})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 3

    def test_sweep_command(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"stage": 3, "case": "V1", "numeric": SMALL_NUMERIC})
        out = tmp_path / "sweep"
        code = main(["sweep-epsilon", "--level", "b", "--values", "0,5",
                     "--config", cfg, "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["level"] == "b"
        assert len(summary["points"]) == 2
        assert (out / "qgrid_eps_0.csv").exists()
        assert (out / "qgrid_eps_5.csv").exists()

    def test_sphere_command(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"stage": 1, "case": "V1", "numeric": SMALL_NUMERIC})
        out = tmp_path / "sphere"
        code = main(["sphere", "--stage", "1", "--config", cfg, "--out", str(out)])
        assert code == 0
        for name in ("V1", "VD", "D1", "DC", "C1", "CV", "VDC"):
            assert (out / name / "pattern.csv").exists()

    def test_sphere_command_erased_stage(self, tmp_path):
        # stage 2 conditioned on the most probable phase-quadrature outcome
        readout = {"type": "quadrature", "theta": math.pi / 2, "chi": "most-probable"}
        cfg = self.write_cfg(tmp_path, {"stage": 2, "case": "V1", "readout": readout,
                                        "numeric": SMALL_NUMERIC})
        out = tmp_path / "erased"
        assert main(["sphere", "--stage", "2", "--config", cfg, "--out", str(out)]) == 0
        cases = sorted(p.name for p in out.iterdir())
        assert cases == sorted(["V1", "VD", "D1", "DC", "C1", "CV", "VDC"])
        for name in cases:
            diagnostics = json.loads((out / name / "diagnostics.json").read_text())
            assert diagnostics["readout"]["kind"] == "quadrature"

    @pytest.mark.parametrize("command", [
        ["sphere", "--stage", "2"],
        ["sweep-epsilon", "--level", "b", "--values", "0,5"],
    ])
    def test_base_config_without_stage_or_case(self, tmp_path, command):
        # the erased-stage recipe: a readout and numerics, nothing else
        readout = {"type": "quadrature", "theta": math.pi / 2, "chi": "most-probable"}
        cfg = self.write_cfg(tmp_path, {"readout": readout, "numeric": SMALL_NUMERIC})
        out = tmp_path / "out"
        assert main([*command, "--config", cfg, "--out", str(out)]) == 0
        if command[0] == "sphere":
            diagnostics = json.loads((out / "VDC" / "diagnostics.json").read_text())
            assert diagnostics["readout"]["kind"] == "quadrature"
        else:
            assert len(json.loads((out / "summary.json").read_text())["points"]) == 2

    @pytest.mark.parametrize("command", [
        ["sphere", "--stage", "1"],
        ["sweep-epsilon", "--level", "b", "--values", "0"],
    ])
    @pytest.mark.parametrize("data", [
        {"sigma": 0.1},
        {"numeric": {"n_max": 0}},
        {"readout": {"type": "quadrature", "phase": 0.0}},
        {"stage": 7},
        {"case": "XY"},
    ])
    def test_bad_base_config_exit_code(self, tmp_path, command, data):
        cfg = self.write_cfg(tmp_path, data)
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_bad_sweep_values(self, tmp_path):
        assert main(["sweep-epsilon", "--level", "b", "--values", "a,b"]) == 2

    @pytest.mark.parametrize("values, named", [
        ("1,1.0000001", ("1.0", "1.0000001")),  # both format as 1 under :g
        ("3,0,3", ("3.0", "3.0")),
    ])
    def test_sweep_values_sharing_a_file_are_refused(self, tmp_path, capsys, values, named):
        out = tmp_path / "sweep"
        code = main(["sweep-epsilon", "--level", "b", "--values", values, "--out", str(out)])
        assert code == 2
        message = capsys.readouterr().err
        assert all(value in message for value in named)
        assert not out.exists()

    def test_non_finite_sweep_value(self, tmp_path):
        assert main(["sweep-epsilon", "--level", "b", "--values", "0,nan"]) == 2

    @pytest.mark.parametrize("overrides", [
        {"alpha": math.nan},
        {"t_prime": -1.0},
        {"theta_int": 0.0},
        {"numeric": {"n_max": 0}},
        {"stage": 2.7},
        {"emit_qgrid": "no"},
        {"emit_quadrature_pdf": 1},
        {"case": {"c_up": math.nan, "c_down": 1.0, "phi": 0.0}},
        {"numeric": {"tail_tolerance": -1.0}},
        {"numeric": 5},
        {"case": {"c_up": 1e200, "c_down": 0, "phi": 0}},
        {"case": {"c_up": 1.0, "c_down": 0.0, "phi": 0.0, "name": "V1"}},
        {"alpha": 10 ** 400},
        {"numeric": {"grid": {"x_max": math.inf}}},
        # a JSON string is not a number, whatever it spells
        {"t_prime": "2.5"},
        {"theta_int": "3"},
        {"case": {"c_up": 1.0, "c_down": 0.0, "phi": "0"}},
        {"stage": 3, "epsilon": ["1", "2"]},
        {"numeric": {"grid": {"x_min": "-12"}}},
        # grids that do not sample the slit packets: their weight on the grid is not 1
        # (the squares in the +-1e300 grid's profiles used to overflow)
        {"numeric": {"grid": {"n_points": 128}}},
        {"numeric": {"grid": {"n_points": 64}}},
        {"numeric": {"grid": {"x_min": -1e300, "x_max": 1e300, "n_points": 16}}},
        {"numeric": {"grid": {"x_min": -1e308, "x_max": 1e308}}},  # the span overflows
        # a tail tolerance of 1 or more would switch every weight check off
        {"stage": 1, "numeric": {"tail_tolerance": 1e300,
                                 "grid": {"x_min": -1e300, "x_max": 1e300, "n_points": 16}}},
        {"numeric": {"tail_tolerance": 1.0}},
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_value_exit_code(self, tmp_path, overrides):
        data = {"stage": 2, "case": "V1", **overrides}
        cfg = self.write_cfg(tmp_path, data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("overrides", [
        {"numeric": {"n_max": 1}},
        {"alpha": 10.0},
    ])
    def test_initial_truncation_exit_code(self, tmp_path, overrides):
        data = {"stage": 2, "case": "V1", **overrides}
        cfg = self.write_cfg(tmp_path, data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("overrides", [
        {"epsilon": 1e200},
        {"mode": "exact", "numeric": {"detuning_ratio": 1e300}},
        {"mode": "exact", "numeric": {"detuning_ratio": 1e300},
         "readout": {"type": "quadrature", "theta": 0.0, "chi": 1.0}},
        {"mode": "exact", "numeric": {"detuning_ratio": 1e300},
         "readout": {"type": "quadrature", "theta": 0.0, "chi": "most-probable"}},
        {"theta_int": 1e300},
        # at this boundary tolerance only the flight's phase limit refuses these
        {"stage": 2, "t_prime": 1e8,
         "numeric": {"n_max": 32, "grid": {"n_points": 1024}, "boundary_tolerance": 1.0}},
        {"stage": 2, "t_prime": 1e300,
         "numeric": {"n_max": 32, "grid": {"n_points": 1024}, "boundary_tolerance": 1.0}},
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_range_interaction_exit_code(self, tmp_path, capsys, overrides):
        # |epsilon|^2 overflows, or an interaction or flight phase is beyond the
        # limit; an interaction fails before any multiplier is evaluated
        data = {"stage": 3, "case": "V1", **overrides}
        cfg = self.write_cfg(tmp_path, data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
        assert not (tmp_path / "x").exists()
        err = capsys.readouterr().err
        assert ("phase" in err) == ("epsilon" not in overrides)
        assert "n_max" not in err

    def test_integral_float_stage_accepted(self):
        assert small_config(stage=2.0).stage == 2


# CLI-level fuzz: drawn configs run in-process at small numerics
SPECIAL = [0.0, 1.0, -1.0, 3.0, 1e-300, 1e300, -1e300, 1e154, 2.0 ** 53]
NUMBERS = st.sampled_from(SPECIAL) | st.floats(-10.0, 10.0)
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)


def some(draw, strategies):
    """Each key drawn with probability 1/3."""
    return {key: draw(value) for key, value in strategies.items()
            if draw(st.integers(0, 2)) == 0}


def mostly(valid, other=NUMBERS):
    """A value of the valid strategy three times in four, else one of other."""
    return st.sampled_from([valid, valid, valid, other]).flatmap(lambda values: values)


@st.composite
def run_configs(draw, grids=None):
    """A run config of drawn keys: sampled names, edge-case or uniform numbers.

    The grid, the tolerances, detuning_ratio and theta_int are mostly valid,
    so that most draws get past loading; n_max reaches the 31 Fock states
    that alpha = sqrt(8) needs.  grids, if given, draws the whole grid object.
    """
    if grids is None:
        # up to 512 points the default span cannot sample the packets; from 768 it can
        grid = {"n_points": draw(mostly(st.integers(768, 2048), st.integers(16, 512))),
                **some(draw, {"x_min": mostly(st.floats(-12.0, -1.0)),
                              "x_max": mostly(st.floats(3.0, 14.0))})}
    else:
        grid = draw(grids)
    numeric = {"n_max": draw(st.integers(1, 64)), "grid": grid,
               **some(draw, {"tail_tolerance": mostly(st.floats(1e-12, 0.5)),
                             "boundary_tolerance": mostly(st.floats(1e-9, 1.0)),
                             "detuning_ratio": mostly(st.floats(10.0, 1e3))})}
    readout = st.just("trace") | st.fixed_dictionaries({
        "type": st.just("quadrature"), "theta": NUMBERS,
        "chi": NUMBERS | st.just("most-probable")})
    return {"stage": draw(st.sampled_from([1, 2, 3])),
            "case": draw(st.sampled_from(SPHERE_CASE_NAMES)), "numeric": numeric,
            **some(draw, {"alpha": NUMBERS | PAIRS, "epsilon": NUMBERS | PAIRS,
                          "theta_int": mostly(st.floats(0.01, 10.0)), "t_prime": NUMBERS,
                          "mode": st.sampled_from(["dispersive", "exact"]),
                          "kick": st.sampled_from(["slit", "local"]), "readout": readout})}


def json_numbers(value):
    if isinstance(value, dict):
        return [n for item in value.values() for n in json_numbers(item)]
    if isinstance(value, list):
        return [n for item in value for n in json_numbers(item)]
    return [value] if isinstance(value, (int, float)) else []


@settings(max_examples=300, deadline=None)
@given(data=run_configs())
# no grid point lands in a slit packet (was an IndexError)
@example(data={"stage": 1, "case": "V1",
               "numeric": {"n_max": 1, "grid": {"x_min": -1000.0, "x_max": 5.0, "n_points": 16}}})
# |alpha|^2 overflows (was an OverflowError)
@example(data={"stage": 2, "case": "V1", "alpha": 1e300, "numeric": {"n_max": 4}})
# the coherent state underflows to zero within the tail tolerance (was a ValueError);
# a tolerance of 1 or more is refused at load, so the sibling reaches the underflow
@example(data={"stage": 2, "case": "V1", "alpha": 1e5,
               "numeric": {"n_max": 8, "tail_tolerance": 3.0}})
@example(data={"stage": 2, "case": "V1", "alpha": 1e5,
               "numeric": {"n_max": 8, "tail_tolerance": 0.5}})
# the square of this detuning_ratio underflows, so mu was 0 at the node (was a RuntimeWarning)
@example(data={"stage": 2, "case": "V1", "alpha": 0.0, "t_prime": 0.0, "mode": "exact",
               "numeric": {"n_max": 1, "grid": {"n_points": 768},
                           "detuning_ratio": 1.1125369292536007e-308}})
def test_any_run_config_exits_with_a_documented_code(data):
    assert_documented_exit(["run"], data)


def assert_documented_exit(command, data):
    """The command on a config file of data exits 0, 2 or 3.

    On 0 it wrote only finite numbers, and each run it wrote obeys the run invariants.
    """
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(data))
        code = main([*command, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 0:
            written = sorted(out.rglob("*.*"))
            assert written
            for path in written:
                if path.suffix == ".csv":
                    assert np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1)).all(), path
                else:
                    numbers = json_numbers(json.loads(path.read_text()))
                    assert all(math.isfinite(n) for n in numbers), path
            for path in written:
                if path.name == "diagnostics.json":
                    assert_run_invariants(path.parent)


def assert_run_invariants(run_dir):
    """A written run has unit trace, a flight that keeps its purity, a non-negative pattern
    that integrates to the trace, a boundary weight within tolerance and a closed weight ledger.
    """
    diag = json.loads((run_dir / "diagnostics.json").read_text())
    numeric = json.loads((run_dir / "metrics.json").read_text())["config"]["numeric"]
    trace = diag["trace"]
    assert abs(trace - 1.0) <= 1e-12, trace
    before, after = diag["purity_before_flight"], diag["purity_after_flight"]
    assert abs(after - before) <= 1e-12, (before, after)
    assert max(before, after) <= 1.0 + 1e-12, (before, after)
    intensity = np.loadtxt(run_dir / "pattern.csv", delimiter=",", skiprows=1)[:, 1]
    assert (intensity >= 0.0).all()
    grid = numeric["grid"]
    dx = (grid["x_max"] - grid["x_min"]) / grid["n_points"] / WAVELENGTH
    # looser: each of the n_points values is written at 9 significant digits, so the
    # sum may be off by 5e-9 of the trace
    assert abs(float(np.sum(intensity)) * dx - trace) <= 1e-8
    assert diag["boundary_weight"] <= numeric["boundary_tolerance"]
    if "post_interaction_norm_sq" in diag:  # stages 2 and 3
        ledger = (diag["initial_norm_sq"] - diag["post_interaction_norm_sq"] - diag["leak"]
                  - diag["truncation_loss"])
        assert abs(ledger) <= 1e-12, ledger


# base configs at small numerics: a grid that samples the slit packets, one
# too coarse to, and one whose profile squares used to overflow
BASE_GRIDS = st.sampled_from([{"n_points": 1024}, {"n_points": 64},
                              {"x_min": -1e300, "x_max": 1e300, "n_points": 16}])


def flags(draw, strategies):
    """--name=value for each drawn flag; = keeps a negative value from reading as an option."""
    return [f"--{name}={value!r}" for name, value in some(draw, strategies).items()]


@st.composite
def sweep_commands(draw):
    values = ",".join(map(repr, draw(st.lists(NUMBERS, min_size=1, max_size=3))))
    return ["sweep-epsilon", f"--level={draw(st.sampled_from(['b', 'c']))}",
            f"--values={values}", *flags(draw, {"alpha": NUMBERS})]


@st.composite
def sphere_commands(draw):
    return ["sphere", f"--stage={draw(st.sampled_from([1, 2, 3]))}",
            *flags(draw, {"alpha": NUMBERS, "epsilon": NUMBERS, "t-prime": NUMBERS})]


# the slit profiles on this grid overflowed (a RuntimeWarning) before the run exited
HUGE_GRID_BASE = {"stage": 1, "case": "V1",
                  "numeric": {"n_max": 4, "grid": {"x_min": -1e300, "x_max": 1e300,
                                                   "n_points": 16}}}


@settings(max_examples=120, deadline=None)
@given(command=sweep_commands(), data=run_configs(grids=BASE_GRIDS))
@example(command=["sweep-epsilon", "--level=b", "--values=0.0", "--alpha=0.0"],
         data=HUGE_GRID_BASE)
def test_any_sweep_exits_with_a_documented_code(command, data):
    assert_documented_exit(command, data)


@settings(max_examples=120, deadline=None)
@given(command=sphere_commands(), data=run_configs(grids=BASE_GRIDS))
@example(command=["sphere", "--stage=1"], data=HUGE_GRID_BASE)
def test_any_sphere_suite_exits_with_a_documented_code(command, data):
    assert_documented_exit(command, data)
