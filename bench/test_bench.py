"""Self-tests of the benchmark's arithmetic, generator and tracing wrappers.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import collections
import math

import pytest

import tracing
from run import TAIL_BEYOND, tail_percentile
from tracing import Span, Tracer, self_times
from workloads import WORKLOADS, rounds


def test_self_time_subtracts_direct_children_only():
    # a [0, 100] holds b [10, 60] and d [70, 80]; b holds c [20, 30]
    spans = [Span("a", 0, 100, None, 1), Span("b", 10, 60, 0, 1),
             Span("c", 20, 30, 1, 1), Span("d", 70, 80, 0, 1)]
    assert self_times(spans) == [40, 40, 10, 10]


def test_self_time_of_a_layer_nested_in_itself():
    # write -> write (a grid written from inside a run write): both selves count once
    spans = [Span("w", 0, 50, None, 1), Span("w", 5, 25, 0, 1), Span("x", 30, 40, None, 2)]
    assert self_times(spans) == [30, 20, 10]
    assert sum(self_times(spans)[:2]) == 50


@pytest.mark.parametrize("n", [TAIL_BEYOND + 1, 22, 100, 137, 1000])
def test_tail_has_exactly_tail_beyond_samples_above(n):
    samples = [float(i) for i in range(n)][::-1]
    value, pct = tail_percentile(samples)
    assert sum(s > value for s in samples) == TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - TAIL_BEYOND) / n)
    # nearest rank: the value is the pct-th percentile and no higher one
    assert math.ceil(pct / 100.0 * n) == n - TAIL_BEYOND


def test_tail_is_p90_of_a_hundred_samples():
    assert tail_percentile(list(range(1, 101))) == (90, 90.0)


def test_tail_needs_more_than_tail_beyond_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * TAIL_BEYOND)


def _first_rounds(workload, seed, count=5):
    stream = rounds(workload, seed)
    return [op for _ in range(count) for op in next(stream)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_kind_counts_do_not_depend_on_the_seed(workload):
    kinds = list(WORKLOADS[workload][0])
    counts = [collections.Counter(op.kind for op in _first_rounds(workload, seed))
              for seed in (1, 2, 12345)]
    assert all(c == {kind: 5 for kind in kinds} for c in counts)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_chooses_parameters_reproducibly(workload):
    assert _first_rounds(workload, 7) == _first_rounds(workload, 7)
    assert _first_rounds(workload, 7) != _first_rounds(workload, 8)


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + [
        ("gone.function", "duality_sim.runner", "no_such_function", None),
        ("gone.module", "duality_sim.no_such_module", "anything", None)])
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent[-2:] == ["duality_sim.runner.no_such_function",
                                  "duality_sim.no_such_module.anything"]


def test_wrappers_are_transparent_and_removable():
    runner = pytest.importorskip("duality_sim.runner")
    config = runner.ExperimentConfig.from_dict({
        "stage": 2, "case": "VDC", "numeric": {"n_max": 32, "grid": {"n_points": 1024}},
        "readout": {"type": "quadrature", "theta": 0.0, "chi": 0.5}})
    originals = (runner.run, runner.RunResult.write)
    plain = runner.run(config)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run(config)
    finally:
        tracer.uninstall()
    assert (runner.run, runner.RunResult.write) == originals
    assert traced.pattern.intensity.tobytes() == plain.pattern.intensity.tobytes()
    assert traced.diagnostics == plain.diagnostics
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.layer for s in roots] == ["runner.run"]
    assert len(tracer.spans) > 1
    assert all(t >= 0 for t in self_times(tracer.spans))
