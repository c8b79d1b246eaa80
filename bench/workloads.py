"""Seeded workloads, the op each one issues, and the output gate.

Every workload is a closed loop with one client: the next op starts only
after the previous one returned.  Ops come in rounds that hold exactly one
op of each kind of the workload, shuffled by the seed, so the count of each
kind in a run depends only on how many rounds ran, never on the seed.  The
seed chooses parameter values and the order inside each round.

The program sees only the generated configs: ops go through the library's
public API (``ExperimentConfig.from_dict`` -> ``runner.run`` ->
``RunResult.write``, and ``runner.epsilon_sweep`` -> ``QGrid.to_csv``), and
each call is looked up through its module at call time so that the tracing
wrappers installed there are seen.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# the seven named points of the duality sphere, in the library's order
CASES = ("V1", "VD", "D1", "DC", "C1", "CV", "VDC")

# the grid of the local-kick flight scan: the local kick adds momentum, so
# the packets need four times the production grid to reach the screen
LOCAL_NUMERIC = {"grid": {"x_min": -40.0, "x_max": 42.0, "n_points": 16384}}

# output-gate tolerances (acceptance criteria 3 and 12)
TRACE_TOL = 1e-12
PURITY_DRIFT_TOL = 1e-10
SUM_RULE_TOL = 1e-12


@dataclass(frozen=True)
class Op:
    """One unit of work: a ``run`` config, or one epsilon-sweep point."""

    kind: str
    config: dict | None = None
    level: str | None = None
    epsilon: float | None = None


def _quadrature(theta: float, chi) -> dict:
    return {"type": "quadrature", "theta": theta, "chi": chi}


def _slit_common(rng: random.Random) -> dict:
    return {"case": rng.choice(CASES), "alpha": rng.uniform(2.0, 3.5),
            "t_prime": rng.uniform(2.0, 3.0)}


def _slit_kind(stage: int, **extra):
    def make(rng: random.Random) -> dict:
        config = {"stage": stage, **_slit_common(rng)}
        for key, value in extra.items():
            config[key] = value(rng) if callable(value) else value
        return config
    return make


_EPSILON_RANGE = (0.0, 9.0)

# slit_stages: the paper's three stages on the production numerics (4096
# points, n_max 96), with both homodyne readouts and both interaction maps
SLIT_KINDS = {
    "stage1": _slit_kind(1),
    "stage2_trace": _slit_kind(2),
    "stage2_x_most_probable": _slit_kind(2, readout=_quadrature(0.0, "most-probable")),
    "stage2_y_most_probable": _slit_kind(2, readout=_quadrature(math.pi / 2, "most-probable")),
    "stage2_y_fixed_chi": _slit_kind(
        2, readout=lambda rng: _quadrature(math.pi / 2, rng.uniform(-0.5, 0.5))),
    "stage3_dispersive": _slit_kind(3, epsilon=lambda rng: rng.uniform(*_EPSILON_RANGE)),
    "stage3_exact": _slit_kind(3, mode="exact",
                               epsilon=lambda rng: rng.uniform(*_EPSILON_RANGE)),
}


def _local_kick(rng: random.Random) -> dict:
    return {"stage": 3, "case": rng.choice(CASES), "alpha": math.sqrt(8.0),
            "epsilon": rng.uniform(0.0, 5.0), "t_prime": rng.uniform(1.0, 3.0),
            "kick": "local", "numeric": LOCAL_NUMERIC}


def _sweep_kind(level: str):
    def make(rng: random.Random) -> Op:
        return Op(kind=f"sweep_{level}", level=level, epsilon=rng.uniform(*_EPSILON_RANGE))
    return make


def _run_kinds(kinds: dict) -> dict:
    def wrap(kind, make):
        return lambda rng: Op(kind=kind, config=make(rng))
    return {kind: wrap(kind, make) for kind, make in kinds.items()}


# workload -> (kind -> op maker, kind a setup probe runs as its first op)
WORKLOADS = {
    "slit_stages": (_run_kinds(SLIT_KINDS), "stage2_y_most_probable"),
    "local_kick": (_run_kinds({"stage3_local": _local_kick}), "stage3_local"),
    "epsilon_sweep": ({"sweep_b": _sweep_kind("b"), "sweep_c": _sweep_kind("c")}, "sweep_b"),
}

# base config of the sweep: stage-3 V1 on the production numerics
SWEEP_BASE = {"stage": 3, "case": "V1"}


def rounds(workload: str, seed: int, stream: str = "timed"):
    """Yield rounds forever; each round holds one op of every kind, shuffled."""
    makers, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{stream}:{seed}")
    while True:
        ops = [make(rng) for make in makers.values()]
        rng.shuffle(ops)
        yield ops


def setup_op(workload: str, seed: int) -> Op:
    """The first op of a fresh process: a fixed kind, seeded parameters."""
    makers, kind = WORKLOADS[workload]
    return makers[kind](random.Random(f"{workload}:setup:{seed}"))


@dataclass
class Outcome:
    """What an op returned, kept for the gate and the reference check."""

    result: object
    out_dir: Path


def execute(op: Op, runner, out_dir: Path) -> Outcome:
    """Issue one op against the library and write its files, like the CLI."""
    if op.config is not None:
        result = runner.run(runner.ExperimentConfig.from_dict(op.config))
        result.write(out_dir)
        return Outcome(result, out_dir)
    base = runner.ExperimentConfig.from_dict(SWEEP_BASE)
    (point,) = runner.epsilon_sweep(base, [op.epsilon], op.level)
    out_dir.mkdir(parents=True, exist_ok=True)
    point.qgrid.to_csv(out_dir / "qgrid.csv")
    return Outcome(point, out_dir)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


def _floats(rows) -> list[float]:
    return [float(v) for row in rows for v in row]


def check(op: Op, outcome: Outcome) -> list[str]:
    """Invariants every output must satisfy; returns the violations."""
    problems = []
    if op.config is not None:
        res = outcome.result
        diag = res.diagnostics
        if not abs(diag["trace"] - 1.0) <= TRACE_TOL:
            problems.append(f"trace {diag['trace']!r} is not 1 within {TRACE_TOL}")
        drift = abs(diag["purity_after_flight"] - diag["purity_before_flight"])
        if not drift < PURITY_DRIFT_TOL:
            problems.append(f"flight changed the purity by {drift:.3e}")
        m = res.metrics
        residual = abs(m.V0 ** 2 + m.D0 ** 2 + m.C0 ** 2 - 1.0)
        if not residual < SUM_RULE_TOL:
            problems.append(f"V0^2+D0^2+C0^2 misses 1 by {residual:.3e}")
        vis = res.visibility
        if vis is not None and not 0.0 <= vis <= 1.0:
            problems.append(f"visibility {vis!r} outside [0, 1]")
        rows = _read_csv(outcome.out_dir / "pattern.csv")
        values = _floats(rows[1:])
        if rows[0] != ["x_lambda", "intensity"] or len(values) != 2 * res.pattern.intensity.size \
                or not all(math.isfinite(v) for v in values):
            problems.append("pattern.csv does not parse to the pattern's samples")
        for name in ("metrics.json", "diagnostics.json"):
            json.loads((outcome.out_dir / name).read_text(encoding="ascii"))
    else:
        point = outcome.result
        q = point.qgrid.values
        if not (q >= 0.0).all():
            problems.append("Husimi Q has negative samples")
        if not 0.0 <= point.overlap_with_initial <= 1.0:
            problems.append(f"overlap {point.overlap_with_initial!r} outside [0, 1]")
        rows = _read_csv(outcome.out_dir / "qgrid.csv")
        values = _floats([row[1:] for row in rows[1:]])
        if len(rows) != q.shape[0] + 1 or len(values) != q.size \
                or not all(math.isfinite(v) for v in values):
            problems.append("qgrid.csv does not parse to the grid's samples")
    return problems
