"""Fixed reference outputs, recorded once and re-checked on every invocation.

The set covers the seven sphere cases at stages 1-3, the stage-2 which-path
(X) and eraser (Y) most-probable readouts, one local-kick run and one
epsilon-sweep point.  Screen patterns and Husimi grids must match the
recording within 1e-12 (absolute); a most-probable readout may move its
chi and pattern by up to 1e-9, the precision of its golden-section search.

Record (only when the reference outputs are meant to change):

    python3 bench/reference.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from workloads import CASES, LOCAL_NUMERIC, Op, execute

REFERENCE_FILE = Path(__file__).with_name("reference.npz")
PATTERN_TOL = 1e-12
MOST_PROBABLE_TOL = 1e-9


def _ops() -> dict[str, Op]:
    ops = {}
    for stage in (1, 2, 3):
        for case in CASES:
            config = {"stage": stage, "case": case}
            if stage == 3:
                config["epsilon"] = 3.0
            ops[f"stage{stage}_{case}"] = Op(kind="reference", config=config)
    # VDC has unequal path weights, so the X readout has a single highest peak
    for axis, theta in (("x", 0.0), ("y", math.pi / 2)):
        ops[f"stage2_{axis}_most_probable_VDC"] = Op(kind="reference", config={
            "stage": 2, "case": "VDC",
            "readout": {"type": "quadrature", "theta": theta, "chi": "most-probable"}})
    ops["local_kick_C1"] = Op(kind="reference", config={
        "stage": 3, "case": "C1", "epsilon": 3.0, "t_prime": 2.0, "kick": "local",
        "numeric": LOCAL_NUMERIC})
    ops["sweep_b_eps3"] = Op(kind="reference", level="b", epsilon=3.0)
    return ops


REFERENCE_OPS = _ops()


def _most_probable(op: Op) -> bool:
    return op.config is not None and "readout" in op.config


def _observe(op: Op, runner, out_dir: Path) -> dict[str, np.ndarray]:
    """The arrays of an op's output that the reference pins."""
    result = execute(op, runner, out_dir).result
    if op.config is None:
        return {"q": result.qgrid.values, "overlap": np.array(result.overlap_with_initial)}
    arrays = {"pattern": result.pattern.intensity}
    if _most_probable(op):
        arrays["chi"] = np.array(result.diagnostics["readout"]["chi"])
    return arrays


def record(runner, out_dir: Path) -> None:
    arrays = {}
    for name, op in REFERENCE_OPS.items():
        for key, value in _observe(op, runner, out_dir).items():
            arrays[f"{name}.{key}"] = value
    np.savez_compressed(REFERENCE_FILE, **arrays)


def verify(runner, out_dir: Path) -> list[str]:
    """Re-run the reference set; returns one line per mismatch."""
    problems = []
    with np.load(REFERENCE_FILE) as stored:
        for name, op in REFERENCE_OPS.items():
            tol = MOST_PROBABLE_TOL if _most_probable(op) else PATTERN_TOL
            try:
                observed = _observe(op, runner, out_dir)
            except Exception as exc:  # a reference op must not raise; report, keep checking
                problems.append(f"{name}: raised {type(exc).__name__}: {exc}")
                continue
            for key, value in observed.items():
                want = stored[f"{name}.{key}"]
                if value.shape != want.shape:
                    problems.append(f"{name}.{key}: shape {value.shape} != {want.shape}")
                    continue
                err = float(np.max(np.abs(value - want)))
                if not err <= tol:
                    problems.append(f"{name}.{key}: max deviation {err:.3e} > {tol:.0e}")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from duality_sim import runner as _runner
    import tempfile

    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        record(_runner, Path(tmp))
    print(f"wrote {REFERENCE_FILE}")
