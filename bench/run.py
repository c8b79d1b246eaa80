#!/usr/bin/env python3
"""The duality-sim benchmark: seeded closed-loop workloads on the library API.

    python3 bench/run.py --workload slit_stages --seed 1 --seconds 25 --trace 0

Run from any directory; the library is imported from ``src/`` next to this
directory, never from an installed copy.  One process issues the ops of one
workload, one after another, for ``--seconds`` (whole rounds, at least
MIN_OPS ops), checks every output, then re-checks the fixed reference set.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones plus the tracing overhead, after showing on one op of each kind that
the tracing wrappers leave every output bit-identical.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit and the environment.  The exit code is 1 when a
reference output has changed, 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check, execute, rounds, setup_op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# a fresh process is started this many times per run to time set-up
SETUP_PROBES = 5
# op_ms_tail is the highest percentile with at least this many samples above it
TAIL_BEYOND = 10
# the tail must lie at or above the median
MIN_OPS = 2 * (TAIL_BEYOND + 1)


def tail_percentile(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above.

    By nearest rank, the k-th smallest of n samples is every percentile in
    (100 (k-1)/n, 100 k/n]; with k = n - TAIL_BEYOND the highest of those is
    100 (n - TAIL_BEYOND) / n, and exactly TAIL_BEYOND samples lie above it.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    k = n - TAIL_BEYOND
    return sorted(samples)[k - 1], 100.0 * k / n


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over the library sources; identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> tuple[str, int | None]:
    """BLAS name and the thread count it runs with (None if unreadable)."""
    import ctypes

    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        name = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return name, getter()
    return name, None


def environment(args, kinds: dict, tail_pct: float | None) -> dict:
    import numpy as np

    blas, threads = _blas()
    return {
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": threads, "nproc": os.cpu_count(),
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_per_kind": kinds,
        "op_ms_tail_percentile": tail_pct, "setup_probes": SETUP_PROBES,
    }


def _digest(outcome) -> str:
    """sha256 of an op's written files and full-precision output arrays."""
    digest = hashlib.sha256()
    for path in sorted(outcome.out_dir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    result = outcome.result
    array = result.pattern.intensity if hasattr(result, "pattern") else result.qgrid.values
    digest.update(array.tobytes())
    return digest.hexdigest()


def _probe(args, work: Path) -> int:
    """Child of measure_setup: import the library, run the first op, say so."""
    from duality_sim import runner

    op = setup_op(args.workload, args.seed)
    outcome = execute(op, runner, work / "op")
    print("ready", flush=True)
    problems = check(op, outcome)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def measure_setup(args) -> tuple[list[float], int]:
    """Seconds from starting a fresh interpreter to the end of its first op.

    Also returns how many of those first ops failed the output gate.
    """
    times, failed = [], 0
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
        failed += proc.returncode != 0
    return times, failed


class Loop:
    """Issues ops, times them, gates their outputs and counts failures."""

    def __init__(self, runner, work: Path):
        self.runner = runner
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def issue(self, op):
        """Run one op; returns (wall ms, outcome or None if it failed)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = execute(op, self.runner, self.work / "op")
        except Exception as exc:  # an op that raises is a counted failure, not a crash
            elapsed = time.perf_counter() - start
            self._fail(op, [f"raised {type(exc).__name__}: {exc}"])
            return elapsed * 1e3, None
        elapsed = time.perf_counter() - start
        try:
            problems = check(op, outcome)
        except Exception as exc:  # output the gate cannot even read is a failure too
            problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            self._fail(op, problems)
            return elapsed * 1e3, None
        return elapsed * 1e3, outcome

    def _fail(self, op, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.extend(f"{op.kind} {op.config or op.epsilon}: {p}" for p in problems)


def run_rounds(args, loop: Loop, tracer=None):
    """Whole rounds until --seconds have passed and MIN_OPS ops are timed.

    With a tracer, odd rounds are traced; returns per-kind op times of the
    untraced rounds, and of the traced rounds with their tracer op ids.
    """
    plain, traced, traced_ids = {}, {}, []
    start = time.perf_counter()
    stream = rounds(args.workload, args.seed)
    index = 0
    while time.perf_counter() - start < args.seconds or sum(map(len, plain.values())) < MIN_OPS:
        trace_round = tracer is not None and index % 2 == 1
        if trace_round:
            tracer.install()
        try:
            for op in next(stream):
                if trace_round:
                    tracer.op += 1
                ms, _ = loop.issue(op)
                if trace_round:
                    tracer.finish_op()
                    traced_ids.append(tracer.op)
                (traced if trace_round else plain).setdefault(op.kind, []).append(ms)
        finally:
            if trace_round:
                tracer.uninstall()
        index += 1
    return plain, traced, traced_ids


def check_transparency(args, loop: Loop, tracer) -> list[str]:
    """One op of each kind, untraced then traced: outputs must be bit-identical."""
    problems = []
    for op in next(rounds(args.workload, args.seed, stream="transparency")):
        _, plain = loop.issue(op)
        plain_digest = plain and _digest(plain)
        tracer.install()
        try:
            _, traced = loop.issue(op)
        finally:
            tracer.uninstall()
        if plain is None or traced is None or _digest(traced) != plain_digest:
            problems.append(f"{op.kind}: traced output differs from untraced output")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "duality_sim" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Whether the kernel can back a large array with huge pages depends on
    # the host's memory fragmentation at the moment, which moved one op's
    # median by up to 25% between processes; with ordinary pages, runs
    # compare.  Set before numpy is first imported, and inherited by probes.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

    work = BENCH_DIR / f".work-{os.getpid()}"
    try:
        if args.setup_probe:
            return _probe(args, work)
        return _benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _benchmark(args, work: Path) -> int:
    setup, setup_failed = ([], 0) if args.trace else measure_setup(args)

    from reference import verify
    from tracing import Tracer

    from duality_sim import runner

    loop = Loop(runner, work)
    # first calls of every kind happen here, untimed; set-up covers them
    for op in next(rounds(args.workload, args.seed, stream="warmup")):
        loop.issue(op)
    problems = check_transparency(args, loop, Tracer()) if args.trace else []
    warm_failed = setup_failed + loop.failed
    loop.attempted = loop.failed = 0

    tracer = Tracer() if args.trace else None
    plain, traced, traced_ids = run_rounds(args, loop, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    op_ms = [ms for times in plain.values() for ms in times]
    p50 = statistics.median(op_ms)
    if args.trace:
        traced_p50 = statistics.median(ms for times in traced.values() for ms in times)
        metrics = tracer.metrics(traced_ids)
        metrics["tracing.overhead_pct"] = (100.0 * (traced_p50 / p50 - 1.0), "%")
        tail_pct = None
    else:
        tail, tail_pct = tail_percentile(op_ms)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_ms_p50": (p50, "ms"),
            "op_ms_tail": (tail, "ms"),
            "ops_per_s": (1e3 * len(op_ms) / sum(op_ms), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    reference = verify(runner, work / "ref")
    kinds = {kind: len(plain.get(kind, [])) + len(traced.get(kind, [])) for kind in
             sorted(set(plain) | set(traced))}
    env = environment(args, kinds, tail_pct)
    if tracer is not None:
        env["absent_layers"] = tracer.absent

    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for kind, times in sorted(plain.items()):
        print(f"# kind {kind:<24} n={len(times):<4} p50 {statistics.median(times):9.2f} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{'':<48} op_ms_tail is p{tail_pct:.2f} of n={len(op_ms)} ops "
              f"({TAIL_BEYOND} above); setup_s is the median of {SETUP_PROBES}: "
              + ", ".join(f"{s:.3f}" for s in setup))
    print(f"{'failed_frac':<48} {loop.failed / loop.attempted:14.6g} "
          f"({loop.failed}/{loop.attempted} ops; {warm_failed} failed in set-up and warm-up)")
    print(f"{'reference':<48} {len(reference)} mismatches")
    for problem in loop.problems + problems + reference:
        print(f"# FAIL {problem}")

    correct = not (loop.failed or warm_failed or problems or reference)
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if reference else 0


if __name__ == "__main__":
    sys.exit(main())
