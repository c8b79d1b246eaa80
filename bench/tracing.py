"""Per-layer spans and work counts, recorded from outside the library.

Each traced function is wrapped wherever a caller looks it up: the home
module's function object is replaced in every ``duality_sim`` module that
binds it (``from .interferometer import interact`` makes a second binding
in ``runner``), and methods are replaced on their class.  Nothing under
``src/`` changes, and a function a refactor deletes is reported as an
absent layer instead of failing the run.

A span holds (layer, start, end, parent span, op id); spans stay in memory
until the run ends.  A span's self time is its duration minus the time its
direct child spans cover; since the library is single-threaded, children
never overlap, so that is the sum of their durations.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# default NumericSpec.tail_tolerance: eigenvalue weight below this is noise
TAIL_TOLERANCE = 1e-9


@dataclass
class Span:
    layer: str
    start: int
    end: int
    parent: int | None
    op: int


def self_times(spans: list[Span]) -> list[int]:
    """Duration of each span minus the part its direct children cover."""
    covered = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def numerical_rank(factors: np.ndarray, dx: float, tol: float = TAIL_TOLERANCE) -> int:
    """Columns needed to keep all but ``tol`` of the weight of rho = L L^dag."""
    flat = factors.reshape(-1, factors.shape[-1])
    weights = np.linalg.eigvalsh((flat.conj().T @ flat) * dx)[::-1].clip(min=0.0)
    tail = np.cumsum(weights[::-1])[::-1]  # tail[r] = weight of eigenvalues r, r+1, ...
    return int(np.count_nonzero(tail > tol * tail[0]))


# Work counters read from a call's arguments: each maps the bound arguments
# to {counter: amount}.  Counters that cost more than reading a shape are
# deferred to the end of the op (outside its timing) and keep a reference to
# their input until then.
def _multiplier_counts(args):
    x = np.asarray(args["x"])
    return {"positions": x.size}, lambda: {"distinct": np.unique(x).size}


def _flight_counts(args):
    rho = args["rho"]
    factors = rho.factors
    return ({"columns": factors.shape[-1], "bytes": 2 * factors.nbytes},
            lambda: {"useful": numerical_rank(factors, rho.grid.dx)})


def _interact_counts(args):
    return {"bytes": 2 * args["state"].amps.nbytes}, None


def _pdf_counts(args):
    return {"chi_points": np.size(args["chi_samples"])}, None


def _husimi_counts(args):
    return {"points": np.size(args["x_axis"]) * np.size(args["y_axis"])}, None


# (layer, home module, qualified name, counter); two entries may share a layer
LAYERS = [
    ("runner.run", "duality_sim.runner", "run", None),
    ("runner.most_probable_chi", "duality_sim.runner", "most_probable_chi", None),
    ("runner.epsilon_sweep", "duality_sim.runner", "epsilon_sweep", None),
    ("runner.write", "duality_sim.runner", "RunResult.write", None),
    ("runner.write", "duality_sim.fock", "QGrid.to_csv", None),
    ("evolution.branch_multipliers", "duality_sim.evolution", "branch_multipliers",
     _multiplier_counts),
    ("interferometer.build_initial", "duality_sim.interferometer", "build_initial", None),
    ("interferometer.interact", "duality_sim.interferometer", "interact", _interact_counts),
    ("interferometer.trace_out_field", "duality_sim.interferometer", "trace_out_field", None),
    ("interferometer.condition_on_quadrature", "duality_sim.interferometer",
     "condition_on_quadrature", None),
    ("interferometer.quadrature_pdf", "duality_sim.interferometer", "quadrature_pdf",
     _pdf_counts),
    ("interferometer.field_density", "duality_sim.interferometer", "field_density", None),
    ("interferometer.AtomDensity.purity", "duality_sim.interferometer", "AtomDensity.purity",
     None),
    ("fock.quadrature_projector", "duality_sim.fock", "quadrature_projector", None),
    ("fock.husimi_q", "duality_sim.fock", "husimi_q", _husimi_counts),
    ("propagation.free_propagate", "duality_sim.propagation", "free_propagate", _flight_counts),
    ("propagation.screen_distribution", "duality_sim.propagation", "screen_distribution", None),
    ("propagation.fringe_visibility", "duality_sim.propagation", "fringe_visibility", None),
]

LAYER_NAMES = list(dict.fromkeys(layer for layer, *_ in LAYERS))

# per-op work counts reported per layer, and the useful/attempted ratios
COUNT_METRICS = {
    "evolution.branch_multipliers.positions": ("count", "evolution.branch_multipliers", "positions"),
    "interferometer.interact.bytes": ("B_computed", "interferometer.interact", "bytes"),
    "interferometer.quadrature_pdf.chi_points": ("count", "interferometer.quadrature_pdf",
                                                 "chi_points"),
    "fock.husimi_q.points": ("count", "fock.husimi_q", "points"),
    "propagation.free_propagate.columns": ("count", "propagation.free_propagate", "columns"),
    "propagation.free_propagate.bytes": ("B_computed", "propagation.free_propagate", "bytes"),
}
RATIO_METRICS = {
    "evolution.branch_multipliers.distinct_fraction": ("evolution.branch_multipliers",
                                                       "distinct", "positions"),
    "propagation.free_propagate.useful_fraction": ("propagation.free_propagate",
                                                   "useful", "columns"),
}


def _resolve(module, qualname: str):
    """(owner, attribute) for a dotted name inside a module, or None."""
    *path, attr = qualname.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Installs the wrappers and collects spans and counts per op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._deferred: list[tuple[int, str, object]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = 0
        self.absent: list[str] = []

    def _wrap(self, layer: str, fn, counter):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self._count(layer, counter, signature, args, kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            span = Span(layer, time.perf_counter_ns(), 0, parent, self.op)
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
        return wrapper

    def _count(self, layer, counter, signature, args, kwargs):
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            now, later = counter(bound.arguments)
        except (TypeError, KeyError, AttributeError):
            return  # the signature changed; the counts of this layer read 0
        for key, value in now.items():
            self.counts[self.op][f"{layer}.{key}"] += value
        if later is not None:
            self._deferred.append((self.op, layer, later))

    def install(self) -> None:
        """Wrap every layer that exists; record the ones that do not."""
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "duality_sim" or name.startswith("duality_sim.")]
        for layer, module_name, qualname, counter in LAYERS:
            found = _resolve(sys.modules.get(module_name), qualname)
            if found is None:
                self.absent.append(f"{module_name}.{qualname}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, counter)
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original]
            for target in owners:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def finish_op(self) -> None:
        """Run the deferred counters of the op that just ended."""
        for op, layer, later in self._deferred:
            for key, value in later().items():
                self.counts[op][f"{layer}.{key}"] += value
        self._deferred.clear()

    def metrics(self, ops: list[int]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the given traced ops, as {name: (value, unit)}."""
        calls = defaultdict(lambda: defaultdict(int))
        self_ns = defaultdict(lambda: defaultdict(int))
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span.layer][span.op] += 1
            self_ns[span.layer][span.op] += own
        n = len(ops)
        out = {}
        for layer in LAYER_NAMES:
            per_op = [self_ns[layer][op] / 1e6 for op in ops if calls[layer][op]]
            out[f"{layer}.calls"] = (sum(calls[layer][op] for op in ops) / n, "count")
            out[f"{layer}.self_ms"] = (statistics.median(per_op) if per_op else 0.0, "ms")
        totals = defaultdict(float)
        for op in ops:
            for key, value in self.counts[op].items():
                totals[key] += value
        for name, (unit, layer, key) in COUNT_METRICS.items():
            out[name] = (totals[f"{layer}.{key}"] / n, unit)
        for name, (layer, useful, attempted) in RATIO_METRICS.items():
            base = totals[f"{layer}.{attempted}"]
            out[name] = (totals[f"{layer}.{useful}"] / base if base else 0.0, "ratio")
        return out
