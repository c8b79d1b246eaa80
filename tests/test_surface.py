"""The names other code looks up in the library still resolve.

bench/tracing.py wraps each measured layer by name and reports a layer it
cannot find as absent, whose per-layer metrics then read zero; its work
counters read arguments by name, and a renamed argument zeroes that
layer's counts just as silently.  The package re-exports names from its
modules, and each module lists its own in __all__.  A deletion or rename
that leaves any of these behind fails here.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import duality_sim

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracing import LAYERS, Tracer, _resolve  # noqa: E402

from conftest import SMALL_NUMERIC  # noqa: E402
from duality_sim import runner  # noqa: E402

MODULES = ("duality", "errors", "evolution", "fock", "interferometer", "propagation", "runner",
           "runtime")

# the arguments that the work counters of bench/tracing.py read, by layer
COUNTED_ARGUMENTS = {
    "evolution.branch_multipliers": {"x"},
    "interferometer.interact": {"state"},
    "interferometer.quadrature_pdf": {"chi_samples"},
    "propagation.free_propagate": {"rho"},
    "fock.husimi_q": {"x_axis", "y_axis"},
}


def test_every_traced_layer_resolves():
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_every_export_exists():
    init = Path(duality_sim.__file__).read_text(encoding="utf-8")
    for node in ast.parse(init).body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"duality_sim.{node.module}")
            for alias in node.names:
                assert hasattr(duality_sim, alias.name), alias.name
                assert alias.name in getattr(module, "__all__", [alias.name]), alias.name
    for name in MODULES:
        module = importlib.import_module(f"duality_sim.{name}")
        missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
        assert missing == [], f"duality_sim.{name}.__all__ names {missing}"


def test_counted_arguments_bind_to_the_wrapped_signatures():
    counted = {}
    for layer, module_name, qualname, counter in LAYERS:
        if counter is None:
            continue
        owner, attr = _resolve(importlib.import_module(module_name), qualname)
        counted[layer] = set(inspect.signature(getattr(owner, attr)).parameters)
    assert set(counted) == set(COUNTED_ARGUMENTS)
    for layer, names in COUNTED_ARGUMENTS.items():
        assert names <= counted[layer], f"{layer} no longer takes {names - counted[layer]}"


def test_every_work_counter_counts_a_traced_run():
    config = runner.ExperimentConfig.from_dict({
        "stage": 2, "case": "VDC", "numeric": SMALL_NUMERIC, "emit_qgrid": True,
        "readout": {"type": "quadrature", "theta": 0.0, "chi": "most-probable"}})
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 1
        runner.run(config)
        tracer.finish_op()
    finally:
        tracer.uninstall()
    layers = {key.rsplit(".", 1)[0] for key, value in tracer.counts[1].items() if value > 0}
    assert layers == set(COUNTED_ARGUMENTS)
