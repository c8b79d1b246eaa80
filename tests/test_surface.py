"""The names other code looks up in the library still resolve.

bench/tracing.py wraps each measured layer by name and reports a layer it
cannot find as absent, whose per-layer metrics then read zero; its work
counters read arguments by name, and a renamed argument zeroes that
layer's counts just as silently.  The package re-exports names from its
modules, and each module lists its own in __all__.  A deletion or rename
that leaves any of these behind fails here.  So does a raise of any class
but the two that the CLI maps to its exit codes.
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
from duality_sim import errors, runner  # noqa: E402

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


def test_every_raise_names_one_of_the_two_failure_classes():
    # cli.main maps ConfigError to exit 2 and NumericError to exit 3; any other
    # exception the library raised would end a run with exit 1 and a traceback
    package = Path(duality_sim.__file__).parent
    raised = {}
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc) if exc is not None else "a bare raise"
                raised.setdefault(name, []).append(f"{path.name}:{node.lineno}")
    assert set(raised) == {"ConfigError", "NumericError"}, raised
    classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert classes == {"ConfigError", "NumericError"}
    assert errors.ConfigError.__bases__ == errors.NumericError.__bases__ == (Exception,)


def test_only_interferometer_reads_the_joint_state_amplitudes():
    # every other module reads a joint state through JointState.field_gram or
    # interferometer's readouts, so no readout grows a private contraction of its layout
    package = Path(duality_sim.__file__).parent
    readers = {path.stem for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "amps"}
    assert readers == {"interferometer"}


def test_only_interferometer_contracts_the_joint_state():
    # JointState.atom_columns, a pass over the whole joint state, serves the
    # readouts; every other module reads the field Gram, computed once per state
    package = Path(duality_sim.__file__).parent
    callers = {path.stem for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "atom_columns"}
    assert callers == {"interferometer"}


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


def test_only_the_writer_fallback_formats_at_nine_digits():
    # every CSV cell, the y-axis header of QGrid.to_csv included, goes through
    # the writer's numpy formatter; CPython's %.9g formats only the cells it
    # leaves to its fallback
    def formats(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                continue  # a docstring formats nothing
            if isinstance(child, ast.Constant) and ".9g" in str(child.value):
                yield ".".join(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from formats(child, scope + (child.name,) if named else scope)

    package = Path(duality_sim.__file__).parent
    found = {name for path in package.glob("*.py")
             for name in formats(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))}
    assert found == {"fock._csv_rows"}


def test_only_the_run_entry_points_set_run_wide_policy():
    # runner.run and runner.epsilon_sweep set the OpenBLAS thread count and the
    # allocator where a run begins; no layer below them applies a guard of its own
    package = Path(duality_sim.__file__).parent
    importers, decorated, uses = set(), set(), 0
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                if any(name.split(".")[-1] == "runtime" for name in names):
                    importers.add(path.stem)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any("one_blas_thread" in ast.unparse(d) for d in node.decorator_list):
                    decorated.add(f"{path.stem}.{node.name}")
            elif path.stem != "runtime" and "one_blas_thread" in (
                    getattr(node, "id", None), getattr(node, "attr", None)):
                uses += 1
    assert importers == {"runner"}
    assert decorated == {"runner.run", "runner.epsilon_sweep"}
    assert uses == len(decorated), "one_blas_thread is used beside the two decorators"
