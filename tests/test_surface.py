"""The names other code looks up in the library still resolve.

bench/tracing.py wraps each measured layer by name and reports a layer it
cannot find as absent, whose per-layer metrics then read zero; the package
re-exports names from its modules, and each module lists its own in
__all__.  A deletion that leaves any of these behind fails here.
"""

import ast
import importlib
import sys
from pathlib import Path

import duality_sim

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracing import Tracer  # noqa: E402

MODULES = ("duality", "errors", "evolution", "fock", "interferometer", "propagation", "runner")


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
