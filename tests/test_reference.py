"""The benchmark's fixed reference outputs, re-checked by the test suite.

bench/reference.py re-runs its recorded ops (the seven sphere cases at
stages 1-3, the two most-probable readouts, a local-kick run and an
epsilon-sweep point) and compares them with bench/reference.npz: patterns
and Husimi grids within 1e-12, a most-probable chi within 1e-9.  verify
only reads the recording; it never re-records.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import reference  # noqa: E402
from duality_sim import runner  # noqa: E402


def test_reference_outputs_are_unchanged(tmp_path):
    assert reference.verify(runner, tmp_path) == []
