import math

import numpy as np
import pytest

from duality_sim.interferometer import LEVEL_INDEX, GridSpec, JointState, interact
from duality_sim.runtime import openblas_threads

ALPHA = math.sqrt(8.0)

# reduced numerics for module tests that do not check spec tolerances
SMALL_NUMERIC = {
    "n_max": 48,
    "grid": {"x_min": -12.0, "x_max": 14.0, "n_points": 2048},
}


@pytest.fixture(scope="session")
def default_grid():
    return GridSpec()


@pytest.fixture
def blas_threads():
    """Reads numpy's OpenBLAS thread count; sets it to 2 for the test."""
    setter = openblas_threads()
    if setter is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    original = setter(2)

    def count():
        current = setter(1)
        setter(current)
        return current

    yield count
    setter(original)


# one-row states live on a grid with dx = 1, so a row's weight is its
# field's weight; row 8 sits at x = 0 (top slit side), row 9 at x = 1
# (bottom slit side)
ROW_GRID = GridSpec(-8.0, 8.0, 16)
SLIT_ROW = {"top": 8, "bottom": 9}


def kick_row(level, field, params, slit="top", mode="dispersive", tail_tol=1e-9):
    """interact on the one-row state |level> (x) field beside one slit.

    The slit kick evaluates the map exactly at that slit's centre: the
    common antinode on top, the common node at the bottom.  Returns the
    input level's amplitudes, the other level's (the cross branch) and the
    interacted state.
    """
    amps = np.zeros((1, 2, field.size), dtype=complex)
    amps[0, LEVEL_INDEX[level]] = field
    state = JointState(grid=ROW_GRID, amps=amps, start=SLIT_ROW[slit])
    out = interact(state, params, mode=mode, tail_tol=tail_tol)
    other = "c" if level == "b" else "b"
    return out.amps[0, LEVEL_INDEX[level]], out.amps[0, LEVEL_INDEX[other]], out
