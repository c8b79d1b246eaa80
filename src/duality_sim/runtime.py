"""Run-wide settings of the native libraries beneath numpy; each is a no-op without its library.

runner.run and runner.epsilon_sweep apply both where a run begins; no layer below sets either.
OpenBLAS workers speed a run's small products up little, then spin for ~0.1 s holding a
second core, so one_blas_thread holds a whole run to one thread.  By default glibc unmaps
freed multi-MB arrays, so each run faulted its pages in afresh.
"""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path

import numpy as np

__all__ = ["openblas_threads", "one_blas_thread", "keep_freed_memory"]


@functools.cache
def openblas_threads():
    """Setter of numpy's bundled OpenBLAS thread count (returns the old count), or None."""
    root = Path(np.__file__).resolve().parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            setter = getattr(ctypes.CDLL(str(lib)), "openblas_set_num_threads_local", None)
        except OSError:
            continue
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
            return setter
    return None


def one_blas_thread(func):
    """Run func with numpy's OpenBLAS on one thread, then restore its count."""
    @functools.wraps(func)
    def limited(*args, **kwargs):
        setter = openblas_threads()
        if setter is None:
            return func(*args, **kwargs)
        previous = setter(1)
        try:
            return func(*args, **kwargs)
        finally:
            setter(previous)
    return limited


@functools.cache
def keep_freed_memory():
    """Once per process: glibc keeps freed blocks below 32 MiB, up to 128 MiB, for reuse."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD
