"""One BLAS thread in numpy's and scipy's bundled OpenBLAS.

numpy and scipy wheels each bundle their own OpenBLAS, each with its own
thread pool sized to the CPU count.  The package's work is many small
least-squares solves and the small products of a small MLP: a second BLAS
thread adds CPU but no speed, and two pools contend for the same cores,
worse still under a process pool.  ``pin_one_thread``, called once when
``chanident`` is imported, sets every bundled pool to one thread for the
rest of the process, whatever ``OPENBLAS_NUM_THREADS`` says; forked workers
inherit the count and spawned ones import the package again.  The libraries
are found among the mapped files of this process and driven through
``ctypes``; where none is found, nothing is set.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

# The bundled libraries' file names start with this; numpy's is the build
# with 64-bit integers, whose symbols end in "64_".
_LIBRARY_PREFIX = "libscipy_openblas"
_SYMBOL_SUFFIXES = ("64_", "")


@dataclass(frozen=True)
class Pool:
    """The thread-count controls of one loaded OpenBLAS."""

    library: str  # file name, e.g. libscipy_openblas64_-32a4b2a6.so
    get: Callable[[], int]
    set: Callable[[int], None]


def _mapped_paths() -> list[str]:
    """Paths of the files mapped into this process, in order of first map."""
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    fields = (line.split(maxsplit=5) for line in lines)
    return list(dict.fromkeys(f[5] for f in fields if len(f) == 6 and f[5].startswith("/")))


def _controls(path: str) -> Pool | None:
    """The pool of the OpenBLAS at ``path``, or None if it has no controls."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for suffix in _SYMBOL_SUFFIXES:
        try:
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return Pool(os.path.basename(path), get, set_)
    return None


def find_pools(paths) -> tuple[Pool, ...]:
    """The pools of the bundled OpenBLAS libraries among ``paths``."""
    found = (_controls(p) for p in paths
             if os.path.basename(p).startswith(_LIBRARY_PREFIX))
    return tuple(p for p in found if p is not None)


@lru_cache(maxsize=1)
def pools() -> tuple[Pool, ...]:
    """The bundled pools loaded in this process; looked up once, on first
    use, after numpy and scipy.linalg are imported."""
    import numpy  # noqa: F401  (both libraries must be mapped to be found)
    import scipy.linalg  # noqa: F401

    return find_pools(_mapped_paths())


def pin_one_thread() -> None:
    """Set every bundled pool to one thread."""
    for p in pools():
        p.set(1)


def describe() -> list[dict]:
    """Each pool's library and thread count; for a run's manifest."""
    return [{"library": p.library, "threads": p.get()} for p in pools()]
