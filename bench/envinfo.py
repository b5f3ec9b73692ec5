"""The environment a run saw: versions, BLAS thread settings as found (never
set here), CPU count, source revision and the host's CPU steal time."""

from __future__ import annotations

import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def steal_seconds() -> float | None:
    """Cumulative CPU steal time of the host over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _revision(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(np),
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _revision(root),
    }
