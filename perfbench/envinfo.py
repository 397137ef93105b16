"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess

import numpy as np
import scipy

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads():
    """Thread count reported by each bundled OpenBLAS (numpy's and scipy's)."""
    found = {}
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in _GET_THREADS:
                func = getattr(lib, symbol, None)
                if func is not None:
                    func.restype, func.argtypes = ctypes.c_int, []
                    found[f"{pkg.__name__}:{os.path.basename(path)}"] = func()
                    break
    return found


def _command_output(args, cwd=None):
    try:
        out = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def l3_bytes():
    value = _command_output(["getconf", "LEVEL3_CACHE_SIZE"])
    return int(value) if value and value.isdigit() else None


def git_revision(root):
    """HEAD of the checkout, or None where it is not a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    return _command_output(["git", "rev-parse", "HEAD"], cwd=root)


def environment(root, workload, seed, sketch_bytes):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": git_revision(root),
        "l3_bytes": l3_bytes(),
        "sketch_bytes_computed": sketch_bytes,
    }
