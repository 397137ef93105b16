"""Import footprint: `import graphdpp` must stay light."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# scipy.linalg costs about 7.6 MB of resident memory, scipy.sparse.linalg
# (also pulled in by scipy.sparse.csgraph) about 11 MB, in every process.
HEAVY = ("scipy.linalg", "scipy.sparse.linalg")


def _import_and_print(expr):
    """Import graphdpp in a fresh interpreter and return what `expr` prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import sys, threading, graphdpp; print({expr})"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_import_loads_no_scipy_solvers():
    assert _import_and_print(f"' '.join(m for m in {HEAVY!r} if m in sys.modules)") == []


def test_import_starts_no_thread():
    # the estimators start their worker threads per call, never at import
    assert _import_and_print("threading.active_count()") == ["1"]
