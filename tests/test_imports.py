"""Import footprint: `import graphdpp` must stay light."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# scipy.linalg costs about 7.6 MB of resident memory, scipy.sparse.linalg
# (also pulled in by scipy.sparse.csgraph) about 11 MB, in every process.
HEAVY = ("scipy.linalg", "scipy.sparse.linalg")


def test_import_loads_no_scipy_solvers():
    code = f"import sys, graphdpp; print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
