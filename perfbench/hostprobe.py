"""Host-speed probe: fixed reference work, independent of graphdpp.

The benchmark runs on a shared host whose speed drifts in phases that last
from seconds to minutes: the same request runs up to about twice as slow in
a slow phase. Timing the probe just before and just after each request
measures the host's speed around it, and dividing the request's wall time
by it removes most of that drift. The probe mixes the program's two kinds
of work: short numpy calls driven from a Python loop, as in the desk-scale
solvers and samplers, and sparse products over a block of vectors, as in
the sketch and the large-n solver.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

# Probe duration that defines one "reference second": a request whose wall
# time equals k probe durations is reported as k * REFERENCE_PROBE_S seconds.
# 2 ms is about the probe's duration on the 2-core Xeon host the benchmark was
# tuned on, in its fast phase, so reported times read as seconds there.
REFERENCE_PROBE_S = 2e-3
_REPEATS = 3


def _random_symmetric(n, per_row, rng):
    rows = rng.integers(0, n, n * per_row)
    cols = rng.integers(0, n, n * per_row)
    a = sp.csr_matrix((rng.random(n * per_row), (rows, cols)), shape=(n, n))
    return (a + a.T).tocsr()


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = _random_symmetric(100, 8, rng)
        self.vec = rng.standard_normal(100)
        self.big = _random_symmetric(10_000, 8, rng)
        self.block = rng.standard_normal((10_000, 8))

    def _once(self):
        t0 = time.perf_counter()
        x = self.vec
        for _ in range(60):
            y = self.small @ x
            x = y / float(np.sqrt(y @ y))
        self.big @ self.block
        return time.perf_counter() - t0

    def __call__(self):
        """Median of a few probe repeats, in seconds."""
        return statistics.median(self._once() for _ in range(_REPEATS))


def reference_seconds(wall_s, probe_before, probe_after):
    """Wall time rescaled to the host speed at which the probe takes
    REFERENCE_PROBE_S."""
    return wall_s * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2.0)
