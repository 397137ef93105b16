"""Absorbing loop-erased random walks: determinantal node sampling without
any spectral computation, and the empirical tuning of the absorption rate."""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .dpp import SamplingSet, wilson_kernel_explicit
from .errors import InvalidParams, NoConvergence, WatchdogExceeded
from .graphs import Graph, component_labels
from .spectral import SpectralBasis

# Caps the walk steps of one wilson_sample call, not its running time: the
# expected step count grows like n (d_max + q) / q, so a graph with
# degree / q near 1e10 walks for minutes before the cap raises.
WATCHDOG_STEPS = 10**9
_RAND_BUFFER = 1 << 18


class _WalkTables:
    """Per-graph tables for the absorbed walk; none of them depends on q.

    Row u lists the neighbors of u with their running weight sums
    c_1 <= ... <= c_d, the last equal to the degree d_u up to round-off.
    One uniform draw x sets y = x (d_u + q): the walk moves to the first
    neighbor whose c_j exceeds y, which has probability w_uv / (d_u + q),
    and is absorbed when none does, with probability q / (d_u + q). On
    unit weights c_j = j, so the neighbor index is int(y) with no search.
    Plain Python lists keep the per-step cost flat.
    """

    def __init__(self, g: Graph):
        adj = g.adjacency()
        self.n = g.n
        self.indptr = adj.indptr.tolist()
        self.indices = adj.indices.tolist()
        self.degree = g.degrees().tolist()
        self.cum = None  # unit weights need no running sums
        if not g.has_unit_weights():
            ptr = adj.indptr
            rows = [np.cumsum(adj.data[ptr[i] : ptr[i + 1]]) for i in range(g.n)]
            self.cum = np.concatenate(rows).tolist()


def wilson_sample(g: Graph, q: float, rng=None, *, _tables: _WalkTables | None = None) -> SamplingSet:
    """Sample nodes by loop-erased random walks absorbed at rate q.

    Walks start from the first unvisited node in ascending index order and
    run until they hit either the absorbing state or an already-retained
    node. Each step is one draw y = x (d_u + q) over the node's running
    weight sums: the walk moves to the first neighbor whose sum exceeds y
    and is absorbed when y passes the row end. Loops are erased by the
    successor-pointer (cycle popping) rule: each node remembers its latest
    outgoing step, so revisits overwrite earlier loops in O(1). When a
    walk is absorbed, the node it left from becomes part of the output.
    The output is distributed as the determinantal process whose kernel
    has eigenvalues q / (q + lambda) on the graph Fourier basis, whatever
    the scan order. A call that takes more than WATCHDOG_STEPS steps
    raises WatchdogExceeded. The watchdog counts steps, not time: with
    degree / q near 1e10 a call runs for minutes before it raises.

    Weights are left unfilled; recovery callers attach inclusion
    probabilities from an explicit kernel or from the sketch estimator.
    """
    if not 0 < q < np.inf:
        raise InvalidParams("q must be positive and finite")
    rng = np.random.default_rng(rng)
    tables = _tables if _tables is not None else _WalkTables(g)
    n = tables.n
    indptr = tables.indptr
    indices = tables.indices
    degree = tables.degree
    cum = tables.cum
    watchdog = WATCHDOG_STEPS

    nxt = [-1] * n
    retained = bytearray(n)
    roots = []
    # the buffer grows toward the cap so short runs stay cheap
    buf_size = min(max(4 * n, 64), _RAND_BUFFER)
    buf = rng.random(buf_size).tolist()
    pos = 0
    steps = 0

    for start in range(n):
        u = start
        while not retained[u]:
            if pos == buf_size:
                buf_size = min(buf_size * 4, _RAND_BUFFER)
                buf = rng.random(buf_size).tolist()
                pos = 0
            y = buf[pos] * (degree[u] + q)
            pos += 1
            steps += 1
            if steps > watchdog:
                raise WatchdogExceeded(f"walk exceeded {watchdog} total steps")
            end = indptr[u + 1]
            j = indptr[u] + int(y) if cum is None else bisect_right(cum, y, indptr[u], end)
            if j >= end:
                nxt[u] = -2
                break
            v = indices[j]
            nxt[u] = v
            u = v
        u = start
        while not retained[u]:
            retained[u] = 1
            v = nxt[u]
            if v == -2:
                roots.append(u)
                break
            u = v
    return SamplingSet(nodes=np.asarray(roots, dtype=np.int64), weights=None, method="wilson")


def expected_sample_size(basis: SpectralBasis, q: float) -> float:
    """Exact expected output size, the trace of the rate-q walk kernel (desk-scale oracle)."""
    return float(np.sum(wilson_kernel_explicit(basis, q).eigenvalues))


def tune_q(
    g: Graph,
    target_k: int,
    rng=None,
    runs_per_probe: int = 64,
    tol: float = 0.1,
    max_probes: int = 30,
) -> float:
    """Find an absorption rate whose mean sample size matches target_k.

    The expected size is monotone increasing in q, so the search doubles
    or halves q until the target is bracketed, then bisects on log q;
    every probe estimates the mean over `runs_per_probe` fresh walk runs.
    Accepts the first q whose probe mean lands within tol * target_k of
    the target. Every connected component keeps at least one root, so a
    target below the component count raises NoConvergence at once.
    """
    if not 1 <= target_k <= g.n:
        raise InvalidParams(f"target_k must lie in [1, {g.n}]")
    if runs_per_probe < 1 or max_probes < 1:
        raise InvalidParams("probe counts must be positive")
    band = tol * target_k
    components = int(np.count_nonzero(component_labels(g) == np.arange(g.n)))
    if target_k + band < components:
        raise NoConvergence(
            f"mean size {target_k} +/- {band:.3g} is below the {components} connected components"
        )
    rng = np.random.default_rng(rng)
    q = max(target_k * float(g.degrees().mean()) / g.n, 1e-12)
    lo = hi = None
    tables = _WalkTables(g)
    for probes in range(1, max_probes + 1):
        sizes = [len(wilson_sample(g, q, rng, _tables=tables)) for _ in range(runs_per_probe)]
        mean = sum(sizes) / runs_per_probe
        if abs(mean - target_k) <= band:
            return q
        if mean < target_k:
            lo = q
        else:
            hi = q
        if hi is None:
            q *= 2.0
        elif lo is None:
            q /= 2.0
        else:
            q = float(np.sqrt(lo * hi))
    raise NoConvergence(f"no q reached mean size {target_k} +/- {band:.3g} in {probes} probes")
