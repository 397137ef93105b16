"""Absorbing loop-erased random walks: determinantal node sampling without
any spectral computation, and the empirical tuning of the absorption rate."""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .dpp import SamplingSet
from .errors import InvalidParams, NoConvergence, WatchdogExceeded
from .graphs import Graph
from .spectral import SpectralBasis

WATCHDOG_STEPS = 10**9
_RAND_BUFFER = 1 << 18


class _WalkTables:
    """Per-graph transition tables for the absorbed walk.

    From node i the walk moves to neighbor j with probability
    w_ij / (d_i + q) and is absorbed with probability q / (d_i + q).
    Plain Python lists keep per-step cost flat; the unit-weight fast path
    replaces the CDF bisection with one multiply.
    """

    def __init__(self, g: Graph, q: float):
        adj = g.adjacency()
        deg = g.degrees()
        self.n = g.n
        self.indptr = adj.indptr.tolist()
        self.indices = adj.indices.tolist()
        self.degree_count = np.diff(adj.indptr).tolist()
        absorb = q / (deg + q)
        self.absorb = absorb.tolist()
        self.unit = g.has_unit_weights()
        if self.unit:
            # neighbor index = floor(u / (1 - absorb) * deg) when not absorbed
            with np.errstate(divide="ignore"):
                scale = np.where(absorb < 1.0, 1.0 / (1.0 - absorb), 0.0)
            self.scale = (scale * np.diff(adj.indptr)).tolist()
            self.cdf = None
        else:
            # per-row neighbor CDF, the absorbing mass implicitly filling [1 - pa, 1)
            rows = []
            data = adj.data
            for i in range(self.n):
                lo, hi = adj.indptr[i], adj.indptr[i + 1]
                rows.append(np.cumsum(data[lo:hi]) / (deg[i] + q))
            flat = np.concatenate(rows) if rows else np.empty(0)
            self.cdf = flat.tolist()
            self.scale = None


def wilson_sample(
    g: Graph,
    q: float,
    rng=None,
    *,
    order=None,
    watchdog: int = WATCHDOG_STEPS,
    _tables: _WalkTables | None = None,
) -> SamplingSet:
    """Sample nodes by loop-erased random walks absorbed at rate q.

    Walks start from the first unvisited node (in `order`, default
    ascending index) and run until they hit either the absorbing state or
    an already-retained node. Loops are erased by the successor-pointer
    (cycle popping) rule: each node remembers its latest outgoing step, so
    revisits overwrite earlier loops in O(1). When a walk is absorbed, the
    node it left from becomes part of the output. The output is
    distributed as the determinantal process whose kernel has eigenvalues
    q / (q + lambda) on the graph Fourier basis, for any scan order.

    Weights are left unfilled; recovery callers attach inclusion
    probabilities from an explicit kernel or from the sketch estimator.
    """
    if q <= 0:
        raise InvalidParams("q must be positive")
    rng = np.random.default_rng(rng)
    tables = _tables if _tables is not None else _WalkTables(g, q)
    n = tables.n
    indptr = tables.indptr
    indices = tables.indices
    degree_count = tables.degree_count
    absorb = tables.absorb
    unit = tables.unit
    scale = tables.scale
    cdf = tables.cdf

    if order is None:
        scan = range(n)
    elif isinstance(order, str) and order == "random":
        scan = rng.permutation(n).tolist()
    else:
        scan = list(order)

    nxt = [-1] * n
    retained = bytearray(n)
    roots = []
    # the buffer grows toward the cap so short runs stay cheap
    buf_size = min(max(4 * n, 64), _RAND_BUFFER)
    buf = rng.random(buf_size).tolist()
    pos = 0
    steps = 0

    for start in scan:
        u = start
        while not retained[u]:
            if pos == buf_size:
                buf_size = min(buf_size * 4, _RAND_BUFFER)
                buf = rng.random(buf_size).tolist()
                pos = 0
            x = buf[pos]
            pos += 1
            steps += 1
            if steps > watchdog:
                raise WatchdogExceeded(f"walk exceeded {watchdog} total steps")
            pa = absorb[u]
            if x >= 1.0 - pa:
                nxt[u] = -2
                break
            if unit:
                j = int(x * scale[u])
                if j >= degree_count[u]:
                    j = degree_count[u] - 1
                v = indices[indptr[u] + j]
            else:
                lo = indptr[u]
                j = bisect_right(cdf, x, lo, lo + degree_count[u]) - lo
                if j >= degree_count[u]:
                    j = degree_count[u] - 1
                v = indices[lo + j]
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
    """Exact expected output size from the Laplacian spectrum (desk-scale oracle)."""
    if q <= 0:
        raise InvalidParams("q must be positive")
    return float(np.sum(q / (q + basis.eigenvalues)))


def _component_count(g: Graph) -> int:
    """Number of connected components of g.

    Min-label hooking with pointer jumping (Shiloach-Vishkin) over the
    edge arrays: each round hooks every root to the smallest root across
    its edges, then flattens the trees, until nothing moves. Kept in numpy
    because importing scipy.sparse.csgraph also loads scipy.sparse.linalg,
    which costs the process about 11 MB and 0.2 s of import time.
    """
    u = np.concatenate([g.edge_i, g.edge_j])
    v = np.concatenate([g.edge_j, g.edge_i])
    parent = np.arange(g.n)
    while True:
        hooked = parent.copy()
        np.minimum.at(hooked, parent[u], parent[v])
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, parent):
            return int(np.count_nonzero(parent == np.arange(g.n)))
        parent = hooked


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
    components = _component_count(g)
    if target_k + band < components:
        raise NoConvergence(
            f"mean size {target_k} +/- {band:.3g} is below the {components} connected components"
        )
    rng = np.random.default_rng(rng)
    q = max(target_k * float(g.degrees().mean()) / g.n, 1e-12)
    lo = hi = None
    for probes in range(1, max_probes + 1):
        tables = _WalkTables(g, q)
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
