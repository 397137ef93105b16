"""Absorbing loop-erased random walks: determinantal node sampling without
any spectral computation, the empirical tuning of the absorption rate, and
its exact solution where the spectrum is already in hand."""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .dpp import SamplingSet, wilson_kernel_explicit
from .errors import InvalidParams, NoConvergence, ShapeMismatch, WatchdogExceeded
from .graphs import Graph, component_labels, count
from .spectral import SpectralBasis

# Caps the walk steps of one wilson_sample call, not its running time: the expected
# step count grows like n (d_max + q) / q, so degree / q near 1e10 walks for minutes.
WATCHDOG_STEPS = 10**9
_RAND_BUFFER = 1 << 18


def _running_sums(adj) -> np.ndarray:
    """Running weight sums of every CSR row, added left to right as a per-row
    np.cumsum does: pass k adds entry k - 1 into entry k of the rows longer than k."""
    cum = adj.data.copy()
    pos, end = adj.indptr[:-1] + 1, adj.indptr[1:]
    while True:
        keep = pos < end
        pos, end = pos[keep], end[keep]
        if not len(pos):
            return cum
        cum[pos] += cum[pos - 1]
        pos += 1


def wilson_sample(g: Graph, q: float, rng=None) -> SamplingSet:
    """Sample nodes by loop-erased random walks absorbed at rate q.

    Walks start from the first unvisited node in ascending index order and
    run until they hit either the absorbing state or an already-retained
    node. Each step is one uniform draw x, y = x (d_u + q), against the
    running weight sums c_1 <= ... <= c_d = d_u (up to round-off) of u's
    adjacency row: the walk moves to the first neighbor whose c_j exceeds
    y, with probability w_uv / (d_u + q), and is absorbed when none does,
    with probability q / (d_u + q). On unit weights c_j = j, so the
    neighbor index is int(y) with no search; other weights bisect the sums.
    Loops are erased by the successor-pointer (cycle popping) rule: each
    node keeps its latest outgoing step, so revisits overwrite loops in
    O(1). An absorbed walk adds the node it left from to the output, which
    is the determinantal process with kernel eigenvalues q / (q + lambda)
    on the graph Fourier basis, whatever the scan order. A call that takes
    more than WATCHDOG_STEPS steps (steps, not seconds) raises WatchdogExceeded.

    Weights are left unfilled; recovery callers attach inclusion
    probabilities from an explicit kernel or from the sketch estimator.
    """
    if not 0 < q < np.inf:
        raise InvalidParams("q must be positive and finite")
    rng = np.random.default_rng(rng)
    adj = g.adjacency()
    # nnz-sized arrays stay numpy buffers behind memoryviews. indptr and the degrees,
    # read every step, become O(n) lists: a list read takes about half the time of a
    # memoryview read (25 against 42-65 ns for floats, 32-49 against 55-61 for ints)
    indptr = adj.indptr.tolist()
    indices = memoryview(adj.indices)
    degree = g.degrees().tolist()
    cum = None if g.has_unit_weights() else memoryview(_running_sums(adj))
    watchdog = WATCHDOG_STEPS

    nxt = [-1] * g.n
    retained = bytearray(g.n)
    roots = []
    # the buffer grows toward the cap so short runs stay cheap
    buf_size = min(max(4 * g.n, 64), _RAND_BUFFER)
    buf = rng.random(buf_size).tolist()
    pos = 0
    steps = 0

    for start in range(g.n):
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


def exact_q(g: Graph, basis: SpectralBasis, target_k: float) -> float:
    """Absorption rate whose expected sample size s(q) = sum q / (q + lambda_i)
    over the basis eigenvalues (expected_sample_size) is target_k within
    1e-9 target_k. The search is tune_q's, on exact sizes: start at target_k
    times the mean degree (the mean eigenvalue) over n, double or halve q
    until the target is bracketed, then bisect on log q. s rises from the
    component count to n, both met in the limit (an edgeless graph has
    s = n at every q); a target below the component count raises
    NoConvergence, as in tune_q.
    """
    if not 1 <= target_k <= g.n:
        raise InvalidParams(f"target_k must lie in [1, {g.n}]")
    if basis.n != g.n:
        raise ShapeMismatch(f"basis has {basis.n} eigenvalues for a graph of {g.n} nodes")
    components = int(np.count_nonzero(component_labels(g) == np.arange(g.n)))
    if target_k < components:
        raise NoConvergence(f"mean size {target_k} is below the {components} connected components")
    lam = basis.eigenvalues
    band = 1e-9 * target_k
    x = math.log(target_k * float(lam.mean()) / g.n or 1.0)  # log q
    lo = hi = None
    # exp stays finite and nonzero on the range
    while -700.0 < x < 700.0:
        q = math.exp(x)
        gap = float(np.sum(q / (q + lam))) - target_k
        if abs(gap) <= band:
            return q
        if gap < 0:
            lo = x
        else:
            hi = x
        if hi is None:
            x += math.log(2.0)
        elif lo is None:
            x -= math.log(2.0)
        else:
            x = 0.5 * (lo + hi)
            if x in (lo, hi):
                break
    raise NoConvergence(f"no q reached mean size {target_k} +/- {band:.3g}")


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
    runs_per_probe = count(runs_per_probe, "runs_per_probe")
    max_probes = count(max_probes, "max_probes")
    if not 0 < tol < np.inf:
        raise InvalidParams("tol must be positive and finite")
    band = tol * target_k
    components = int(np.count_nonzero(component_labels(g) == np.arange(g.n)))
    if target_k + band < components:
        raise NoConvergence(
            f"mean size {target_k} +/- {band:.3g} is below the {components} connected components"
        )
    rng = np.random.default_rng(rng)
    q = max(target_k * float(g.degrees().mean()) / g.n, 1e-12)
    lo = hi = None
    for probes in range(1, max_probes + 1):
        mean = sum(len(wilson_sample(g, q, rng)) for _ in range(runs_per_probe)) / runs_per_probe
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
