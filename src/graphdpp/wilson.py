"""Absorbing loop-erased random walks: determinantal node sampling without
any spectral computation, the empirical tuning of the absorption rate, and
its exact solution where the spectrum is already in hand."""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial

import numpy as np

from .dpp import SamplingSet
from .errors import InvalidParams, NoConvergence, ShapeMismatch, WatchdogExceeded
from .graphs import Graph, component_labels, count, real
from .spectral import SpectralBasis

# Caps the walk steps of one wilson_sample call, not its running time: the expected
# step count grows like n (d_max + q) / q, so degree / q near 1e10 walks for minutes.
WATCHDOG_STEPS = 10**9
_RAND_BUFFER = 1 << 18
# Every node's arrow (its next step) is drawn at once, then cycles pop in
# vectorized rounds before the walk loop finishes. Each round passes over every
# unresolved node, so the loop takes over once at most HANDOVER nodes are
# unresolved (a graph of at most HANDOVER nodes runs no round), after MAX_ROUNDS
# rounds, or at once when the first draw absorbs fewer than MIN_ROOTS arrows:
# the forest then has so few roots that popping down to them takes hundreds of
# rounds of a few cycles each.
HANDOVER = 512
MAX_ROUNDS = 24
MIN_ROOTS = 4
TUNE_RUNS = 64  # walk runs per tune_q probe, also the CLI's --runs default
# exact_q's probe cap: doubling or halving crosses the floats in 2098 probes
_EXACT_PROBES = 2200


def _arrows(g: Graph, nodes: np.ndarray, q: float, rng) -> np.ndarray:
    """One arrow from each of `nodes` at once, drawn by the walk loop's rule
    (see wilson_sample): the neighbor moved to, or g.n for absorption."""
    adj = g.adjacency()
    d = g.degrees()[nodes]
    y = rng.random(len(nodes)) * (d + q)
    j, end = adj.indptr[nodes], adj.indptr[nodes + 1]
    if g.has_unit_weights():
        j = j + np.minimum(y, d).astype(np.int64)  # int(y), or the row end once y >= d
    else:
        # bisect_right(cum, y, j, end) on every row at once
        cum, hi = g.running_sums(), end
        for _ in range(int((end - j).max(initial=0)).bit_length()):
            live = j < hi
            mid = j + ((hi - j) >> 1)
            right = live & (cum.take(mid, mode="clip") <= y)
            j = np.where(right, mid + 1, j)
            hi = np.where(live & ~right, mid, hi)
    out = np.full(len(nodes), g.n, dtype=np.int64)
    inside = np.flatnonzero(j < end)
    out[inside] = adj.indices[j[inside]]
    return out


def _count_steps(steps: int) -> int:
    if steps > WATCHDOG_STEPS:
        raise WatchdogExceeded(f"walk exceeded {WATCHDOG_STEPS} total steps")
    return steps


def _pop_cycles(g: Graph, q: float, rng):
    """Cycle popping in rounds. Returns every node's arrow (g.n for
    absorption), the nodes whose arrows do not yet lead to absorption
    (ascending) and the number of arrows drawn."""
    n = g.n
    arrow = _arrows(g, np.arange(n), q, rng)
    steps = _count_steps(n)
    unresolved = np.arange(n)
    pos = np.empty(n + 1, dtype=np.int64)
    # passes before the first cycle test: paths in a random map of m points are
    # about sqrt(m) long; later rounds start from the passes the last one took
    depth = n.bit_length() // 2
    rounds = MAX_ROUNDS if np.count_nonzero(arrow == n) >= MIN_ROOTS else 0
    for _ in range(rounds):
        m = len(unresolved)
        if m <= HANDOVER:
            break
        # arrows among the unresolved nodes; absorption and resolved nodes map to m
        pos.fill(m)
        pos[unresolved] = np.arange(m)
        succ = np.append(pos[arrow[unresolved]], m)
        # after k passes jump = succ^(2^k); once succ maps the image of jump off m
        # one-to-one onto itself, that image is the union of the cycles and every
        # path has reached absorption or its cycle. 2^k > m passes always suffice.
        jump = succ
        depth = min(depth, m.bit_length())
        for k in range(1, m.bit_length() + 1):
            jump = jump.take(jump)
            if k >= depth:
                on_cycle = np.zeros(m + 1, dtype=bool)
                on_cycle[jump] = True
                on_cycle[m] = False
                image = np.zeros(m + 1, dtype=bool)
                image[succ[on_cycle]] = True
                if (image == on_cycle).all():
                    break
        depth = k
        popped = unresolved[on_cycle[:m]]
        unresolved = unresolved[jump[:m] < m]
        steps = _count_steps(steps + len(popped))
        arrow[popped] = _arrows(g, popped, q, rng)
    return arrow, unresolved, steps


def wilson_sample(g: Graph, q: float, rng=None) -> SamplingSet:
    """Sample nodes by loop-erased random walks absorbed at rate q.

    Each step is one uniform draw x, y = x (d_u + q), against the running
    weight sums c_1 <= ... <= c_d = d_u (up to round-off) of u's adjacency
    row: the walk moves to the first neighbor whose c_j exceeds y, with
    probability w_uv / (d_u + q), and is absorbed when none does, with
    probability q / (d_u + q). On unit weights c_j = j, so the neighbor
    index is int(y) with no search; other weights bisect the sums.

    A node's successive steps form a stack of independent arrows, and the
    sample depends on the stacks alone: pop cycles of top arrows until none
    is left, and the nodes whose arrows point to absorption are the
    sample, whatever order the cycles pop in (Propp and Wilson, J.
    Algorithms 1998). It is the determinantal process with kernel
    eigenvalues q / (q + lambda) on the graph Fourier basis.

    Every node's arrow is drawn at once, then rounds run in which pointer
    doubling finds the nodes whose arrows lead to absorption and every node
    on a cycle draws again, popping all current cycles together. Walks
    then finish the unresolved nodes in ascending order (see HANDOVER for
    when), each taking its pending arrow on its first departure and a
    fresh draw after that, until they hit absorption or an already
    retained node; each node keeps its latest step, so a revisit erases
    the loop in O(1). Roots come in ascending order. A call that draws
    more than WATCHDOG_STEPS arrows (draws, not seconds) raises
    WatchdogExceeded.

    Weights are left unfilled; recovery callers attach inclusion
    probabilities from an explicit kernel or from the sketch estimator.
    """
    q = real(q, "q")
    rng = np.random.default_rng(rng)
    n = g.n
    adj = g.adjacency()
    arrow, unresolved, steps = _pop_cycles(g, q, rng)
    # per node: 0 draws its next step, 1 is retained, 2 holds an arrow left by the
    # first draw or the rounds for its first departure. Index n is absorption,
    # which ends a walk as a retained node does.
    status = np.ones(n + 1, dtype=np.uint8)
    status[unresolved] = 2
    state = bytearray(status)
    starts, nxt = unresolved.tolist(), memoryview(arrow)
    indptr, degree = memoryview(adj.indptr), memoryview(g.degrees())
    indices = memoryview(adj.indices)
    cum = None if g.has_unit_weights() else memoryview(g.running_sums())
    watchdog = WATCHDOG_STEPS

    # the buffer grows toward the cap so short runs stay cheap
    buf_size = min(max(4 * len(starts), 64), _RAND_BUFFER)
    buf = rng.random(buf_size).tolist()
    pos = 0

    for start in starts:
        if state[start] == 1:
            continue
        u = start
        while True:
            while not state[u]:
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
                v = indices[j] if j < end else n
                nxt[u] = v
                u = v
            if state[u] != 2:
                break
            state[u] = 0
            u = nxt[u]
        u = start
        while not state[u]:
            state[u] = 1
            u = nxt[u]
    return SamplingSet(nodes=np.flatnonzero(arrow == n), weights=None, method="wilson")


def wilson_draws(g: Graph, q: float, draws: int, rng=None) -> tuple[np.ndarray, np.ndarray]:
    """`draws` independent wilson_sample draws on g as a ragged batch: their
    nodes concatenated, and each draw's size. One wilson_sample call walks
    as many disjoint copies of g (Graph.disjoint_copies); components pop
    only their own cycles (Propp and Wilson 1998), so the roots in copy c,
    node // n == c, are a draw of g's law. Every copy keeps a root, so each
    size is at least 1, and roots come in ascending order, so by copy."""
    draws = count(draws, "draws")
    copy, nodes = np.divmod(wilson_sample(g.disjoint_copies(draws), q, rng).nodes, g.n)
    return nodes, np.bincount(copy, minlength=draws)


def expected_sample_size(basis: SpectralBasis, q: float) -> float:
    """Exact expected output size s(q) = sum q / (q + lambda_i) over a
    complete basis, the trace of the rate-q walk kernel
    (wilson_kernel_explicit) in O(n), without forming the kernel."""
    q = real(q, "q")
    basis.require_complete("expected_sample_size")
    return float(np.sum(q / (q + basis.eigenvalues)))


def _search_q(
    g: Graph, target_k, band: float, mean_size, max_probes: int, zero_modes: int = 0
) -> float:
    """The first q whose mean_size(q), which rises with q from its floor to
    n, lies within band of target_k. Starts at target_k times the mean
    degree over n (at least 1e-12), doubles or halves q until the target is
    bracketed, then bisects on log q. Raises NoConvergence after max_probes
    probes, once q leaves the positive floats or the bisection stalls, and
    without a probe for a target plus band below the floor: the component
    count (every connected component keeps a root) or `zero_modes`, the
    zero eigenvalues that exact sizes count in full, if more (a link below
    round-off leaves a connected graph a second zero eigenvalue)."""
    if not 1 <= target_k <= g.n:
        raise InvalidParams(f"target_k must lie in [1, {g.n}]")
    components = int(np.count_nonzero(component_labels(g) == np.arange(g.n)))
    if target_k + band < max(components, zero_modes):
        floor = f"{components} connected components"
        if zero_modes > components:
            floor = f"{zero_modes} zero eigenvalues"
        raise NoConvergence(f"mean size {target_k} +/- {band:.3g} is below the {floor}")
    q = max(target_k * float(g.degrees().mean()) / g.n, 1e-12)
    lo = hi = None
    for probes in range(1, max_probes + 1):
        mean = mean_size(q)
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
            # sqrt(lo * hi) bit for bit, scaled by 2^-e so the product stays finite
            e = math.frexp(hi)[1]
            q = math.ldexp(math.sqrt(math.ldexp(lo, -e) * math.ldexp(hi, -e)), e)
        if not 0.0 < q < np.inf or q in (lo, hi):
            break
    raise NoConvergence(f"no q reached mean size {target_k} +/- {band:.3g} in {probes} probes")


def exact_q(g: Graph, basis: SpectralBasis, target_k: float) -> float:
    """Absorption rate whose expected sample size s(q) = sum q / (q + lambda_i)
    over the basis eigenvalues is target_k within 1e-9 target_k: tune_q's
    search (_search_q), each probe an expected_sample_size call. s rises
    from the count of zero eigenvalues (the component count, up to
    round-off) to n, both met in the limit (an edgeless graph has s = n at
    every q). Its probe cap lets q cross the floats.
    """
    if basis.n != g.n:
        raise ShapeMismatch(f"basis has {basis.n} eigenvalues for a graph of {g.n} nodes")
    zero_modes = int(np.count_nonzero(basis.eigenvalues == 0.0))
    mean_size = partial(expected_sample_size, basis)
    return _search_q(g, target_k, 1e-9 * target_k, mean_size, _EXACT_PROBES, zero_modes)


def tune_q(
    g: Graph,
    target_k: int,
    rng=None,
    runs_per_probe: int = TUNE_RUNS,
    tol: float = 0.1,
    max_probes: int = 30,
) -> float:
    """Find an absorption rate whose mean sample size matches target_k:
    the first q of the search (_search_q) whose probe mean over
    `runs_per_probe` fresh walk runs lands within tol * target_k of it.
    """
    runs_per_probe = count(runs_per_probe, "runs_per_probe")
    max_probes = count(max_probes, "max_probes")
    tol = real(tol, "tol")
    rng = np.random.default_rng(rng)

    def mean_size(q):
        return sum(len(wilson_sample(g, q, rng)) for _ in range(runs_per_probe)) / runs_per_probe

    return _search_q(g, target_k, tol * target_k, mean_size, max_probes)
