"""The absorbing loop-erased walk sampler against its determinantal laws."""

import hashlib
import time
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from graphdpp import (
    Graph,
    SbmParams,
    eigendecompose,
    exact_q,
    expected_sample_size,
    laplacian,
    sbm_generate,
    tune_q,
    wilson_kernel_explicit,
    wilson_sample,
)
from graphdpp import wilson as wilson_module
from graphdpp.errors import InvalidParams, NoConvergence, ShapeMismatch, WatchdogExceeded
from graphdpp.graphs import component_labels

from conftest import dpp_exact_law, empirical_tv


class TestBasics:
    def test_rejects_nonpositive_q(self, k2):
        with pytest.raises(InvalidParams):
            wilson_sample(k2, 0.0, 0)

    @pytest.mark.parametrize("q", [np.inf, np.nan])
    def test_rejects_non_finite_q(self, k2, q):
        with pytest.raises(InvalidParams):
            wilson_sample(k2, q, 0)

    def test_edgeless_returns_all_nodes(self, edgeless5):
        for seed in range(5):
            s = wilson_sample(edgeless5, 0.3, seed)
            assert sorted(s.nodes.tolist()) == [0, 1, 2, 3, 4]

    def test_weights_left_unfilled(self, k2):
        assert wilson_sample(k2, 1.0, 0).weights is None

    def test_size_bounds_and_components(self, two_k2):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s = wilson_sample(two_k2, 0.5, rng)
            assert 2 <= len(s) <= 4  # at least one root per component
            comps = {0 if n < 2 else 1 for n in s.nodes}
            assert comps == {0, 1}

    def test_k2_mean_size(self, k2):
        # E|Y| = q/(q+0) + q/(q+2) = 3/2 at q = 2
        rng = np.random.default_rng(2)
        runs = 10_000
        sizes = np.array([len(wilson_sample(k2, 2.0, rng)) for _ in range(runs)])
        se = np.sqrt(0.25 / runs)
        assert abs(sizes.mean() - 1.5) <= 3 * se

    def test_watchdog(self, monkeypatch):
        g = sbm_generate(SbmParams(n=50, k_comm=2, c=6.0, eps=0.3), 0)
        monkeypatch.setattr(wilson_module, "WATCHDOG_STEPS", 20)
        with pytest.raises(WatchdogExceeded):
            wilson_sample(g, 1e-9, 0)

    def test_deterministic_under_seed(self):
        g = sbm_generate(SbmParams(n=50, k_comm=2, c=6.0, eps=0.3), 1)
        a = wilson_sample(g, 0.2, 5).nodes
        b = wilson_sample(g, 0.2, 5).nodes
        np.testing.assert_array_equal(a, b)


@st.composite
def walk_graphs(draw):
    """Small graphs with isolated nodes and several components, with unit
    weights or weights spread over four orders of magnitude."""
    n = draw(st.integers(1, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    if draw(st.booleans()):
        weights = [1.0] * len(chosen)
    else:
        w = st.floats(1e-2, 1e2)
        weights = draw(st.lists(w, min_size=len(chosen), max_size=len(chosen)))
    return Graph(n, [(i, j, w) for (i, j), w in zip(chosen, weights)])


@settings(max_examples=200, deadline=None)
@given(
    g=walk_graphs(),
    q=st.floats(1e-2, 1e2),  # walks last about degree / q steps
    seed=st.integers(0, 2**32 - 1),
)
def test_roots_cover_every_component(g, q, seed):
    roots = wilson_sample(g, q, seed).nodes
    assert len(set(roots.tolist())) == len(roots)
    assert np.all(np.diff(roots) > 0)
    assert np.all((roots >= 0) & (roots < g.n))
    _, label = connected_components(g.adjacency(), directed=False)
    assert set(label[roots].tolist()) == set(label.tolist())
    isolated = np.flatnonzero(g.degrees() == 0)
    assert set(isolated.tolist()) <= set(roots.tolist())


@st.composite
def weighted_graphs_with_isolated_nodes(draw):
    """Weighted graphs over four orders of magnitude in which some nodes,
    drawn anywhere in the index range, have no edges."""
    n = draw(st.integers(1, 30))
    isolated = draw(st.sets(st.integers(0, n - 1), min_size=1))
    live = [v for v in range(n) if v not in isolated]
    pairs = [(i, j) for i in live for j in live if i < j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)) if pairs else []
    w = st.floats(1e-2, 1e2)
    weights = draw(st.lists(w, min_size=len(chosen), max_size=len(chosen)))
    return Graph(n, [(i, j, w) for (i, j), w in zip(chosen, weights)]), sorted(isolated)


class TestWalkArrays:
    @settings(max_examples=150, deadline=None)
    @given(weighted_graphs_with_isolated_nodes())
    def test_running_sums_match_per_row_cumsum(self, case):
        g, isolated = case
        adj = g.adjacency()
        ptr = adj.indptr
        rows = [np.cumsum(adj.data[ptr[i] : ptr[i + 1]]) for i in range(g.n)]
        sums = g.running_sums()
        assert np.array_equal(sums, np.concatenate(rows))
        assert sums is g.running_sums() and not sums.flags.writeable
        assert np.all(g.degrees()[isolated] == 0)

    def test_weighted_draws_pinned(self):
        # the golden chain pins unit-weight draws only; this pins the bisection path
        g = sbm_generate(SbmParams(n=30, k_comm=2, c=6.0, eps=0.3), 12)
        w = np.random.default_rng(12).uniform(0.1, 5.0, g.num_edges)
        g = Graph.from_arrays(g.n, *g.edges()[:2], w)
        h = hashlib.sha256()
        for q in (0.05, 0.7):
            for seed in range(20):
                h.update(wilson_sample(g, q, seed).nodes.tobytes())
        assert h.hexdigest() == "abbcfdee7c5deab6be2ba7f10f018e0a3647cc409b83f9f7bf6af556371b0a50"

    def test_walk_does_not_copy_the_adjacency(self):
        # per-call memory is O(n) lists and the random buffer; a copy of the
        # 3.2e5 neighbor indices into a list alone would take about 11 MiB
        g = sbm_generate(SbmParams(n=20_000, k_comm=2, c=16.0, eps=0.1), 0)
        wilson_sample(g, 0.1, 0)
        tracemalloc.start()
        try:
            wilson_sample(g, 0.1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


def _force_rounds(mp, rounds):
    """Send every graph through the first vectorized draw and up to `rounds` rounds."""
    mp.setattr(wilson_module, "HANDOVER", 0)
    mp.setattr(wilson_module, "MIN_ROOTS", 0)
    mp.setattr(wilson_module, "MAX_ROUNDS", rounds)


@settings(max_examples=150, deadline=None)
@given(
    g=walk_graphs(),
    q=st.floats(1e-2, 1e2),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.sampled_from([0, 1, 10**9]),
)
def test_forced_rounds_keep_the_sample_invariants(g, q, seed, rounds):
    with pytest.MonkeyPatch.context() as mp:
        _force_rounds(mp, rounds)
        roots = wilson_sample(g, q, seed).nodes
        again = wilson_sample(g, q, seed).nodes
    np.testing.assert_array_equal(roots, again)
    assert len(set(roots.tolist())) == len(roots)
    assert np.all((roots >= 0) & (roots < g.n))
    _, label = connected_components(g.adjacency(), directed=False)
    assert set(label[roots].tolist()) == set(label.tolist())
    isolated = np.flatnonzero(g.degrees() == 0)
    assert set(isolated.tolist()) <= set(roots.tolist())


# two weighted components with the isolated node 5 between them
SPLIT_GRAPH = Graph(
    9,
    [(0, 1, 0.5), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 0.8), (0, 4, 3.0), (1, 3, 0.7)]
    + [(6, 7, 1.5), (7, 8, 0.4), (6, 8, 2.5)],
)
# test_03's weighted 6-cycle
CYCLE6 = Graph(6, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 1.5), (4, 5, 1.0), (0, 5, 1.0)])


def _draws(g, q, rng, runs, copies=50):
    """`runs` samples of g's law, `copies` per call: disjoint components
    draw independently (each pops only its own arrows), so one draw on
    that many disjoint copies of g is as many independent draws on g."""
    i, j, w = g.edges()
    shift = np.repeat(np.arange(copies) * g.n, len(i))
    tiled = np.tile(i, copies) + shift, np.tile(j, copies) + shift, np.tile(w, copies)
    big = Graph.from_arrays(copies * g.n, *tiled)
    samples = []
    for _ in range(runs // copies):
        copy, node = np.divmod(wilson_sample(big, q, rng).nodes, g.n)
        samples += [node[copy == c] for c in range(copies)]
    return samples


@pytest.fixture(params=["rounds", "one-round-then-walks"])
def forced_rounds(request, monkeypatch):
    """Every graph takes the vectorized path: rounds until every node is
    resolved, or one round and the walk loop for the rest."""
    _force_rounds(monkeypatch, 10**9 if request.param == "rounds" else 1)
    return request.param


class TestVectorizedRounds:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_arrows_follow_the_loop_rule(self, weighted):
        g = sbm_generate(SbmParams(n=200, k_comm=2, c=8.0, eps=0.3), 3)
        if weighted:
            w = np.random.default_rng(3).uniform(0.1, 5.0, g.num_edges)
            g = Graph.from_arrays(g.n, *g.edges()[:2], w)
        adj, degree = g.adjacency(), g.degrees()
        nodes = np.arange(g.n).repeat(20)
        for q in (1e-3, 0.5, 1e3):
            arrows = wilson_module._arrows(g, nodes, q, np.random.default_rng(4))
            x = np.random.default_rng(4).random(len(nodes))
            expected = []
            for u, xi in zip(nodes.tolist(), x.tolist()):
                y = xi * (degree[u] + q)
                lo, hi = adj.indptr[u], adj.indptr[u + 1]
                j = bisect_right(g.running_sums(), y, lo, hi) if weighted else lo + int(y)
                expected.append(adj.indices[j] if j < hi else g.n)
            np.testing.assert_array_equal(arrows, expected)

    def test_watchdog_counts_round_draws(self, monkeypatch):
        # at q = 1e-9 nothing resolves, so every round redraws a cycle or more
        g = sbm_generate(SbmParams(n=50, k_comm=2, c=6.0, eps=0.3), 0)
        _force_rounds(monkeypatch, 10**9)
        monkeypatch.setattr(wilson_module, "WATCHDOG_STEPS", 60)
        with pytest.raises(WatchdogExceeded) as info:
            wilson_sample(g, 1e-9, 0)
        assert any(entry.name == "_pop_cycles" for entry in info.traceback)

    def test_vectorized_draws_pinned(self):
        # q = 0.1 pops in rounds; at q = 0.01 the first draw absorbs fewer than
        # MIN_ROOTS arrows and the walks finish from it
        g = sbm_generate(SbmParams(n=2000, k_comm=2, c=8.0, eps=0.3), 14)
        w = np.random.default_rng(14).uniform(0.1, 5.0, g.num_edges)
        digests = []
        for graph in (g, Graph.from_arrays(g.n, *g.edges()[:2], w)):
            h = hashlib.sha256()
            for q in (0.01, 0.1):
                for seed in range(5):
                    h.update(wilson_sample(graph, q, seed).nodes.tobytes())
            digests.append(h.hexdigest())
        assert digests == [
            "6a5854009ffff649b019ad51384f90e2bc412f5e0c922237cdcbfff517775190",
            "0e7808b1c00a00e667760ab2e0c022318c63f81e405e2a7d6fe6086b39c7c0c3",
        ]

    @pytest.mark.parametrize("q", [0.05, 0.3, 2.0])
    def test_marginals(self, forced_rounds, q):
        diag = wilson_kernel_explicit(eigendecompose(laplacian(SPLIT_GRAPH)), q).diagonal()
        runs = 4000
        draws = _draws(SPLIT_GRAPH, q, np.random.default_rng(int(q * 100)), runs)
        counts = np.bincount(np.concatenate(draws), minlength=SPLIT_GRAPH.n)
        se = np.maximum(np.sqrt(diag * (1 - diag) / runs), 1 / runs)
        assert np.all(np.abs(counts / runs - diag) <= 4 * se)
        assert counts[5] == runs

    def test_size_law(self, forced_rounds):
        g = sbm_generate(SbmParams(n=30, k_comm=2, c=6.0, eps=0.25), 4)
        mu = wilson_kernel_explicit(eigendecompose(laplacian(g)), 0.8).eigenvalues
        mean, var = mu.sum(), (mu * (1 - mu)).sum()
        runs = 10_000
        sizes = np.array([len(d) for d in _draws(g, 0.8, np.random.default_rng(5), runs)])
        assert abs(sizes.mean() - mean) <= 4 * np.sqrt(var / runs)
        kappa4 = np.sum(mu * (1 - mu) * (1 - 6 * mu * (1 - mu)))
        assert abs(sizes.var(ddof=1) - var) <= 4 * np.sqrt((kappa4 + 2 * var**2) / runs)

    def test_joint_law(self, forced_rounds):
        law = dpp_exact_law(wilson_kernel_explicit(eigendecompose(laplacian(CYCLE6)), 1.0).matrix())
        samples = _draws(CYCLE6, 1.0, np.random.default_rng(6), 100_000)
        assert empirical_tv(samples, law) <= 0.03


def _weighted_sbm():
    g = sbm_generate(SbmParams(n=30, k_comm=2, c=6.0, eps=0.3), 12)
    w = np.random.default_rng(12).uniform(0.1, 5.0, g.num_edges)
    return Graph.from_arrays(g.n, *g.edges()[:2], w)


class TestWilsonDraws:
    """wilson_draws turns one walk on disjoint copies into a ragged batch of
    draws of g's law: their nodes concatenated, and each draw's size."""

    @pytest.mark.parametrize("path", ["loop", "rounds"])
    @pytest.mark.parametrize("graph, q", [("weighted", 0.5), ("split", 0.3)])
    def test_split_draws_follow_the_kernel(self, graph, q, path):
        g = _weighted_sbm() if graph == "weighted" else SPLIT_GRAPH
        # at most HANDOVER union nodes run no round, more pop cycles in rounds first
        handover = wilson_module.HANDOVER
        copies = handover // g.n if path == "loop" else 4 * handover // g.n
        rng = np.random.default_rng(8)
        draws = []
        while len(draws) < 4000:
            nodes, sizes = wilson_module.wilson_draws(g, q, copies, rng)
            assert len(sizes) == copies
            assert sizes.sum() == len(nodes) and np.all(sizes >= 1)
            draws += np.split(nodes, np.cumsum(sizes)[:-1])
        runs = len(draws)
        labels = component_labels(g)
        for nodes in draws:
            assert len(np.unique(nodes)) == len(nodes)
            assert np.all((nodes >= 0) & (nodes < g.n))
            # every component of every copy keeps a root
            assert set(labels[nodes].tolist()) == set(labels.tolist())
        basis = eigendecompose(laplacian(g))
        kernel = wilson_kernel_explicit(basis, q)
        diag = kernel.diagonal()
        # per-node inclusion frequencies within 4 standard errors (floored at 1 / runs)
        counts = np.bincount(np.concatenate(draws), minlength=g.n)
        se = np.maximum(np.sqrt(diag * (1 - diag) / runs), 1 / runs)
        assert np.all(np.abs(counts / runs - diag) <= 4 * se)
        # the mean split size within 4 standard errors of the expected size
        mu = kernel.eigenvalues
        sizes = np.array([len(d) for d in draws])
        bound = 4 * np.sqrt((mu * (1 - mu)).sum() / runs)
        assert abs(sizes.mean() - expected_sample_size(basis, q)) <= bound

    def test_one_walk_per_call(self, monkeypatch):
        calls = []
        walk = wilson_module.wilson_sample
        monkeypatch.setattr(wilson_module, "wilson_sample", lambda *a: calls.append(a) or walk(*a))
        nodes, sizes = wilson_module.wilson_draws(SPLIT_GRAPH, 0.3, 7, 0)
        assert len(calls) == 1 and calls[0][0].n == 7 * SPLIT_GRAPH.n
        assert sizes.sum() == len(nodes) and np.all(sizes >= 1)
        draws = np.split(nodes, np.cumsum(sizes)[:-1])
        assert len(draws) == 7 and all(5 in d for d in draws)


class TestExpectedSampleSize:
    def test_k2_hand_value(self, k2):
        basis = eigendecompose(laplacian(k2))
        assert expected_sample_size(basis, 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_edgeless_is_n(self, edgeless5):
        basis = eigendecompose(laplacian(edgeless5))
        assert expected_sample_size(basis, 0.01) == pytest.approx(5.0, abs=1e-12)

    def test_saturates_to_n(self, triangle):
        basis = eigendecompose(laplacian(triangle))
        assert expected_sample_size(basis, 1e12) == pytest.approx(3.0, rel=1e-9)

    @pytest.mark.parametrize("q", [0.0, np.nan, np.inf])
    def test_rejects_nonpositive_or_non_finite_q(self, k2, q):
        with pytest.raises(InvalidParams):
            expected_sample_size(eigendecompose(laplacian(k2)), q)


class TestMatchesKernel:
    def test_marginals_weighted_graph(self):
        # weighted edges exercise the bisection over running weight sums
        rng = np.random.default_rng(3)
        edges = [
            (i, j, float(rng.uniform(0.2, 3.0)))
            for i in range(15)
            for j in range(i + 1, 15)
            if rng.random() < 0.35
        ]
        g = Graph(15, edges)
        diag = wilson_kernel_explicit(eigendecompose(laplacian(g)), 1.0).diagonal()
        runs = 10_000
        counts = np.zeros(15)
        for _ in range(runs):
            counts[wilson_sample(g, 1.0, rng).nodes] += 1
        freq = counts / runs
        se = np.sqrt(diag * (1 - diag) / runs)
        assert np.all(np.abs(freq - diag) <= 4 * np.maximum(se, 1e-4))

    def test_size_law(self):
        rng = np.random.default_rng(4)
        g = sbm_generate(SbmParams(n=30, k_comm=2, c=6.0, eps=0.2), 2)
        kernel = wilson_kernel_explicit(eigendecompose(laplacian(g)), 0.5)
        mu = kernel.eigenvalues
        mean, var = mu.sum(), (mu * (1 - mu)).sum()
        runs = 10_000
        sizes = np.array([len(wilson_sample(g, 0.5, rng)) for _ in range(runs)])
        assert abs(sizes.mean() - mean) <= 4 * np.sqrt(var / runs)
        kappa4 = np.sum(mu * (1 - mu) * (1 - 6 * mu * (1 - mu)))
        var_of_var = (kappa4 + 2 * var**2) / runs
        assert abs(sizes.var(ddof=1) - var) <= 4 * np.sqrt(var_of_var)

    def test_joint_law_small_graph(self):
        rng = np.random.default_rng(6)
        g = Graph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0)])
        kernel = wilson_kernel_explicit(eigendecompose(laplacian(g)), 0.8)
        law = dpp_exact_law(kernel.matrix())
        runs = 30_000
        samples = [wilson_sample(g, 0.8, rng).nodes for _ in range(runs)]
        assert empirical_tv(samples, law) <= 0.04

    def test_scan_order_independence(self):
        # the sampler scans in index order; relabelling the graph so that
        # index order visits the nodes in `scan` order changes the scan
        rng = np.random.default_rng(7)
        g = sbm_generate(SbmParams(n=20, k_comm=2, c=5.0, eps=0.3), 5)

        def scanned(scan):
            label = np.argsort(scan)  # new index of each node
            i, j, w = g.edges()
            edges = zip(label[i].tolist(), label[j].tolist(), w)
            return Graph(20, list(edges)), np.asarray(scan)

        reversed_scan = scanned(range(19, -1, -1))
        runs = 8000
        freq = {}
        for order in ("default", "random", "reversed"):
            counts = np.zeros(20)
            for _ in range(runs):
                if order == "random":
                    h, scan = scanned(rng.permutation(20))
                elif order == "reversed":
                    h, scan = reversed_scan
                else:
                    h, scan = g, np.arange(20)
                counts[scan[wilson_sample(h, 0.7, rng).nodes]] += 1
            freq[order] = counts / runs
        se = np.sqrt(0.25 / runs)  # conservative per-node bound
        for order in ("random", "reversed"):
            assert np.all(np.abs(freq[order] - freq["default"]) <= 4 * (2 * se))


class TestTuneQ:
    def test_k2_small_target(self, k2):
        q = tune_q(k2, 1, 0, runs_per_probe=200, tol=0.1)
        rng = np.random.default_rng(1)
        mean = np.mean([len(wilson_sample(k2, q, rng)) for _ in range(2000)])
        assert 1.0 <= mean <= 1.0 + 0.15

    def test_target_n(self, triangle):
        # fresh-run mean gets probe noise on top of the tuner band
        q = tune_q(triangle, 3, 0, runs_per_probe=100, tol=0.05)
        rng = np.random.default_rng(2)
        mean = np.mean([len(wilson_sample(triangle, q, rng)) for _ in range(1000)])
        assert mean >= 3.0 * (1 - 0.1)

    def test_sbm_fresh_run_verification(self):
        g = sbm_generate(SbmParams(n=100, k_comm=2, c=16.0, eps=0.12), 6)
        q = tune_q(g, 2, 3, runs_per_probe=400, tol=0.1)
        rng = np.random.default_rng(4)
        mean = np.mean([len(wilson_sample(g, q, rng)) for _ in range(1000)])
        assert 2.0 * (1 - 0.2) <= mean <= 2.0 * (1 + 0.2)

    def test_unreachable_target_raises(self, edgeless5):
        # every run returns all 5 nodes, so a mean of 1 is unreachable
        with pytest.raises(NoConvergence):
            tune_q(edgeless5, 1, 0, runs_per_probe=10, tol=0.1, max_probes=10)

    def test_rejects_bad_target(self, k2):
        with pytest.raises(InvalidParams):
            tune_q(k2, 3, 0)

    def test_fewer_targets_than_components_raises_at_once(self):
        # three components keep at least three roots at any q; a search
        # would keep halving q, doubling the walk cost of every probe
        g = Graph(6, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
        t0 = time.perf_counter()
        with pytest.raises(NoConvergence, match="3 connected components"):
            tune_q(g, 1, 0, max_probes=12)
        assert time.perf_counter() - t0 < 1.0

    def test_search_spends_max_probes(self, monkeypatch):
        probed = set()

        def counting_sample(g, q, rng=None):
            probed.add(q)
            return wilson_sample(g, q, rng)

        monkeypatch.setattr(wilson_module, "wilson_sample", counting_sample)
        g = sbm_generate(SbmParams(n=40, k_comm=2, c=6.0, eps=0.3), 8)
        with pytest.raises(NoConvergence):
            tune_q(g, 12, 0, runs_per_probe=4, tol=1e-9, max_probes=6)
        assert len(probed) == 6

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -0.1])
    def test_rejects_bad_tol(self, k2, tol):
        with pytest.raises(InvalidParams, match="tol"):
            tune_q(k2, 1, 0, runs_per_probe=4, tol=tol, max_probes=2)

    def test_target_equal_to_components_is_searched(self, edgeless5):
        q = tune_q(edgeless5, 5, 0, runs_per_probe=4)
        assert q > 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60),
            )
        )
    )
    def test_component_count_matches_scipy(self, case):
        n, pairs = case
        edges = sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j})
        g = Graph(n, [(i, j, 1.0) for i, j in edges])
        labels = component_labels(g)
        count, expected = connected_components(g.adjacency(), directed=False)
        # the same partition: each label maps to exactly one scipy label and back
        joint = np.unique(np.stack([labels, expected]), axis=1)
        assert joint.shape[1] == count == len(np.unique(labels))
        # each label is the smallest node index in its component
        np.testing.assert_array_equal(labels[labels], labels)
        assert np.all(labels <= np.arange(n))


def _basis(g):
    return eigendecompose(laplacian(g))


def _components(g):
    return int(np.count_nonzero(component_labels(g) == np.arange(g.n)))


class TestExactQ:
    def test_k2_hand_value(self, k2):
        # s(q) = 1 + q / (q + 2) = 1.5 at q = 2
        assert exact_q(k2, _basis(k2), 1.5) == pytest.approx(2.0, rel=1e-7)

    @settings(max_examples=200, deadline=None)
    @given(g=walk_graphs(), a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
    def test_meets_the_oracle_and_rises_with_the_target(self, g, a, b):
        basis = _basis(g)
        c = _components(g)
        lo, hi = sorted((c + a * (g.n - c), c + b * (g.n - c)))
        q_lo = exact_q(g, basis, lo)
        assert abs(expected_sample_size(basis, q_lo) - lo) <= 1e-9 * lo
        if hi - lo > 1e-6 * hi:
            q_hi = exact_q(g, basis, hi)
            assert abs(expected_sample_size(basis, q_hi) - hi) <= 1e-9 * hi
            assert q_hi > q_lo

    @settings(max_examples=100, deadline=None)
    @given(walk_graphs())
    def test_component_count_and_n_are_met(self, g):
        basis = _basis(g)
        for target in (_components(g), g.n):
            q = exact_q(g, basis, target)
            assert 0 < q < np.inf
            assert abs(expected_sample_size(basis, q) - target) <= 1e-9 * target

    def test_edgeless_graph_has_size_n_at_every_q(self, edgeless5):
        basis = _basis(edgeless5)
        assert expected_sample_size(basis, exact_q(edgeless5, basis, 5)) == 5.0
        with pytest.raises(NoConvergence, match="5 connected components"):
            exact_q(edgeless5, basis, 4.5)

    def test_target_below_components_raises(self, two_k2):
        with pytest.raises(NoConvergence, match="2 connected components"):
            exact_q(two_k2, _basis(two_k2), 1.5)

    @pytest.mark.parametrize("target", [0.5, 0.0, 4.5, np.nan])
    def test_target_outside_range_raises(self, two_k2, target):
        with pytest.raises(InvalidParams, match="target_k"):
            exact_q(two_k2, _basis(two_k2), target)

    def test_basis_of_another_graph_rejected(self, k2, p3):
        with pytest.raises(ShapeMismatch):
            exact_q(p3, _basis(k2), 2)

    def test_partial_basis_rejected(self):
        g = sbm_generate(SbmParams(n=30, k_comm=2, c=5.0, eps=0.4), 0)
        with pytest.raises(ShapeMismatch):
            exact_q(g, eigendecompose(laplacian(g), 3), 4)

    def test_link_below_round_off_fails_fast(self):
        # one component, but the degree 1 + 1e-100 rounds to 1, so the
        # eigenvalues are 0, 0, 2, 2 and s(q) >= 2: a target of 1.5 cannot
        # be met, and the search raises before its first probe instead of
        # halving q until it underflows
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1e-100), (2, 3, 1.0)])
        basis = _basis(g)
        assert np.count_nonzero(basis.eigenvalues == 0.0) == 2
        with pytest.raises(NoConvergence, match="below the 2 zero eigenvalues"):
            exact_q(g, basis, 1.5)
        q = exact_q(g, basis, 2.5)
        assert abs(expected_sample_size(basis, q) - 2.5) <= 1e-9 * 2.5

    def test_huge_weight_path_meets_or_stops_promptly(self):
        # eigenvalues 0, 1, 1 and 2e300: s(q) = 4 within 4e-9 needs q near
        # 5e308, above the largest float, so the search stops once doubling
        # leaves the floats, after fewer than 100 probes
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1e300), (2, 3, 1.0)])
        basis = _basis(g)
        for target in (1, 2.5):
            q = exact_q(g, basis, target)
            assert abs(expected_sample_size(basis, q) - target) <= 1e-9 * target
        with pytest.raises(NoConvergence, match=r" in \d{1,2} probes$"):
            exact_q(g, basis, 4)

    @pytest.mark.parametrize("w", [1e300, 1e-300])
    def test_bisection_at_the_ends_of_the_float_range(self, w):
        # q near 1e300 or 1e-300 brackets, where lo * hi over- or underflows
        g = Graph(4, [(0, 1, w), (1, 2, w), (2, 3, w)])
        basis = _basis(g)
        q = exact_q(g, basis, 2.5)
        assert abs(expected_sample_size(basis, q) - 2.5) <= 2.5e-9


def reference_tune_q(
    g, target_k, rng=None, runs_per_probe=64, tol=0.1, max_probes=30, probed=None
):
    """The earlier three-loop search (bracket up, bracket down, bisect),
    kept to pin the single-loop tune_q to the same probes and the same q.
    Appends every probed q to `probed` when given."""
    if not 1 <= target_k <= g.n:
        raise InvalidParams(f"target_k must lie in [1, {g.n}]")
    if runs_per_probe < 1 or max_probes < 1:
        raise InvalidParams("probe counts must be positive")
    rng = np.random.default_rng(rng)
    mean_degree = float(g.degrees().mean())
    band = tol * target_k
    probes = 0

    def probe(q):
        nonlocal probes
        probes += 1
        if probed is not None:
            probed.append(q)
        total = 0
        for _ in range(runs_per_probe):
            total += len(wilson_sample(g, q, rng))
        return total / runs_per_probe

    q = max(target_k * mean_degree / g.n, 1e-12)
    mean = probe(q)
    if abs(mean - target_k) <= band:
        return q
    lo = hi = None
    if mean < target_k:
        lo = (q, mean)
        while probes < max_probes:
            q *= 2.0
            mean = probe(q)
            if abs(mean - target_k) <= band:
                return q
            if mean > target_k:
                hi = (q, mean)
                break
            lo = (q, mean)
    else:
        hi = (q, mean)
        while probes < max_probes:
            q /= 2.0
            mean = probe(q)
            if abs(mean - target_k) <= band:
                return q
            if mean < target_k:
                lo = (q, mean)
                break
            hi = (q, mean)
    while lo is not None and hi is not None and probes < max_probes:
        q = float(np.sqrt(lo[0] * hi[0]))
        mean = probe(q)
        if abs(mean - target_k) <= band:
            return q
        if mean < target_k:
            lo = (q, mean)
        else:
            hi = (q, mean)
    raise NoConvergence(f"no q reached mean size {target_k} +/- {band:.3g} in {probes} probes")


def _outcome(search, g, target, seed, tol, max_probes, **kw):
    try:
        return search(g, target, seed, runs_per_probe=16, tol=tol, max_probes=max_probes, **kw)
    except NoConvergence as exc:
        return str(exc)


TUNE_GRAPHS = {
    "two-blocks": SbmParams(n=40, k_comm=2, c=6.0, eps=0.3),
    "three-blocks": SbmParams(n=60, k_comm=3, c=8.0, eps=0.1),
    "sparse": SbmParams(n=48, k_comm=4, c=3.0, eps=0.5),
}
TUNE_GRID = [
    (name, target, tol, max_probes)
    for name in TUNE_GRAPHS
    for target in (2, 5, 12, 30)
    for tol in (0.1, 0.02)
    for max_probes in (1, 3, 30)
]


@pytest.fixture(scope="module")
def tune_graphs():
    return {name: sbm_generate(params, 8) for name, params in TUNE_GRAPHS.items()}


class TestTuneQMatchesReference:
    @pytest.mark.parametrize("name,target,tol,max_probes", TUNE_GRID)
    def test_same_q_or_same_failure(self, tune_graphs, name, target, tol, max_probes):
        g = tune_graphs[name]
        want = _outcome(reference_tune_q, g, target, 11, tol, max_probes)
        assert _outcome(tune_q, g, target, 11, tol, max_probes) == want

    def test_grid_covers_every_search_branch(self, tune_graphs):
        moved_up = moved_down = bisected = exhausted = False
        for name, target, tol, max_probes in TUNE_GRID:
            probed = []
            out = _outcome(
                reference_tune_q, tune_graphs[name], target, 11, tol, max_probes, probed=probed
            )
            moved_up |= any(q > probed[0] for q in probed)
            moved_down |= any(q < probed[0] for q in probed)
            bisected |= any(b not in (2.0 * a, a / 2.0) for a, b in zip(probed, probed[1:]))
            exhausted |= isinstance(out, str)
        assert moved_up and moved_down and bisected and exhausted
