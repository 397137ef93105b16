"""The absorbing loop-erased walk sampler against its determinantal laws."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from graphdpp import (
    Graph,
    SbmParams,
    eigendecompose,
    expected_sample_size,
    laplacian,
    sbm_generate,
    tune_q,
    wilson_kernel_explicit,
    wilson_sample,
)
from graphdpp import wilson as wilson_module
from graphdpp.errors import InvalidParams, NoConvergence, WatchdogExceeded
from graphdpp.graphs import component_labels
from graphdpp.wilson import _WalkTables

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
    assert np.all((roots >= 0) & (roots < g.n))
    _, label = connected_components(g.adjacency(), directed=False)
    assert set(label[roots].tolist()) == set(label.tolist())
    isolated = np.flatnonzero(g.degrees() == 0)
    assert set(isolated.tolist()) <= set(roots.tolist())


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
            edges = zip(label[g.edge_i].tolist(), label[g.edge_j].tolist(), g.edge_w)
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

    def test_tables_built_once_per_search(self, monkeypatch):
        built, probed = [], set()

        class CountingTables(_WalkTables):
            def __init__(self, g):
                built.append(g)
                super().__init__(g)

        def counting_sample(g, q, rng=None, **kw):
            probed.add(q)
            return wilson_sample(g, q, rng, **kw)

        monkeypatch.setattr(wilson_module, "_WalkTables", CountingTables)
        monkeypatch.setattr(wilson_module, "wilson_sample", counting_sample)
        g = sbm_generate(SbmParams(n=40, k_comm=2, c=6.0, eps=0.3), 8)
        with pytest.raises(NoConvergence):
            tune_q(g, 12, 0, runs_per_probe=4, tol=1e-9, max_probes=6)
        assert len(probed) == 6
        assert built == [g]

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
        tables = _WalkTables(g)
        total = 0
        for _ in range(runs_per_probe):
            total += len(wilson_sample(g, q, rng, _tables=tables))
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
