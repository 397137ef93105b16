"""Graph construction, SBM generation and Laplacian basics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdpp import (
    Graph,
    SbmParams,
    critical_epsilon,
    laplacian,
    sbm_generate,
)
from graphdpp.errors import InvalidParams

from conftest import assert_same_edges


class TestGraph:
    def test_edges_normalized_and_symmetric(self):
        g = Graph(3, [(2, 0, 1.5), (1, 2, 0.5)])
        assert g.edge_i.tolist() == [0, 1]
        assert g.edge_j.tolist() == [2, 2]
        assert g.edge_w.tolist() == [1.5, 0.5]
        a = g.adjacency().toarray()
        np.testing.assert_array_equal(a, a.T)
        assert a[0, 2] == 1.5

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParams):
            Graph(2, [(0, 0, 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InvalidParams):
            Graph(2, [(0, 1, 0.0)])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(InvalidParams):
            Graph(2, [(0, 2, 1.0)])

    @pytest.mark.parametrize("endpoint", [1.5, np.nan])
    def test_rejects_non_integral_endpoint(self, endpoint):
        with pytest.raises(InvalidParams):
            Graph(3, [(0, endpoint, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidParams):
            Graph(3, [(0, 1, 1.0), (1, 0, 2.0)])


class TestDegreesAndLaplacian:
    def test_single_weighted_edge(self):
        g = Graph(2, [(0, 1, 2.5)])
        np.testing.assert_allclose(g.degrees(), [2.5, 2.5])

    def test_isolated_node_degree_zero(self):
        g = Graph(3, [(0, 1, 1.0)])
        assert g.degrees()[2] == 0.0

    def test_triangle_degrees(self, triangle):
        np.testing.assert_allclose(triangle.degrees(), [2.0, 2.0, 2.0])

    def test_single_edge_laplacian(self, k2):
        expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(laplacian(k2).dense(), expected)

    def test_constant_vector_in_kernel(self):
        rng = np.random.default_rng(3)
        n = 40
        edges = [
            (i, j, float(rng.uniform(0.1, 2.0)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.2
        ]
        g = Graph(n, edges)
        lap = laplacian(g)
        out = lap.apply(np.ones(n))
        assert np.max(np.abs(out)) <= 1e-12 * max(lap.degree_vector.max(), 1.0)

    def test_path_laplacian_spectrum(self, p3):
        lap = laplacian(p3)
        np.testing.assert_allclose(np.diag(lap.dense()), [1.0, 2.0, 1.0])
        # hand eigendecomposition of the 3-node path: {0, 1, 3}
        np.testing.assert_allclose(np.linalg.eigvalsh(lap.dense()), [0.0, 1.0, 3.0], atol=1e-12)

    def test_quadratic_form_nonnegative(self):
        rng = np.random.default_rng(11)
        g = sbm_generate(SbmParams(n=60, k_comm=3, c=8.0, eps=0.3), rng)
        lap = laplacian(g)
        for _ in range(10):
            x = rng.standard_normal(60)
            assert x @ lap.apply(x) >= -1e-10


class TestCriticalEpsilon:
    def test_reference_values(self):
        # (16 - 4) / (16 + 4) and (4 - 2) / (4 + 2)
        assert critical_epsilon(16.0, 2) == pytest.approx(0.6, abs=1e-15)
        assert critical_epsilon(4.0, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_single_community(self):
        c = 9.0
        assert critical_epsilon(c, 1) == pytest.approx((c - 3.0) / c, abs=1e-15)

    def test_rejects_small_degree(self):
        with pytest.raises(InvalidParams):
            critical_epsilon(1.0, 2)


class TestSbmParams:
    def test_probabilities_match_target_degree(self):
        p = SbmParams(n=100, k_comm=2, c=16.0, eps=0.12)
        q1, q2 = p.probabilities()
        s = p.community_size
        assert q1 * (s - 1) + q2 * (100 - s) == pytest.approx(16.0)

    def test_eps_one_is_erdos_renyi(self):
        p = SbmParams(n=100, k_comm=4, c=10.0, eps=1.0)
        q1, q2 = p.probabilities()
        assert q1 == pytest.approx(10.0 / 99.0)
        assert q2 == pytest.approx(q1)

    def test_rejects_indivisible(self):
        with pytest.raises(InvalidParams):
            SbmParams(n=10, k_comm=3, c=2.0, eps=0.5)

    def test_rejects_probability_above_one(self):
        with pytest.raises(InvalidParams):
            SbmParams(n=10, k_comm=5, c=9.0, eps=0.0)


class TestSbmGenerate:
    def test_unit_weights_and_labels(self):
        g = sbm_generate(SbmParams(n=60, k_comm=3, c=6.0, eps=0.2), 0)
        assert g.has_unit_weights()
        np.testing.assert_array_equal(g.communities, np.repeat([0, 1, 2], 20))

    def test_eps_zero_has_no_inter_edges(self):
        g = sbm_generate(SbmParams(n=40, k_comm=2, c=5.0, eps=0.0), 1)
        comm = g.communities
        assert np.all(comm[g.edge_i] == comm[g.edge_j])

    @pytest.mark.parametrize("eps", [1e-19, 1e-300, 5e-324])
    def test_vanishing_eps_terminates(self, eps):
        # numpy draws int64-max gaps at such rates; their sum used to wrap
        # negative, giving negative endpoints or a loop that never ended
        g = sbm_generate(SbmParams(n=40, k_comm=2, c=5.0, eps=eps), 1)
        comm = g.communities
        assert np.all(comm[g.edge_i] == comm[g.edge_j])

    def test_deterministic_under_seed(self):
        p = SbmParams(n=50, k_comm=2, c=6.0, eps=0.3)
        g1, g2 = sbm_generate(p, 7), sbm_generate(p, 7)
        assert_same_edges(g1, g2)

    def test_mean_degree_matches_target(self):
        # many seeds at the benchmark size: empirical mean degree within 3 SE
        p = SbmParams(n=100, k_comm=2, c=16.0, eps=0.12)
        q1, q2 = p.probabilities()
        rng = np.random.default_rng(42)
        seeds = 1000
        total_edges = sum(sbm_generate(p, rng).num_edges for _ in range(seeds))
        mean_degree = 2.0 * total_edges / (seeds * p.n)
        s = p.community_size
        pair_var = (
            p.n * (s - 1) / 2 * q1 * (1 - q1) * (p.k_comm)
            + (p.n**2 - p.k_comm * s**2) / 2 * q2 * (1 - q2)
        )
        se = 2.0 * np.sqrt(pair_var / seeds) / p.n
        assert abs(mean_degree - 16.0) <= 3 * se

    def test_pair_decoding_matches_bruteforce_at_full_density(self):
        # eps=1, c=n-1 forces every pair: exercises the triangular decode
        g = sbm_generate(SbmParams(n=12, k_comm=2, c=11.0, eps=1.0), 0)
        assert g.num_edges == 12 * 11 // 2

    def test_large_sparse_generation_is_fast(self):
        import time

        p = SbmParams(n=100_000, k_comm=2, c=16.0, eps=0.12)
        t0 = time.perf_counter()
        g = sbm_generate(p, 3)
        assert time.perf_counter() - t0 < 10.0
        assert abs(2.0 * g.num_edges / g.n - 16.0) < 0.5


@st.composite
def edge_lists(draw):
    """Graphs with isolated nodes, several components and weighted edges,
    as (n, [(i, j, w)]) with i < j."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(chosen), max_size=len(chosen)))
    return n, [(i, j, w) for (i, j), w in zip(chosen, weights)]


@settings(max_examples=200, deadline=None)
@given(graph=edge_lists(), data=st.data())
def test_edge_order_and_orientation_do_not_matter(graph, data):
    n, edges = graph
    shuffled = data.draw(st.permutations(edges))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    swapped = [(j, i, w) if flip else (i, j, w) for (i, j, w), flip in zip(shuffled, flips)]
    a, b = Graph(n, edges), Graph(n, swapped)
    assert_same_edges(b, a)
    assert list(zip(b.edge_i.tolist(), b.edge_j.tolist(), b.edge_w.tolist())) == sorted(edges)


@settings(max_examples=200, deadline=None)
@given(graph=edge_lists(), cols=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_degrees_and_laplacian_apply_match_dense(graph, cols, seed):
    n, edges = graph
    g = Graph(n, edges)
    adj = g.adjacency().toarray()
    np.testing.assert_array_equal(adj, adj.T)
    expected_degrees = np.zeros(n)
    for i, j, w in edges:
        expected_degrees[i] += w
        expected_degrees[j] += w
    np.testing.assert_allclose(g.degrees(), adj.sum(axis=1), rtol=1e-14)
    np.testing.assert_allclose(g.degrees(), expected_degrees, rtol=1e-14)

    lap = laplacian(g)
    dense = lap.dense()
    x = np.random.default_rng(seed).standard_normal((n, cols))
    # summation order differs between the two products; bound the round-off
    slack = 4 * n * np.finfo(float).eps * (np.abs(dense) @ np.abs(x))
    vector = x[:, 0]
    assert np.all(np.abs(lap.apply(vector) - dense @ vector) <= slack[:, 0])
    assert np.all(np.abs(lap.apply(x) - dense @ x) <= slack)
