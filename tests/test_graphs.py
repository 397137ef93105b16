"""Graph construction, SBM generation and Laplacian basics."""

import numpy as np
import pytest

from graphdpp import (
    Graph,
    SbmParams,
    critical_epsilon,
    laplacian,
    sbm_generate,
)
from graphdpp.errors import InvalidParams


class TestGraph:
    def test_edges_normalized_and_symmetric(self):
        g = Graph(3, [(2, 0, 1.5), (1, 2, 0.5)])
        assert g.edge_tuples() == [(0, 2, 1.5), (1, 2, 0.5)]
        a = g.adjacency().toarray()
        np.testing.assert_array_equal(a, a.T)
        assert a[0, 2] == 1.5

    def test_neighbors(self, p3):
        idx, w = p3.neighbors(1)
        assert sorted(idx.tolist()) == [0, 2]
        np.testing.assert_array_equal(w, [1.0, 1.0])

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParams):
            Graph(2, [(0, 0, 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InvalidParams):
            Graph(2, [(0, 1, 0.0)])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(InvalidParams):
            Graph(2, [(0, 2, 1.0)])

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

    def test_deterministic_under_seed(self):
        p = SbmParams(n=50, k_comm=2, c=6.0, eps=0.3)
        g1, g2 = sbm_generate(p, 7), sbm_generate(p, 7)
        assert g1.edge_tuples() == g2.edge_tuples()

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
