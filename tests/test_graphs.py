"""Graph construction, SBM generation and Laplacian basics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdpp import (
    Graph,
    SbmParams,
    critical_epsilon,
    laplacian,
    sbm_generate,
    tune_q,
    wilson_sample,
)
from graphdpp.errors import InvalidParams, OutOfRange
from graphdpp.graphs import _decode_triangular

from conftest import assert_same_edges, edge_lists


class TestGraph:
    def test_edges_normalized_and_symmetric(self):
        g = Graph(3, [(2, 0, 1.5), (1, 2, 0.5)])
        i, j, w = g.edges()
        assert i.tolist() == [0, 1]
        assert j.tolist() == [2, 2]
        assert w.tolist() == [1.5, 0.5]
        assert (i.dtype, j.dtype, w.dtype) == (np.int64, np.int64, np.float64)
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
        with pytest.raises(OutOfRange):
            Graph(2, [(0, 2, 1.0)])

    @pytest.mark.parametrize("endpoint", [1.5, np.nan])
    def test_rejects_non_integral_endpoint(self, endpoint):
        # both constructors share one validation; from_arrays used to truncate
        with pytest.raises(InvalidParams):
            Graph(3, [(0, endpoint, 1.0)])
        with pytest.raises(InvalidParams):
            Graph.from_arrays(3, [0], [endpoint], [1.0])

    @pytest.mark.parametrize("n", [2.5, 3.9, np.nan])
    def test_rejects_non_integral_node_count(self, n):
        with pytest.raises(InvalidParams):
            Graph(n, [(0, 1, 1.0)])
        with pytest.raises(InvalidParams):
            Graph.from_arrays(n, [0], [1], [1.0])

    def test_whole_float_node_count_accepted(self):
        assert Graph(3.0, [(0, 2, 1.0)]).n == 3

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidParams):
            Graph(3, [(0, 1, 1.0), (1, 0, 2.0)])
        with pytest.raises(InvalidParams):
            Graph(3, [(0, 1, 1.0), (0, 1, 2.0)])
        with pytest.raises(InvalidParams):
            Graph.from_arrays(3, [0, 0], [1, 1], [1.0, 2.0])


class TestDegreesAndLaplacian:
    def test_single_weighted_edge(self):
        g = Graph(2, [(0, 1, 2.5)])
        np.testing.assert_allclose(g.degrees(), [2.5, 2.5])

    @pytest.mark.parametrize(
        "consumer",
        [laplacian, lambda g: wilson_sample(g, 0.5), lambda g: tune_q(g, 1)],
        ids=["laplacian", "wilson_sample", "tune_q"],
    )
    def test_overflowing_degree_rejected(self, consumer):
        # finite weights whose degree sum is inf: eigendecompose returned NaN
        # eigenvalues and the walk raised a raw ZeroDivisionError
        g = Graph(3, [(0, 1, 1e308), (0, 2, 1e308)])
        with pytest.raises(InvalidParams):
            consumer(g)

    def test_isolated_node_degree_zero(self):
        g = Graph(3, [(0, 1, 1.0)])
        assert g.degrees()[2] == 0.0

    def test_triangle_degrees(self, triangle):
        np.testing.assert_allclose(triangle.degrees(), [2.0, 2.0, 2.0])

    def test_degrees_cached_read_only(self, triangle):
        d = triangle.degrees()
        assert triangle.degrees() is d
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0] = 5.0

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

    def test_dense_keeps_negative_zeros(self):
        # eigh's eigenvector signs depend on the sign of the zeros
        g = Graph(4, [(0, 1, 1.0), (1, 2, 2.0)])
        dense = laplacian(g).dense()
        zero = (dense == 0.0) & ~np.eye(4, dtype=bool)
        assert np.all(np.signbit(dense[zero]))
        np.testing.assert_array_equal(laplacian(g).matrix.toarray(), dense)

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

    def test_whole_float_counts_become_ints(self):
        p = SbmParams(n=100.0, k_comm=2.0, c=16.0, eps=0.12)
        assert type(p.n) is int and type(p.k_comm) is int
        assert p == SbmParams(n=100, k_comm=2, c=16.0, eps=0.12)
        g = sbm_generate(p, 0)
        assert g.n == 100 and set(g.communities) == {0, 1}

    @pytest.mark.parametrize("n,k_comm", [(100, 2.5), (100.5, 2), (np.nan, 2), (100, 0)])
    def test_rejects_bad_counts(self, n, k_comm):
        with pytest.raises(InvalidParams):
            SbmParams(n=n, k_comm=k_comm, c=16.0, eps=0.12)


class TestSbmGenerate:
    def test_unit_weights_and_labels(self):
        g = sbm_generate(SbmParams(n=60, k_comm=3, c=6.0, eps=0.2), 0)
        assert g.has_unit_weights()
        np.testing.assert_array_equal(g.communities, np.repeat([0, 1, 2], 20))

    def test_eps_zero_has_no_inter_edges(self):
        g = sbm_generate(SbmParams(n=40, k_comm=2, c=5.0, eps=0.0), 1)
        comm = g.communities
        i, j, _ = g.edges()
        assert np.all(comm[i] == comm[j])

    @pytest.mark.parametrize("eps", [1e-19, 1e-300, 5e-324])
    def test_vanishing_eps_terminates(self, eps):
        # numpy draws int64-max gaps at such rates; their sum used to wrap
        # negative, giving negative endpoints or a loop that never ended
        g = sbm_generate(SbmParams(n=40, k_comm=2, c=5.0, eps=eps), 1)
        comm = g.communities
        i, j, _ = g.edges()
        assert np.all(comm[i] == comm[j])

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


@settings(max_examples=200, deadline=None)
@given(graph=edge_lists(), data=st.data())
def test_edge_order_and_orientation_do_not_matter(graph, data):
    n, edges = graph
    shuffled = data.draw(st.permutations(edges))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    swapped = [(j, i, w) if flip else (i, j, w) for (i, j, w), flip in zip(shuffled, flips)]
    a, b = Graph(n, edges), Graph(n, swapped)
    assert_same_edges(b, a)
    assert list(zip(*(x.tolist() for x in b.edges()))) == sorted(edges)


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


@settings(max_examples=100, deadline=None)
@given(graph=edge_lists(), copies=st.integers(1, 4))
def test_disjoint_copies_match_the_union_built_from_edges(graph, copies):
    n, edges = graph
    g = Graph(n, edges)
    union = g.disjoint_copies(copies)
    i, j, w = g.edges()
    shift = np.repeat(np.arange(copies) * n, len(i))
    tiled = np.tile(i, copies) + shift, np.tile(j, copies) + shift, np.tile(w, copies)
    built = Graph.from_arrays(copies * n, *tiled)
    assert union.n == built.n and union.num_edges == built.num_edges
    np.testing.assert_array_equal(union.adjacency().toarray(), built.adjacency().toarray())
    np.testing.assert_array_equal(union.degrees(), np.tile(g.degrees(), copies))
    np.testing.assert_allclose(union.degrees(), built.degrees(), rtol=1e-14)
    assert union.has_unit_weights() == built.has_unit_weights()
    # rows keep their entry order, so the walk's running sums are g's tiled
    np.testing.assert_array_equal(union.running_sums(), np.tile(g.running_sums(), copies))
    assert union.communities is None


def test_disjoint_copies_keep_unit_weights_and_labels():
    g = sbm_generate(SbmParams(n=20, k_comm=2, c=4.0, eps=0.2), 1)
    union = g.disjoint_copies(3)
    assert union.has_unit_weights()
    np.testing.assert_array_equal(union.communities, np.tile(g.communities, 3))
    with pytest.raises(InvalidParams):
        g.disjoint_copies(0)


@settings(max_examples=60, deadline=None)
@given(s=st.integers(2, 300))
@example(s=500_000)
def test_decode_triangular_inverts_row_major_pair_index(s):
    if s <= 300:
        # every pair, so every row start and row end
        t = np.arange(s * (s - 1) // 2)
        rows, cols = np.triu_indices(s, 1)
    else:
        row_len = np.arange(s - 1, 0, -1)
        first = np.cumsum(row_len) - row_len
        t = np.concatenate([first, first + row_len - 1])
        rows = np.tile(np.arange(s - 1), 2)
        cols = np.concatenate([np.arange(1, s), np.full(s - 1, s - 1)])
    i, j = _decode_triangular(t, s)
    np.testing.assert_array_equal(i, rows)
    np.testing.assert_array_equal(j, cols)


def test_graph_retains_only_the_adjacency():
    # the CSR adjacency is a graph's one stored form: once generated and
    # given its Laplacian, a graph holds the two CSR matrices and a few
    # n-vectors (degrees, community labels), with no edge lists beside them
    laplacian(sbm_generate(SbmParams(n=100, k_comm=2, c=4.0, eps=0.12), 0))
    tracemalloc.start()
    try:
        g = sbm_generate(SbmParams(n=20_000, k_comm=2, c=16.0, eps=0.12), 0)
        lap = laplacian(g)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrices = (g.adjacency(), lap.matrix)
    csr_bytes = sum(a.nbytes for m in matrices for a in (m.data, m.indices, m.indptr))
    assert retained <= 1.1 * csr_bytes + 32 * g.n
