"""Measurement and the three recovery paths."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from graphdpp import (
    Graph,
    LaplacianView,
    Measurement,
    RecoveryParams,
    SamplingSet,
    SbmParams,
    eigendecompose,
    fourier_basis_k,
    generate_bandlimited_signal,
    greedy_select,
    laplacian,
    measure,
    recover_known_basis,
    recover_known_basis_weighted,
    recover_unknown_basis,
    relative_error,
    sbm_generate,
)
from graphdpp import recovery
from graphdpp.graphs import component_labels
from graphdpp.errors import (
    IllConditionedWarning,
    InvalidParams,
    MissingWeights,
    ShapeMismatch,
    SolverDiverged,
)


@pytest.fixture
def instance():
    g = sbm_generate(SbmParams(n=80, k_comm=2, c=10.0, eps=0.15), 3)
    lap = laplacian(g)
    basis = eigendecompose(lap)
    u_k = fourier_basis_k(basis, 3)
    x = generate_bandlimited_signal(u_k, 4)
    return g, lap, basis, u_k, x


def unit_weight_sampling(nodes):
    nodes = np.asarray(nodes, dtype=np.int64)
    return SamplingSet(nodes=nodes, weights=np.ones(len(nodes)), method="test")


class TestMeasure:
    def test_noiseless_reads_exact_values(self, instance):
        _, _, _, u_k, x = instance
        s = unit_weight_sampling([3, 1, 4, 1, 5])
        meas = measure(x, s, 0.0, 0)
        np.testing.assert_array_equal(meas.y, x[[3, 1, 4, 1, 5]])

    def test_mean_is_signal_restriction(self, instance):
        _, _, _, _, x = instance
        s = unit_weight_sampling([0, 7])
        rng = np.random.default_rng(1)
        draws = 4000
        sigma = 0.05
        ys = np.array([measure(x, s, sigma, rng).y for _ in range(draws)])
        se = sigma / np.sqrt(draws)
        assert np.all(np.abs(ys.mean(axis=0) - x[[0, 7]]) <= 4 * se)

    def test_noise_std(self, instance):
        _, _, _, _, x = instance
        s = unit_weight_sampling([2])
        rng = np.random.default_rng(2)
        draws = 10_000
        sigma = 1e-4
        ys = np.array([measure(x, s, sigma, rng).y[0] for _ in range(draws)])
        std = ys.std(ddof=1)
        se = sigma / np.sqrt(2 * draws)
        assert abs(std - sigma) <= 4 * se

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            Measurement(y=np.zeros(3), sampling=unit_weight_sampling([1, 2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(InvalidParams):
            Measurement(y=np.array([0.5, bad]), sampling=unit_weight_sampling([1, 2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_noise_sigma_rejected(self, bad):
        with pytest.raises(InvalidParams):
            measure(np.zeros(3), unit_weight_sampling([1, 2]), noise_sigma=bad)

    def test_node_outside_signal_rejected(self):
        with pytest.raises(ShapeMismatch):
            measure(np.zeros(3), unit_weight_sampling([1, 3]), 0.0, 0)


class TestRecoveryParams:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gamma_rejected(self, bad):
        with pytest.raises(InvalidParams):
            RecoveryParams(gamma=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tolerance_rejected(self, bad):
        with pytest.raises(InvalidParams):
            RecoveryParams(tolerance=bad)


class TestKnownBasis:
    def test_noiseless_exact(self, instance):
        _, _, _, u_k, x = instance
        s = greedy_select(u_k, "mv")
        x_rec = recover_known_basis(u_k, measure(x, s, 0.0, 0))
        assert relative_error(x, x_rec) <= 1e-10

    def test_all_nodes_is_projection(self, instance):
        _, _, _, u_k, x = instance
        n = u_k.shape[0]
        s = unit_weight_sampling(range(n))
        rng = np.random.default_rng(5)
        meas = measure(x, s, 1e-2, rng)
        x_rec = recover_known_basis(u_k, meas)
        np.testing.assert_allclose(x_rec, u_k @ (u_k.T @ meas.y), atol=1e-10)

    def test_noisy_error_formula(self, instance):
        # recovery error equals the normal-equations image of the noise
        _, _, _, u_k, x = instance
        nodes = np.array([0, 11, 25, 47, 63])
        s = unit_weight_sampling(nodes)
        rng = np.random.default_rng(6)
        noise = rng.standard_normal(5) * 1e-3
        meas = Measurement(y=x[nodes] + noise, sampling=s)
        x_rec = recover_known_basis(u_k, meas)
        m_uk = u_k[nodes, :]
        expected = x + u_k @ np.linalg.solve(m_uk.T @ m_uk, m_uk.T @ noise)
        np.testing.assert_allclose(x_rec, expected, atol=1e-10)

    def test_ill_conditioned_warns(self):
        u = np.zeros((4, 2))
        u[0, 0] = 1.0
        u[1, 1] = 1.0
        s = unit_weight_sampling([2, 3])  # zero rows
        with pytest.warns(IllConditionedWarning):
            recover_known_basis(u, Measurement(y=np.zeros(2), sampling=s))

    @pytest.mark.parametrize(
        "scales, dropped",
        [
            ((0.5, 8e-13), False),  # below 1e-12 absolute, above 1e-12 * s_max
            ((10.0, 5e-12), True),  # above 1e-12 absolute, below 1e-12 * s_max
        ],
    )
    def test_warns_exactly_when_cutoff_drops(self, scales, dropped):
        u = np.diag(scales)
        s = unit_weight_sampling([0, 1])
        y = np.array([1.0, 1e-12])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x_rec = recover_known_basis(u, Measurement(y=y, sampling=s))
        warned = any(issubclass(w.category, IllConditionedWarning) for w in caught)
        assert warned == dropped
        kept = y[1] / scales[1] if not dropped else 0.0
        np.testing.assert_allclose(x_rec, u @ np.array([y[0] / scales[0], kept]), rtol=1e-12)

    def test_noise_floor_scales_linearly(self, instance):
        _, _, _, u_k, x = instance
        s = greedy_select(u_k, "wce")
        rng = np.random.default_rng(7)
        sigmas = np.array([1e-6, 1e-4, 1e-2])
        means = []
        for sigma in sigmas:
            errs = [
                relative_error(x, recover_known_basis(u_k, measure(x, s, sigma, rng)))
                for _ in range(100)
            ]
            means.append(np.mean(errs))
        slope = np.polyfit(np.log(sigmas), np.log(means), 1)[0]
        assert abs(slope - 1.0) <= 0.1


class TestKnownBasisWeighted:
    def test_equal_weights_match_unweighted(self, instance):
        _, _, _, u_k, x = instance
        nodes = np.array([4, 9, 33, 60])
        rng = np.random.default_rng(8)
        y = x[nodes] + 1e-3 * rng.standard_normal(4)
        plain = Measurement(y=y, sampling=unit_weight_sampling(nodes))
        scaled = Measurement(
            y=y,
            sampling=SamplingSet(nodes=nodes, weights=np.full(4, 0.37), method="t"),
        )
        a = recover_known_basis(u_k, plain)
        b = recover_known_basis_weighted(u_k, scaled)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_noiseless_exact(self, instance):
        _, _, _, u_k, x = instance
        nodes = np.array([1, 17, 42])
        s = SamplingSet(nodes=nodes, weights=np.array([0.2, 0.05, 0.6]), method="t")
        x_rec = recover_known_basis_weighted(u_k, measure(x, s, 0.0, 0))
        assert relative_error(x, x_rec) <= 1e-10

    def test_hand_two_node_case(self, k2):
        # one weighted measurement of a constant signal: exact closed form
        basis = eigendecompose(laplacian(k2))
        u1 = fourier_basis_k(basis, 1)
        s = SamplingSet(nodes=np.array([0]), weights=np.array([0.5]), method="t")
        meas = Measurement(y=np.array([3.0]), sampling=s)
        x_rec = recover_known_basis_weighted(u1, meas)
        np.testing.assert_allclose(x_rec, [3.0, 3.0], atol=1e-12)

    def test_missing_weights(self, instance):
        _, _, _, u_k, x = instance
        s = SamplingSet(nodes=np.array([0, 1, 2]), weights=None, method="t")
        with pytest.raises(MissingWeights):
            recover_known_basis_weighted(u_k, measure(x, s, 0.0, 0))


class TestUnknownBasis:
    def test_matches_dense_solve(self, instance):
        # the n = 80 instance takes the direct solve; the n = 600 graph is
        # above the direct-solve size, so conjugate gradient is checked
        # against an independent dense solve too
        _, small_lap, _, _, small_x = instance
        big = sbm_generate(SbmParams(n=600, k_comm=2, c=10.0, eps=0.15), 4)
        big_x = np.random.default_rng(11).standard_normal(600)
        assert small_lap.n <= recovery._DIRECT_MAX_N < big.n
        for lap, x in ((small_lap, small_x), (laplacian(big), big_x)):
            nodes = np.array([3, 3, 20, 41, 77])  # duplicate row kept
            weights = np.array([0.3, 0.3, 0.1, 0.25, 0.5])
            s = SamplingSet(nodes=nodes, weights=weights, method="t")
            rng = np.random.default_rng(9)
            meas = Measurement(y=x[nodes] + 1e-4 * rng.standard_normal(5), sampling=s)
            params = RecoveryParams(gamma=1e-4, r=4, tolerance=1e-10)
            x_rec = recover_unknown_basis(lap, meas, params)
            n = lap.n
            dense_l = lap.dense()
            lr = np.linalg.matrix_power(dense_l, 4)
            mtm = np.zeros((n, n))
            b = np.zeros(n)
            for node, w, yv in zip(nodes, weights, meas.y):
                mtm[node, node] += 1.0 / w
                b[node] += yv / w
            x_direct = np.linalg.solve(mtm + params.gamma * lr, b)
            assert np.linalg.norm(x_rec - x_direct) <= 1e-6 * np.linalg.norm(x_direct)

    def test_small_graph_needs_no_operator_applies(self, instance, monkeypatch):
        _, lap, _, _, x = instance
        nodes = np.array([2, 30, 66])
        s = SamplingSet(nodes=nodes, weights=np.array([0.4, 0.1, 0.9]), method="t")

        def refuse(self, z):
            raise AssertionError("conjugate gradient ran on a desk-scale graph")

        monkeypatch.setattr(LaplacianView, "apply", refuse)
        x_rec = recover_unknown_basis(lap, Measurement(y=x[nodes], sampling=s))
        assert np.all(np.isfinite(x_rec))

    @pytest.mark.parametrize("failure", ["inaccurate", "singular"])
    def test_direct_solve_failure_falls_back_to_cg(self, instance, monkeypatch, failure):
        _, lap, _, _, x = instance
        nodes = np.array([5, 18, 44, 70])
        s = SamplingSet(nodes=nodes, weights=np.array([0.2, 0.3, 0.15, 0.4]), method="t")
        meas = Measurement(y=x[nodes], sampling=s)
        params = RecoveryParams(gamma=1e-5, r=4, tolerance=1e-10)
        expected = recover_unknown_basis(lap, meas, params)

        def broken_solve(a, b):
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return 1.001 * np.linalg.lstsq(a, b, rcond=None)[0]

        monkeypatch.setattr(np.linalg, "solve", broken_solve)
        x_rec = recover_unknown_basis(lap, meas, params)
        assert np.linalg.norm(x_rec - expected) <= 1e-6 * np.linalg.norm(expected)

    def test_all_nodes_tiny_gamma_interpolates(self, p3):
        lap = laplacian(p3)
        y = np.array([0.3, -0.1, 0.8])
        s = unit_weight_sampling([0, 1, 2])
        meas = Measurement(y=y, sampling=s)
        x_rec = recover_unknown_basis(lap, meas, RecoveryParams(gamma=1e-12, r=4))
        np.testing.assert_allclose(x_rec, y, atol=1e-6)

    def test_large_gamma_gives_weighted_mean(self, instance):
        g, lap, _, _, x = instance
        nodes = np.array([2, 30, 66])
        weights = np.array([0.4, 0.1, 0.9])
        s = SamplingSet(nodes=nodes, weights=weights, method="t")
        meas = Measurement(y=x[nodes], sampling=s)
        x_rec = recover_unknown_basis(
            lap, meas, RecoveryParams(gamma=1e8, r=2, tolerance=1e-12)
        )
        expected = np.sum(meas.y / weights) / np.sum(1.0 / weights)
        np.testing.assert_allclose(x_rec, expected, atol=1e-4)

    def test_perturbations_increase_objective(self, instance):
        g, lap, _, u_k, x = instance
        nodes = np.array([5, 18, 44, 70])
        weights = np.array([0.2, 0.3, 0.15, 0.4])
        s = SamplingSet(nodes=nodes, weights=weights, method="t")
        rng = np.random.default_rng(10)
        meas = Measurement(y=x[nodes] + 1e-4 * rng.standard_normal(4), sampling=s)
        params = RecoveryParams(gamma=1e-5, r=4, tolerance=1e-12)
        x_rec = recover_unknown_basis(lap, meas, params)

        def objective(z):
            lrz = z
            for _ in range(4):
                lrz = lap.apply(lrz)
            data = np.sum((z[nodes] - meas.y) ** 2 / weights)
            return data + params.gamma * (z @ lrz)

        base = objective(x_rec)
        for _ in range(20):
            d = rng.standard_normal(lap.n)
            d *= 1e-3 / np.linalg.norm(d)
            assert objective(x_rec + d) >= base

    def test_component_without_samples_converges(self, two_k2):
        # the penalty kernel contains the unsampled component's indicator,
        # but the right-hand side is orthogonal to it, so CG still settles
        lap = laplacian(two_k2)
        s = SamplingSet(nodes=np.array([0, 1]), weights=np.array([1.0, 1.0]), method="t")
        meas = Measurement(y=np.array([2.0, 2.0]), sampling=s)
        x_rec = recover_unknown_basis(lap, meas, RecoveryParams(gamma=1e-6, r=2))
        np.testing.assert_allclose(x_rec[:2], 2.0, atol=1e-3)
        np.testing.assert_allclose(x_rec[2:], 0.0, atol=1e-8)

    def test_iteration_cap_raises(self):
        # a path graph above the direct-solve size, so conjugate gradient
        # runs and hits its two-iteration cap
        n = 600
        path = Graph.from_arrays(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))
        lap = laplacian(path)
        assert n > recovery._DIRECT_MAX_N
        nodes = np.array([0, 12])
        s = SamplingSet(nodes=nodes, weights=np.array([0.01, 0.02]), method="t")
        meas = Measurement(y=np.array([0.7, -0.4]), sampling=s)
        with pytest.raises(SolverDiverged):
            recover_unknown_basis(
                lap, meas, RecoveryParams(gamma=1e-7, r=4, tolerance=1e-12, max_iter=2)
            )

    def test_preconditioned_cg_converges_within_cap(self):
        # on this n = 600 instance the Jacobi-preconditioned loop needs
        # under 300 iterations and the plain one nearly 1000, so a cap
        # of 600 only passes with the preconditioner in use
        lap = laplacian(sbm_generate(SbmParams(n=600, k_comm=2, c=10.0, eps=0.15), 4))
        assert lap.n > recovery._DIRECT_MAX_N
        x = np.random.default_rng(11).standard_normal(600)
        nodes = np.array([9, 24, 44, 104, 160, 183, 303, 377, 487, 502])
        weights = np.linspace(0.1, 0.5, 10)
        s = SamplingSet(nodes=nodes, weights=weights, method="t")
        meas = Measurement(y=x[nodes], sampling=s)
        params = RecoveryParams(gamma=1e-5, r=4, tolerance=1e-10, max_iter=600)
        x_rec = recover_unknown_basis(lap, meas, params)
        m = params.gamma * np.linalg.matrix_power(lap.dense(), 4)
        m[nodes, nodes] += 1.0 / weights
        x_direct = np.linalg.solve(m, np.bincount(nodes, meas.y / weights, minlength=600))
        assert np.linalg.norm(x_rec - x_direct) <= 1e-6 * np.linalg.norm(x_direct)

    def test_missing_weights(self, instance):
        g, lap, _, _, x = instance
        s = SamplingSet(nodes=np.array([0, 1]), weights=None, method="t")
        with pytest.raises(MissingWeights):
            recover_unknown_basis(lap, measure(x, s, 0.0, 0))


@st.composite
def recovery_problems(draw):
    """Small graphs with isolated nodes, several components and weighted
    edges; repeated sampled nodes; gamma log-uniform over [1e-7, 1e2]."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    edge_w = draw(st.lists(st.floats(0.25, 4.0), min_size=len(chosen), max_size=len(chosen)))
    graph = Graph(n, [(i, j, w) for (i, j), w in zip(chosen, edge_w)])
    m = draw(st.integers(1, 2 * n))
    nodes = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m)))
    gamma = 10.0 ** draw(st.floats(-7.0, 2.0))
    r = draw(st.integers(1, 4))
    return graph, nodes, weights, y, gamma, r


@settings(max_examples=300, deadline=None)
@given(recovery_problems())
def test_unknown_basis_solves_normal_equations(problem):
    graph, nodes, weights, y, gamma, r = problem
    n = graph.n
    s = SamplingSet(nodes=nodes, weights=weights, method="t")
    params = RecoveryParams(gamma=gamma, r=r)
    x_rec = recover_unknown_basis(laplacian(graph), Measurement(y=y, sampling=s), params)

    adj = graph.adjacency().toarray()
    lap = np.diag(adj.sum(axis=1)) - adj
    m = gamma * np.linalg.matrix_power(lap, r) + np.diag(np.bincount(nodes, 1.0 / weights, minlength=n))
    b = np.bincount(nodes, y / weights, minlength=n)
    # tolerance plus the round-off of forming m @ x_rec itself
    slack = 4 * n * np.finfo(float).eps * np.linalg.norm(np.abs(m) @ np.abs(x_rec))
    assert np.linalg.norm(m @ x_rec - b) <= params.tolerance * np.linalg.norm(b) + slack

    _, labels = connected_components(sp.csr_matrix(adj), directed=False)
    unsampled = ~np.isin(labels, labels[nodes])
    np.testing.assert_array_equal(x_rec[unsampled], 0.0)


@settings(max_examples=300, deadline=None)
@given(recovery_problems())
def test_preconditioned_cg_on_degenerate_graphs(problem):
    # the dense solve always fails, so every draw runs conjugate gradient;
    # the appended node is isolated and never sampled, a zero entry of
    # the preconditioner's diagonal
    graph, nodes, weights, y, gamma, r = problem
    n = graph.n + 1
    graph = Graph.from_arrays(n, graph.edge_i, graph.edge_j, graph.edge_w)
    s = SamplingSet(nodes=nodes, weights=weights, method="t")
    params = RecoveryParams(gamma=gamma, r=r)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(np.linalg, "solve", singular)
        warnings.simplefilter("error")
        x_rec = recover_unknown_basis(laplacian(graph), Measurement(y=y, sampling=s), params)

    assert np.all(np.isfinite(x_rec))
    assert x_rec[-1] == 0.0
    adj = graph.adjacency().toarray()
    lap = np.diag(adj.sum(axis=1)) - adj
    m = gamma * np.linalg.matrix_power(lap, r) + np.diag(np.bincount(nodes, 1.0 / weights, minlength=n))
    b = np.bincount(nodes, y / weights, minlength=n)
    slack = 4 * n * np.finfo(float).eps * np.linalg.norm(np.abs(m) @ np.abs(x_rec))
    assert np.linalg.norm(m @ x_rec - b) <= params.tolerance * np.linalg.norm(b) + slack


def dense_normal_solve(lap, nodes, weights, y, gamma, r):
    """The earlier desk-scale path, kept as the reference for the bordered
    kernel system: gamma L^r plus the sampled diagonal, factored densely,
    with one step of iterative refinement."""
    n = lap.n
    m = gamma * np.linalg.matrix_power(lap.dense(), r)
    m.flat[:: n + 1] += np.bincount(nodes, 1.0 / weights, minlength=n)
    b = np.bincount(nodes, y / weights, minlength=n)
    x = np.linalg.solve(m, b)
    return x + np.linalg.solve(m, b - m @ x)


@st.composite
def sbm_recovery_problems(draw):
    """SBMs of up to 300 nodes, r in 1..4, gamma log-uniform over
    [1e-7, 1e2], sampled nodes with repeats. Each component's smallest
    node is sampled too, so the bordered system is nonsingular."""
    k_comm = draw(st.integers(1, 4))
    n = k_comm * draw(st.integers(10, 300 // k_comm))
    params = SbmParams(n=n, k_comm=k_comm, c=draw(st.floats(2.0, 9.0)), eps=draw(st.floats(0.0, 1.0)))
    graph = sbm_generate(params, draw(st.integers(0, 2**32 - 1)))
    drawn = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20))
    labels = component_labels(graph)
    nodes = np.concatenate([drawn, np.flatnonzero(labels == np.arange(n))]).astype(np.int64)
    m = len(nodes)
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m)))
    gamma = 10.0 ** draw(st.floats(-7.0, 2.0))
    return laplacian(graph), nodes, weights, y, gamma, draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(sbm_recovery_problems())
def test_bordered_kernel_system_matches_dense_solve(problem):
    lap, nodes, weights, y, gamma, r = problem
    s = SamplingSet(nodes=nodes, weights=weights, method="t")

    def refuse(self, z):
        raise AssertionError("conjugate gradient ran instead of the bordered system")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LaplacianView, "apply", refuse)
        x_rec = recover_unknown_basis(
            lap, Measurement(y=y, sampling=s), RecoveryParams(gamma=gamma, r=r)
        )
    x_ref = dense_normal_solve(lap, nodes, weights, y, gamma, r)
    assert np.linalg.norm(x_rec - x_ref) <= 1e-7 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("r", [2, 4])
def test_repeated_node_with_two_readings_stays_on_the_bordered_path(r, monkeypatch):
    # one row per draw would force a ~ (y1 - y2) / gamma at the repeated
    # node, and the system would miss its residual check; merged repeats
    # keep it on the bordered path, where CG would be far off at gamma = 1e-7
    n = 30
    lap = laplacian(Graph.from_arrays(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1)))
    nodes = np.array([0, 10, 10, 29])
    weights = np.array([0.5, 0.2, 0.4, 0.5])
    y = np.array([1.0, -0.5, 0.5, 2.0])
    s = SamplingSet(nodes=nodes, weights=weights, method="t")

    def refuse(self, z):
        raise AssertionError("conjugate gradient ran instead of the bordered system")

    monkeypatch.setattr(LaplacianView, "apply", refuse)
    x_rec = recover_unknown_basis(lap, Measurement(y=y, sampling=s), RecoveryParams(gamma=1e-7, r=r))
    x_ref = dense_normal_solve(lap, nodes, weights, y, 1e-7, r)
    assert np.linalg.norm(x_rec - x_ref) <= 1e-7 * np.linalg.norm(x_ref)


class TestRelativeError:
    def test_identical_is_zero(self):
        x = np.array([1.0, 2.0])
        assert relative_error(x, x) == 0.0

    def test_zero_guess_of_unit_signal(self):
        x = np.array([0.6, 0.8])
        assert relative_error(x, np.zeros(2)) == pytest.approx(1.0)

    def test_hand_value(self):
        # x = (3, 4), guess (3, 0): error 4/5
        assert relative_error(np.array([3.0, 4.0]), np.array([3.0, 0.0])) == pytest.approx(0.8)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            relative_error(np.zeros(2), np.zeros(3))
