"""Measurement and the three recovery paths."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
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
    maxvol_select,
    measure,
    recover_known_basis,
    recover_known_basis_weighted,
    recover_unknown_basis,
    recover_unknown_basis_batch,
    relative_error,
    sbm_generate,
)
from graphdpp import experiments, recovery
from graphdpp.graphs import component_labels
from graphdpp.recovery import known_basis_solver
from graphdpp.errors import (
    IllConditionedWarning,
    InvalidParams,
    MissingWeights,
    OutOfRange,
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
        with pytest.raises(OutOfRange):
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

    def test_fractional_power_rejected(self):
        # unchecked, it fails later as a raw TypeError in matrix_power or range()
        with pytest.raises(InvalidParams):
            RecoveryParams(r=2.5)

    @pytest.mark.parametrize("bad", [1.5, 0, -3])
    def test_bad_iteration_cap_rejected(self, bad):
        # unchecked, 1.5 is a raw TypeError and 0 or -3 run no iteration
        with pytest.raises(InvalidParams):
            RecoveryParams(max_iter=bad)

    def test_whole_float_counts_become_ints(self):
        params = RecoveryParams(r=3.0, max_iter=7.0)
        assert (params.r, params.max_iter) == (3, 7)
        assert type(params.r) is int and type(params.max_iter) is int


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

    def test_unit_weights_are_bit_identical_to_plain(self, instance):
        # the fig1a sweep recovers deterministic selections through the weighted solve
        _, _, _, u_k, x = instance
        s = greedy_select(u_k, "mse")
        meas = measure(x, s, 1e-3, 9)
        np.testing.assert_array_equal(
            recover_known_basis_weighted(u_k, meas), recover_known_basis(u_k, meas)
        )

    @pytest.mark.parametrize("solve", [recover_known_basis, recover_known_basis_weighted])
    def test_singular_warning_points_at_caller(self, solve):
        u = np.zeros((4, 2))
        u[0, 0] = 1.0
        meas = Measurement(y=np.zeros(2), sampling=unit_weight_sampling([2, 3]))
        with pytest.warns(IllConditionedWarning) as record:
            solve(u, meas)
        assert record[0].filename == __file__


class TestKnownBasisSolver:
    """A factored selection, applied to many measurement vectors, returns
    bit for bit the per-measurement solve."""

    @staticmethod
    def selections(u_k):
        rng = np.random.default_rng(12)
        nodes = rng.choice(len(u_k), size=6, replace=False)
        return [
            greedy_select(u_k, "wce"),
            greedy_select(u_k, "mse"),
            greedy_select(u_k, "mv"),
            maxvol_select(u_k),
            SamplingSet(nodes=nodes, weights=rng.uniform(0.05, 0.9, size=6), method="t"),
        ]

    def test_bit_identical_to_weighted_solve(self, instance):
        _, _, _, u_k, x = instance
        rng = np.random.default_rng(13)
        for s in self.selections(u_k):
            solve = known_basis_solver(u_k, s)
            for _ in range(5):
                meas = measure(x, s, 1e-3, rng)
                np.testing.assert_array_equal(
                    solve(meas.y), recover_known_basis_weighted(u_k, meas)
                )

    def test_missing_weights(self, instance):
        _, _, _, u_k, _ = instance
        with pytest.raises(MissingWeights):
            known_basis_solver(u_k, SamplingSet(nodes=np.array([0, 1, 2]), method="t"))

    def test_singular_selection_warns_once_per_factor(self):
        u = np.zeros((4, 2))
        u[0, 0] = 1.0
        s = unit_weight_sampling([2, 3])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve = known_basis_solver(u, s)
            outs = [solve(np.array([1.0, -1.0])) for _ in range(3)]
        assert [w.category for w in caught] == [IllConditionedWarning]
        assert caught[0].filename == __file__
        for out in outs:
            np.testing.assert_array_equal(out, np.zeros(4))


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

    def test_cg_returns_only_on_its_true_residual(self, instance, monkeypatch):
        # forced through conjugate gradient, this stiff system's recursive
        # residual passes the tolerance while b - Mz stays about 5e-6 |b|:
        # the solver must either reach the tolerance on b - Mz or raise
        _, lap, _, _, x = instance
        monkeypatch.setattr(recovery, "_DIRECT_MAX_N", 0)
        nodes = np.array([2, 30, 66])
        weights = np.array([0.4, 0.1, 0.9])
        s = SamplingSet(nodes=nodes, weights=weights, method="t")
        meas = Measurement(y=x[nodes], sampling=s)
        params = RecoveryParams(gamma=1e8, r=2, tolerance=1e-12)
        try:
            x_rec = recover_unknown_basis(lap, meas, params)
        except SolverDiverged:
            return
        m = params.gamma * np.linalg.matrix_power(lap.dense(), 2)
        m[nodes, nodes] += 1.0 / weights
        b = np.bincount(nodes, meas.y / weights, minlength=lap.n)
        assert np.linalg.norm(m @ x_rec - b) <= params.tolerance * np.linalg.norm(b)

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
    graph = Graph.from_arrays(n, *graph.edges())
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
    with iterative refinement. The system and its residuals are formed in
    extended precision: at a condition number near 1e11 (gamma = 1, r = 4,
    lambda_2 ~ 0.02) a float64 residual leaves the reference ~1e-7 off
    along the Fiedler vector, where refinement cannot mend it."""
    n = lap.n
    m = gamma * np.linalg.matrix_power(lap.dense().astype(np.longdouble), r)
    m.flat[:: n + 1] += np.bincount(nodes, 1.0 / weights, minlength=n)
    b = np.bincount(nodes, y / weights, minlength=n).astype(np.longdouble)
    m64 = m.astype(float)
    x = np.linalg.solve(m64, b.astype(float)).astype(np.longdouble)
    for _ in range(3):
        x += np.linalg.solve(m64, (b - m @ x).astype(float))
    return x.astype(float)


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


# two blocks joined by a few edges (lambda_2 ~ 0.02, lambda_max ~ 17): the
# bordered answer is within 4e-10 of the reference, but forming it through
# (L^4)^+ leaves a residual 63 times the 1e-8 tolerance, which a check with
# no round-off slack sent to conjugate gradient
@example(
    problem=(
        laplacian(sbm_generate(SbmParams(n=154, k_comm=2, c=6.0, eps=0.001), 2)),
        np.array([0, 0, 0, 0, 0, 0, 1, 0]),
        np.ones(8),
        np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
        1.0,
        4,
    )
)
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


FIG1B_GAMMAS = (1e-7, 1e-6, 1e-5, 1e-3, 1e-1, 1e1, 1e2)


def grid_params(gammas, **shared):
    return [RecoveryParams(gamma=g, **shared) for g in gammas]


def path_rows(lap, meas, params_seq):
    """One draw's solves over a penalty grid, a (len(params_seq), n) array:
    the batch of that draw alone."""
    return recover_unknown_basis_batch(lap, meas, [len(meas.y)], params_seq)[0]


def one_gamma_rows(lap, meas, params_seq):
    """The grid solved one gamma at a time; SolverDiverged where CG gives up."""
    rows = []
    for p in params_seq:
        try:
            rows.append(recover_unknown_basis(lap, meas, p))
        except SolverDiverged:
            rows.append(None)
    return rows


def assert_rows_match(lap, meas, params_seq, rows):
    """The grid solve's rows are bit for bit the one-gamma solves (or the
    grid raises SolverDiverged where a one-gamma solve does)."""
    if any(row is None for row in rows):
        with pytest.raises(SolverDiverged):
            path_rows(lap, meas, params_seq)
        return
    out = path_rows(lap, meas, params_seq)
    assert out.shape == (len(params_seq), lap.n)
    for got, want in zip(out, rows):
        np.testing.assert_array_equal(got, want)


@st.composite
def sbm_grid_problems(draw):
    """SBMs of up to 120 nodes, optionally with edge weights in [0.25, 4],
    sampled nodes with repeats and weights, r in {1, 2, 4}."""
    k_comm = draw(st.integers(1, 3))
    n = k_comm * draw(st.integers(10, 120 // k_comm))
    params = SbmParams(n=n, k_comm=k_comm, c=draw(st.floats(2.0, 8.0)), eps=draw(st.floats(0.0, 1.0)))
    graph = sbm_generate(params, draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        i, j, w = graph.edges()
        w = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.25, 4.0, len(w))
        graph = Graph.from_arrays(n, i, j, w)
    m = draw(st.integers(1, 12))
    nodes = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m)))
    return laplacian(graph), nodes, weights, y, draw(st.sampled_from([1, 2, 4]))


@settings(max_examples=40, deadline=None)
@given(sbm_grid_problems())
def test_grid_rows_equal_one_gamma_solves(problem):
    lap, nodes, weights, y, r = problem
    meas = Measurement(y=y, sampling=SamplingSet(nodes=nodes, weights=weights, method="t"))
    params_seq = grid_params(FIG1B_GAMMAS, r=r)
    assert_rows_match(lap, meas, params_seq, one_gamma_rows(lap, meas, params_seq))


class TestUnknownBasisPath:
    @staticmethod
    def spy_cg(monkeypatch):
        gammas = []
        real = recovery._conjugate_gradient

        def spy(lap, r, gamma, *args):
            gammas.append(gamma)
            return real(lap, r, gamma, *args)

        monkeypatch.setattr(recovery, "_conjugate_gradient", spy)
        return gammas

    def test_only_the_failing_gamma_runs_cg(self, instance, monkeypatch):
        _, lap, _, _, x = instance
        nodes = np.array([5, 18, 44, 70])
        s = SamplingSet(nodes=nodes, weights=np.array([0.2, 0.3, 0.15, 0.4]), method="t")
        meas = Measurement(y=x[nodes], sampling=s)
        params_seq = grid_params(FIG1B_GAMMAS, r=4, tolerance=1e-10)
        rows = one_gamma_rows(lap, meas, params_seq)
        real_solve = np.linalg.solve

        def one_row_off(a, b):
            sol = real_solve(a, b)
            if sol.ndim == 4:  # (measurements, gammas, size, 1)
                sol[:, 2] *= 1.001  # FIG1B_GAMMAS[2] misses its residual check
            return sol

        monkeypatch.setattr(np.linalg, "solve", one_row_off)
        cg_gammas = self.spy_cg(monkeypatch)
        out = path_rows(lap, meas, params_seq)
        assert cg_gammas == [FIG1B_GAMMAS[2]]
        for i, (got, want) in enumerate(zip(out, rows)):
            if i == 2:
                assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
            else:
                np.testing.assert_array_equal(got, want)

    def test_component_without_samples_sends_every_gamma_to_cg(self, two_k2, monkeypatch):
        lap = laplacian(two_k2)
        s = SamplingSet(nodes=np.array([0, 1]), weights=np.array([1.0, 1.0]), method="t")
        meas = Measurement(y=np.array([2.0, 2.0]), sampling=s)
        gammas = (1e-6, 1e-3, 1.0)
        params_seq = grid_params(gammas, r=2)
        rows = one_gamma_rows(lap, meas, params_seq)
        cg_gammas = self.spy_cg(monkeypatch)
        assert_rows_match(lap, meas, params_seq, rows)
        assert cg_gammas == list(gammas)

    def test_above_direct_size_rows_equal_one_gamma_solves(self):
        lap = laplacian(sbm_generate(SbmParams(n=600, k_comm=2, c=10.0, eps=0.15), 4))
        assert lap.n > recovery._DIRECT_MAX_N
        x = np.random.default_rng(11).standard_normal(600)
        nodes = np.array([9, 24, 44, 104, 160, 183, 303, 377, 487, 502])
        s = SamplingSet(nodes=nodes, weights=np.linspace(0.1, 0.5, 10), method="t")
        meas = Measurement(y=x[nodes], sampling=s)
        params_seq = grid_params((1e-5, 1e-3, 1e-1), r=4, tolerance=1e-10)
        rows = one_gamma_rows(lap, meas, params_seq)
        assert all(row is not None for row in rows)
        assert_rows_match(lap, meas, params_seq, rows)

    @pytest.mark.parametrize("shift", [-530, 500])
    def test_power_of_two_scaled_readings_scale_the_cg_answer(self, shift):
        # CG's dot products of readings near 1e-160 underflowed to zero and
        # broke it down; scaling by a power of two is exact, so no bit moves
        lap = laplacian(sbm_generate(SbmParams(n=600, k_comm=2, c=10.0, eps=0.15), 4))
        x = np.random.default_rng(11).standard_normal(600)
        nodes = np.array([9, 24, 44, 104, 160, 183, 303, 377, 487, 502])
        s = SamplingSet(nodes=nodes, weights=np.linspace(0.1, 0.5, 10), method="t")
        params = RecoveryParams(gamma=1e-3, r=4)
        want = recover_unknown_basis(lap, Measurement(y=x[nodes], sampling=s), params)
        scaled = Measurement(y=np.ldexp(x[nodes], shift), sampling=s)
        np.testing.assert_array_equal(
            recover_unknown_basis(lap, scaled, params), np.ldexp(want, shift)
        )

    def test_zero_right_hand_side_gives_zero_rows(self, instance):
        _, lap, _, _, _ = instance
        s = SamplingSet(nodes=np.array([3, 40]), weights=np.array([0.5, 0.5]), method="t")
        out = path_rows(
            lap, Measurement(y=np.zeros(2), sampling=s), grid_params(FIG1B_GAMMAS)
        )
        np.testing.assert_array_equal(out, np.zeros((len(FIG1B_GAMMAS), lap.n)))

    @pytest.mark.parametrize(
        "other",
        [{"r": 2}, {"tolerance": 1e-6}, {"max_iter": 50}],
        ids=["r", "tolerance", "max_iter"],
    )
    def test_mismatched_shared_knobs_rejected(self, instance, other):
        _, lap, _, _, x = instance
        s = SamplingSet(nodes=np.array([3, 40]), weights=np.array([0.5, 0.5]), method="t")
        meas = Measurement(y=x[[3, 40]], sampling=s)
        with pytest.raises(InvalidParams):
            path_rows(
                lap, meas, [RecoveryParams(gamma=1e-5), RecoveryParams(gamma=1e-3, **other)]
            )

    @pytest.mark.parametrize("grid", [[], [1e-5]], ids=["empty", "bare-float"])
    def test_grid_that_is_not_recovery_params_rejected(self, instance, grid):
        _, lap, _, _, x = instance
        s = SamplingSet(nodes=np.array([3, 40]), weights=np.array([0.5, 0.5]), method="t")
        with pytest.raises(InvalidParams):
            path_rows(lap, Measurement(y=x[[3, 40]], sampling=s), grid)

    def test_fig1b_sweep_makes_one_batch_call_per_graph(self, monkeypatch):
        calls = []
        real = experiments.recover_unknown_basis_batch

        def spy(lap, meas, sizes, params_seq):
            assert sum(sizes) == len(meas.y)
            calls.append((len(sizes), len(params_seq)))
            return real(lap, meas, sizes, params_seq)

        monkeypatch.setattr(experiments, "recover_unknown_basis_batch", spy)
        cfg = experiments.ExperimentConfig(
            n=40, c=6.0, bandlimit=2, sweep="gamma", grid=FIG1B_GAMMAS, target_m=4,
            graphs_per_point=2, signals_per_graph=3, seed=2,
        )
        rows = experiments.run_experiment_unknown_basis(cfg)
        # every signal's walk and i.i.d. draw, the whole grid
        assert calls == [(3 * 2, len(FIG1B_GAMMAS))] * 2
        assert all(row.trials == 2 * 3 for row in rows)


def measurement(nodes, weights, y):
    return Measurement(y=y, sampling=SamplingSet(nodes=np.asarray(nodes), weights=weights, method="t"))


def ragged(draws):
    """One Measurement over the (nodes, weights, y) draws concatenated, and
    the draws' sizes."""
    nodes, weights, y = (np.concatenate(parts) for parts in zip(*draws))
    return measurement(nodes, weights, y), [len(d[0]) for d in draws]


def split(meas, sizes):
    """The one-draw Measurements of a ragged batch."""
    cuts = np.cumsum(sizes)[:-1]
    arrays = (meas.sampling.nodes, meas.sampling.weights, meas.y)
    return [measurement(*parts) for parts in zip(*(np.split(a, cuts) for a in arrays))]


@st.composite
def sbm_batch_problems(draw):
    """Ragged batches on one SBM of up to 120 nodes, optionally with edge
    weights in [0.25, 4]: draws of few nodes each, with repeats, so that
    several draws share a distinct-sample count; at times all in the first
    block of blocks without links between them (a component without
    samples), at times all zero (a zero right-hand side). The mean degree
    is 6 to 12, so that most graphs have no isolated node, which would be
    a component without samples for almost every draw."""
    k_comm = draw(st.integers(1, 3))
    # blocks of at least 13 nodes keep c < n and the in-block probability at most 1
    n = k_comm * draw(st.integers(13, 120 // k_comm))
    eps = draw(st.just(0.0) | st.floats(0.05, 1.0))
    params = SbmParams(n=n, k_comm=k_comm, c=draw(st.floats(6.0, 12.0)), eps=eps)
    graph = sbm_generate(params, draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        i, j, w = graph.edges()
        w = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.25, 4.0, len(w))
        graph = Graph.from_arrays(n, i, j, w)
    draws = []
    for _ in range(draw(st.integers(1, 8))):
        m = draw(st.integers(1, 5))
        high = draw(st.sampled_from([n, n // k_comm]))
        nodes = np.array(draw(st.lists(st.integers(0, high - 1), min_size=m, max_size=m)))
        weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
        y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m)))
        draws.append((nodes, weights, y * (draw(st.integers(0, 9)) > 0)))
    r = draw(st.sampled_from([1, 2, 4]))
    return laplacian(graph), *ragged(draws), grid_params(FIG1B_GAMMAS, r=r)


def above_direct_size_problem():
    """Draws of one to three nodes on a 600-node SBM: all go to CG."""
    lap = laplacian(sbm_generate(SbmParams(n=600, k_comm=2, c=10.0, eps=0.15), 4))
    x = np.random.default_rng(11).standard_normal(600)
    draws = [
        (np.array(nodes), np.linspace(0.2, 0.6, len(nodes)), x[nodes])
        for nodes in ([9, 503], [24, 24, 377], [160, 487], [44])
    ]
    return lap, *ragged(draws), grid_params((1e-3, 1e-1), r=2, tolerance=1e-10)


@settings(max_examples=40, deadline=None)
@given(sbm_batch_problems())
@example(above_direct_size_problem())
def test_batch_rows_equal_path_rows(problem):
    lap, meas, sizes, params_seq = problem
    try:
        paths = [path_rows(lap, one, params_seq) for one in split(meas, sizes)]
    except SolverDiverged:
        with pytest.raises(SolverDiverged):
            recover_unknown_basis_batch(lap, meas, sizes, params_seq)
        return
    out = recover_unknown_basis_batch(lap, meas, sizes, params_seq)
    assert out.shape == (len(sizes), len(params_seq), lap.n)
    for got, want in zip(out, paths):
        np.testing.assert_array_equal(got, want)


# (nodes, weights, y, sizes) of a batch on the 80-node instance, and the
# typed error it raises: the sizes and the upper node bound are checked by
# the batch, the rest by the Measurement and SamplingSet it is built from
MALFORMED_BATCHES = {
    "sizes-short": (([3, 40, 7], [0.5] * 3, [1.0] * 3, [1, 1]), InvalidParams),
    "sizes-long": (([3, 40, 7], [0.5] * 3, [1.0] * 3, [2, 2]), InvalidParams),
    "size-zero": (([3, 40, 7], [0.5] * 3, [1.0] * 3, [0, 3]), InvalidParams),
    "size-negative": (([3, 40, 7], [0.5] * 3, [1.0] * 3, [-1, 4]), InvalidParams),
    "size-fractional": (([3, 40, 7], [0.5] * 3, [1.0] * 3, [1.5, 1.5]), InvalidParams),
    "sizes-not-flat": (([3, 40, 7], [0.5] * 3, [1.0] * 3, [[1, 2]]), InvalidParams),
    "node-at-n": (([3, 80, 7], [0.5] * 3, [1.0] * 3, [1, 2]), OutOfRange),
    "node-negative": (([3, -1, 7], [0.5] * 3, [1.0] * 3, [1, 2]), OutOfRange),
    "weight-zero": (([3, 40, 7], [0.5, 0.0, 0.5], [1.0] * 3, [1, 2]), InvalidParams),
    "weight-negative": (([3, 40, 7], [0.5, -0.5, 0.5], [1.0] * 3, [1, 2]), InvalidParams),
    "y-nan": (([3, 40, 7], [0.5] * 3, [1.0, np.nan, 1.0], [1, 2]), InvalidParams),
}


@pytest.mark.parametrize("case", MALFORMED_BATCHES.values(), ids=MALFORMED_BATCHES.keys())
def test_malformed_batch_rejected(instance, case):
    (nodes, weights, y, sizes), error = case
    _, lap, _, _, _ = instance
    with pytest.raises(error):
        meas = measurement(nodes, np.array(weights), np.array(y))
        recover_unknown_basis_batch(lap, meas, sizes, grid_params(FIG1B_GAMMAS))


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

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 300),
        zero_signal=st.booleans(),
        scales=st.lists(st.sampled_from([0.0, 1e-12, 1e-3, 1.0, 1e3]), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_errors_equal_relative_error(self, n, zero_signal, scales, seed):
        # signals (2, 1, n) against recoveries (2, 3, n), one recovery of
        # each signal exact (scale 0), or zero where the signal is zero
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 1, n)) * 10.0 ** rng.integers(-6, 6, (2, 1, 1))
        if zero_signal:
            x[1] = 0.0
        x_rec = x + rng.standard_normal((2, 3, n)) * np.array(scales)[:, None]
        got = recovery._relative_errors(x, x_rec)
        assert got.shape == (2, 3)
        for a in range(2):
            for i in range(3):
                # relative_error, and the np.linalg.norm ratio it was first taken as
                diff, norm = np.linalg.norm(x_rec[a, i] - x[a, 0]), np.linalg.norm(x[a, 0])
                want = diff / norm if norm else (0.0 if diff == 0.0 else np.inf)
                assert got[a, i] == relative_error(x[a, 0], x_rec[a, i]) == want
        if zero_signal:
            want = [0.0 if scale == 0.0 else np.inf for scale in scales]
            assert list(got[1]) == want
