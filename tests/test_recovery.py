"""Measurement and the three recovery paths."""

import warnings

import numpy as np
import pytest

from graphdpp import (
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
from graphdpp.errors import (
    IllConditionedWarning,
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
        g, lap, _, u_k, x = instance
        nodes = np.array([3, 3, 20, 41, 77])  # duplicate row kept
        weights = np.array([0.3, 0.3, 0.1, 0.25, 0.5])
        s = SamplingSet(nodes=nodes, weights=weights, method="t")
        rng = np.random.default_rng(9)
        meas = Measurement(y=x[nodes] + 1e-4 * rng.standard_normal(5), sampling=s)
        params = RecoveryParams(gamma=1e-4, r=4, tolerance=1e-10)
        x_cg = recover_unknown_basis(lap, meas, params)
        n = lap.n
        dense_l = lap.dense()
        lr = np.linalg.matrix_power(dense_l, 4)
        mtm = np.zeros((n, n))
        b = np.zeros(n)
        for node, w, yv in zip(nodes, weights, meas.y):
            mtm[node, node] += 1.0 / w
            b[node] += yv / w
        x_direct = np.linalg.solve(mtm + params.gamma * lr, b)
        assert np.linalg.norm(x_cg - x_direct) <= 1e-6 * np.linalg.norm(x_direct)

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

    def test_iteration_cap_raises(self, instance):
        g, lap, _, _, x = instance
        nodes = np.array([0, 12])
        s = SamplingSet(nodes=nodes, weights=np.array([0.01, 0.02]), method="t")
        meas = Measurement(y=x[nodes], sampling=s)
        with pytest.raises(SolverDiverged):
            recover_unknown_basis(
                lap, meas, RecoveryParams(gamma=1e-7, r=4, tolerance=1e-12, max_iter=2)
            )

    def test_missing_weights(self, instance):
        g, lap, _, _, x = instance
        s = SamplingSet(nodes=np.array([0, 1]), weights=None, method="t")
        with pytest.raises(MissingWeights):
            recover_unknown_basis(lap, measure(x, s, 0.0, 0))


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
