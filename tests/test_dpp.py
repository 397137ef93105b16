"""Kernels, the exact determinantal sampler, and its distributional laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdpp import (
    Graph,
    MarginalKernel,
    SamplingSet,
    SbmParams,
    critical_epsilon,
    dpp_sample,
    dpp_weight_matrix,
    eigendecompose,
    ideal_lowpass_kernel,
    inclusion_probability,
    laplacian,
    measure,
    recover_unknown_basis,
    sample_size_moments,
    sbm_generate,
    wilson_kernel_explicit,
    wilson_sample,
)
from graphdpp.errors import (
    InvalidParams,
    NumericalDegeneracy,
    OutOfRange,
    ShapeMismatch,
    ZeroMarginal,
)

from conftest import dpp_exact_law, empirical_tv

# hand computation on the single-edge graph at q=2, from U = [(1,1),(1,-1)]/sqrt(2)
K2_Q2_KERNEL = np.array([[0.75, 0.25], [0.25, 0.75]])


def rank_one_dpp_sample(kernel, rng):
    """The chain rule with every row's residual held and updated by one
    rank-one term per pick; same random draws as dpp_sample. Returns the
    node sequence."""
    mu = kernel.eigenvalues
    keep = rng.random(len(mu)) < mu
    res = kernel.vectors[:, keep].copy()
    nodes = []
    for remaining in range(res.shape[1], 0, -1):
        r2 = np.einsum("ij,ij->i", res, res)
        cdf = np.cumsum(r2 / remaining)
        i = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
        i = min(i, kernel.n - 1)
        nodes.append(i)
        q = res[i] / np.sqrt(r2[i])
        res -= np.outer(res @ q, q)
    return nodes


@pytest.fixture
def k2_basis(k2):
    return eigendecompose(laplacian(k2))


@pytest.fixture
def sbm_kernel():
    g = sbm_generate(SbmParams(n=40, k_comm=2, c=6.0, eps=0.2), 2)
    basis = eigendecompose(laplacian(g))
    return ideal_lowpass_kernel(basis, 3)


class TestKernels:
    def test_ideal_lowpass_is_projector(self, sbm_kernel):
        k = sbm_kernel.matrix()
        assert np.trace(k) == pytest.approx(3.0, abs=1e-10)
        np.testing.assert_allclose(k @ k, k, atol=1e-10)

    def test_ideal_lowpass_full_rank_is_identity(self, k2_basis):
        k = ideal_lowpass_kernel(k2_basis, 2).matrix()
        np.testing.assert_allclose(k, np.eye(2), atol=1e-10)

    def test_ideal_lowpass_out_of_range(self, k2_basis):
        with pytest.raises(OutOfRange):
            ideal_lowpass_kernel(k2_basis, 3)

    def test_ideal_lowpass_from_partial_basis(self):
        lap = laplacian(sbm_generate(SbmParams(n=40, k_comm=2, c=6.0, eps=0.2), 2))
        part = ideal_lowpass_kernel(eigendecompose(lap, 3), 3)
        full = ideal_lowpass_kernel(eigendecompose(lap), 3)
        assert part.n == 40 and len(part.eigenvalues) == 4
        np.testing.assert_allclose(part.matrix(), full.matrix(), atol=1e-10)
        sample = dpp_sample(part, 0)
        assert len(np.unique(sample.nodes)) == 3

    def test_wilson_kernel_needs_every_mode(self):
        lap = laplacian(sbm_generate(SbmParams(n=40, k_comm=2, c=6.0, eps=0.2), 2))
        with pytest.raises(ShapeMismatch):
            wilson_kernel_explicit(eigendecompose(lap, 3), 1.0)

    def test_wilson_kernel_hand_case(self, k2_basis):
        kernel = wilson_kernel_explicit(k2_basis, 2.0)
        np.testing.assert_allclose(np.sort(kernel.eigenvalues), [0.5, 1.0], atol=1e-12)
        np.testing.assert_allclose(kernel.matrix(), K2_Q2_KERNEL, atol=1e-12)

    def test_wilson_kernel_is_resolvent(self):
        g = sbm_generate(SbmParams(n=30, k_comm=2, c=5.0, eps=0.4), 0)
        lap = laplacian(g)
        basis = eigendecompose(lap)
        q = 1.3
        kernel = wilson_kernel_explicit(basis, q).matrix()
        resolvent = q * np.linalg.inv(lap.dense() + q * np.eye(30))
        np.testing.assert_allclose(kernel, resolvent, atol=1e-8)

    def test_wilson_kernel_edgeless_is_identity(self, edgeless5):
        basis = eigendecompose(laplacian(edgeless5))
        np.testing.assert_allclose(wilson_kernel_explicit(basis, 0.7).matrix(), np.eye(5))

    def test_wilson_kernel_saturates(self, k2_basis):
        k = wilson_kernel_explicit(k2_basis, 1e12).matrix()
        np.testing.assert_allclose(k, np.eye(2), atol=1e-10)

    def test_wilson_kernel_rejects_nonpositive_q(self, k2_basis):
        for q in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidParams):
                wilson_kernel_explicit(k2_basis, q)

    def test_eigenvalue_clamp(self):
        v = np.eye(2)
        kernel = MarginalKernel(eigenvalues=np.array([1.0 + 5e-11, -5e-11]), vectors=v)
        assert kernel.eigenvalues[0] == 1.0
        assert kernel.eigenvalues[1] == 0.0
        with pytest.raises(InvalidParams):
            MarginalKernel(eigenvalues=np.array([1.1, 0.0]), vectors=v)


class TestInclusionProbability:
    def test_empty_set(self, sbm_kernel):
        assert inclusion_probability(sbm_kernel, []) == 1.0

    def test_singleton_is_diagonal(self, sbm_kernel):
        diag = sbm_kernel.diagonal()
        for i in (0, 7, 31):
            assert inclusion_probability(sbm_kernel, [i]) == pytest.approx(diag[i], abs=1e-12)

    def test_hand_pair(self, k2_basis):
        kernel = wilson_kernel_explicit(k2_basis, 2.0)
        # det [[3/4, 1/4], [1/4, 3/4]] = 1/2
        assert inclusion_probability(kernel, [0, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_fractional_node_rejected(self, sbm_kernel):
        with pytest.raises(InvalidParams):
            inclusion_probability(sbm_kernel, [0.5])

    def test_restriction_rejects_fractional_node(self, sbm_kernel):
        with pytest.raises(InvalidParams):
            sbm_kernel.restriction([0.5])


class TestSizeMoments:
    def test_projector(self, sbm_kernel):
        mean, var = sample_size_moments(sbm_kernel)
        assert mean == pytest.approx(3.0, abs=1e-10)
        assert var == pytest.approx(0.0, abs=1e-10)

    def test_half_identity(self):
        kernel = MarginalKernel(eigenvalues=np.full(4, 0.5), vectors=np.eye(4))
        assert sample_size_moments(kernel) == (2.0, 1.0)

    def test_k2_hand_case(self, k2_basis):
        mean, var = sample_size_moments(wilson_kernel_explicit(k2_basis, 2.0))
        assert mean == pytest.approx(1.5, abs=1e-12)
        assert var == pytest.approx(0.25, abs=1e-12)


class TestWeightMatrix:
    def test_identity_kernel(self):
        kernel = MarginalKernel(eigenvalues=np.ones(3), vectors=np.eye(3))
        np.testing.assert_allclose(dpp_weight_matrix(kernel, [0, 2]), [1.0, 1.0])

    def test_rank_one_projector(self, k2_basis):
        kernel = ideal_lowpass_kernel(k2_basis, 1)
        np.testing.assert_allclose(dpp_weight_matrix(kernel, [1]), [0.5], atol=1e-12)

    def test_fractional_node_rejected(self, sbm_kernel):
        # a truncating cast would return node 0's weight
        with pytest.raises(InvalidParams):
            dpp_weight_matrix(sbm_kernel, [0.5])

    def test_zero_marginal_raises(self):
        kernel = MarginalKernel(eigenvalues=np.array([1.0, 0.0]), vectors=np.eye(2))
        with pytest.raises(ZeroMarginal):
            dpp_weight_matrix(kernel, [1])

    def test_diagonal_is_cached_read_only(self, sbm_kernel):
        diag = sbm_kernel.diagonal()
        assert sbm_kernel.diagonal() is diag
        with pytest.raises(ValueError):
            diag[0] = 0.0


class TestSamplingSetValidation:
    def test_zero_weights_assigned_after_construction(self):
        s = SamplingSet(nodes=[0, 2], method="t")
        with pytest.raises(InvalidParams):
            s.weights = np.array([0.5, 0.0])
        assert s.weights is None

    def test_wrong_length_weights_assigned(self):
        s = SamplingSet(nodes=[0, 2], method="t")
        with pytest.raises(InvalidParams):
            s.weights = np.ones(3)

    def test_nan_weights_rejected(self):
        with pytest.raises(InvalidParams):
            SamplingSet(nodes=[0, 1], weights=[0.5, np.nan])

    def test_infinite_weights_rejected(self):
        # recovery would drop an infinite-weight sample without a word
        with pytest.raises(InvalidParams):
            SamplingSet(nodes=[0, 1], weights=[np.inf, 1.0])
        s = SamplingSet(nodes=[0, 1])
        with pytest.raises(InvalidParams):
            s.weights = [1.0, np.inf]

    def test_negative_node_rejected(self):
        with pytest.raises(OutOfRange):
            SamplingSet(nodes=[0, -1], weights=[0.5, 0.5])
        s = SamplingSet(nodes=[0, 1])
        with pytest.raises(OutOfRange):
            s.nodes = [-3]

    def test_fractional_node_rejected(self):
        with pytest.raises(InvalidParams):
            SamplingSet(nodes=[0.5, 2.7])
        s = SamplingSet(nodes=[0.0, 2.0])
        assert s.nodes.tolist() == [0, 2]
        with pytest.raises(InvalidParams):
            s.nodes = [1.0, np.nan]
        nodes = np.array([3, 1])
        assert SamplingSet(nodes=nodes).nodes is nodes

    def test_nodes_reassigned_must_match_weights(self):
        s = SamplingSet(nodes=[0, 1], weights=[0.5, 0.5])
        with pytest.raises(InvalidParams):
            s.nodes = [0, 1, 2]
        s.weights = None
        s.nodes = [0, 1, 2]
        assert s.nodes.dtype == np.int64

    def test_assigned_weights_are_coerced(self):
        s = SamplingSet(nodes=[4, 1])
        s.weights = [1, 2]
        assert s.weights.dtype == float
        np.testing.assert_array_equal(s.weights, [1.0, 2.0])

    def test_zero_walk_weights_fail_before_the_solver(self):
        g = sbm_generate(SbmParams(n=40, k_comm=2, c=6.0, eps=0.2), 3)
        walk = wilson_sample(g, 0.3, 0)
        with pytest.raises(InvalidParams):
            walk.weights = np.zeros(len(walk))
        walk.weights = np.ones(len(walk))
        x = np.linspace(-1.0, 1.0, g.n)
        rec = recover_unknown_basis(laplacian(g), measure(x, walk, 0.0, 1))
        assert np.all(np.isfinite(rec))


class TestSamplerDegenerateKernels:
    def test_identity_kernel_returns_everything(self):
        kernel = MarginalKernel(eigenvalues=np.ones(5), vectors=np.eye(5))
        for seed in range(5):
            s = dpp_sample(kernel, seed)
            assert sorted(s.nodes.tolist()) == [0, 1, 2, 3, 4]
            np.testing.assert_allclose(s.weights, 1.0)

    def test_zero_kernel_returns_empty(self):
        kernel = MarginalKernel(eigenvalues=np.zeros(5), vectors=np.eye(5))
        for seed in range(5):
            assert len(dpp_sample(kernel, seed)) == 0

    def test_rank_one_projector_marginals(self, k2_basis):
        # enumeration: P({i}) = K_ii = 1/2 for both nodes
        kernel = ideal_lowpass_kernel(k2_basis, 1)
        rng = np.random.default_rng(7)
        draws = 10_000
        ones = sum(dpp_sample(kernel, rng).nodes[0] for _ in range(draws))
        se = np.sqrt(0.25 / draws)
        assert abs(ones / draws - 0.5) <= 3 * se


class TestSamplerConsistencyGuard:
    def test_mass_drift_raises(self):
        # non-orthonormal vectors break the selection-mass invariant
        broken = MarginalKernel(eigenvalues=np.array([1.0, 0.0, 0.0]), vectors=np.eye(3) * 0.5)
        with pytest.raises(NumericalDegeneracy):
            dpp_sample(broken, 0)

    def test_mass_drift_raises_after_first_pick(self):
        # two unit columns at inner product 1/2: the first pick's mass is 1,
        # but after it the residual mass is 1 - q1 q2 for the picked row's
        # unit direction q, and every row here has |q1 q2| of about 0.4 or
        # more, far above the 1e-6 tolerance
        u1 = np.ones(3) / np.sqrt(3.0)
        u2 = 0.5 * u1 + np.sqrt(0.75) * np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        v = np.column_stack([u1, u2])
        assert np.sum(v**2) / 2.0 == pytest.approx(1.0, abs=1e-12)
        rows = v / np.linalg.norm(v, axis=1)[:, None]
        assert np.all(np.abs(rows[:, 0] * rows[:, 1]) >= 0.39)
        kernel = MarginalKernel(eigenvalues=np.ones(2), vectors=v)
        for seed in range(10):
            with pytest.raises(NumericalDegeneracy, match="drifted"):
                dpp_sample(kernel, seed)


def _node_sequences(kernel, seed, draws):
    """Nodes of `draws` dpp_sample draws and of as many reference draws
    from the same seed."""
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    got = [dpp_sample(kernel, fast).nodes.tolist() for _ in range(draws)]
    want = [rank_one_dpp_sample(kernel, slow) for _ in range(draws)]
    return got, want


class TestMatchesRankOneSampler:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_random_projection(self, n, data, seed):
        k = data.draw(st.integers(0, n))
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        kernel = MarginalKernel(eigenvalues=np.ones(k), vectors=q[:, :k])
        got, want = _node_sequences(kernel, seed, 5)
        assert got == want
        assert all(len(set(nodes)) == len(nodes) == k for nodes in got)

    @pytest.mark.parametrize("frac", [0.05, 1.0])
    def test_sbm_partial_basis(self, frac):
        # the fig1a setting: n = 1000, 20 communities, bandlimit 20
        eps = frac * critical_epsilon(16.0, 20)
        g = sbm_generate(SbmParams(n=1000, k_comm=20, c=16.0, eps=eps), 3)
        kernel = ideal_lowpass_kernel(eigendecompose(laplacian(g), 20), 20)
        got, want = _node_sequences(kernel, 11, 200)
        assert got == want
        assert all(len(set(nodes)) == 20 for nodes in got)


class TestSamplerLaws:
    def test_projector_samples_have_fixed_size(self, sbm_kernel):
        rng = np.random.default_rng(0)
        for _ in range(300):
            s = dpp_sample(sbm_kernel, rng)
            assert len(s) == 3
            assert len(set(s.nodes.tolist())) == 3

    def test_exact_law_generic_kernel(self):
        # random 6-item kernel with spectrum strictly inside (0, 1)
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        mu = np.array([0.9, 0.7, 0.55, 0.3, 0.15, 0.05])
        kernel = MarginalKernel(eigenvalues=mu, vectors=q)
        law = dpp_exact_law(kernel.matrix())
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-9)
        draws = 100_000
        samples = [dpp_sample(kernel, rng).nodes for _ in range(draws)]
        assert empirical_tv(samples, law) <= 0.02

    def test_exact_law_projection_kernel(self):
        rng = np.random.default_rng(21)
        g = Graph(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 1.5), (0, 4, 1.0)])
        kernel = ideal_lowpass_kernel(eigendecompose(laplacian(g)), 2)
        law = dpp_exact_law(kernel.matrix())
        draws = 100_000
        samples = [dpp_sample(kernel, rng).nodes for _ in range(draws)]
        assert empirical_tv(samples, law) <= 0.02

    def test_marginals_match_diagonal(self):
        rng = np.random.default_rng(5)
        g = sbm_generate(SbmParams(n=20, k_comm=2, c=5.0, eps=0.3), 8)
        kernel = wilson_kernel_explicit(eigendecompose(laplacian(g)), 1.0)
        diag = kernel.diagonal()
        draws = 10_000
        counts = np.zeros(20)
        for _ in range(draws):
            counts[dpp_sample(kernel, rng).nodes] += 1
        freq = counts / draws
        se = np.sqrt(diag * (1 - diag) / draws)
        assert np.all(np.abs(freq - diag) <= 4 * np.maximum(se, 1e-4))

    def test_negative_correlation(self):
        rng = np.random.default_rng(9)
        g = sbm_generate(SbmParams(n=10, k_comm=2, c=4.0, eps=0.2), 4)
        kernel = wilson_kernel_explicit(eigendecompose(laplacian(g)), 2.0)
        draws = 20_000
        single = np.zeros(10)
        joint = np.zeros((10, 10))
        for _ in range(draws):
            nodes = dpp_sample(kernel, rng).nodes
            single[nodes] += 1
            joint[np.ix_(nodes, nodes)] += 1
        single /= draws
        joint /= draws
        for i in range(10):
            for j in range(i + 1, 10):
                prod = single[i] * single[j]
                se = np.sqrt(joint[i, j] * (1 - joint[i, j]) / draws) + np.sqrt(
                    prod * (1 - prod) / draws
                )
                assert joint[i, j] <= prod + 4 * max(se, 1e-4)

    def test_sample_size_matches_moments(self):
        rng = np.random.default_rng(3)
        g = sbm_generate(SbmParams(n=30, k_comm=2, c=6.0, eps=0.3), 1)
        kernel = wilson_kernel_explicit(eigendecompose(laplacian(g)), 0.8)
        mean, var = sample_size_moments(kernel)
        draws = 10_000
        sizes = np.array([len(dpp_sample(kernel, rng)) for _ in range(draws)])
        assert abs(sizes.mean() - mean) <= 4 * np.sqrt(var / draws)

    def test_reweighting_identity(self):
        # average squared reweighted measurement norm equals the signal norm
        rng = np.random.default_rng(17)
        g = sbm_generate(SbmParams(n=30, k_comm=2, c=6.0, eps=0.2), 3)
        basis = eigendecompose(laplacian(g))
        kernel = ideal_lowpass_kernel(basis, 2)
        x = basis.vectors[:, :2] @ np.array([0.6, 0.8])
        draws = 10_000
        vals = np.empty(draws)
        for t in range(draws):
            s = dpp_sample(kernel, rng)
            vals[t] = np.sum(x[s.nodes] ** 2 / s.weights)
        se = vals.std(ddof=1) / np.sqrt(draws)
        assert abs(vals.mean() - 1.0) <= 4 * se

    def test_projector_samples_invertible_restriction(self):
        rng = np.random.default_rng(23)
        g = sbm_generate(SbmParams(n=40, k_comm=2, c=6.0, eps=0.1), 9)
        basis = eigendecompose(laplacian(g))
        kernel = ideal_lowpass_kernel(basis, 2)
        u_k = basis.vectors[:, :2]
        for _ in range(500):
            s = dpp_sample(kernel, rng)
            sigma = np.linalg.svd(u_k[s.nodes, :], compute_uv=False)
            assert sigma[-1] > 1e-12
