"""Eigendecomposition, filters, bandlimited signals, spectral-radius bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdpp import (
    Graph,
    SbmParams,
    apply_filter,
    critical_epsilon,
    eigendecompose,
    fit_sqrt_filter,
    fourier_basis_k,
    generate_bandlimited_signal,
    laplacian,
    largest_eigenvalue_estimate,
    sbm_generate,
)
from graphdpp import spectral
from graphdpp.errors import InvalidParams, OutOfRange, ShapeMismatch, TooLarge

from conftest import edge_lists


@pytest.fixture
def sbm_basis():
    g = sbm_generate(SbmParams(n=60, k_comm=2, c=8.0, eps=0.2), 5)
    lap = laplacian(g)
    return lap, eigendecompose(lap)


class TestEigendecompose:
    def test_k2(self, k2):
        basis = eigendecompose(laplacian(k2))
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(basis.vectors[:, 0]), np.sqrt(0.5), atol=1e-12)

    def test_p3(self, p3):
        basis = eigendecompose(laplacian(p3))
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 1.0, 3.0], atol=1e-10)

    def test_one_read_only_factorization_per_view(self, sbm_basis):
        lap, basis = sbm_basis
        again = eigendecompose(lap)
        assert again.vectors is basis.vectors and not basis.vectors.flags.writeable
        fresh = eigendecompose(laplacian(lap.graph))
        np.testing.assert_array_equal(fresh.vectors, basis.vectors)
        np.testing.assert_array_equal(fresh.eigenvalues, basis.eigenvalues)

    def test_disconnected_kernel_multiplicity(self, two_k2):
        basis = eigendecompose(laplacian(two_k2))
        assert basis.eigenvalues[1] <= 1e-10

    def test_invariants(self, sbm_basis):
        lap, basis = sbm_basis
        lam, u = basis.eigenvalues, basis.vectors
        assert lam[0] <= 1e-8
        assert np.all(np.diff(lam) >= 0)
        np.testing.assert_allclose(u.T @ u, np.eye(len(lam)), atol=1e-8)
        recon = (u * lam) @ u.T
        assert np.max(np.abs(recon - lap.dense())) <= 1e-6 * lam[-1]
        assert lam[-1] <= 2.0 * lap.degree_vector.max() + 1e-9

    def test_guard(self, k2, monkeypatch):
        monkeypatch.setattr(spectral, "DENSE_EIGEN_GUARD", 1)
        for k in (None, 1):
            with pytest.raises(TooLarge):
                eigendecompose(laplacian(k2), k)


@pytest.fixture(scope="module", params=[0.05, 1.0], ids=["frac0.05", "frac1.0"])
def sbm20(request):
    """The known-k20 graph shape: n = 1000, 20 communities, c = 16; at
    frac 1.0 the gap lam[20] - lam[19] is a few hundredths."""
    eps = request.param * critical_epsilon(16.0, 20)
    return laplacian(sbm_generate(SbmParams(n=1000, k_comm=20, c=16.0, eps=eps), 1))


def _projector(u):
    return u @ u.T


class TestPartialEigendecompose:
    def test_matches_full_eigh_on_sbm20(self, sbm20):
        k = 20
        part, full = eigendecompose(sbm20, k), eigendecompose(sbm20)
        bound = largest_eigenvalue_estimate(sbm20)
        assert part.vectors.shape == (1000, k + 1)
        np.testing.assert_allclose(
            part.eigenvalues, full.eigenvalues[: k + 1], rtol=0, atol=1e-10 * bound
        )
        np.testing.assert_allclose(part.vectors.T @ part.vectors, np.eye(k + 1), atol=1e-10)
        np.testing.assert_allclose(
            _projector(fourier_basis_k(part, k)), _projector(fourier_basis_k(full, k)), atol=1e-10
        )

    @settings(max_examples=100, deadline=None)
    @given(edge_lists(), st.integers(1, 12))
    def test_lowest_pairs_of_any_graph(self, graph, k):
        n, edges = graph
        lap = laplacian(Graph(n, edges))
        part, full = eigendecompose(lap, k), eigendecompose(lap)
        m = min(k + 1, n)
        assert part.n == m and part.vectors.shape == (n, m)
        scale = max(largest_eigenvalue_estimate(lap), 1.0)
        np.testing.assert_allclose(
            part.eigenvalues, full.eigenvalues[:m], rtol=0, atol=1e-12 * scale
        )
        u = part.vectors
        np.testing.assert_allclose(u.T @ u, np.eye(m), atol=1e-10)
        residual = lap.dense() @ u - u * part.eigenvalues
        np.testing.assert_allclose(residual, 0.0, rtol=0, atol=1e-10 * scale)
        if k < n:
            # the span of the k lowest is defined by the gap above it
            # (Davis-Kahan: round-off over the gap)
            gap = full.eigenvalues[k] - full.eigenvalues[k - 1]
            if gap > 1e-6 * scale:
                np.testing.assert_allclose(
                    _projector(u[:, :k]), _projector(full.vectors[:, :k]), atol=1e-9 * scale / gap
                )

    @pytest.mark.parametrize("extra", [0, 1, 50])
    def test_k_at_least_n_is_the_full_basis(self, sbm_basis, extra):
        lap, full = sbm_basis
        basis = eigendecompose(lap, lap.n + extra)
        assert basis.vectors is full.vectors
        np.testing.assert_array_equal(basis.eigenvalues, full.eigenvalues)

    def test_cached_read_only_under_its_own_key(self, sbm_basis):
        lap, full = sbm_basis
        part = eigendecompose(lap, 3)
        assert eigendecompose(lap, 3).vectors is part.vectors and not part.vectors.flags.writeable
        assert eigendecompose(lap).vectors is full.vectors
        assert eigendecompose(lap, 4).n == 5

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k2, k):
        with pytest.raises(InvalidParams):
            eigendecompose(laplacian(k2), k)

    def test_apply_filter_needs_every_mode(self, sbm_basis):
        lap, _ = sbm_basis
        with pytest.raises(ShapeMismatch):
            apply_filter(eigendecompose(lap, 5), lambda lam: 1.0, np.ones(lap.n))


class TestFourierBasis:
    def test_full_basis(self, sbm_basis):
        _, basis = sbm_basis
        np.testing.assert_array_equal(fourier_basis_k(basis, basis.n), basis.vectors)

    def test_first_column_constant(self, triangle):
        basis = eigendecompose(laplacian(triangle))
        col = fourier_basis_k(basis, 1)[:, 0]
        np.testing.assert_allclose(np.abs(col), 1.0 / np.sqrt(3.0), atol=1e-12)

    def test_columns_orthonormal(self, sbm_basis):
        _, basis = sbm_basis
        u_k = fourier_basis_k(basis, 7)
        np.testing.assert_allclose(u_k.T @ u_k, np.eye(7), atol=1e-10)

    def test_out_of_range(self, sbm_basis):
        _, basis = sbm_basis
        with pytest.raises(OutOfRange):
            fourier_basis_k(basis, 0)
        with pytest.raises(OutOfRange):
            fourier_basis_k(basis, basis.n + 1)


class TestBandlimitedSignal:
    def test_unit_norm(self, sbm_basis):
        _, basis = sbm_basis
        u_k = fourier_basis_k(basis, 4)
        x = generate_bandlimited_signal(u_k, 9)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_in_span(self, sbm_basis):
        _, basis = sbm_basis
        u_k = fourier_basis_k(basis, 4)
        x = generate_bandlimited_signal(u_k, 10)
        assert np.linalg.norm(x - u_k @ (u_k.T @ x)) <= 1e-12

    def test_k1_constant(self, triangle):
        basis = eigendecompose(laplacian(triangle))
        x = generate_bandlimited_signal(fourier_basis_k(basis, 1), 0)
        np.testing.assert_allclose(np.abs(x), 1.0 / np.sqrt(3.0), atol=1e-12)

    def test_basis_without_columns_rejected(self):
        # an empty coefficient vector has norm 0 at every redraw, so the
        # renormalization loop never ended
        with pytest.raises(OutOfRange):
            generate_bandlimited_signal(np.zeros((5, 0)), 0)


class TestApplyFilter:
    def test_identity_response(self, sbm_basis):
        _, basis = sbm_basis
        rng = np.random.default_rng(2)
        x = rng.standard_normal(basis.n)
        np.testing.assert_allclose(apply_filter(basis, lambda lam: 1.0, x), x, atol=1e-10)

    def test_saturating_response_is_identity(self, sbm_basis):
        _, basis = sbm_basis
        q = 1e12
        rng = np.random.default_rng(3)
        x = rng.standard_normal(basis.n)
        out = apply_filter(basis, lambda lam: q / (q + lam), x)
        np.testing.assert_allclose(out, x, atol=1e-9)

    def test_ideal_lowpass_equals_projection(self, sbm_basis):
        _, basis = sbm_basis
        k = 5
        cut = basis.eigenvalues[k - 1]
        rng = np.random.default_rng(4)
        x = rng.standard_normal(basis.n)
        out = apply_filter(basis, lambda lam: np.where(lam <= cut + 1e-9, 1.0, 0.0), x)
        u_k = fourier_basis_k(basis, k)
        np.testing.assert_allclose(out, u_k @ (u_k.T @ x), atol=1e-10)

    def test_parseval(self, sbm_basis):
        _, basis = sbm_basis
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal(basis.n)
            assert np.linalg.norm(basis.vectors.T @ x) == pytest.approx(
                np.linalg.norm(x), rel=1e-10
            )

    def test_composition(self, sbm_basis):
        _, basis = sbm_basis
        rng = np.random.default_rng(6)
        h1 = lambda lam: 1.0 / (1.0 + lam)
        h2 = lambda lam: np.exp(-0.3 * lam)
        for _ in range(5):
            x = rng.standard_normal(basis.n)
            once = apply_filter(basis, lambda lam: h1(lam) * h2(lam), x)
            twice = apply_filter(basis, h1, apply_filter(basis, h2, x))
            np.testing.assert_allclose(once, twice, atol=1e-8)

    def test_scalar_only_response(self, triangle):
        basis = eigendecompose(laplacian(triangle))
        x = np.array([1.0, -1.0, 0.5])
        out = apply_filter(basis, lambda lam: 1.0 if lam <= 0.5 else 0.0, x)
        u1 = fourier_basis_k(basis, 1)
        np.testing.assert_allclose(out, u1 @ (u1.T @ x), atol=1e-10)


@pytest.fixture(scope="module")
def weighted_sbm():
    """2000-node SBM with weights exp(U(-3, 3)) whose top eigenvalue, 179.55,
    lies above where an iterative estimate from below settled (177.92)."""
    g = sbm_generate(SbmParams(n=2000, k_comm=2, c=16.0, eps=0.2 * critical_epsilon(16.0, 2)), 0)
    i, j, _ = g.edges()
    w = np.exp(np.random.default_rng(0).uniform(-3, 3, len(i)))
    lap = laplacian(Graph.from_arrays(g.n, i, j, w))
    return lap, eigendecompose(lap)


class TestLargestEigenvalue:
    def test_k2(self, k2):
        est = largest_eigenvalue_estimate(laplacian(k2))
        assert est == pytest.approx(2.0, rel=2e-3)

    def test_p3(self, p3):
        est = largest_eigenvalue_estimate(laplacian(p3))
        assert est == pytest.approx(3.0, rel=2e-3)

    def test_upper_bias_covers_spectrum(self, weighted_sbm):
        for seed in range(5):
            g = sbm_generate(SbmParams(n=80, k_comm=2, c=10.0, eps=0.3), seed)
            lap = laplacian(g)
            true = eigendecompose(lap).eigenvalues[-1]
            est = largest_eigenvalue_estimate(lap)
            assert true <= est <= 2.0 * lap.degree_vector.max() * 1.01 + 1e-9
            assert est >= true * (1.0 - 1e-2)
        lap, basis = weighted_sbm  # eigenvalues from eigh of lap.dense()
        assert largest_eigenvalue_estimate(lap) >= basis.eigenvalues[-1]

    def test_noise_free_filter_within_5_percent(self, weighted_sbm):
        # the exact diagonal of p(L)^2 for estimate_pi's fit on [0, bound]
        lap, basis = weighted_sbm
        q, lam, u = 1.0, basis.eigenvalues, basis.vectors
        p = fit_sqrt_filter(lambda x: q / (q + x), 30, largest_eigenvalue_estimate(lap))
        exact = (u**2) @ (q / (q + lam))
        assert np.max(np.abs((u**2) @ p(lam) ** 2 - exact) / exact) <= 0.05

    def test_edgeless_returns_zero(self, edgeless5):
        assert largest_eigenvalue_estimate(laplacian(edgeless5)) == 0.0


@settings(max_examples=200, deadline=None)
@given(graph=edge_lists())
def test_edge_bound_brackets_spectrum(graph):
    n, edges = graph
    lap = laplacian(Graph(n, edges))
    bound = largest_eigenvalue_estimate(lap)
    top = np.linalg.eigvalsh(lap.dense())[-1]
    assert top <= bound * (1.0 + 1e-12) + 1e-12
    assert bound <= 2.0 * lap.degree_vector.max()
