"""Eigendecomposition, filters, bandlimited signals, spectral-radius estimate."""

import numpy as np
import pytest

from graphdpp import (
    LaplacianView,
    SbmParams,
    apply_filter,
    eigendecompose,
    fourier_basis_k,
    generate_bandlimited_signal,
    laplacian,
    largest_eigenvalue_estimate,
    sbm_generate,
)
from graphdpp import spectral
from graphdpp.errors import InvalidParams, OutOfRange, TooLarge


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
        with pytest.raises(TooLarge):
            eigendecompose(laplacian(k2))


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


class TestLargestEigenvalue:
    def test_k2(self, k2):
        est = largest_eigenvalue_estimate(laplacian(k2), tol=1e-3)
        assert est == pytest.approx(2.0, rel=2e-3)

    def test_p3(self, p3):
        est = largest_eigenvalue_estimate(laplacian(p3), tol=1e-3)
        assert est == pytest.approx(3.0, rel=2e-3)

    def test_cached_per_view_and_tolerance(self, monkeypatch):
        g = sbm_generate(SbmParams(n=60, k_comm=2, c=8.0, eps=0.2), 5)
        lap = laplacian(g)
        loose, tight = (largest_eigenvalue_estimate(lap, tol=t) for t in (1e-1, 1e-3))
        assert loose == largest_eigenvalue_estimate(laplacian(g), tol=1e-1)
        assert tight == largest_eigenvalue_estimate(laplacian(g), tol=1e-3)

        def refuse(self, x):
            raise AssertionError("power iteration ran again on a cached view")

        monkeypatch.setattr(LaplacianView, "apply", refuse)
        assert largest_eigenvalue_estimate(lap, tol=1e-1) == loose
        assert largest_eigenvalue_estimate(lap, tol=1e-3) == tight

    def test_upper_bias_covers_spectrum(self):
        for seed in range(5):
            g = sbm_generate(SbmParams(n=80, k_comm=2, c=10.0, eps=0.3), seed)
            lap = laplacian(g)
            true = eigendecompose(lap).eigenvalues[-1]
            est = largest_eigenvalue_estimate(lap, tol=1e-2)
            assert true <= est <= 2.0 * lap.degree_vector.max() * 1.01 + 1e-9
            assert est >= true * (1.0 - 1e-2)

    def test_edgeless_returns_zero(self, edgeless5):
        assert largest_eigenvalue_estimate(laplacian(edgeless5), tol=1e-2) == 0.0

    def test_rejects_bad_tol(self, k2):
        with pytest.raises(InvalidParams):
            largest_eigenvalue_estimate(laplacian(k2), tol=0.0)
