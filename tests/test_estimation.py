"""Polynomial filters and sketch-based probability estimation."""

import numpy as np
import pytest

from graphdpp import (
    Graph,
    SbmParams,
    critical_epsilon,
    eigendecompose,
    estimate_leverage_scores,
    estimate_pi,
    fit_sqrt_filter,
    fourier_basis_k,
    gaussian_sketch,
    laplacian,
    sbm_generate,
    wilson_kernel_explicit,
)
from graphdpp import estimation
from graphdpp.errors import InvalidParams, OutOfRange, TooLarge
from graphdpp.estimation import default_sketch_width


class TestFitSqrtFilter:
    def test_constant_response_is_exact(self):
        filt = fit_sqrt_filter(lambda lam: np.ones_like(lam), 8, 5.0)
        assert filt.fit_error <= 1e-12
        grid = np.linspace(0, 5.0, 50)
        np.testing.assert_allclose(filt(grid), 1.0, atol=1e-12)

    def test_saturating_response_is_near_constant(self):
        lmax = 4.0
        q = lmax * 1e6
        filt = fit_sqrt_filter(lambda lam: q / (q + lam), 10, lmax)
        assert filt.fit_error < 1e-3

    def test_smooth_resolvent_tight_fit(self):
        # sqrt(1 / (1 + lam)) on [0, 3] is analytic: degree 30 nails it
        filt = fit_sqrt_filter(lambda lam: 1.0 / (1.0 + lam), 30, 3.0)
        grid = np.linspace(0.0, 3.0, 1000)
        sup = np.max(np.abs(filt(grid) - np.sqrt(1.0 / (1.0 + grid))))
        assert sup < 1e-6
        assert filt.fit_error < 1e-6

    def test_degenerate_interval(self):
        filt = fit_sqrt_filter(lambda lam: 4.0, 5, 0.0)
        assert filt(0.0) == pytest.approx(2.0)

    def test_rejects_negative_response(self):
        with pytest.raises(InvalidParams):
            fit_sqrt_filter(lambda lam: lam - 1.0, 5, 2.0)

    def test_rejects_zero_degree(self):
        with pytest.raises(InvalidParams):
            fit_sqrt_filter(lambda lam: 1.0, 0, 2.0)

    def test_operator_apply_matches_dense(self):
        g = sbm_generate(SbmParams(n=40, k_comm=2, c=6.0, eps=0.3), 0)
        lap = laplacian(g)
        basis = eigendecompose(lap)
        lmax = basis.eigenvalues[-1] * 1.01
        filt = fit_sqrt_filter(lambda lam: 0.5 / (0.5 + lam), 20, lmax)
        dense = (basis.vectors * filt(basis.eigenvalues)) @ basis.vectors.T
        x = np.random.default_rng(1).standard_normal((40, 7))
        np.testing.assert_allclose(filt.apply(lap, x), dense @ x, atol=1e-10)


class TestSketch:
    def test_shape_and_scale(self):
        r = gaussian_sketch(200, 50, 0)
        assert r.shape == (200, 50)
        # E[R R'] = I: diagonal concentrates near 1
        diag = np.einsum("ij,ij->i", r, r)
        assert abs(diag.mean() - 1.0) < 0.1

    def test_default_width(self):
        assert default_sketch_width(100) == 100  # 20 * ceil(log 100)


class TestEstimatePi:
    def test_edgeless_concentrates_near_one(self):
        g = Graph(100, [])
        pi = estimate_pi(laplacian(g), q=0.5, rng=11)
        assert np.all(pi >= 0.6) and np.all(pi <= 1.4)

    def test_trace_matches_kernel(self):
        g = sbm_generate(SbmParams(n=100, k_comm=2, c=16.0, eps=0.12), 1)
        lap = laplacian(g)
        basis = eigendecompose(lap)
        q = 0.14
        exact = wilson_kernel_explicit(basis, q).diagonal()
        pi = estimate_pi(lap, q, rng=0)
        assert abs(pi.sum() - exact.sum()) <= 0.1 * exact.sum()

    def test_nonnegative(self):
        g = sbm_generate(SbmParams(n=60, k_comm=3, c=6.0, eps=0.3), 2)
        pi = estimate_pi(laplacian(g), q=0.3, rng=5)
        assert np.all(pi >= 0.0)

    def test_exact_filter_is_unbiased(self):
        # oracle: replace the polynomial by the exact filter; the sketch
        # estimator is then unbiased, checked over repeated sketches
        g = sbm_generate(SbmParams(n=30, k_comm=2, c=5.0, eps=0.3), 3)
        lap = laplacian(g)
        basis = eigendecompose(lap)
        q = 0.4
        mu = q / (q + basis.eigenvalues)
        s_exact = (basis.vectors * np.sqrt(mu)) @ basis.vectors.T
        pi_true = (basis.vectors**2) @ mu
        rng = np.random.default_rng(7)
        sketches = 300
        width = 20
        acc = np.zeros(30)
        for _ in range(sketches):
            r = gaussian_sketch(30, width, rng)
            sr = s_exact @ r
            acc += np.einsum("ij,ij->i", sr, sr)
        est = acc / sketches
        se = pi_true * np.sqrt(2.0 / (width * sketches))
        assert np.all(np.abs(est - pi_true) <= 4 * np.maximum(se, 1e-4))

    def test_concentration_per_node(self):
        g = sbm_generate(SbmParams(n=100, k_comm=2, c=16.0, eps=0.12), 4)
        lap = laplacian(g)
        basis = eigendecompose(lap)
        q = 0.14
        exact = wilson_kernel_explicit(basis, q).diagonal()
        pi = estimate_pi(lap, q, rng=8)
        rel = np.abs(pi - exact) / np.maximum(exact, 0.01)
        assert np.mean(rel <= 0.5) >= 0.95

    def test_runs_beyond_dense_guard(self):
        # the whole point: no spectral decomposition anywhere in the path
        g = sbm_generate(SbmParams(n=100_000, k_comm=2, c=16.0, eps=0.12), 5)
        lap = laplacian(g)
        with pytest.raises(TooLarge):
            eigendecompose(lap)
        pi = estimate_pi(lap, q=5e-4, d=30, n=4, rng=6)
        assert pi.shape == (100_000,)
        assert np.all(pi >= 0.0)

    def test_rejects_nonpositive_q(self, k2):
        with pytest.raises(InvalidParams):
            estimate_pi(laplacian(k2), q=0.0)


class TestLeverageScores:
    def test_full_band_is_uniform(self, triangle):
        np.testing.assert_allclose(
            estimate_leverage_scores(laplacian(triangle), 3, rng=0), 1.0 / 3.0
        )

    def test_probability_vector(self):
        g = sbm_generate(SbmParams(n=80, k_comm=2, c=10.0, eps=0.2), 6)
        p = estimate_leverage_scores(laplacian(g), 2, rng=1)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_close_to_exact_scores(self):
        eps = critical_epsilon(16.0, 2) / 5.0
        g = sbm_generate(SbmParams(n=100, k_comm=2, c=16.0, eps=eps), 7)
        lap = laplacian(g)
        u_k = fourier_basis_k(eigendecompose(lap), 2)
        exact = np.einsum("ij,ij->i", u_k, u_k) / 2.0
        est = estimate_leverage_scores(lap, 2, rng=9)
        assert 0.5 * np.abs(est - exact).sum() < 0.1

    def test_bisected_cutoff_path(self, monkeypatch):
        # force the large-scale path on a desk-size graph
        eps = critical_epsilon(16.0, 2) / 5.0
        g = sbm_generate(SbmParams(n=100, k_comm=2, c=16.0, eps=eps), 8)
        lap = laplacian(g)
        u_k = fourier_basis_k(eigendecompose(lap), 2)
        exact = np.einsum("ij,ij->i", u_k, u_k) / 2.0
        monkeypatch.setattr(estimation, "DENSE_EIGEN_GUARD", 10)
        est = estimate_leverage_scores(lap, 2, rng=10)
        assert np.all(est >= 0.0)
        assert est.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.5 * np.abs(est - exact).sum() < 0.25

    def test_out_of_range(self, k2):
        with pytest.raises(OutOfRange):
            estimate_leverage_scores(laplacian(k2), 3)
