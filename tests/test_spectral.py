"""Eigendecomposition, filters, bandlimited signals, spectral-radius bound."""

from contextlib import contextmanager

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
from graphdpp.spectral import generate_bandlimited_signals
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


# the bounds that send every partial basis to one solver
ROUTES = {
    "subset": {"DIRECT_MAX_N": spectral.DENSE_EIGEN_GUARD},
    "lanczos": {"DIRECT_MAX_N": 0, "LANCZOS_NODES_PER_PAIR": 1},
}


@contextmanager
def partial_route(route):
    with pytest.MonkeyPatch.context() as mp:
        for name, value in ROUTES[route].items():
            mp.setattr(spectral, name, value)
        yield


class TestPartialEigendecompose:
    @pytest.mark.parametrize("route", ROUTES)
    def test_matches_full_eigh_on_sbm20(self, sbm20, route):
        k = 20
        with partial_route(route):
            part = eigendecompose(laplacian(sbm20.graph), k)
        full = eigendecompose(sbm20)
        bound = largest_eigenvalue_estimate(sbm20)
        assert part.vectors.shape == (1000, k + 1)
        np.testing.assert_allclose(
            part.eigenvalues, full.eigenvalues[: k + 1], rtol=0, atol=1e-10 * bound
        )
        np.testing.assert_allclose(part.vectors.T @ part.vectors, np.eye(k + 1), atol=1e-10)
        np.testing.assert_allclose(
            _projector(fourier_basis_k(part, k)), _projector(fourier_basis_k(full, k)), atol=1e-10
        )

    @pytest.mark.parametrize("route", ROUTES)
    @settings(max_examples=100, deadline=None)
    @given(edge_lists(), st.integers(1, 12))
    def test_lowest_pairs_of_any_graph(self, route, graph, k):
        n, edges = graph
        lap = laplacian(Graph(n, edges))
        with partial_route(route):
            part = eigendecompose(lap, k)
        full = eigendecompose(lap)
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


def _sbm600(seed=2):
    eps = 0.2 * critical_epsilon(16.0, 20)
    return sbm_generate(SbmParams(n=600, k_comm=20, c=16.0, eps=eps), seed)


def _with_isolated(g, extra):
    return Graph.from_arrays(g.n + extra, *g.edges())


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def _weights_over_decades(g):
    i, j, _ = g.edges()
    w = 10.0 ** np.random.default_rng(7).uniform(-3, 3, len(i))
    return Graph.from_arrays(g.n, i, j, w)


_SBM300 = SbmParams(n=300, k_comm=3, c=10.0, eps=0.1)

# (graph, k, whether the k lowest modes span a unique subspace)
LANCZOS_CASES = {
    "sbm+5 isolated": (lambda: _with_isolated(_sbm600(), 5), 20, True),
    # 51 components: the basis is all kernel, the k lowest are not unique
    "sbm+50 isolated": (lambda: _with_isolated(_sbm600(), 50), 20, False),
    "2 sbm300 copies": (lambda: sbm_generate(_SBM300, 6).disjoint_copies(2), 20, True),
    "3 sbm300 copies": (lambda: sbm_generate(_SBM300, 6).disjoint_copies(3), 21, True),
    "weights over decades": (lambda: _weights_over_decades(_sbm600()), 20, True),
    "cycle1000": (lambda: _cycle(1000), 20, False),
    "star1000": (lambda: Graph(1000, [(0, i, 1.0) for i in range(1, 1000)]), 20, False),
}


def _no_dense(self):
    raise AssertionError("the subset solver ran")


class TestLanczosRoute:
    """Partial bases above DIRECT_MAX_N nodes, at the package's own bounds,
    against the full dense eigh: the kernel of any multiplicity, eigenvalues
    repeated across copies, weights over six decades, a zero gap at k."""

    @pytest.mark.parametrize("case", LANCZOS_CASES)
    def test_lowest_pairs_match_dense_eigh(self, case, monkeypatch):
        build, k, unique_span = LANCZOS_CASES[case]
        lap = laplacian(build())
        assert lap.n > spectral.DIRECT_MAX_N
        lam, vecs = np.linalg.eigh(lap.dense())
        bound = largest_eigenvalue_estimate(lap)
        with monkeypatch.context() as mp:
            mp.setattr(type(lap), "dense", _no_dense)
            part = eigendecompose(lap, k)
        u = part.vectors
        assert u.shape == (lap.n, k + 1)
        np.testing.assert_allclose(part.eigenvalues, lam[: k + 1], rtol=0, atol=1e-12 * bound)
        assert np.all(np.diff(part.eigenvalues) >= 0)
        np.testing.assert_allclose(u.T @ u, np.eye(k + 1), rtol=0, atol=1e-10)
        residual = lap.apply(u) - u * part.eigenvalues
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-10 * bound
        if unique_span:
            np.testing.assert_allclose(
                _projector(u[:, :k]), _projector(vecs[:, :k]), rtol=0, atol=1e-10
            )

    def test_deterministic_and_leaves_global_state(self):
        g = _with_isolated(_sbm600(), 5)
        np.random.seed(12)
        before = np.random.get_state()
        first, second = eigendecompose(laplacian(g), 20), eigendecompose(laplacian(g), 20)
        after = np.random.get_state()
        np.testing.assert_array_equal(first.vectors, second.vectors)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(before[1], after[1])
        assert before[0] == after[0] and before[2:] == after[2:]


def _kernel_column(lam, vecs, lap):
    # a kernel vector in the last column: every residual is zero, but the
    # basis is no longer orthonormal once the component indicators join it
    vecs = vecs.copy()
    vecs[:, -1] = 1.0 / np.sqrt(lap.n)
    return np.concatenate([lam[:-1], [0.0]]), vecs


def _shifted_eigenvalue(lam, vecs, lap):
    # every vector exact, one eigenvalue off by 1e-6 of the bound
    return lam + np.eye(len(lam))[-1] * 1e-6 * largest_eigenvalue_estimate(lap), vecs


class TestLanczosContract:
    """A Lanczos result that fails or misses its check gives way to the
    subset solver: the result is then the subset solver's, bit for bit."""

    @pytest.fixture
    def graph(self):
        return sbm_generate(SbmParams(n=60, k_comm=2, c=8.0, eps=0.2), 5)

    def _assert_is_subset(self, graph, k=5):
        with partial_route("lanczos"):
            got = eigendecompose(laplacian(graph), k)
        with partial_route("subset"):
            want = eigendecompose(laplacian(graph), k)
        np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
        np.testing.assert_array_equal(got.vectors, want.vectors)

    def test_no_convergence_falls_back(self, graph, monkeypatch):
        import scipy.sparse.linalg as sla

        def fail(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((60, 0)))

        monkeypatch.setattr(sla, "eigsh", fail)
        self._assert_is_subset(graph)

    @pytest.mark.parametrize("perturb", [_kernel_column, _shifted_eigenvalue])
    def test_pairs_that_miss_the_check_fall_back(self, graph, perturb, monkeypatch):
        import scipy.sparse.linalg as sla

        eigsh, lap = sla.eigsh, laplacian(graph)

        def perturbed(*args, **kwargs):
            return perturb(*eigsh(*args, **kwargs), lap)

        monkeypatch.setattr(sla, "eigsh", perturbed)
        self._assert_is_subset(graph)


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


class _FirstBlockZeroRows(np.random.Generator):
    """A generator whose first standard-normal block has rows 0 and 2 zeroed."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))
        self.sizes = []

    def standard_normal(self, size=None, **kwargs):
        out = super().standard_normal(size, **kwargs)
        if not self.sizes:
            out[[0, 2]] = 0.0
        self.sizes.append(size)
        return out


class TestBandlimitedSignals:
    def test_rows_are_unit_norm_signals_in_the_span(self, sbm_basis):
        _, basis = sbm_basis
        u_k = fourier_basis_k(basis, 4)
        xs = generate_bandlimited_signals(u_k, 7, 3)
        assert xs.shape == (7, basis.n)
        np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-12)
        assert np.linalg.norm(xs - (xs @ u_k) @ u_k.T) <= 1e-12

    def test_zero_rows_are_drawn_again(self, sbm_basis):
        _, basis = sbm_basis
        rng = _FirstBlockZeroRows()
        xs = generate_bandlimited_signals(fourier_basis_k(basis, 3), 5, rng)
        assert rng.sizes == [(5, 3), (2, 3)]
        np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-12)

    def test_basis_without_columns_rejected(self):
        with pytest.raises(OutOfRange):
            generate_bandlimited_signals(np.zeros((5, 0)), 2, 0)

    @pytest.mark.parametrize("signals", [0, -1, 1.5])
    def test_bad_signal_count_rejected(self, signals):
        with pytest.raises(InvalidParams):
            generate_bandlimited_signals(np.eye(3)[:, :2], signals, 0)


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

    @pytest.mark.parametrize("columns", [20, 3], ids=["square", "narrow"])
    def test_column_block_equals_column_by_column(self, columns):
        # the response multiplied along the block's columns: square blocks
        # came out silently wrong, narrow ones raised a raw ValueError
        g = sbm_generate(SbmParams(n=20, k_comm=2, c=5.0, eps=0.2), 1)
        basis = eigendecompose(laplacian(g))
        h = lambda lam: 1.0 / (1.0 + lam)
        x = np.random.default_rng(7).standard_normal((basis.n, columns))
        one_by_one = np.column_stack([apply_filter(basis, h, x[:, j]) for j in range(columns)])
        np.testing.assert_allclose(apply_filter(basis, h, x), one_by_one, rtol=0, atol=1e-12)


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
