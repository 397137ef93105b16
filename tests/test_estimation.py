"""Polynomial filters and sketch-based probability estimation."""

import gc
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from conftest import edge_lists
from hypothesis import given, settings
from hypothesis import strategies as st

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
from graphdpp import LaplacianView, estimation, spectral
from graphdpp.errors import InvalidParams, OutOfRange, TooLarge
from graphdpp.estimation import default_sketch_width


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves a Python thread alive, such as a sketch worker."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads left alive: {left}"


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

    @pytest.mark.parametrize("lambda_max", [np.nan, np.inf])
    def test_rejects_non_finite_interval(self, lambda_max):
        with pytest.raises(InvalidParams):
            fit_sqrt_filter(lambda lam: 1.0 / (1.0 + lam), 5, lambda_max)

    def test_operator_apply_matches_dense(self):
        g = sbm_generate(SbmParams(n=40, k_comm=2, c=6.0, eps=0.3), 0)
        lap = laplacian(g)
        basis = eigendecompose(lap)
        lmax = basis.eigenvalues[-1] * 1.01
        filt = fit_sqrt_filter(lambda lam: 0.5 / (0.5 + lam), 20, lmax)
        dense = (basis.vectors * filt(basis.eigenvalues)) @ basis.vectors.T
        x = np.random.default_rng(1).standard_normal((40, 7))
        np.testing.assert_allclose(filt.apply(lap, x), dense @ x, atol=1e-10)

    def test_operator_apply_on_vector_matches_dense(self):
        g = sbm_generate(SbmParams(n=40, k_comm=2, c=6.0, eps=0.3), 0)
        lap = laplacian(g)
        basis = eigendecompose(lap)
        filt = fit_sqrt_filter(lambda lam: 0.5 / (0.5 + lam), 20, basis.eigenvalues[-1] * 1.01)
        dense = (basis.vectors * filt(basis.eigenvalues)) @ basis.vectors.T
        v = np.random.default_rng(1).standard_normal(40)
        out = filt.apply(lap, v)
        assert out.shape == (40,)
        np.testing.assert_allclose(out, dense @ v, atol=1e-10)

    def test_apply_keeps_single_precision(self):
        g = sbm_generate(SbmParams(n=40, k_comm=2, c=6.0, eps=0.3), 0)
        lap = laplacian(g)
        basis = eigendecompose(lap)
        lmax = basis.eigenvalues[-1] * 1.01
        filt = fit_sqrt_filter(lambda lam: 0.5 / (0.5 + lam), 20, lmax)
        x = np.random.default_rng(1).standard_normal((40, 7))
        single = replace(filt, lambda_max=1.0).apply(lap.scaled(1.0 / lmax), x.astype(np.float32))
        assert single.dtype == np.float32
        np.testing.assert_allclose(single, filt.apply(lap, x), rtol=0, atol=1e-5)

    @pytest.mark.parametrize("single", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 7, 30])
    def test_apply_matches_clenshaw_with_fresh_blocks(self, d, single):
        # reference: the recurrence with c_k x in a new block at every step
        g = _weighted_with_isolated_node(300, 2)
        lap = laplacian(g)
        lmax = 2 * lap.degree_vector.max()
        filt = fit_sqrt_filter(lambda lam: 0.3 / (0.3 + lam), d, lmax)
        x = np.random.default_rng(3).standard_normal((300, 5))
        if single:
            lap, filt, x = lap.scaled(1.0 / lmax), replace(filt, lambda_max=1.0), x.astype(np.float32)
        c = filt.coefficients.astype(x.dtype)
        b1, b2 = c[-1] * x, 0.0
        for k in range(len(c) - 2, 0, -1):
            t = lap.apply(b1)
            t *= 4.0 / filt.lambda_max
            t -= b1
            t -= b1
            t -= b2
            t += c[k] * x
            b1, b2 = t, b1
        t = lap.apply(b1)
        t *= 2.0 / filt.lambda_max
        t -= b1
        t -= b2
        t += c[0] * x
        out = filt.apply(lap, x)
        assert out.dtype == x.dtype
        np.testing.assert_array_equal(out, t)

    @pytest.mark.parametrize("d", [1, 2, 7, 30])
    def test_degree_d_filter_applies_laplacian_d_times(self, monkeypatch, d):
        # the bench tracer counts estimator work as LaplacianView.apply calls
        g = sbm_generate(SbmParams(n=40, k_comm=2, c=6.0, eps=0.3), 0)
        lap = laplacian(g)
        filt = fit_sqrt_filter(lambda lam: 0.5 / (0.5 + lam), d, 2 * lap.degree_vector.max())
        x = np.random.default_rng(2).standard_normal((40, 3))
        calls = []
        apply = LaplacianView.apply

        def counting(self, y):
            calls.append(y.shape)
            return apply(self, y)

        monkeypatch.setattr(LaplacianView, "apply", counting)
        filt.apply(lap, x)
        assert calls == [(40, 3)] * d


class TestSketch:
    def test_shape_and_scale(self):
        r = gaussian_sketch(200, 50, 0)
        assert r.shape == (200, 50)
        # E[R R'] = I: diagonal concentrates near 1
        diag = np.einsum("ij,ij->i", r, r)
        assert abs(diag.mean() - 1.0) < 0.1

    def test_default_width(self):
        assert default_sketch_width(100) == 100  # 20 * ceil(log 100)

    def test_scaled_in_place_bit_identical(self):
        raw = np.random.default_rng(5).standard_normal((30, 12))
        np.testing.assert_array_equal(gaussian_sketch(30, 12, 5), raw / np.sqrt(12))


def _weighted_with_isolated_node(n, seed):
    """Weighted SBM whose node 0 has no edges."""
    g = sbm_generate(SbmParams(n=n, k_comm=2, c=8.0, eps=0.2), seed)
    i, j, _ = g.edges()
    keep = (i != 0) & (j != 0)
    w = np.random.default_rng(seed).uniform(0.1, 3.0, keep.sum())
    return Graph.from_arrays(n, i[keep], j[keep], w)


def _sketch_panels(rng, n, width, step):
    """The sketch the estimators filter, drawn as they draw it: column
    panels of `step`, each from rng in panel order, Normal(0, 1/width)
    in float64."""
    rng = np.random.default_rng(rng)
    return [
        rng.standard_normal((n, min(step, width - j))) / np.sqrt(width)
        for j in range(0, width, step)
    ]


def _force_cpus(monkeypatch, count):
    """Make the estimators see `count` allowed CPUs, whatever the machine has."""
    monkeypatch.setattr(estimation.os, "sched_getaffinity", lambda pid: set(range(count)))


class TestSketchPanels:
    @staticmethod
    def graph(n, weighted):
        if weighted:
            g = _weighted_with_isolated_node(n, 3)
            assert g.degrees()[0] == 0.0
            return g
        return sbm_generate(SbmParams(n=n, k_comm=2, c=8.0, eps=0.2), 3)

    @staticmethod
    def f(lam):
        return 0.1 / (0.1 + lam)

    @staticmethod
    def single_precision(lap, lmax):
        """The filter and operator the sketch runs on: L / lmax in float32."""
        filt = fit_sqrt_filter(TestSketchPanels.f, 30, lmax)
        return replace(filt, lambda_max=1.0), lap.scaled(1.0 / lmax)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_paneled_matches_single_pass(self, weighted):
        n = 5000  # width 180 is no multiple of the 32-column panels
        lap = laplacian(self.graph(n, weighted))
        width = default_sketch_width(n)
        assert width == 180 and max(8, estimation._PANEL_BYTES // (4 * n)) == 32
        lmax = 2 * lap.degree_vector.max()

        filt, scaled = self.single_precision(lap, lmax)
        sketch = np.hstack(_sketch_panels(4, n, width, 32)).astype(np.float32)
        filtered = filt.apply(scaled, sketch)
        single = np.einsum("ij,ij->i", filtered, filtered, dtype=np.float64)
        paneled = estimation._sketched_diagonal(lap, self.f, 30, width, np.random.default_rng(4), lmax)
        np.testing.assert_allclose(paneled, single, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_to_serial_loop(self, monkeypatch, weighted, workers):
        # reference: the float32 panels filtered one after another on this
        # thread, their row norms added in panel order; 8 workers on a fast
        # thread switch would show a panel skipped or taken twice
        n, width, step = 5000, 180, 32
        lap = laplacian(self.graph(n, weighted))
        lmax = 2 * lap.degree_vector.max()
        filt, scaled = self.single_precision(lap, lmax)
        serial = np.zeros(n)
        for sketch in _sketch_panels(4, n, width, step):
            panel = filt.apply(scaled, sketch.astype(np.float32))
            serial += np.einsum("ij,ij->i", panel, panel, dtype=np.float64)

        _force_cpus(monkeypatch, workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = estimation._sketched_diagonal(lap, self.f, 30, width, np.random.default_rng(4), lmax)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(out, serial)

    def test_panel_error_reaches_caller(self, monkeypatch):
        class PanelFailure(RuntimeError):
            pass

        class CountingRng:
            """Counts the panels drawn, all of them on the calling thread."""

            def __init__(self):
                self.rng, self.draws = np.random.default_rng(4), 0

            def standard_normal(self, shape):
                self.draws += 1
                return self.rng.standard_normal(shape)

        lap = laplacian(self.graph(5000, False))  # width 180: 6 panels, 30 applies each
        apply, calls, lock = LaplacianView.apply, [], threading.Lock()

        def failing(self, y):
            with lock:
                calls.append(None)
                if len(calls) == 1:  # the first or the second panel fails
                    raise PanelFailure("panel failed")
            return apply(self, y)

        before = threading.active_count()
        _force_cpus(monkeypatch, 2)
        monkeypatch.setattr(LaplacianView, "apply", failing)
        rng = CountingRng()
        with pytest.raises(PanelFailure):
            estimation._sketched_diagonal(lap, self.f, 30, 180, rng, 40.0)
        assert threading.active_count() == before
        # the in-order window of workers + 1 = 3 futures bounds the work:
        # the error surfaces when the caller takes the failed panel's
        # result, by then having drawn at most 3 panels past the first,
        # and the panels drawn but not taken still run to completion
        assert rng.draws <= 4
        assert len(calls) <= 1 + 3 * 30

    @pytest.mark.parametrize("workers", [1, 2])
    def test_draw_error_reaches_caller(self, monkeypatch, workers):
        class DrawFailure(RuntimeError):
            pass

        class FailingRng:
            """A generator whose third panel draw raises."""

            def __init__(self):
                self.rng, self.draws = np.random.default_rng(4), 0

            def standard_normal(self, shape):
                self.draws += 1
                if self.draws == 3:
                    raise DrawFailure("draw failed")
                return self.rng.standard_normal(shape)

        lap = laplacian(self.graph(5000, False))  # six 32-column panels
        rng, before = FailingRng(), threading.active_count()
        _force_cpus(monkeypatch, workers)
        with pytest.raises(DrawFailure):
            estimation._sketched_diagonal(lap, self.f, 30, 180, rng, 40.0)
        assert rng.draws == 3
        assert threading.active_count() == before

    def test_single_panel_starts_no_thread(self, monkeypatch):
        lap = laplacian(self.graph(100, False))  # width 100 fits one panel
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread)
            start(thread)

        _force_cpus(monkeypatch, 2)
        monkeypatch.setattr(threading.Thread, "start", recording)
        pi = estimate_pi(lap, 0.1, rng=0)
        assert pi.shape == (100,) and started == []

    @pytest.mark.parametrize("n", [600, 1096])
    def test_single_panel_matches_whole_sketch(self, n):
        # up to n = 1096 the default width fits one panel, drawn as one
        # whole gaussian_sketch: above DIRECT_MAX_N, where the filter runs
        # in float32, the estimate is the single pass, bit for bit
        width = default_sketch_width(n)
        assert width <= max(8, estimation._PANEL_BYTES // (4 * n))
        lap = laplacian(self.graph(n, True))
        lmax = estimation.largest_eigenvalue_estimate(lap)
        filt, scaled = self.single_precision(lap, lmax)  # estimate_pi's filter at q = 0.1
        filtered = filt.apply(scaled, gaussian_sketch(n, width, 4).astype(np.float32))
        single = np.einsum("ij,ij->i", filtered, filtered, dtype=np.float64)
        np.testing.assert_array_equal(estimate_pi(lap, 0.1, rng=4), single)

    def test_rng_left_as_after_whole_sketch(self):
        # the panels take the normals of one (n, width) draw, in its order
        n = 5000
        width = default_sketch_width(n)
        assert width > max(8, estimation._PANEL_BYTES // (4 * n))  # several panels
        lap = laplacian(self.graph(n, False))
        g1, g2 = np.random.default_rng(9), np.random.default_rng(9)
        estimate_pi(lap, 0.1, rng=g1)
        g2.standard_normal((n, width))
        np.testing.assert_array_equal(g1.standard_normal(16), g2.standard_normal(16))

    def test_memory_below_whole_sketch(self, monkeypatch):
        # a few float32 panels per worker: no n x width array, in either
        # precision, is ever allocated
        n = 20_000
        lap = laplacian(self.graph(n, False))
        sketch_bytes = n * default_sketch_width(n) * 4
        _force_cpus(monkeypatch, 2)
        tracemalloc.start()
        try:
            estimate_pi(lap, 0.1, rng=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sketch_bytes


def _double_precision_diagonal(lap, f, d, n, rng, lmax):
    """_sketched_diagonal's estimate with the same polynomial evaluated in
    float64 on L itself, on the same panels."""
    filt = fit_sqrt_filter(f, d, lmax)
    step = max(8, estimation._PANEL_BYTES // (4 * lap.n))
    out = np.zeros(lap.n)
    for sketch in _sketch_panels(rng, lap.n, n, step):
        panel = filt.apply(lap, sketch)
        out += np.einsum("ij,ij->i", panel, panel)
    return out


class TestSpectralRoute:
    """Up to DIRECT_MAX_N nodes the sketch is filtered on the cached
    eigenpairs, U p(Lambda) U' in float64: the same polynomial on the same
    panels as Clenshaw, so it equals the float64 recurrence to round-off."""

    @settings(max_examples=60, deadline=None)
    @given(
        graph=edge_lists(),
        q=st.floats(1e-3, 1e3),
        d=st.integers(1, 30),
        width=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_double_precision_clenshaw(self, graph, q, d, width, seed):
        # weighted, disconnected and edgeless graphs, with isolated nodes
        lap = laplacian(Graph(*graph))
        assert lap.n <= estimation.DIRECT_MAX_N
        lmax = estimation.largest_eigenvalue_estimate(lap)
        f = lambda lam: q / (q + lam)
        rng = np.random.default_rng(seed)
        out = estimation._sketched_diagonal(lap, f, d, width, rng, lmax)
        double = _double_precision_diagonal(lap, f, d, width, seed, lmax)
        np.testing.assert_allclose(out, double, rtol=1e-10, atol=0)
        # the rng is left as one (n, width) draw leaves it
        after = np.random.default_rng(seed)
        after.standard_normal((lap.n, width))
        np.testing.assert_array_equal(rng.standard_normal(8), after.standard_normal(8))

    def test_paneled_at_the_bound(self, monkeypatch):
        # three panels on two workers, on the spectrum
        n = estimation.DIRECT_MAX_N
        lap = laplacian(TestSketchPanels.graph(n, True))
        lmax = estimation.largest_eigenvalue_estimate(lap)
        assert max(8, estimation._PANEL_BYTES // (4 * n)) == 320
        _force_cpus(monkeypatch, 2)
        rng = np.random.default_rng(6)
        out = estimation._sketched_diagonal(lap, TestSketchPanels.f, 30, 700, rng, lmax)
        double = _double_precision_diagonal(lap, TestSketchPanels.f, 30, 700, 6, lmax)
        np.testing.assert_allclose(out, double, rtol=1e-10, atol=0)
        after = np.random.default_rng(6)
        after.standard_normal((n, 700))
        np.testing.assert_array_equal(rng.standard_normal(8), after.standard_normal(8))

    @staticmethod
    def counted_applies(monkeypatch, n, d, width):
        """The shapes LaplacianView.apply sees while the estimate runs on a
        path of n nodes."""
        lap = laplacian(Graph.from_arrays(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1)))
        calls, apply = [], LaplacianView.apply

        def counting(self, y):
            calls.append(y.shape)
            return apply(self, y)

        monkeypatch.setattr(LaplacianView, "apply", counting)
        estimate_pi(lap, 0.1, d=d, n=width, rng=0)
        return calls

    def test_no_sparse_product_at_the_bound(self, monkeypatch):
        assert self.counted_applies(monkeypatch, estimation.DIRECT_MAX_N, 5, 700) == []

    def test_clenshaw_above_the_bound(self, monkeypatch):
        n = estimation.DIRECT_MAX_N + 1
        step = max(8, estimation._PANEL_BYTES // (4 * n))
        panels = [min(step, 700 - j) for j in range(0, 700, step)]
        assert len(panels) == 3
        calls = self.counted_applies(monkeypatch, n, 5, 700)
        # the panels run on a pool, so their applies interleave
        assert sorted(calls) == sorted((n, cols) for cols in panels for _ in range(5))


class TestSinglePrecision:
    """The sketch filter runs in float32; its round-off must stay far below
    the estimators' sampling error (about sqrt(2 / 180) = 0.1 here)."""

    @staticmethod
    def both(monkeypatch, estimate):
        """estimate() as the package computes it, and with the filter evaluated in float64."""
        single = estimate()
        with monkeypatch.context() as m:
            m.setattr(estimation, "_sketched_diagonal", _double_precision_diagonal)
            double = estimate()
        assert np.all(np.isfinite(single)) and np.all(single >= 0.0)
        return single, double

    @staticmethod
    def assert_close(single, double):
        assert np.max(np.abs(single - double) / double) <= 1e-4

    @pytest.fixture(scope="class")
    def graph(self):
        g = _weighted_with_isolated_node(5000, 3)
        assert g.degrees()[0] == 0.0
        return g

    @pytest.mark.parametrize("q", [0.1, 1e-3])
    def test_estimate_pi(self, monkeypatch, graph, q):
        lap = laplacian(graph)
        self.assert_close(*self.both(monkeypatch, lambda: estimate_pi(lap, q, rng=5)))

    def test_extreme_weights(self, monkeypatch, graph):
        # weights over 60 decades: L / lambda_max has entries far below
        # float32's smallest normal number, and the fitted coefficients are tiny
        i, j, _ = graph.edges()
        w = 10.0 ** np.random.default_rng(4).uniform(-30.0, 30.0, len(i))
        lap = laplacian(Graph.from_arrays(graph.n, i, j, w))
        self.assert_close(*self.both(monkeypatch, lambda: estimate_pi(lap, 0.1, rng=5)))

    def test_scaled_view_shares_structure(self):
        graph = _weighted_with_isolated_node(200, 3)
        lap = laplacian(graph)
        lmax = 2 * lap.degree_vector.max()
        view = lap.scaled(1.0 / lmax)
        assert isinstance(view, LaplacianView) and view.graph is graph
        assert np.shares_memory(view.matrix.indices, lap.matrix.indices)
        assert np.shares_memory(view.matrix.indptr, lap.matrix.indptr)
        assert view.matrix.dtype == np.float32 and np.abs(view.matrix.data).max() <= 1.0
        np.testing.assert_allclose(view.matrix.data, lap.matrix.data / lmax, rtol=1e-7)
        np.testing.assert_allclose(view.degree_vector, lap.degree_vector / lmax, rtol=1e-7)
        np.testing.assert_allclose(view.dense(), lap.matrix.toarray() / lmax, rtol=1e-7)

    def test_view_is_made_per_call_and_freed(self, monkeypatch, graph):
        lap = laplacian(graph)
        views, scaled = [], LaplacianView.scaled

        def recording(self, factor):
            view = scaled(self, factor)
            views.append(weakref.ref(view))
            return view

        monkeypatch.setattr(LaplacianView, "scaled", recording)
        estimate_pi(lap, 0.1, rng=5)
        estimate_pi(lap, 0.1, rng=5)
        gc.collect()
        assert len(views) == 2 and all(ref() is None for ref in views)
        assert list(lap._cache) == []


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
        for q in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidParams):
                estimate_pi(laplacian(k2), q=q)


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

    def test_above_dense_guard_raises(self, monkeypatch):
        # the cutoff needs the dense eigenvalues, guarded as eigendecompose is
        g = sbm_generate(SbmParams(n=100, k_comm=2, c=16.0, eps=0.1), 8)
        monkeypatch.setattr(spectral, "DENSE_EIGEN_GUARD", 10)
        with pytest.raises(TooLarge):
            estimate_leverage_scores(laplacian(g), 2, rng=10)

    def test_out_of_range(self, k2):
        with pytest.raises(OutOfRange):
            estimate_leverage_scores(laplacian(k2), 3)
