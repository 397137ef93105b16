"""Sketch-based estimation of inclusion probabilities and leverage scores.

Both filter a Gaussian sketch by a Chebyshev polynomial of the Laplacian.
Above DIRECT_MAX_N nodes that takes repeated sparse Laplacian applications
only: the inclusion probabilities never touch the spectral basis there,
which is what makes them usable where a dense eigendecomposition is not.
Up to DIRECT_MAX_N the same polynomial is applied on the eigenpairs cached
on the view. The leverage scores take their cutoff from that spectrum up
to DIRECT_MAX_N and from the k + 1 lowest eigenvalues above it.
"""

from __future__ import annotations

import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from numpy.polynomial import chebyshev

from .errors import InvalidParams
from .graphs import LaplacianView, bandlimit, count, index_array, real
from .spectral import (
    DIRECT_MAX_N, _vector_eval, apply_filter, eigendecompose, largest_eigenvalue_estimate
)

ZERO_PROBABILITY_FLOOR = 1e-12
FILTER_DEGREE = 30  # default Chebyshev degree of the fitted filters
_PANEL_BYTES = 640_000  # float32 sketch panel size: 16 columns at n = 1e4


@dataclass(frozen=True)
class PolynomialFilter:
    """Degree-d polynomial approximating a response on [0, lambda_max].

    Coefficients are in the Chebyshev basis of the interval; evaluation on
    an operator uses the Clenshaw recurrence, which stays stable at
    degrees where raw monomial powers of the Laplacian would not.
    """

    coefficients: np.ndarray
    lambda_max: float
    degree: int
    fit_error: float

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.lambda_max <= 0:
            t = np.full_like(lam, -1.0)
        else:
            t = 2.0 * lam / self.lambda_max - 1.0
        return chebyshev.chebval(t, self.coefficients)

    def apply(self, lap: LaplacianView, x: np.ndarray) -> np.ndarray:
        """Evaluate the polynomial of the Laplacian against a vector or batch.

        Clenshaw on A = (2 / lambda_max) L - I, started at b1 = c_d x, so a
        degree-d filter costs exactly d calls of `lap.apply`. Each step is
        that one sparse product plus in-place updates of its result, and
        c_k x goes into the spent b2; A is never formed. Four blocks of
        x's size are live at once, x included, so the caller bounds the
        batch width.
        """
        # in x's precision: float64 numpy scalars would promote a float32 block
        c = self.coefficients.astype(np.result_type(x, np.float32), copy=False)
        if self.lambda_max <= 0:
            return float(self(0.0)) * x
        b1, b2 = c[-1] * x, None
        for k in range(len(c) - 2, -1, -1):
            t = lap.apply(b1)
            t *= (4.0 if k else 2.0) / self.lambda_max
            t -= b1
            if k:
                t -= b1
            if b2 is None:
                b2 = c[k] * x
            else:
                t -= b2
                np.multiply(c[k], x, out=b2)
            t += b2
            b1, b2 = t, b1
        return b1


def fit_sqrt_filter(f, d: int, lambda_max: float) -> PolynomialFilter:
    """Chebyshev interpolant of sqrt(f) on [0, lambda_max].

    The square root is what gets applied to the sketch: squared row norms
    of the filtered sketch then estimate the diagonal of the f-filter.
    The recorded sup-norm fit error is measured on a 1001-point grid.
    """
    d = count(d, "polynomial degree")
    lambda_max = real(lambda_max, "lambda_max", positive=False)
    if lambda_max == 0.0:
        v = float(f(0.0))
        if v < 0:
            raise InvalidParams("response must be nonnegative on the interval")
        coeffs = np.zeros(d + 1)
        coeffs[0] = np.sqrt(v)
        return PolynomialFilter(coefficients=coeffs, lambda_max=0.0, degree=d, fit_error=0.0)

    grid = np.linspace(0.0, lambda_max, 1001)
    if np.any(_vector_eval(f, grid) < -1e-12):
        raise InvalidParams("response must be nonnegative on the interval")

    def target(lam):
        return np.sqrt(np.clip(_vector_eval(f, lam), 0.0, None))

    coeffs = chebyshev.Chebyshev.interpolate(target, d, domain=[0.0, lambda_max]).coef
    fitted = chebyshev.chebval(2.0 * grid / lambda_max - 1.0, coeffs)
    err = float(np.max(np.abs(fitted - target(grid))))
    return PolynomialFilter(
        coefficients=coeffs, lambda_max=float(lambda_max), degree=d, fit_error=err
    )


def gaussian_sketch(n_nodes: int, width: int, rng=None) -> np.ndarray:
    """Sketch matrix with i.i.d. Normal(0, 1/width) entries."""
    n_nodes, width = count(n_nodes, "node count"), count(width, "sketch width")
    rng = np.random.default_rng(rng)
    x = rng.standard_normal((n_nodes, width))
    x /= np.sqrt(width)
    return x


def default_sketch_width(n_nodes: int) -> int:
    """The 20 * ceil(log n) sketch width used throughout the experiments."""
    return int(20 * np.ceil(np.log(max(n_nodes, 2))))


def _sketched_diagonal(lap, f, d, n, rng, lmax):
    """Estimated diagonal of f(L): squared row norms of a width-n Gaussian
    sketch filtered by the degree-d fit of sqrt(f) on [0, lmax], where
    lmax is at least L's largest eigenvalue (largest_eigenvalue_estimate).

    Up to DIRECT_MAX_N nodes, where the package works from the dense
    spectrum anyway, a panel X is filtered in float64 on the eigenpairs
    (U, Lambda) that eigendecompose caches on the view, by apply_filter
    as U p(Lambda) U' X: two GEMMs instead of d sparse products, and the
    same polynomial p evaluated without the recurrence's round-off. A call on
    a view without that spectrum pays for the eigh, which is cached for
    the next caller.

    Above DIRECT_MAX_N the filter is the Clenshaw recurrence in float32,
    whose round-off (about 1e-5 relative) is far below the sketch's
    sampling error, about sqrt(2 / n), and the fit error. Its operator is
    lap.scaled(1 / lmax), made for this call only and not cached, with
    the same coefficients on lambda_max = 1: every entry is at most 1 in
    magnitude, so no accepted edge weight overflows. The coefficients are
    scaled by a power of two into [0.5, 1), which is exact and undone on
    the output; tiny ones would make the iterates subnormal, and
    subnormal arithmetic is several times slower.

    On either route the sketch is never held whole. It is cut into
    contiguous column panels of about _PANEL_BYTES of float32, which
    keeps the Clenshaw blocks cache-sized. The calling thread draws the
    panels from rng in panel order, rng.standard_normal((rows, columns))
    in float64, divided by sqrt(n) and kept in the filter's precision: in
    order they use up rng's normals as one (rows, n) draw would, and a
    sketch that fits one panel has gaussian_sketch's values. Each panel
    is filtered, and its squared row norms taken in float64, on a pool of
    one thread per CPU the process may run on, at most one per panel
    (the products and the in-place updates release the interpreter
    lock). At most workers + 1 panels are in flight, so the caller draws
    the next panel while the workers filter, and memory is a few panels
    per worker. The norms are added to the output in panel order, so the
    result is the same, bit for bit, whatever the number of workers. With
    one panel or one CPU the panels run in a plain loop on the calling
    thread.
    """
    filt = fit_sqrt_filter(f, d, lmax)
    step = max(8, _PANEL_BYTES // (4 * lap.n))
    starts = range(0, n, step)
    out = np.zeros(lap.n)
    if lap.n <= DIRECT_MAX_N:
        scale, dtype, apply = 1.0, np.float64, partial(apply_filter, eigendecompose(lap), filt)
    else:
        scale = np.ldexp(1.0, int(np.frexp(np.abs(filt.coefficients).max())[1]))
        filt = replace(filt, coefficients=filt.coefficients / scale)
        if lmax > 0.0:
            lap, filt = lap.scaled(1.0 / lmax), replace(filt, lambda_max=1.0)
        dtype, apply = np.float32, partial(filt.apply, lap)

    def draw(j):
        x = rng.standard_normal((lap.n, min(step, n - j)))
        x /= np.sqrt(n)
        return x.astype(dtype, copy=False)

    def norms(sketch):
        panel = apply(sketch)
        return np.einsum("ij,ij->i", panel, panel, dtype=np.float64)

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(starts))
    if workers == 1:
        for j in starts:
            out += norms(draw(j))
    else:
        with ThreadPoolExecutor(workers) as pool:
            window = deque()
            for j in starts:
                window.append(pool.submit(norms, draw(j)))
                if len(window) > workers:
                    out += window.popleft().result()
            while window:
                out += window.popleft().result()
    return out * scale**2


def estimate_pi(
    lap: LaplacianView,
    q: float,
    d: int = FILTER_DEGREE,
    n: int | None = None,
    rng=None,
) -> np.ndarray:
    """Estimate every node's inclusion probability under the rate-q walk process.

    Fits sqrt(q / (q + lambda)) with a degree-d polynomial on [0, b],
    where b = max over edges (d_i + d_j) bounds the spectrum from above,
    pushes a width-n Gaussian sketch through it, and reads the squared
    row norms. Estimates are nonnegative by construction and concentrate
    around the true values at sketch widths of order log n. Above
    DIRECT_MAX_N nodes the cost is d sparse products per sketch column,
    in single precision on L / b, and no spectral computation; up to it
    the same polynomial is applied in double precision on the view's
    cached eigenpairs, computed first if the view holds none. Either way
    the sketch is drawn in column panels and never held whole
    (_sketched_diagonal), and rng is left as one
    standard_normal((lap.n, n)) draw would leave it.
    """
    q = real(q, "q")
    d = count(d, "polynomial degree")
    n = default_sketch_width(lap.n) if n is None else count(n, "sketch width")
    rng = np.random.default_rng(rng)
    lmax = largest_eigenvalue_estimate(lap)
    return _sketched_diagonal(lap, lambda lam: q / (q + lam), d, n, rng, lmax)


def floor_zero_probabilities(pi: np.ndarray, nodes) -> np.ndarray:
    """Weights for sampled nodes, flooring exact zeros that would break reweighting."""
    pi = np.asarray(pi, dtype=float)
    w = pi[index_array(nodes, "node indices", len(pi))]
    if np.any(w <= 0.0):
        warnings.warn(
            "estimated inclusion probability is zero for a sampled node; flooring",
            stacklevel=2,
        )
        w = np.maximum(w, ZERO_PROBABILITY_FLOOR)
    return w


def _smooth_step(cutoff: float, width: float):
    """Logistic approximation of the indicator of [0, cutoff]."""
    scale = max(width, 1e-300)

    def h(lam):
        z = np.clip((np.asarray(lam, dtype=float) - cutoff) / scale, -60.0, 60.0)
        return 1.0 / (1.0 + np.exp(z))

    return h


def estimate_leverage_scores(lap: LaplacianView, k: int, rng=None) -> np.ndarray:
    """Estimate the i.i.d. sampling distribution over nodes for bandlimit k.

    The exact distribution is the squared row norms of the first k Fourier
    basis columns, normalized by k. Here the rank-k projector is
    approximated by a smoothed low-pass polynomial of degree FILTER_DEGREE,
    applied to a sketch of the default width, with the cutoff midway
    between the k-th and (k+1)-th eigenvalue. Those come from the view's
    full eigendecomposition up to DIRECT_MAX_N nodes, which the sketch is
    filtered on there, and above it from the k + 1 lowest pairs only
    (eigendecompose(lap, k): Lanczos while k is small, else the dense
    subset solver). Either way, above DENSE_EIGEN_GUARD nodes a graph with
    edges and k < n raises TooLarge, as eigendecompose does. The sketch is
    drawn and filtered in panels as in estimate_pi (_sketched_diagonal):
    on those cached eigenpairs up to DIRECT_MAX_N nodes, in single
    precision on L / b for the edge-degree bound b above.
    Returns a probability vector (nonnegative, summing to one).
    """
    k = bandlimit(k, lap.n)
    rng = np.random.default_rng(rng)
    if k == lap.n:
        return np.full(lap.n, 1.0 / lap.n)

    lmax = largest_eigenvalue_estimate(lap)
    if lmax == 0.0:
        # no edges: every frequency is zero, any k rows carry equal mass
        return np.full(lap.n, 1.0 / lap.n)

    lam = eigendecompose(lap, None if lap.n <= DIRECT_MAX_N else k).eigenvalues
    gap = lam[k] - lam[k - 1]
    cutoff = (lam[k] + lam[k - 1]) / 2.0
    width = gap / 9.2 if gap > 1e-12 * lmax else lmax * 1e-4
    n = default_sketch_width(lap.n)
    scores = _sketched_diagonal(lap, _smooth_step(cutoff, width), FILTER_DEGREE, n, rng, lmax)
    total = scores.sum()
    if total <= 0.0:
        raise InvalidParams("filtered sketch vanished; cannot normalize scores")
    return scores / total
