"""Sketch-based estimation of inclusion probabilities and leverage scores.

Everything here works through repeated sparse Laplacian applications to a
Gaussian sketch; the spectral basis is never touched, which is what makes
these estimators usable where a dense eigendecomposition is not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .errors import InvalidParams, OutOfRange
from .graphs import LaplacianView
from .spectral import DENSE_EIGEN_GUARD, _vector_eval, eigendecompose, largest_eigenvalue_estimate

ZERO_PROBABILITY_FLOOR = 1e-12
POWER_TOL = 1e-2  # relative tolerance of the lambda_max estimate behind every fit
FILTER_DEGREE = 30  # default Chebyshev degree of the fitted filters


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
        """Evaluate the polynomial of the Laplacian against a vector batch."""
        c = self.coefficients
        if self.lambda_max <= 0:
            return float(self(0.0)) * x

        def shifted(y):
            return (2.0 / self.lambda_max) * lap.apply(y) - y

        b1 = np.zeros_like(x)
        b2 = np.zeros_like(x)
        for k in range(len(c) - 1, 0, -1):
            b1, b2 = c[k] * x + 2.0 * shifted(b1) - b2, b1
        return c[0] * x + shifted(b1) - b2


def fit_sqrt_filter(f, d: int, lambda_max: float) -> PolynomialFilter:
    """Chebyshev interpolant of sqrt(f) on [0, lambda_max].

    The square root is what gets applied to the sketch: squared row norms
    of the filtered sketch then estimate the diagonal of the f-filter.
    The recorded sup-norm fit error is measured on a 1001-point grid.
    """
    if d < 1:
        raise InvalidParams("polynomial degree must be at least 1")
    if lambda_max < 0:
        raise InvalidParams("lambda_max must be nonnegative")
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
    if width < 1:
        raise InvalidParams("sketch width must be at least 1")
    rng = np.random.default_rng(rng)
    return rng.standard_normal((n_nodes, width)) / np.sqrt(width)


def default_sketch_width(n_nodes: int) -> int:
    """The 20 * ceil(log n) sketch width used throughout the experiments."""
    return int(20 * np.ceil(np.log(max(n_nodes, 2))))


def _sketched_diagonal(lap, f, d, n, rng, lmax):
    """Estimated diagonal of f(L): squared row norms of a width-n Gaussian
    sketch filtered by the degree-d fit of sqrt(f) on [0, lmax]."""
    filtered = fit_sqrt_filter(f, d, lmax).apply(lap, gaussian_sketch(lap.n, n, rng))
    return np.einsum("ij,ij->i", filtered, filtered)


def estimate_pi(
    lap: LaplacianView,
    q: float,
    d: int = FILTER_DEGREE,
    n: int | None = None,
    rng=None,
) -> np.ndarray:
    """Estimate every node's inclusion probability under the rate-q walk process.

    Fits sqrt(q / (q + lambda)) on [0, lambda_max] with a degree-d
    polynomial, pushes a width-n Gaussian sketch through it, and reads the
    squared row norms. Estimates are nonnegative by construction and
    concentrate around the true values at sketch widths of order log n.
    """
    if q <= 0:
        raise InvalidParams("q must be positive")
    rng = np.random.default_rng(rng)
    if n is None:
        n = default_sketch_width(lap.n)
    lmax = largest_eigenvalue_estimate(lap, tol=POWER_TOL)
    return _sketched_diagonal(lap, lambda lam: q / (q + lam), d, n, rng, lmax)


def floor_zero_probabilities(pi: np.ndarray, nodes) -> np.ndarray:
    """Weights for sampled nodes, flooring exact zeros that would break reweighting."""
    w = np.asarray(pi, dtype=float)[np.asarray(nodes, dtype=np.int64)]
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
    applied to a sketch of the default width: up to DENSE_EIGEN_GUARD
    nodes the cutoff between the k-th and (k+1)-th eigenvalue is exact,
    above it the cutoff is located by bisection on sketched eigenvalue
    counts. Returns a probability vector (nonnegative, summing to one).
    """
    if not 1 <= k <= lap.n:
        raise OutOfRange(f"k must lie in [1, {lap.n}], got {k}")
    rng = np.random.default_rng(rng)
    d, n = FILTER_DEGREE, default_sketch_width(lap.n)
    if k == lap.n:
        return np.full(lap.n, 1.0 / lap.n)

    lmax = largest_eigenvalue_estimate(lap, tol=POWER_TOL)
    if lmax == 0.0:
        # no edges: every frequency is zero, any k rows carry equal mass
        return np.full(lap.n, 1.0 / lap.n)

    if lap.n <= DENSE_EIGEN_GUARD:
        lam = eigendecompose(lap).eigenvalues
        gap = lam[k] - lam[k - 1]
        cutoff = (lam[k] + lam[k - 1]) / 2.0
        width = gap / 9.2 if gap > 1e-12 * lmax else lmax * 1e-4
    else:
        lo, hi = 0.0, lmax
        cutoff = lmax / 2.0
        for _ in range(25):
            cutoff = (lo + hi) / 2.0
            step = _smooth_step(cutoff, (hi - lo) / 16.0)
            count = _sketched_diagonal(lap, step, d, n, rng, lmax).sum()
            if abs(count - k) <= 0.25:
                break
            if count < k:
                lo = cutoff
            else:
                hi = cutoff
        width = max((hi - lo) / 9.2, lmax * 1e-4)

    scores = _sketched_diagonal(lap, _smooth_step(cutoff, width), d, n, rng, lmax)
    total = scores.sum()
    if total <= 0.0:
        raise InvalidParams("filtered sketch vanished; cannot normalize scores")
    return scores / total
