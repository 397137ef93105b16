"""Graph Fourier basis, spectral filters and bandlimited signal generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NoConvergence, OutOfRange, TooLarge
from .graphs import LaplacianView

DENSE_EIGEN_GUARD = 5000
POWER_MAX_ITER = 10_000


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of a graph Laplacian, eigenvalues ascending.

    `vectors` has orthonormal columns; `eigenvalues[0]` is zero for any
    graph (the constant mode), with rounding noise clamped away.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def n(self):
        return len(self.eigenvalues)


def eigendecompose(L: LaplacianView) -> SpectralBasis:
    """Full dense symmetric eigendecomposition of the Laplacian.

    Guarded at DENSE_EIGEN_GUARD nodes: beyond desk scale the whole point
    of the random-walk sampler is to avoid this call. Computed once per
    view and cached on it read-only, for every later caller.
    """
    if L.n > DENSE_EIGEN_GUARD:
        raise TooLarge(f"dense eigendecomposition guarded at n <= {DENSE_EIGEN_GUARD}, got {L.n}")
    try:
        lam, vecs = L.cached("eigh", lambda: tuple(np.linalg.eigh(L.dense())))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    return SpectralBasis(eigenvalues=np.clip(lam, 0.0, None), vectors=vecs)


def fourier_basis_k(basis: SpectralBasis, k: int) -> np.ndarray:
    """First k columns of the Fourier basis (lowest graph frequencies)."""
    if not 1 <= k <= basis.n:
        raise OutOfRange(f"k must lie in [1, {basis.n}], got {k}")
    return basis.vectors[:, :k]


def generate_bandlimited_signal(u_k: np.ndarray, seed=None) -> np.ndarray:
    """Random unit-norm signal in the span of the given basis columns.

    Coefficients are standard normal, renormalized to unit length, so the
    signal itself has unit norm whenever the columns are orthonormal.
    """
    rng = np.random.default_rng(seed)
    k = u_k.shape[1]
    alpha = rng.standard_normal(k)
    norm = np.linalg.norm(alpha)
    while norm == 0.0:
        alpha = rng.standard_normal(k)
        norm = np.linalg.norm(alpha)
    return u_k @ (alpha / norm)


def _vector_eval(f, lam):
    """Frequency response f at every entry of lam; scalar-only callables
    are evaluated entry by entry."""
    lam = np.asarray(lam, dtype=float)
    try:
        out = np.asarray(f(lam), dtype=float)
        if out.shape != lam.shape:
            raise TypeError
    except (TypeError, ValueError):
        out = np.array([float(f(v)) for v in lam.ravel()]).reshape(lam.shape)
    return out


def apply_filter(basis: SpectralBasis, h, x: np.ndarray) -> np.ndarray:
    """Apply the spectral filter with frequency response h to a signal."""
    u = basis.vectors
    return u @ (_vector_eval(h, basis.eigenvalues) * (u.T @ x))


def largest_eigenvalue_estimate(L: LaplacianView, tol: float = 1e-3) -> float:
    """Upper-biased estimate of the largest Laplacian eigenvalue.

    Power iteration on the Laplacian operator; the all-ones start vector
    lies in the kernel, so a small deterministic perturbation is added.
    The Rayleigh quotient climbs monotonically toward the top of the
    spectrum, and on clustered spectra a single small successive
    difference does not mean it has arrived, so the stop rule demands a
    margin well inside tol on several consecutive iterations. The
    converged quotient is inflated by (1 + tol) so that the interval
    [0, estimate] covers the whole spectrum. Gives up with NoConvergence
    after POWER_MAX_ITER iterations. Cached on the view per tol.
    """
    if L.n < 1:
        raise InvalidParams("graph must be nonempty")
    if tol <= 0:
        raise InvalidParams("tol must be positive")
    return L.cached(("lambda_max", tol), lambda: _power_iteration(L, tol))


def _power_iteration(L: LaplacianView, tol: float) -> float:
    rng = np.random.default_rng(0x5EED)
    v = np.ones(L.n) + 1e-6 * rng.standard_normal(L.n)
    v /= np.linalg.norm(v)
    inner = tol * 1e-2
    settled = 0
    prev = None
    for _ in range(POWER_MAX_ITER):
        w = L.apply(v)
        rq = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if prev is not None and abs(rq - prev) < inner * max(abs(rq), 1e-300):
            settled += 1
            if settled >= 3:
                return rq * (1.0 + tol)
        else:
            settled = 0
        prev = rq
    raise NoConvergence(f"power iteration did not settle within {POWER_MAX_ITER} iterations")
