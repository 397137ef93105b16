"""Graph Fourier basis, spectral filters and bandlimited signal generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, OutOfRange, ShapeMismatch, TooLarge
from .graphs import LaplacianView, bandlimit, count

DENSE_EIGEN_GUARD = 5000


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of a graph Laplacian, eigenvalues ascending.

    `vectors` has orthonormal columns; `eigenvalues[0]` is zero for any
    graph (the constant mode), with rounding noise clamped away. A partial
    basis holds only the lowest pairs: fewer columns than rows.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def n(self):
        return len(self.eigenvalues)

    def require_complete(self, what: str) -> None:
        """Raise ShapeMismatch unless the basis holds one pair per node:
        `what` needs every mode, and a partial basis would drop some."""
        rows = self.vectors.shape[0]
        if self.n < rows:
            raise ShapeMismatch(f"{what} needs all {rows} eigenpairs, the basis holds {self.n}")


def eigendecompose(L: LaplacianView, k=None) -> SpectralBasis:
    """Dense symmetric eigendecomposition of the Laplacian: every pair, or
    with k < n only the k + 1 lowest, whose last eigenvalue bounds the
    gap above the k-th.

    The partial basis comes from LAPACK's subset solver (MRRR, Dhillon,
    Parlett and Voemel 2006), which computes only the wanted eigenvectors.
    Guarded at DENSE_EIGEN_GUARD nodes: beyond desk scale the whole point
    of the random-walk sampler is to avoid this call. Each form is
    computed once per view and cached on it read-only, for every later
    caller.
    """
    if L.n > DENSE_EIGEN_GUARD:
        raise TooLarge(f"dense eigendecomposition guarded at n <= {DENSE_EIGEN_GUARD}, got {L.n}")
    k = L.n if k is None else count(k, "k")
    if k < L.n:

        def compute():
            import scipy.linalg  # here, not at the top: `import graphdpp` stays light

            return tuple(scipy.linalg.eigh(L.dense(), subset_by_index=[0, k]))

        key = ("eigh", k)
    else:
        key, compute = "eigh", lambda: tuple(np.linalg.eigh(L.dense()))
    try:
        lam, vecs = L.cached(key, compute)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    return SpectralBasis(eigenvalues=np.clip(lam, 0.0, None), vectors=vecs)


def fourier_basis_k(basis: SpectralBasis, k: int) -> np.ndarray:
    """First k columns of the Fourier basis (lowest graph frequencies)."""
    return basis.vectors[:, : bandlimit(k, basis.n)]


def generate_bandlimited_signal(u_k: np.ndarray, seed=None) -> np.ndarray:
    """Random unit-norm signal in the span of the given basis columns.

    Coefficients are standard normal, renormalized to unit length, so the
    signal itself has unit norm whenever the columns are orthonormal.
    A basis without columns spans no unit signal and raises OutOfRange.
    """
    k = u_k.shape[1]
    if k == 0:
        raise OutOfRange("the basis must have at least one column")
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal(k)
    while not alpha.any():
        alpha = rng.standard_normal(k)
    return u_k @ (alpha / np.linalg.norm(alpha))


def generate_bandlimited_signals(u_k: np.ndarray, signals: int, seed=None) -> np.ndarray:
    """`signals` independent signals of generate_bandlimited_signal's law,
    as the rows of a (signals, n) array: the coefficients are drawn as one
    (signals, k) standard normal block, an all-zero row is drawn again
    until it is not, and each row is renormalized to unit length."""
    signals = count(signals, "signal count")
    k = u_k.shape[1]
    if k == 0:
        raise OutOfRange("the basis must have at least one column")
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal((signals, k))
    zero = ~alpha.any(axis=1)
    while zero.any():
        alpha[zero] = rng.standard_normal((np.count_nonzero(zero), k))
        zero = ~alpha.any(axis=1)
    return (alpha / np.linalg.norm(alpha, axis=1, keepdims=True)) @ u_k.T


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
    """Apply the spectral filter with frequency response h to a signal
    (a complete basis only)."""
    basis.require_complete("apply_filter")
    u = basis.vectors
    return u @ (_vector_eval(h, basis.eigenvalues) * (u.T @ x))


def largest_eigenvalue_estimate(L: LaplacianView) -> float:
    """Upper bound max over edges (d_i + d_j) on the largest Laplacian
    eigenvalue, 0.0 for an edgeless graph (Anderson and Morley, 1985).

    Proof: L = B' W B shares its nonzero spectrum with W^1/2 B B' W^1/2,
    whose similarity by diag(sqrt w) has absolute row sums exactly d_i + d_j.
    As d_max <= lambda_max <= bound <= 2 d_max, the interval [0, bound]
    covers the spectrum and is never more than 2x too wide.
    """
    i, j, _ = L.graph.edges()
    if not len(i):
        return 0.0
    d = L.degree_vector
    return float(np.max(d[i] + d[j]))
