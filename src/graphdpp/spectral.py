"""Graph Fourier basis, spectral filters and bandlimited signal generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, OutOfRange, ShapeMismatch, TooLarge
from .graphs import LaplacianView, bandlimit, component_labels, count

DENSE_EIGEN_GUARD = 5000
# Largest graph the package works on from dense spectra: recovery solves
# the bordered kernel system there, the sketch estimators filter on the
# cached eigenpairs, and eigendecompose's partial basis is the dense subset
# solver's (above it, restarted Lanczos on the sparse matrix). SBMs with
# c = 16, r = 4, 10 samples, one BLAS thread on a 2-core Xeon: per graph,
# eigh + (L^r)^+ + L^r take 12-17 + 1.7 + 3 ms at n = 300 and 41-45 + 6 +
# 13 ms at n = 500; per solve, 0.12-0.2 and 0.2-0.3 ms against 5-9 and
# 5-12 ms for preconditioned CG. The bound stays for accuracy, not speed:
# CG stops on the residual and leaves ill-conditioned systems up to 6.4e-3
# off (n = 100, gamma = 1e-7), where this path is within 1e-8. An
# estimate_pi call at the default sketch width, spectrum cached, took 0.9
# against 2.1 ms for float32 Clenshaw at n = 100 and 4.4 against 9.0 ms at
# n = 500. The 21 lowest pairs at n = 100 took 0.6 ms by the subset solver
# against 3-5 ms by Lanczos.
DIRECT_MAX_N = 500
# Above DIRECT_MAX_N, a partial basis comes from Lanczos only while it
# holds at most one pair per LANCZOS_NODES_PER_PAIR nodes: beyond that the
# restarts cost more than the dense reduction. Subset solver against
# Lanczos, ms, same host: n = 600, k = 50: 25 / 27, k = 100: 39 / 71;
# n = 1000, k = 20: 84-107 / 10-29, k = 100: 110 / 117, k = 200: 152 / 656;
# n = 2000, k = 100: 675 / 508, k = 200: 765 / 1716.
LANCZOS_NODES_PER_PAIR = 10


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
    """Symmetric eigendecomposition of the Laplacian: every pair, or with
    k < n only the k + 1 lowest, whose last eigenvalue bounds the gap
    above the k-th.

    Up to DIRECT_MAX_N nodes, or when k + 1 exceeds n /
    LANCZOS_NODES_PER_PAIR, the partial basis comes from LAPACK's dense
    subset solver (MRRR, Dhillon, Parlett and Voemel 2006), which computes
    only the wanted eigenvectors. Otherwise it is restarted Lanczos on the
    sparse matrix (see _lanczos_lowest), which falls back to the subset
    solver when its pairs fail their residual and orthonormality check.
    Guarded at DENSE_EIGEN_GUARD nodes: beyond desk scale the whole point
    of the random-walk sampler is to avoid this call. Each form is
    computed once per view and cached on it read-only, for every later
    caller.
    """
    if L.n > DENSE_EIGEN_GUARD:
        raise TooLarge(f"eigendecomposition guarded at n <= {DENSE_EIGEN_GUARD}, got {L.n}")
    k = L.n if k is None else count(k, "k")
    if k < L.n:

        def compute():
            if L.n > DIRECT_MAX_N and LANCZOS_NODES_PER_PAIR * (k + 1) <= L.n:
                pairs = _lanczos_lowest(L, k + 1)
                if pairs is not None:
                    return pairs
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


def component_null_basis(L: LaplacianView) -> np.ndarray:
    """The normalized indicator vectors of the graph's c0 connected
    components, as the columns of an (n, c0) array in order of each
    component's smallest node: an orthonormal basis of L's kernel. Cached
    on the view read-only."""

    def compute():
        labels = component_labels(L.graph)
        _, comp, sizes = np.unique(labels, return_inverse=True, return_counts=True)
        return np.eye(len(sizes))[comp] / np.sqrt(sizes[comp])[:, None]

    return L.cached("components", compute)


def _lanczos_lowest(L: LaplacianView, m: int):
    """The m lowest eigenpairs of L by implicitly restarted Lanczos
    (ARPACK; Lehoucq, Sorensen and Yang 1998), or None when ARPACK fails
    or its pairs miss the check below.

    The kernel is not left to Lanczos, which finds one zero eigenvalue
    where there are several: its basis N (component_null_basis) is taken
    exactly, and ARPACK runs on L + tau N N' with tau above the edge-degree
    bound on lambda_max, which moves the kernel to the top of the spectrum,
    for the m - c0 lowest pairs left. The start vector is fixed, so the
    result does not depend on any generator's state. The pairs are kept
    only if every residual |L v - lambda v| is within 1e-10 of the bound
    and [N, V] is orthonormal within 1e-10.
    """
    null = component_null_basis(L)
    c0 = null.shape[1]
    if c0 >= m:
        return np.zeros(m), null[:, :m].copy()
    import scipy.sparse.linalg as sla  # here, not at the top: `import graphdpp` stays light

    n, lap = L.n, L.matrix
    bound = largest_eigenvalue_estimate(L)
    tau = 2.0 * bound

    def matvec(x):
        return lap @ x + tau * (null @ (null.T @ x))

    op = sla.LinearOperator((n, n), matvec=matvec, dtype=float)
    start = np.random.default_rng(0).standard_normal(n)
    try:
        lam, vecs = sla.eigsh(op, k=m - c0, which="SA", tol=0, v0=start)
    except sla.ArpackError:
        return None
    order = np.argsort(lam)
    lam, vecs = lam[order], vecs[:, order]
    residual = np.linalg.norm(lap @ vecs - vecs * lam, axis=0)
    basis = np.hstack([null, vecs])
    if residual.max() > 1e-10 * bound or np.abs(basis.T @ basis - np.eye(m)).max() > 1e-10:
        return None
    return np.concatenate([np.zeros(c0), lam]), basis


def fourier_basis_k(basis: SpectralBasis, k: int) -> np.ndarray:
    """First k columns of the Fourier basis (lowest graph frequencies)."""
    return basis.vectors[:, : bandlimit(k, basis.n)]


def generate_bandlimited_signal(u_k: np.ndarray, seed=None) -> np.ndarray:
    """Random unit-norm signal in the span of the given basis columns.

    Coefficients are standard normal, renormalized to unit length, so the
    signal itself has unit norm whenever the columns are orthonormal.
    A basis without columns spans no unit signal and raises OutOfRange.
    It is the one row of generate_bandlimited_signals(u_k, 1, seed).
    """
    return generate_bandlimited_signals(u_k, 1, seed)[0]


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
    """U h(Lambda) U' x, the spectral filter with frequency response h
    applied to a signal x of shape (n,) or to each column of a block of
    shape (n, c), on a complete basis only."""
    basis.require_complete("apply_filter")
    u = basis.vectors
    coef = u.T @ x
    gain = _vector_eval(h, basis.eigenvalues)
    return u @ (gain.reshape(gain.shape + (1,) * (coef.ndim - 1)) * coef)


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
