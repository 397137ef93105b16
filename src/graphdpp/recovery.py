"""Signal recovery from node measurements: pseudo-inverse solvers for a
known Fourier basis and a regularized solver without it (a bordered kernel
system from one cached eigendecomposition per graph on small graphs,
matrix-free Jacobi-preconditioned conjugate gradient otherwise)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dpp import SamplingSet
from .errors import (
    IllConditionedWarning,
    InvalidParams,
    MissingWeights,
    ShapeMismatch,
    SolverDiverged,
)
from .graphs import LaplacianView, component_labels

_SINGULAR_CUTOFF = 1e-12
# Largest graph recovered through the bordered kernel system. SBMs with
# c = 16, r = 4, 10 samples, one BLAS thread on a 2-core Xeon: per graph,
# eigh + (L^r)^+ + L^r take 12-17 + 1.7 + 3 ms at n = 300 and 41-45 + 6 +
# 13 ms at n = 500; per solve, 0.12-0.2 and 0.2-0.3 ms against 5-9 and 5-12
# ms for preconditioned CG. The bound stays for accuracy, not speed: CG
# stops on the residual and leaves ill-conditioned systems up to 6.4e-3 off
# (n = 100, gamma = 1e-7), where this path is within 1e-8.
_DIRECT_MAX_N = 500


@dataclass
class Measurement:
    """Noisy signal values read at the sampled nodes."""

    y: np.ndarray
    sampling: SamplingSet

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.shape != self.sampling.nodes.shape:
            raise ShapeMismatch("one measurement per sampled node required")
        if not np.all(np.isfinite(self.y)):
            raise InvalidParams("measurements must be finite")


@dataclass
class RecoveryParams:
    """Regularized-recovery knobs: penalty strength, Laplacian power,
    relative residual tolerance (binds the direct solve and conjugate
    gradient alike) and the conjugate-gradient iteration cap (default 10 n)."""

    gamma: float = 1e-5
    r: int = 4
    tolerance: float = 1e-8
    max_iter: int | None = None

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise InvalidParams("gamma must be positive and finite")
        if self.r < 1:
            raise InvalidParams("Laplacian power r must be at least 1")
        if not np.isfinite(self.tolerance) or self.tolerance <= 0:
            raise InvalidParams("tolerance must be positive and finite")


def measure(x: np.ndarray, sampling: SamplingSet, noise_sigma: float = 0.0, rng=None) -> Measurement:
    """Read the signal at the sampled nodes, plus i.i.d. Gaussian noise."""
    if not np.isfinite(noise_sigma) or noise_sigma < 0:
        raise InvalidParams("noise_sigma must be finite and nonnegative")
    x = np.asarray(x, dtype=float)
    if np.any(sampling.nodes >= len(x)):
        raise ShapeMismatch("sampled node index outside the signal")
    rng = np.random.default_rng(rng)
    y = x[sampling.nodes] + noise_sigma * rng.standard_normal(len(sampling.nodes))
    return Measurement(y=y, sampling=sampling)


def _pinv_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares solve through the SVD with a relative singular cutoff;
    warns when the cutoff drops a singular value."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > _SINGULAR_CUTOFF * (s[0] if len(s) else 1.0)
    if len(s) == 0 or not keep.all():
        warnings.warn(
            "restricted basis is numerically singular; recovery is a least-norm guess",
            IllConditionedWarning,
            stacklevel=3,
        )
    inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return vt.T @ (inv * (u.T @ rhs))


def recover_known_basis(u_k: np.ndarray, meas: Measurement) -> np.ndarray:
    """Least-squares recovery in the span of the given basis columns."""
    u_k = np.asarray(u_k, dtype=float)
    if np.any(meas.sampling.nodes >= u_k.shape[0]):
        raise ShapeMismatch("sampled node index outside the basis rows")
    restricted = u_k[meas.sampling.nodes, :]
    return u_k @ _pinv_solve(restricted, meas.y)


def recover_known_basis_weighted(u_k: np.ndarray, meas: Measurement) -> np.ndarray:
    """Reweighted least-squares recovery in the span of the basis columns.

    Divides each measurement row by the square root of its sampling
    weight, which makes random sampling sets behave like unbiased designs.
    Equal weights reduce exactly to the unweighted recovery.
    """
    w = meas.sampling.weights
    if w is None:
        raise MissingWeights("sampling set carries no weights")
    u_k = np.asarray(u_k, dtype=float)
    if np.any(meas.sampling.nodes >= u_k.shape[0]):
        raise ShapeMismatch("sampled node index outside the basis rows")
    scale = 1.0 / np.sqrt(w)
    restricted = scale[:, None] * u_k[meas.sampling.nodes, :]
    return u_k @ _pinv_solve(restricted, scale * meas.y)


def _kernel_form(lap: LaplacianView, r: int):
    """(L^r)^+ and N, the normalized indicators of the c0 components, which
    span the kernel of L^r. That kernel is the first c0 eigenpairs, so the
    pseudo-inverse sums the rest and needs no eigenvalue threshold."""
    lam, vecs = lap.eigh()
    _, comp, sizes = np.unique(component_labels(lap.graph), return_inverse=True, return_counts=True)
    null = np.eye(len(sizes))[comp] / np.sqrt(sizes[comp])[:, None]
    tail = vecs[:, len(sizes) :]
    return (tail / lam[len(sizes) :] ** r) @ tail.T, null


def recover_unknown_basis(
    lap: LaplacianView, meas: Measurement, params: RecoveryParams | None = None
) -> np.ndarray:
    """Recovery without the Fourier basis: high-frequency-penalized least squares.

    Solves the normal equations (gamma L^r + S' W^-1 S) z = S' W^-1 y of the
    weighted data term plus gamma * z' L^r z. Graphs of up to
    _DIRECT_MAX_N = 500 nodes solve the bordered kernel system
    [[G_SS + gamma W, N_S], [N_S', 0]] [a; c] = [y; 0] over the distinct
    sampled nodes (merging repeats keeps a bounded as gamma -> 0), with
    G = (L^r)^+ and N the normalized component indicators cached on the
    view, and return z = G[:, S] a + N c when its residual is within
    tolerance * |b|. Larger graphs, and small ones that fail (a component
    without samples makes the system singular), go to Jacobi-preconditioned
    conjugate gradient, which applies the Laplacian r times per iteration
    and never materializes L^r. Its diagonal is gamma d^r + the sampled
    diagonal, d the degrees (a zero entry counts as 1). The tolerance binds
    the unpreconditioned residual on both paths; max_iter caps conjugate
    gradient, which raises SolverDiverged when its residual does not reach
    the tolerance within the cap.
    """
    params = params or RecoveryParams()
    w = meas.sampling.weights
    if w is None:
        raise MissingWeights("sampling set carries no weights")
    nodes = meas.sampling.nodes
    n = lap.n
    if np.any(nodes >= n):
        raise ShapeMismatch("sampled node index outside the graph")
    inv_w = 1.0 / w
    gamma, r = params.gamma, params.r
    sampled = np.bincount(nodes, inv_w, minlength=n)
    b = np.bincount(nodes, meas.y * inv_w, minlength=n)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(n)
    target = params.tolerance * b_norm

    if n <= _DIRECT_MAX_N:
        try:
            pinv, null = lap.cached(("kernel", r), lambda: _kernel_form(lap, r))
            s = np.flatnonzero(sampled)
            m, c0 = len(s), null.shape[1]
            border = np.zeros((m + c0, m + c0))
            border[:m, :m] = pinv[np.ix_(s, s)] + np.diag(gamma / sampled[s])
            border[:m, m:] = null[s]
            border[m:, :m] = null[s].T
            sol = np.linalg.solve(border, np.concatenate([b[s] / sampled[s], np.zeros(c0)]))
        except np.linalg.LinAlgError:
            pass
        else:
            x = pinv[:, s] @ sol[:m] + null @ sol[m:]
            if np.linalg.norm(gamma * (lap.dense_power(r) @ x) + sampled * x - b) <= target:
                return x

    def operator(z):
        out = z
        for _ in range(r):
            out = lap.apply(out)
        return gamma * out + sampled * z

    max_iter = params.max_iter if params.max_iter is not None else 10 * n

    # Jacobi preconditioner from the degrees: d^r stands in for diag(L^r)
    diag = gamma * lap.degree_vector**r + sampled
    inv_diag = 1.0 / np.where(diag > 0.0, diag, 1.0)

    x = np.zeros(n)
    res = b.copy()
    p = z = inv_diag * res
    rz = float(res @ z)
    for _ in range(max_iter):
        if np.linalg.norm(res) <= target:
            return x
        ap = operator(p)
        p_ap = float(p @ ap)
        if p_ap <= 0.0:
            raise SolverDiverged("conjugate gradient broke down on a non-positive curvature")
        alpha = rz / p_ap
        x += alpha * p
        res -= alpha * ap
        z = inv_diag * res
        rz_new = float(res @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    if np.linalg.norm(res) <= target:
        return x
    raise SolverDiverged(
        f"residual {np.linalg.norm(res):.3e} above tolerance {target:.3e}"
        f" after {max_iter} iterations"
    )


def relative_error(x: np.ndarray, x_rec: np.ndarray) -> float:
    """Euclidean error of the recovery, relative to the signal norm."""
    x = np.asarray(x, dtype=float)
    x_rec = np.asarray(x_rec, dtype=float)
    if x.shape != x_rec.shape:
        raise ShapeMismatch("signals must have equal length")
    diff = np.linalg.norm(x_rec - x)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        return 0.0 if diff == 0.0 else np.inf
    return float(diff / norm)
