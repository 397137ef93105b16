"""Signal recovery from node measurements: pseudo-inverse solvers for a
known Fourier basis and a regularized solver without it (a dense direct
solve on small graphs, matrix-free Jacobi-preconditioned conjugate
gradient otherwise)."""

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
from .graphs import LaplacianView

_SINGULAR_CUTOFF = 1e-12
# Largest graph recovered by a dense direct solve. Per solve on SBMs with
# c = 16, r = 4, 10 samples and L^r cached, one BLAS thread on a 2-core
# Xeon, direct vs preconditioned CG: 1-2 vs 4-6 ms at n = 300, 5-10 vs 8-9
# ms at n = 500, 0.23-0.27 vs 0.04 s at n = 2000. The bound stays for
# accuracy, not speed: CG stops on the residual and leaves ill-conditioned
# systems up to 6.4e-3 off (n = 100, gamma = 1e-7), where the dense solve
# is within 1e-10. Moving it would change the fig1b/fig1c CSVs.
_DIRECT_MAX_N = 500


@dataclass
class Measurement:
    """Noisy signal values read at the sampled nodes."""

    y: np.ndarray
    sampling: SamplingSet
    noise_sigma: float = 0.0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.shape != self.sampling.nodes.shape:
            raise ShapeMismatch("one measurement per sampled node required")
        if not np.all(np.isfinite(self.y)):
            raise InvalidParams("measurements must be finite")
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise InvalidParams("noise_sigma must be finite and nonnegative")


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
    rng = np.random.default_rng(rng)
    x = np.asarray(x, dtype=float)
    y = x[sampling.nodes] + noise_sigma * rng.standard_normal(len(sampling.nodes))
    return Measurement(y=y, sampling=sampling, noise_sigma=noise_sigma)


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


def recover_unknown_basis(
    lap: LaplacianView, meas: Measurement, params: RecoveryParams | None = None
) -> np.ndarray:
    """Recovery without the Fourier basis: high-frequency-penalized least squares.

    Solves the normal equations (gamma L^r + S' W^-1 S) z = S' W^-1 y of the
    weighted data term plus gamma * z' L^r z. Graphs of up to
    _DIRECT_MAX_N = 500 nodes are solved densely; the answer is returned
    when its residual is within tolerance * |b|. Larger graphs, and small
    ones whose dense solve fails that check (a component without samples
    makes the matrix singular), go to Jacobi-preconditioned conjugate
    gradient, which applies the Laplacian power as r successive operator
    applications and never materializes it. Its diagonal preconditioner is
    gamma d^r + the sampled diagonal, d the degrees (a zero entry counts as
    1). The tolerance binds the unpreconditioned residual on both paths;
    max_iter caps conjugate gradient only.
    Raises SolverDiverged when its residual does not reach the tolerance
    within the iteration cap.
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
        m = gamma * lap.dense_power(r)
        m.flat[:: n + 1] += sampled
        try:
            x = np.linalg.solve(m, b)
        except np.linalg.LinAlgError:
            pass
        else:
            if np.linalg.norm(m @ x - b) <= target:
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
