"""Signal recovery from node measurements: pseudo-inverse solvers for a
known Fourier basis and a regularized conjugate-gradient solver without it."""

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
        if self.noise_sigma < 0:
            raise InvalidParams("noise_sigma must be nonnegative")


@dataclass
class RecoveryParams:
    """Regularized-recovery knobs: penalty strength, Laplacian power,
    conjugate-gradient tolerance and iteration cap (default 10 n)."""

    gamma: float = 1e-5
    r: int = 4
    tolerance: float = 1e-8
    max_iter: int | None = None

    def __post_init__(self):
        if self.gamma <= 0:
            raise InvalidParams("gamma must be positive")
        if self.r < 1:
            raise InvalidParams("Laplacian power r must be at least 1")
        if self.tolerance <= 0:
            raise InvalidParams("tolerance must be positive")


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

    Solves the normal equations of the weighted data term plus
    gamma * z' L^r z by conjugate gradient; the Laplacian power is applied
    as r successive operator applications and never materialized. Raises
    SolverDiverged when the residual does not reach the tolerance within
    the iteration cap.
    """
    params = params or RecoveryParams()
    w = meas.sampling.weights
    if w is None:
        raise MissingWeights("sampling set carries no weights")
    nodes = meas.sampling.nodes
    if np.any(nodes >= lap.n):
        raise ShapeMismatch("sampled node index outside the graph")
    inv_w = 1.0 / w
    gamma, r = params.gamma, params.r

    def operator(z):
        out = z
        for _ in range(r):
            out = lap.apply(out)
        out = gamma * out
        np.add.at(out, nodes, z[nodes] * inv_w)
        return out

    b = np.zeros(lap.n)
    np.add.at(b, nodes, meas.y * inv_w)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(lap.n)
    target = params.tolerance * b_norm
    max_iter = params.max_iter if params.max_iter is not None else 10 * lap.n

    x = np.zeros(lap.n)
    res = b.copy()
    p = res.copy()
    rs = float(res @ res)
    for _ in range(max_iter):
        if np.sqrt(rs) <= target:
            return x
        ap = operator(p)
        p_ap = float(p @ ap)
        if p_ap <= 0.0:
            raise SolverDiverged("conjugate gradient broke down on a non-positive curvature")
        alpha = rs / p_ap
        x += alpha * p
        res -= alpha * ap
        rs_new = float(res @ res)
        p = res + (rs_new / rs) * p
        rs = rs_new
    if np.sqrt(rs) <= target:
        return x
    raise SolverDiverged(
        f"residual {np.sqrt(rs):.3e} above tolerance {target:.3e} after {max_iter} iterations"
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
