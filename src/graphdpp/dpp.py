"""Determinantal point processes on graph nodes: kernels and exact sampling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, NumericalDegeneracy, OutOfRange, ZeroMarginal
from .graphs import bandlimit, index_array
from .spectral import SpectralBasis

_EIGENVALUE_SLACK = 1e-10
_MASS_TOL = 1e-6


@dataclass
class SamplingSet:
    """An ordered set of sampled nodes with per-sample recovery weights.

    `weights` holds the diagonal reweighting values used at recovery time
    (inclusion probabilities for determinantal samples, m * p for i.i.d.
    draws, ones for deterministic selections). The random-walk sampler
    leaves it None; callers fill it from an explicit kernel or from the
    sketch-based estimator. An empty node set always stores None, so
    weighted and unweighted empty sets are the same set. Both fields are
    validated on every assignment, at construction and after it alike.
    """

    nodes: np.ndarray
    weights: np.ndarray | None = None
    method: str = ""

    def __setattr__(self, name, value):
        if name == "nodes":
            value = index_array(value, "node indices")
            if np.any(value < 0):
                raise OutOfRange("node indices must be nonnegative")
            if self.weights is not None and self.weights.shape != value.shape:
                raise InvalidParams("weights and nodes must have equal length")
        elif name == "weights" and value is not None:
            value = np.asarray(value, dtype=float)
            if value.shape != self.nodes.shape:
                raise InvalidParams("weights and nodes must have equal length")
            if not np.all((value > 0) & (value < np.inf)):
                raise InvalidParams("weights must be strictly positive and finite")
            if value.size == 0:
                value = None
        object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.nodes)


@dataclass
class MarginalKernel:
    """Symmetric PSD kernel with spectrum in [0, 1], held in eigenform.

    The diagonal gives per-node inclusion probabilities; restrictions give
    joint inclusion probabilities through their determinants.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    _dense: np.ndarray | None = field(default=None, init=False, repr=False)
    _diag: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        mu = np.asarray(self.eigenvalues, dtype=float)
        # written so that NaN fails the range test
        if not np.all((mu >= -_EIGENVALUE_SLACK) & (mu <= 1.0 + _EIGENVALUE_SLACK)):
            raise InvalidParams("kernel eigenvalues must lie in [0, 1]")
        if not np.isfinite(self.vectors).all():
            raise InvalidParams("kernel eigenvectors must be finite")
        self.eigenvalues = np.clip(mu, 0.0, 1.0)

    @property
    def n(self):
        return self.vectors.shape[0]

    def matrix(self) -> np.ndarray:
        """Dense kernel matrix (cached; desk scale only)."""
        if self._dense is None:
            v = self.vectors
            k = (v * self.eigenvalues) @ v.T
            self._dense = (k + k.T) / 2.0
        return self._dense

    def diagonal(self) -> np.ndarray:
        """Per-node inclusion probabilities (cached, read-only)."""
        if self._diag is None:
            self._diag = (self.vectors**2) @ self.eigenvalues
            self._diag.flags.writeable = False
        return self._diag

    def restriction(self, nodes) -> np.ndarray:
        rows = self.vectors[index_array(nodes, "node indices", self.n), :]
        return (rows * self.eigenvalues) @ rows.T


def ideal_lowpass_kernel(basis: SpectralBasis, k: int) -> MarginalKernel:
    """Rank-k projector onto the k lowest graph frequencies; a partial
    basis with at least k pairs does (eigendecompose(L, k))."""
    mu = np.zeros(basis.n)
    mu[: bandlimit(k, basis.n)] = 1.0
    return MarginalKernel(eigenvalues=mu, vectors=basis.vectors)


def wilson_kernel_explicit(basis: SpectralBasis, q: float) -> MarginalKernel:
    """Kernel of the absorbing-walk process: eigenvalues q / (q + lambda),
    over a complete basis."""
    if not 0 < q < np.inf:
        raise InvalidParams("q must be positive and finite")
    basis.require_complete("wilson_kernel_explicit")
    mu = q / (q + basis.eigenvalues)
    return MarginalKernel(eigenvalues=mu, vectors=basis.vectors)


def dpp_sample(kernel: MarginalKernel, rng=None) -> SamplingSet:
    """Draw one sample of the determinantal process with the given kernel.

    Two phases: a Bernoulli draw over the kernel's eigenvalues fixes the
    sample size and selects a column subspace V; then the projection
    process on that subspace is sampled by the chain rule (Tremblay,
    Barthelme and Amblard 2018). Each node is drawn with probability
    proportional to its row's squared residual against the span of the
    rows already drawn. Only those squared residuals and the orthonormal
    directions Q of the drawn rows are kept: a pick at node i takes its
    direction q from v_i - Q'Q v_i, and since q is orthogonal to the
    earlier directions every residual's component along q is V q, so the
    update is one product with V per pick, O(nk) instead of rewriting an
    n x k residual. Round-off below zero is clipped, and the drawn row's
    residual is set to zero, so no node is drawn twice. Node selection is
    inverse-CDF in index order, so draws are reproducible under a fixed
    seed.
    """
    rng = np.random.default_rng(rng)
    mu = kernel.eigenvalues
    keep = rng.random(len(mu)) < mu
    v = kernel.vectors[:, keep]
    size = v.shape[1]
    r2 = np.einsum("ij,ij->i", v, v)
    q = np.zeros((size, size))
    nodes = []
    for t in range(size):
        cdf = np.cumsum(r2)
        mass = cdf[-1] / (size - t)
        if not abs(mass - 1.0) <= _MASS_TOL:
            raise NumericalDegeneracy(f"selection mass {mass:.8f} drifted from 1")
        i = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
        i = min(i, kernel.n - 1)
        nodes.append(i)
        row = v[i] - (q @ v[i]) @ q
        q[t] = row / np.sqrt(row @ row)
        r2 -= (v @ q[t]) ** 2
        np.maximum(r2, 0.0, out=r2)
        r2[i] = 0.0
    nodes = np.asarray(nodes, dtype=np.int64)
    return SamplingSet(nodes=nodes, weights=dpp_weight_matrix(kernel, nodes), method="dpp")


def inclusion_probability(kernel: MarginalKernel, nodes) -> float:
    """Probability that all the given (distinct) nodes appear in a sample
    (the empty set's 0 x 0 restriction has determinant 1)."""
    det = np.linalg.det(kernel.restriction(nodes))
    return max(float(det), 0.0)


def sample_size_moments(kernel: MarginalKernel):
    """Exact mean and variance of the sample size (a sum of Bernoulli trials)."""
    mu = kernel.eigenvalues
    return float(mu.sum()), float((mu * (1.0 - mu)).sum())


def dpp_weight_matrix(kernel: MarginalKernel, nodes) -> np.ndarray:
    """Diagonal recovery weights: the inclusion probability of each sampled node."""
    pi = kernel.diagonal()[index_array(nodes, "node indices", kernel.n)]
    if np.any(pi <= 0.0):
        raise ZeroMarginal("a sampled node has zero inclusion probability")
    return pi
