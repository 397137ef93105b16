"""Deterministic sampling-set optimization and the i.i.d. leverage baseline."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .dpp import SamplingSet
from .errors import DegenerateBasis, InvalidDistribution, InvalidParams, NoConvergence
from .graphs import count, index_array, real

_RANK_TOL = 1e-12
_PRUNE_SLACK = 1e-9


class ObjectiveKind(Enum):
    """Figure of merit for a size-k node set, over the singular values of
    the row-restricted basis: worst-case error maximizes the smallest one,
    mean square error minimizes the summed inverse squares, maximum volume
    maximizes the product of squares."""

    WCE = "wce"
    MSE = "mse"
    MV = "mv"


def singular_values_restriction(u_k: np.ndarray, nodes) -> np.ndarray:
    """Ascending singular values of the rows of u_k indexed by the node list."""
    sub = u_k[index_array(nodes, "node indices", len(u_k)), :]
    return np.linalg.svd(sub, compute_uv=False)[::-1]


def _step_scores(kind: ObjectiveKind, u_k: np.ndarray, nodes, cand, r2, coef) -> np.ndarray:
    """Objective of each candidate row appended to the chosen rows; larger is better.

    `r2` holds the candidates' squared residuals against the span of the
    chosen rows and the rows of `coef` their C^-1 b, with C the chosen-row
    Gram matrix and b = U_S u. Maximum volume grows by the factor r2 and
    mean square error by (1 + |C^-1 b|^2) / r2 (a Schur complement);
    worst-case error takes the smallest eigenvalue of the bordered Gram
    C' = [[C, b], [b', |u|^2]]. That eigenvalue is at most lambda_min(C),
    as C' interlaces C, and at most r2 / (1 + |C^-1 b|^2), the Rayleigh
    quotient of x = [-C^-1 b; 1], as C' x = [0; r2]. So only candidates
    whose bound reaches the exact value of the best mean-square-error
    candidate are scored, by one batched eigvalsh on their bordered
    matrices; the others cannot win and score -inf.
    """
    if kind is ObjectiveKind.MV:
        return r2
    mse = -(1.0 + np.einsum("ij,ij->i", coef, coef)) / r2
    if kind is ObjectiveKind.MSE:
        return mse
    s = len(nodes)
    sub = u_k[nodes, :]
    gram = sub @ sub.T

    def smallest_bordered(rows):
        # smallest eigenvalue of C' for each of the candidates at `rows`
        picked = u_k[cand[rows], :]
        stack = np.empty((len(rows), s + 1, s + 1))
        stack[:, :s, :s] = gram
        stack[:, :s, s] = stack[:, s, :s] = picked @ sub.T
        stack[:, s, s] = np.einsum("ij,ij->i", picked, picked)
        return np.linalg.eigvalsh(stack)[:, 0]

    bound = np.minimum(np.linalg.eigvalsh(gram).min(initial=np.inf), -1.0 / mse)
    # slack far above eigvalsh round-off, which scales with |C'| <= trace C'
    slack = _PRUNE_SLACK * (np.trace(gram) + np.einsum("ij,ij->i", u_k, u_k).max())
    live = np.flatnonzero(bound >= smallest_bordered([np.argmax(mse)])[0] - slack)
    scores = np.full(len(cand), -np.inf)
    scores[live] = smallest_bordered(live)
    return scores


def greedy_select(u_k: np.ndarray, objective) -> SamplingSet:
    """Grow a size-k node set one node at a time, maximizing the objective.

    Every row's squared residual against the span of the chosen rows and
    its coefficients C^-1 b (_step_scores) are kept, so every step scores
    all candidates at once. As in dpp_sample, the chosen rows are held as
    their orthonormal directions Q: a pick's direction q is its row minus
    the row's projection on Q, normalized, and with p = u_k q, one product
    with u_k per pick, the residuals drop by p^2. The chosen rows are R Q
    with R lower triangular, so C^-1 b = R^-T Q u, and with delta the
    pick's residual norm the coefficients drop by p / delta times the
    pick's own and gain the column p / delta. A row whose squared residual
    is at most the rank tolerance adds no rank and is never picked; when
    no unused row adds rank, DegenerateBasis is raised. Ties break to the
    lowest node index, so the output is deterministic.
    """
    try:
        kind = ObjectiveKind(objective)
    except ValueError:
        raise InvalidParams(f"unknown greedy objective {objective!r}") from None
    u_k = np.asarray(u_k, dtype=float)
    n, k = u_k.shape
    if k > n:
        raise InvalidParams("cannot select more nodes than the graph has")
    r2 = np.einsum("ij,ij->i", u_k, u_k)
    q = np.zeros((k, k))
    track = kind is not ObjectiveKind.MV  # maximum volume scores by r2 alone
    coef = np.zeros((n, k if track else 0))
    chosen = np.zeros(n, dtype=bool)
    nodes = []
    for t in range(k):
        cand = np.flatnonzero(~chosen & (r2 > _RANK_TOL))
        if len(cand) == 0:
            raise DegenerateBasis("no unused node adds rank to the greedy selection")
        scores = _step_scores(kind, u_k, nodes, cand, r2[cand], coef[cand, :t])
        best = int(cand[np.argmax(scores)])
        chosen[best] = True
        nodes.append(best)
        row = u_k[best] - (q @ u_k[best]) @ q
        q[t] = row / np.sqrt(row @ row)
        p = u_k @ q[t]
        if track:
            step = p / np.sqrt(r2[best])
            coef[:, :t] -= np.outer(step, coef[best, :t])
            coef[:, t] = step
        r2 -= p**2
    if singular_values_restriction(u_k, nodes)[0] <= _RANK_TOL:
        raise DegenerateBasis("greedy selection ended with a singular restriction")
    return SamplingSet(
        nodes=np.asarray(nodes, dtype=np.int64),
        weights=np.ones(k),
        method=f"greedy-{kind.value}",
    )


def maxvol_select(u_k: np.ndarray, delta: float = 1e-2, max_swaps: int = 1000) -> SamplingSet:
    """Row-swap refinement of the maximum-volume square submatrix.

    Seeded with the greedy maximum-volume set; each pass swaps in the row
    whose coefficient in the current cross basis exceeds one the most, so
    the absolute determinant grows by that factor. Stops when no swap
    improves it by more than 1 + delta.
    """
    delta = real(delta, "delta", positive=False)
    max_swaps = count(max_swaps, "max_swaps")
    u_k = np.asarray(u_k, dtype=float)
    n, k = u_k.shape
    nodes = list(greedy_select(u_k, ObjectiveKind.MV).nodes)
    for _ in range(max_swaps):
        sub = u_k[nodes, :]
        coeff = u_k @ np.linalg.inv(sub)
        flat = int(np.argmax(np.abs(coeff)))
        i, j = divmod(flat, k)
        if abs(coeff[i, j]) <= 1.0 + delta:
            return SamplingSet(
                nodes=np.asarray(nodes, dtype=np.int64),
                weights=np.ones(k),
                method="maxvol",
            )
        nodes[j] = i
    raise NoConvergence(f"maxvol did not stabilize within {max_swaps} swaps")


def iid_leverage_sample(p_star: np.ndarray, m: int, rng=None) -> SamplingSet:
    """Draw m nodes independently with replacement from the distribution p_star.

    Weights are m * p of each drawn node, which makes the reweighted
    measurement norm unbiased for the signal norm.
    """
    p = np.asarray(p_star, dtype=float)
    m = count(m, "sample count m")
    if np.any(p < 0) or not np.isfinite(p).all():
        raise InvalidDistribution("probabilities must be nonnegative and finite")
    if abs(p.sum() - 1.0) > 1e-9:
        raise InvalidDistribution(f"probabilities sum to {p.sum():.12f}, not 1")
    rng = np.random.default_rng(rng)
    cdf = np.cumsum(p)
    nodes = np.searchsorted(cdf, rng.random(m) * cdf[-1], side="right")
    nodes = np.minimum(nodes, len(p) - 1).astype(np.int64)
    return SamplingSet(nodes=nodes, weights=m * p[nodes], method="iid")
