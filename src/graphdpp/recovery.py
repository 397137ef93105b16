"""Signal recovery from node measurements: pseudo-inverse solvers for a
known Fourier basis and a regularized solver without it, for one penalty
or a whole grid of them (bordered kernel systems from one cached
eigendecomposition per graph on small graphs, batched across the grid;
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
from .graphs import LaplacianView, count, index_array
from .spectral import DIRECT_MAX_N as _DIRECT_MAX_N, component_null_basis, eigendecompose

_SINGULAR_CUTOFF = 1e-12


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
    relative residual tolerance (binds the direct solve, up to its
    round-off, and conjugate gradient alike) and the conjugate-gradient
    iteration cap (default 10 n)."""

    gamma: float = 1e-5
    r: int = 4
    tolerance: float = 1e-8
    max_iter: int | None = None

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise InvalidParams("gamma must be positive and finite")
        self.r = count(self.r, "Laplacian power r")
        if self.max_iter is not None:
            self.max_iter = count(self.max_iter, "max_iter")
        if not np.isfinite(self.tolerance) or self.tolerance <= 0:
            raise InvalidParams("tolerance must be positive and finite")


def measure(x: np.ndarray, sampling: SamplingSet, noise_sigma: float = 0.0, rng=None) -> Measurement:
    """Read the signal at the sampled nodes, plus i.i.d. Gaussian noise."""
    if not np.isfinite(noise_sigma) or noise_sigma < 0:
        raise InvalidParams("noise_sigma must be finite and nonnegative")
    x = np.asarray(x, dtype=float)
    nodes = index_array(sampling.nodes, "sampled node indices", len(x))
    rng = np.random.default_rng(rng)
    y = x[nodes] + noise_sigma * rng.standard_normal(len(nodes))
    return Measurement(y=y, sampling=sampling)


def _known_basis_factor(u_k, nodes, scale: np.ndarray):
    """Factor the least squares in the span of the basis columns read at
    the nodes, measurement row i scaled by scale[i]: an SVD of the scaled
    restriction with a relative singular cutoff, which warns when it drops
    a singular value. Returns the solve y -> u_k z, two GEMVs through the
    factors and one with u_k per measurement vector."""
    u_k = np.asarray(u_k, dtype=float)
    nodes = index_array(nodes, "sampled node indices", u_k.shape[0])
    u, s, vt = np.linalg.svd(scale[:, None] * u_k[nodes, :], full_matrices=False)
    keep = s > _SINGULAR_CUTOFF * (s[0] if len(s) else 1.0)
    if len(s) == 0 or not keep.all():
        warnings.warn(
            "restricted basis is numerically singular; recovery is a least-norm guess",
            IllConditionedWarning,
            stacklevel=3,
        )
    inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return lambda y: u_k @ (vt.T @ (inv * (u.T @ (scale * y))))


def _weight_scale(sampling: SamplingSet) -> np.ndarray:
    if sampling.weights is None:
        raise MissingWeights("sampling set carries no weights")
    return 1.0 / np.sqrt(sampling.weights)


def known_basis_solver(u_k: np.ndarray, sampling: SamplingSet):
    """recover_known_basis_weighted factored once for a sampling set:
    returns y -> x_rec for measurement vectors y read at sampling.nodes,
    bit for bit what recover_known_basis_weighted returns for them, so a
    selection measured many times pays for one SVD."""
    return _known_basis_factor(u_k, sampling.nodes, _weight_scale(sampling))


def recover_known_basis(u_k: np.ndarray, meas: Measurement) -> np.ndarray:
    """Least-squares recovery in the span of the basis columns: the weighted solve, unit weights."""
    return _known_basis_factor(u_k, meas.sampling.nodes, np.ones(len(meas.y)))(meas.y)


def recover_known_basis_weighted(u_k: np.ndarray, meas: Measurement) -> np.ndarray:
    """Reweighted least-squares recovery in the span of the basis columns.

    Divides each measurement row by the square root of its sampling
    weight, which makes random sampling sets behave like unbiased designs.
    Equal weights reduce exactly to the unweighted recovery.
    """
    return _known_basis_factor(u_k, meas.sampling.nodes, _weight_scale(meas.sampling))(meas.y)


def _kernel_form(lap: LaplacianView, r: int):
    """(L^r)^+ and N, the normalized indicators of the c0 components, which
    span the kernel of L^r, with n eps |L^r| and |(L^r)^+|. That kernel is
    the first c0 eigenpairs, so the pseudo-inverse sums the rest and needs
    no eigenvalue threshold."""
    basis = eigendecompose(lap)
    null = component_null_basis(lap)
    tail = basis.vectors[:, null.shape[1] :]
    tail_r = basis.eigenvalues[null.shape[1] :] ** r
    pinv_norm = 1.0 / tail_r[0] if len(tail_r) else 0.0
    round_off = lap.n * np.finfo(float).eps * basis.eigenvalues[-1] ** r
    return (tail / tail_r) @ tail.T, null, round_off, pinv_norm


def recover_unknown_basis(
    lap: LaplacianView, meas: Measurement, params: RecoveryParams | None = None
) -> np.ndarray:
    """Recovery without the Fourier basis: high-frequency-penalized least squares.

    Solves the normal equations (gamma L^r + S' W^-1 S) z = S' W^-1 y of the
    weighted data term plus gamma * z' L^r z: the one-draw, one-gamma case
    of recover_unknown_basis_batch, which describes the solvers. It raises
    SolverDiverged when conjugate gradient misses the tolerance in max_iter.
    """
    return recover_unknown_basis_batch(lap, meas, [len(meas.y)], [params or RecoveryParams()])[0, 0]


def recover_unknown_basis_batch(
    lap: LaplacianView, meas: Measurement, sizes, params_seq
) -> np.ndarray:
    """recover_unknown_basis for each draw of a ragged batch and each entry
    of a penalty grid. meas holds the draws concatenated, draw j its next
    sizes[j] readings, sizes counts of at least 1 summing to len(meas.y).
    Entry [j, i] of the (len(sizes), len(params_seq), n) result is, bit for
    bit, the solve of draw j alone with params_seq[i] alone. The grid's
    entries must share r, tolerance and max_iter.

    Graphs of up to _DIRECT_MAX_N = 500 nodes solve the bordered kernel
    system [[G_SS + gamma W, N_S], [N_S', 0]] [a; c] = [y; 0] over the
    distinct sampled nodes (merging repeats keeps a bounded as gamma -> 0),
    with G = (L^r)^+ and N the normalized component indicators cached on
    the view. The gammas share every block but the diagonal gamma W, and
    draws of as many distinct nodes share the system's size, so each such
    group is stacked into one batched solve (systems of other sizes are
    not padded: that changes the answer's bits). Row z = G[:, S] a + N c is
    kept when its residual is within tolerance * |b| plus the round-off an
    accurate z carries, n eps gamma |L^r| (|z| + |G| |a|). That slack
    matters when gamma L^r is large or G is ill-conditioned: on a 154-node
    SBM of two barely linked blocks (gamma = 1, r = 4) the residual was 63
    times the 1e-8 tolerance for a z within 4e-10 of an extended-precision
    solve. Larger graphs, (draw, gamma) pairs failing that check, and all
    of a draw's gammas when a component has no sample (each system is then
    singular) go one at a time to Jacobi-preconditioned conjugate gradient
    (_conjugate_gradient).
    """
    params_seq = list(params_seq)
    try:
        shared = {(p.r, p.tolerance, p.max_iter) for p in params_seq}
    except AttributeError:
        raise InvalidParams("a penalty grid is a sequence of RecoveryParams") from None
    if len(shared) != 1:
        raise InvalidParams("a penalty grid is non-empty, its entries sharing r, tolerance and max_iter")
    ((r, tolerance, max_iter),) = shared
    w = meas.sampling.weights
    if w is None:
        raise MissingWeights("sampling set carries no weights")
    n = lap.n
    nodes = index_array(meas.sampling.nodes, "sampled node indices", n)
    sizes = index_array(sizes, "draw sizes")
    if sizes.ndim != 1 or np.any(sizes < 1) or sizes.sum() != len(nodes):
        raise InvalidParams("draw sizes must be counts of at least 1 summing to len(meas.y)")
    gammas = np.array([p.gamma for p in params_seq], dtype=float)
    # bincount adds in input order per bin, so each row has a lone draw's bits
    at = np.repeat(np.arange(len(sizes)) * n, sizes) + nodes
    inv_w = 1.0 / w
    sampled = np.bincount(at, inv_w, minlength=len(sizes) * n).reshape(-1, n)
    b = np.bincount(at, meas.y * inv_w, minlength=len(sizes) * n).reshape(-1, n)
    # np.linalg.norm's bits: the square root of the dot product
    b_norm = np.sqrt(np.vecdot(b, b))
    target = tolerance * b_norm
    live = np.flatnonzero(b_norm != 0.0)
    out = np.zeros((len(sizes), len(gammas), n))

    todo = [(j, i) for j in live for i in range(len(gammas))]
    if n <= _DIRECT_MAX_N:
        todo = _bordered_solve(lap, r, gammas, (sampled, b, target), live, out)
    if max_iter is None:
        max_iter = 10 * n
    for j, i in todo:
        out[j, i] = _conjugate_gradient(lap, r, gammas[i], sampled[j], b[j], target[j], max_iter)
    return out


def _bordered_solve(lap, r, gammas, systems, live, out) -> list:
    """Write the bordered kernel system's answer for each draw j of live and
    each gamma i into out[j, i], systems the (sampled, b, target) arrays by
    draw; return the (j, i) pairs whose answer misses the residual target."""
    try:
        kernel = lap.cached(("kernel", r), lambda: _kernel_form(lap, r))
    except np.linalg.LinAlgError:
        return [(j, i) for j in live for i in range(len(gammas))]
    counts = np.count_nonzero(systems[0][live], axis=1)
    stacks, todo = [live[counts == m].tolist() for m in np.unique(counts)], []
    while stacks:
        rows = stacks.pop()
        try:
            out[rows], miss = _solve_stack(lap, r, gammas, systems, rows, kernel)
        except np.linalg.LinAlgError:
            # G_SS + gamma W is positive definite, so a system is singular
            # exactly when a component has no sample, whatever the gamma:
            # a singular stack is split, a singular system goes to CG
            if len(rows) > 1:
                stacks += [[j] for j in rows]
            else:
                todo += [(rows[0], i) for i in range(len(gammas))]
        else:
            todo += [(rows[a], i) for a, i in zip(*np.nonzero(miss))]
    return todo


def _solve_stack(lap, r, gammas, systems, rows, kernel):
    """The bordered kernel systems of the draws rows, all of m distinct
    sampled nodes, for every gamma: one (len(rows), len(gammas), m + c0,
    m + c0) stack and one solve. Returns the (len(rows), len(gammas), n)
    answers and where they miss the residual target; raises LinAlgError
    when a system is singular."""
    pinv, null, round_off, pinv_norm = kernel
    sampled, b, target = (a[rows] for a in systems)
    t, k, c0 = len(rows), len(gammas), null.shape[1]
    m = np.count_nonzero(sampled[0])
    size = m + c0
    # every row has m nonzeros, so the masked entries reshape to (t, m)
    mask = sampled != 0.0
    s = np.nonzero(mask)[1].reshape(t, m)
    w_s = sampled[mask].reshape(t, m)
    null_s = null[s]
    border = np.zeros((t, k, size, size))
    border[:, :, :m, :m] = pinv[s[:, :, None], s[:, None, :]][:, None]
    border[:, :, :m, m:] = null_s[:, None]
    border[:, :, m:, :m] = null_s.transpose(0, 2, 1)[:, None]
    # the first m diagonal entries of each system, through a flat view
    border.reshape(t, k, -1)[..., : m * (size + 1) : size + 1] += gammas[:, None] / w_s[:, None]
    rhs = np.zeros((t, 1, size, 1))
    rhs[:, 0, :m, 0] = b[mask].reshape(t, m) / w_s
    sol = np.linalg.solve(border, rhs)
    # pinv[:, s] as a single system reads it, its columns strided: the
    # GEMV then runs the same kernel and gives the same bits
    x = np.matmul(pinv.T[s].transpose(0, 2, 1)[:, None], np.ascontiguousarray(sol[..., :m, :]))
    x = (x + np.matmul(null, sol[..., m:, :]))[..., 0]
    power = lap.cached(("power", r), lambda: np.linalg.matrix_power(lap.dense(), r))
    # round-off an accurate x still shows in its residual: evaluating
    # gamma L^r x, and forming x through G = (L^r)^+, whose error of
    # about eps |G| |a| lies in every direction, gamma L^r included
    slack = gammas * round_off * (_row_norms(x) + pinv_norm * _row_norms(sol[..., :m, 0]))
    residual = gammas[:, None] * np.matmul(x, power.T) + sampled[:, None] * x - b[:, None]
    # not "above": a NaN row fails the check too
    return x, ~(_row_norms(residual) <= target[:, None] + slack)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis."""
    rows = a.reshape(-1, a.shape[-1])
    return np.sqrt(np.einsum("ij,ij->i", rows, rows)).reshape(a.shape[:-1])


def _conjugate_gradient(lap, r, gamma, sampled, b, target, max_iter) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradient on gamma L^r + diag(sampled).

    It applies the Laplacian r times per iteration and never materializes
    L^r. Its diagonal is gamma d^r + the sampled diagonal, d the degrees
    (a zero entry counts as 1). It returns only on the true residual: once
    the recursively updated residual passes the target, b - Mz is
    recomputed (r more Laplacian applies), and if that is still above the
    target CG restarts from it (residual replacement). max_iter caps the
    iterations of all passes together, and it raises SolverDiverged when
    the target is not reached within the cap.
    """

    def operator(z):
        out = z
        for _ in range(r):
            out = lap.apply(out)
        return gamma * out + sampled * z

    # Jacobi preconditioner from the degrees: d^r stands in for diag(L^r)
    diag = gamma * lap.degree_vector**r + sampled
    inv_diag = 1.0 / np.where(diag > 0.0, diag, 1.0)

    # CG is linear in b: run on b times a power of two, |b| then in [0.5, 1), it
    # keeps its bits, but no dot product underflows (|b| = 5e-160 gave rz = 0)
    shift = np.frexp(np.linalg.norm(b))[1]
    b, target = np.ldexp(b, -shift), np.ldexp(target, -shift)
    x = np.zeros(len(b))
    res = b.copy()
    done = 0
    while True:
        # (re)start from res, after the first pass the true residual b - Mx
        p = z = inv_diag * res
        rz = float(res @ z)
        while np.linalg.norm(res) > target and done < max_iter:
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
            done += 1
        res = b - operator(x)
        if np.linalg.norm(res) <= target:
            return np.ldexp(x, shift)
        if done == max_iter:
            raise SolverDiverged(
                f"residual {np.ldexp(np.linalg.norm(res), shift):.3e}"
                f" above tolerance {np.ldexp(target, shift):.3e}"
                f" after {max_iter} iterations"
            )


def relative_error(x: np.ndarray, x_rec: np.ndarray) -> float:
    """Euclidean error of the recovery, relative to the signal norm."""
    x = np.asarray(x, dtype=float)
    x_rec = np.asarray(x_rec, dtype=float)
    if x.shape != x_rec.shape:
        raise ShapeMismatch("signals must have equal length")
    return float(_relative_errors(x, x_rec))


def _relative_errors(x: np.ndarray, x_rec: np.ndarray) -> np.ndarray:
    """relative_error along the last axis of x and x_rec, which broadcast:
    0 for a zero signal recovered as zero, inf for a zero signal recovered
    as anything else. The norms are square roots of dot products, as
    np.linalg.norm takes them, so each entry is relative_error's bits."""
    d = x_rec - x
    diff, norm = np.sqrt(np.vecdot(d, d)), np.sqrt(np.vecdot(x, x))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(norm == 0.0, np.where(diff == 0.0, 0.0, np.inf), diff / norm)
