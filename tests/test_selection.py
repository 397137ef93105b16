"""Greedy/maxvol deterministic selection and the i.i.d. baseline sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdpp import (
    ObjectiveKind,
    eigendecompose,
    SbmParams,
    critical_epsilon,
    fourier_basis_k,
    greedy_select,
    iid_leverage_sample,
    laplacian,
    maxvol_select,
    sbm_generate,
    singular_values_restriction,
)
from graphdpp.errors import DegenerateBasis, InvalidDistribution, InvalidParams, OutOfRange
from graphdpp.selection import _PRUNE_SLACK

from conftest import exhaustive_best_volume


def random_orthonormal(n, k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


def duplicated_row_basis():
    """Random (30, 5) orthonormal basis whose row 22 copies row 21, the
    first maximum-volume pick."""
    u = random_orthonormal(30, 5, 0)
    u[22] = u[21]
    return u


_RANK_TOL = 1e-12


def _reference_score(kind, gram_eigs, rows, k):
    """Objective of one candidate from the k eigenvalues of its k x k Gram
    matrix; until the set has k rows only the nonzero ones are scored."""
    sq = np.sort(np.clip(gram_eigs, 0.0, None))
    if rows < k:
        sq = sq[k - rows :]
        sq = sq[sq > _RANK_TOL]
        if len(sq) == 0:
            return -np.inf
    if kind is ObjectiveKind.WCE:
        return float(sq[0])
    if sq[0] <= _RANK_TOL:
        return -np.inf
    if kind is ObjectiveKind.MSE:
        return float(-np.sum(1.0 / sq))
    return float(np.sum(np.log(sq)))


def reference_greedy(u_k, kind):
    """Greedy selection scoring every candidate by its own eigvalsh call."""
    n, k = u_k.shape
    gram = np.zeros((k, k))
    nodes = []
    for step in range(k):
        best_node, best_val = -1, None
        for cand in range(n):
            if cand in nodes:
                continue
            row = u_k[cand, :]
            val = _reference_score(kind, np.linalg.eigvalsh(gram + np.outer(row, row)), step + 1, k)
            if best_val is None or val > best_val:
                best_val, best_node = val, cand
        nodes.append(best_node)
        gram += np.outer(u_k[best_node, :], u_k[best_node, :])
    return nodes


# greedy_select's scorer before it carried C^-1 b by rank-one updates,
# solving for it from scratch at every step
def _step_scores(kind: ObjectiveKind, u_k: np.ndarray, nodes, cand, r2) -> np.ndarray:
    """Objective of each candidate row appended to the chosen rows; larger is better.

    `r2` holds the candidates' squared residuals against the span of the
    chosen rows. With C the chosen-row Gram matrix and b = U_S u, maximum
    volume grows by the factor r2 and mean square error by
    (1 + |C^-1 b|^2) / r2 (a Schur complement); worst-case error takes the
    smallest eigenvalue of the bordered Gram C' = [[C, b], [b', |u|^2]],
    one batched eigvalsh. That eigenvalue is at most min(lambda_min(C), r2),
    as C' interlaces C and the corner of C'^-1 is 1/r2. So only candidates
    whose bound reaches the exact value of the best mean-square-error
    candidate are scored, and only theirs and that candidate's bordered
    matrices are built; the others cannot win and score -inf.
    """
    if kind is ObjectiveKind.MV:
        return r2
    sub = u_k[nodes, :]
    gram = sub @ sub.T
    cross = sub @ u_k[cand, :].T
    coef = np.linalg.solve(gram, cross)
    mse = -(1.0 + np.einsum("ij,ij->j", coef, coef)) / r2
    if kind is ObjectiveKind.MSE:
        return mse
    s = len(nodes)
    sq_norms = np.einsum("ij,ij->i", u_k[cand, :], u_k[cand, :])

    def smallest_bordered(rows):
        # smallest eigenvalue of C' for each of the candidates at `rows`
        stack = np.empty((len(rows), s + 1, s + 1))
        stack[:, :s, :s] = gram
        stack[:, :s, s] = stack[:, s, :s] = cross.T[rows]
        stack[:, s, s] = sq_norms[rows]
        return np.linalg.eigvalsh(stack)[:, 0]

    bound = np.minimum(np.linalg.eigvalsh(gram).min(initial=np.inf), r2)
    # slack far above eigvalsh round-off, which scales with |C'| <= trace C'
    slack = _PRUNE_SLACK * (np.trace(gram) + sq_norms.max())
    live = np.flatnonzero(bound >= smallest_bordered([np.argmax(mse)])[0] - slack)
    scores = np.full(len(cand), -np.inf)
    scores[live] = smallest_bordered(live)
    return scores


def rank_one_greedy(u_k, kind):
    """greedy_select's scoring with every row's residual held and updated
    by one rank-one term per pick."""
    n, k = u_k.shape
    res = u_k.copy()
    chosen = np.zeros(n, dtype=bool)
    nodes = []
    for _ in range(k):
        r2 = np.einsum("ij,ij->i", res, res)
        cand = np.flatnonzero(~chosen & (r2 > _RANK_TOL))
        best = int(cand[np.argmax(_step_scores(kind, u_k, nodes, cand, r2[cand]))])
        chosen[best] = True
        nodes.append(best)
        q = res[best] / np.sqrt(r2[best])
        res -= np.outer(res @ q, q)
    return nodes


class TestSingularValuesRestriction:
    def test_all_rows_of_orthonormal(self):
        u = random_orthonormal(8, 3, 0)
        np.testing.assert_allclose(singular_values_restriction(u, range(8)), 1.0, atol=1e-12)

    def test_single_row_norm(self):
        u = random_orthonormal(8, 3, 1)
        got = singular_values_restriction(u, [5])
        assert got.shape == (1,)
        assert got[0] == pytest.approx(np.linalg.norm(u[5]), abs=1e-12)

    def test_hand_gram_eigenvalues(self):
        # rows (1,0) and (1,1): Gram [[1,1],[1,2]], eigenvalues (3 +- sqrt(5))/2
        m = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        got = singular_values_restriction(m, [0, 2])
        expected = np.sqrt(np.array([(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2]))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_ascending_and_truncated(self):
        u = random_orthonormal(10, 4, 2)
        got = singular_values_restriction(u, [0, 3, 7])
        assert got.shape == (3,)
        assert np.all(np.diff(got) >= 0)

    def test_rejects_fractional_index(self):
        u = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        with pytest.raises(InvalidParams):
            singular_values_restriction(u, [0.5])

    @pytest.mark.parametrize("node", [-1, 3])
    def test_rejects_index_outside_rows(self, node):
        u = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        with pytest.raises(OutOfRange):
            singular_values_restriction(u, [node])


class TestGreedySelect:
    def test_k1_picks_largest_row_with_tiebreak(self, triangle):
        u1 = fourier_basis_k(eigendecompose(laplacian(triangle)), 1)
        for objective in ("wce", "mse", "mv"):
            assert greedy_select(u1, objective).nodes.tolist() == [0]

    def test_returns_k_distinct_nodes(self):
        u = random_orthonormal(20, 4, 3)
        for objective in ObjectiveKind:
            s = greedy_select(u, objective)
            assert len(set(s.nodes.tolist())) == 4
            np.testing.assert_allclose(s.weights, 1.0)

    def test_disconnected_pair_straddles_components(self, two_k2):
        u2 = fourier_basis_k(eigendecompose(laplacian(two_k2)), 2)
        for objective in ("wce", "mse", "mv"):
            nodes = set(greedy_select(u2, objective).nodes.tolist())
            assert len(nodes & {0, 1}) == 1 and len(nodes & {2, 3}) == 1

    def test_nonsingular_restriction_all_objectives(self):
        for seed in range(5):
            u = random_orthonormal(12, 3, seed)
            for objective in ObjectiveKind:
                s = greedy_select(u, objective)
                sigma = singular_values_restriction(u, s.nodes)
                assert sigma[0] > 1e-12

    def test_mv_within_half_of_exhaustive(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(6, 11))
            k = int(rng.integers(2, 4))
            u = random_orthonormal(n, k, 100 + trial)
            s = greedy_select(u, "mv")
            sub = u[s.nodes, :]
            got = abs(np.linalg.det(sub.T @ sub))
            assert got >= 0.5 * exhaustive_best_volume(u)

    def test_mv_stepwise_matches_bruteforce(self):
        # at every step the chosen node maximizes the restriction Gram det
        for seed in range(5):
            u = random_orthonormal(12, 3, 200 + seed)
            picked = greedy_select(u, "mv").nodes.tolist()
            prefix = []
            for step, chosen in enumerate(picked):
                best_val, best_node = -1.0, -1
                for cand in range(12):
                    if cand in prefix:
                        continue
                    sub = u[prefix + [cand], :]
                    val = np.linalg.det(sub @ sub.T)
                    if val > best_val:
                        best_val, best_node = val, cand
                assert chosen == best_node
                prefix.append(chosen)

    def test_mv_growth_bounded_by_largest_row(self):
        u = random_orthonormal(15, 4, 9)
        picked = greedy_select(u, "mv").nodes.tolist()
        max_row = np.max(np.einsum("ij,ij->i", u, u))
        prev = None
        for t in range(1, 5):
            sub = u[picked[:t], :]
            vol = np.linalg.det(sub @ sub.T)
            if prev is not None:
                assert vol <= prev * max_row * (1 + 1e-9)
            prev = vol

    def test_rejects_wide_basis(self):
        with pytest.raises(InvalidParams):
            greedy_select(np.ones((2, 3)), "mv")

    # Square bases (n == k) tie every row in exact arithmetic, and round-off
    # orders them differently in the two scorers, so n exceeds k here.
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 6),
        extra=st.integers(1, 34),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_scorer(self, k, extra, seed):
        u = random_orthonormal(k + extra, k, seed)
        for kind in ObjectiveKind:
            assert greedy_select(u, kind).nodes.tolist() == reference_greedy(u, kind)

    def test_matches_reference_scorer_on_sbm_basis(self):
        # a graph basis large enough that WCE rules most candidates out by bound
        g = sbm_generate(SbmParams(n=200, k_comm=8, c=16.0, eps=0.02), 3)
        u = fourier_basis_k(eigendecompose(laplacian(g)), 8)
        for kind in ObjectiveKind:
            assert greedy_select(u, kind).nodes.tolist() == reference_greedy(u, kind)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 20),
        extra=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_rank_one_update(self, k, extra, seed):
        u = random_orthonormal(k + extra, k, seed)
        for kind in ObjectiveKind:
            assert greedy_select(u, kind).nodes.tolist() == rank_one_greedy(u, kind)

    @pytest.mark.parametrize("frac", [0.05, 1.0])
    def test_matches_rank_one_update_on_fig1a_basis(self, frac):
        eps = frac * critical_epsilon(16.0, 20)
        g = sbm_generate(SbmParams(n=1000, k_comm=20, c=16.0, eps=eps), 3)
        u = fourier_basis_k(eigendecompose(laplacian(g), 20), 20)
        for kind in ObjectiveKind:
            assert greedy_select(u, kind).nodes.tolist() == rank_one_greedy(u, kind)

    # every regime of fig1a's sweep, on graphs the test above does not draw
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("frac", [0.05, 0.1, 0.2, 0.5, 1.0])
    def test_matches_rank_one_update_in_every_fig1a_regime(self, frac, seed):
        eps = frac * critical_epsilon(16.0, 20)
        g = sbm_generate(SbmParams(n=1000, k_comm=20, c=16.0, eps=eps), seed)
        u = fourier_basis_k(eigendecompose(laplacian(g), 20), 20)
        for kind in ObjectiveKind:
            assert greedy_select(u, kind).nodes.tolist() == rank_one_greedy(u, kind)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 12),
        extra=st.integers(1, 30),
        chosen=st.integers(0, 11),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bordered_minimum_within_rayleigh_bound(self, k, extra, chosen, seed):
        # the WCE pruning bound: x = [-C^-1 b; 1] has C' x = [0; r2], so
        # lambda_min(C') <= r2 / (1 + |C^-1 b|^2) for every candidate row
        n = k + extra
        u = random_orthonormal(n, k, seed)
        order = np.random.default_rng(seed).permutation(n)
        s = min(chosen, k - 1)
        sub, rows = u[order[:s]], u[order[s:]]
        gram = sub @ sub.T
        cross = sub @ rows.T
        coef = np.linalg.solve(gram, cross) if s else np.zeros((0, len(rows)))
        sq_norms = np.einsum("ij,ij->i", rows, rows)
        r2 = sq_norms - np.einsum("ij,ij->j", cross, coef)
        stack = np.empty((len(rows), s + 1, s + 1))
        stack[:, :s, :s] = gram
        stack[:, :s, s] = stack[:, s, :s] = cross.T
        stack[:, s, s] = sq_norms
        smallest = np.linalg.eigvalsh(stack)[:, 0]
        slack = _PRUNE_SLACK * (np.trace(gram) + sq_norms.max())
        assert np.all(smallest <= r2 / (1.0 + np.einsum("ij,ij->j", coef, coef)) + slack)

    def test_duplicate_row_matches_rank_one_update(self):
        u = duplicated_row_basis()
        for kind in ObjectiveKind:
            assert greedy_select(u, kind).nodes.tolist() == rank_one_greedy(u, kind)

    def test_equal_norm_ties_go_to_lowest_index(self):
        # rows 0 and 2 are e1 / sqrt(2), rows 1 and 3 are e2 / sqrt(2)
        u = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2.0)
        for kind in ObjectiveKind:
            assert reference_greedy(u, kind) == [0, 1]
            assert greedy_select(u, kind).nodes.tolist() == [0, 1]

    def test_duplicate_row_adds_no_rank(self):
        u = duplicated_row_basis()
        for kind in ObjectiveKind:
            nodes = greedy_select(u, kind).nodes.tolist()
            assert nodes[0] == 21
            assert 22 not in nodes

    def test_duplicate_row_basis_gives_nonsingular_restriction(self):
        u = duplicated_row_basis()
        for kind in ObjectiveKind:
            s = greedy_select(u, kind)
            assert singular_values_restriction(u, s.nodes)[0] > 1e-6

    def test_rank_deficient_basis_raises(self):
        u = np.outer(np.arange(1.0, 7.0), [1.0, 2.0]) / 10.0
        for kind in ObjectiveKind:
            with pytest.raises(DegenerateBasis):
                greedy_select(u, kind)


class TestMaxvol:
    def test_identity_rows_are_global_max(self):
        u = np.zeros((6, 2))
        u[0, 0] = 1.0
        u[1, 1] = 1.0
        s = maxvol_select(u)
        assert sorted(s.nodes.tolist()) == [0, 1]

    def test_never_below_greedy_volume(self):
        for seed in range(10):
            u = random_orthonormal(15, 3, 300 + seed)
            g = greedy_select(u, "mv").nodes
            m = maxvol_select(u).nodes
            det_g = abs(np.linalg.det(u[g, :]))
            det_m = abs(np.linalg.det(u[m, :]))
            assert det_m >= det_g * (1 - 1e-12)

    def test_single_swap_stability(self):
        delta = 1e-2
        for seed in range(10):
            u = random_orthonormal(10, 3, 400 + seed)
            nodes = maxvol_select(u, delta=delta).nodes.tolist()
            base = abs(np.linalg.det(u[nodes, :]))
            for pos in range(3):
                for cand in range(10):
                    if cand in nodes:
                        continue
                    swapped = list(nodes)
                    swapped[pos] = cand
                    assert abs(np.linalg.det(u[swapped, :])) <= (1 + delta) * base + 1e-12


class TestFailFast:
    def test_unknown_greedy_objective_rejected(self):
        with pytest.raises(InvalidParams):
            greedy_select(random_orthonormal(8, 2, 1), "foo")

    @pytest.mark.parametrize(
        "kwargs",
        [{"delta": -1.0}, {"delta": float("nan")}, {"delta": float("inf")}, {"max_swaps": 0},
         {"max_swaps": 2.5}],
        ids=["negative-delta", "nan-delta", "inf-delta", "zero-swaps", "fractional-swaps"],
    )
    def test_bad_maxvol_knobs_rejected_before_any_swap(self, kwargs, monkeypatch):
        # a negative or NaN delta used to run all max_swaps swaps, then
        # raise NoConvergence; now nothing runs, not even the greedy seed
        def refuse(*args):
            raise AssertionError("maxvol started before checking its knobs")

        monkeypatch.setattr("graphdpp.selection.greedy_select", refuse)
        with pytest.raises(InvalidParams):
            maxvol_select(random_orthonormal(8, 2, 1), **kwargs)


class TestIidLeverageSample:
    def test_point_mass(self):
        p = np.zeros(6)
        p[4] = 1.0
        s = iid_leverage_sample(p, 7, 0)
        assert s.nodes.tolist() == [4] * 7
        np.testing.assert_allclose(s.weights, 7.0)

    def test_uniform_counts(self):
        m, n = 10_000, 10
        p = np.full(n, 0.1)
        s = iid_leverage_sample(p, m, 1)
        counts = np.bincount(s.nodes, minlength=n)
        se = np.sqrt(m * 0.1 * 0.9)
        assert np.all(np.abs(counts - m * 0.1) <= 4 * se)
        np.testing.assert_allclose(s.weights, m * 0.1)

    def test_reweighting_identity(self):
        rng = np.random.default_rng(2)
        n = 25
        x = rng.standard_normal(n)
        p = rng.random(n)
        p /= p.sum()
        m = 4
        draws = 10_000
        vals = np.empty(draws)
        for t in range(draws):
            s = iid_leverage_sample(p, m, rng)
            vals[t] = np.sum(x[s.nodes] ** 2 / s.weights)
        se = vals.std(ddof=1) / np.sqrt(draws)
        assert abs(vals.mean() - np.sum(x**2)) <= 4 * se

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidDistribution):
            iid_leverage_sample(np.array([0.5, 0.4]), 3, 0)

    def test_rejects_negative(self):
        with pytest.raises(InvalidDistribution):
            iid_leverage_sample(np.array([1.2, -0.2]), 3, 0)

    def test_rejects_zero_draws(self):
        with pytest.raises(InvalidParams):
            iid_leverage_sample(np.array([1.0]), 0, 0)
