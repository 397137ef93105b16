"""Acceptance gate: one test per headline criterion, each printing a
pass/fail line. Statistical criteria run at fixed seeds with the stated
Monte-Carlo bands; runtime-bounded criteria assert their wall-clock budget.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from graphdpp import (
    Graph,
    Measurement,
    RecoveryParams,
    SbmParams,
    critical_epsilon,
    dpp_sample,
    eigendecompose,
    estimate_pi,
    fourier_basis_k,
    generate_bandlimited_signal,
    greedy_select,
    ideal_lowpass_kernel,
    iid_leverage_sample,
    laplacian,
    maxvol_select,
    measure,
    recover_known_basis,
    recover_known_basis_weighted,
    recover_unknown_basis,
    relative_error,
    sample_size_moments,
    sbm_generate,
    singular_values_restriction,
    tune_q,
    wilson_kernel_explicit,
    wilson_sample,
)
from graphdpp.experiments import stream

from conftest import dpp_exact_law, empirical_tv, exhaustive_best_volume

EPS_C = critical_epsilon(16.0, 2)  # 0.6 at the benchmark degree


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


def bench_sbm(eps_frac, seed):
    params = SbmParams(n=100, k_comm=2, c=16.0, eps=eps_frac * EPS_C)
    return sbm_generate(params, stream(seed, 0))


def test_01_projection_dpp_size_law():
    """Every draw from the rank-2 projector kernel has exactly 2 nodes."""
    t0 = time.perf_counter()
    draws_per_graph, graphs = 500, 20
    bad = 0
    for g_idx in range(graphs):
        g = bench_sbm(0.2, 100 + g_idx)
        kernel = ideal_lowpass_kernel(eigendecompose(laplacian(g)), 2)
        rng = stream(1, g_idx)
        for _ in range(draws_per_graph):
            s = dpp_sample(kernel, rng)
            if len(s) != 2 or len(set(s.nodes.tolist())) != 2:
                bad += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        bad == 0 and elapsed < 60.0,
        f"{graphs * draws_per_graph} projector draws, {bad} off-size, {elapsed:.1f}s (< 60s)",
    )


def test_02_perfect_recovery():
    """Noiseless weighted recovery is exact for every projector-kernel draw;
    at noise 1e-4 the mean relative error stays below 1e-2."""
    t0 = time.perf_counter()
    worst = 0.0
    noisy = []
    for g_idx in range(20):
        g = bench_sbm(0.1, 200 + g_idx)
        basis = eigendecompose(laplacian(g))
        u_k = fourier_basis_k(basis, 2)
        kernel = ideal_lowpass_kernel(basis, 2)
        rng = stream(2, g_idx)
        for _ in range(250):
            x = generate_bandlimited_signal(u_k, rng)
            s = dpp_sample(kernel, rng)
            exact = recover_known_basis_weighted(u_k, measure(x, s, 0.0, rng))
            worst = max(worst, relative_error(x, exact))
            rec = recover_known_basis_weighted(u_k, measure(x, s, 1e-4, rng))
            noisy.append(relative_error(x, rec))
    mean_noisy = float(np.mean(noisy))
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-9 and mean_noisy < 1e-2 and elapsed < 120.0,
        f"noiseless worst {worst:.2e} (<= 1e-9), noisy mean {mean_noisy:.2e} (< 1e-2), "
        f"{elapsed:.1f}s (< 120s)",
    )


def _criterion3_graphs():
    rng = np.random.default_rng(33)
    sbm50 = sbm_generate(SbmParams(n=50, k_comm=2, c=8.0, eps=0.2), stream(3, 0))
    er40 = sbm_generate(SbmParams(n=40, k_comm=1, c=6.0, eps=1.0), stream(3, 1))
    path20 = Graph(20, [(i, i + 1, 1.0) for i in range(19)])
    blocks24 = sbm_generate(SbmParams(n=24, k_comm=2, c=4.0, eps=0.0), stream(3, 2))
    weighted15 = Graph(
        15,
        [
            (i, j, float(rng.uniform(0.2, 3.0)))
            for i in range(15)
            for j in range(i + 1, 15)
            if rng.random() < 0.4
        ],
    )
    return [sbm50, er40, path20, blocks24, weighted15]


def test_03_wilson_samples_the_resolvent_kernel():
    """Walk-sampler marginals match the explicit kernel diagonal for every
    graph and absorption rate, and the full subset law matches the
    determinant oracle on a small graph."""
    t0 = time.perf_counter()
    runs = 10_000
    worst_sigma = 0.0
    for graph_idx, g in enumerate(_criterion3_graphs()):
        basis = eigendecompose(laplacian(g))
        for q_idx, q in enumerate((0.1, 1.0, 10.0)):
            diag = wilson_kernel_explicit(basis, q).diagonal()
            rng = stream(3, 10 + graph_idx, q_idx)
            counts = np.zeros(g.n)
            for _ in range(runs):
                counts[wilson_sample(g, q, rng).nodes] += 1
            freq = counts / runs
            se = np.maximum(np.sqrt(diag * (1.0 - diag) / runs), 1.0 / runs)
            worst_sigma = max(worst_sigma, float(np.max(np.abs(freq - diag) / se)))
    marginals_ok = worst_sigma <= 4.0

    g6 = Graph(6, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 1.5), (4, 5, 1.0), (0, 5, 1.0)])
    kernel = wilson_kernel_explicit(eigendecompose(laplacian(g6)), 1.0)
    law = dpp_exact_law(kernel.matrix())
    rng = stream(3, 99)
    samples = [wilson_sample(g6, 1.0, rng).nodes for _ in range(100_000)]
    tv = empirical_tv(samples, law)
    elapsed = time.perf_counter() - t0
    report(
        3,
        marginals_ok and tv <= 0.03 and elapsed < 300.0,
        f"worst marginal deviation {worst_sigma:.2f} sigma (<= 4), joint-law TV {tv:.4f} "
        f"(<= 0.03), {elapsed:.1f}s (< 300s)",
    )


def test_04_sample_size_moments():
    """Mean and variance of the walk-sample size match the Bernoulli sums."""
    g = sbm_generate(SbmParams(n=30, k_comm=2, c=6.0, eps=0.25), stream(4, 0))
    q = 0.8
    mu = wilson_kernel_explicit(eigendecompose(laplacian(g)), q).eigenvalues
    mean, var = float(mu.sum()), float((mu * (1 - mu)).sum())
    runs = 10_000
    rng = stream(4, 1)
    sizes = np.array([len(wilson_sample(g, q, rng)) for _ in range(runs)])
    mean_dev = abs(sizes.mean() - mean) / np.sqrt(var / runs)
    kappa4 = float(np.sum(mu * (1 - mu) * (1 - 6 * mu * (1 - mu))))
    var_band = 4 * np.sqrt((kappa4 + 2 * var**2) / runs)
    var_dev = abs(sizes.var(ddof=1) - var)
    report(
        4,
        mean_dev <= 4.0 and var_dev <= var_band,
        f"mean off by {mean_dev:.2f} sigma (<= 4), variance off by {var_dev:.4f} "
        f"(<= {var_band:.4f})",
    )


def test_05_reweighting_identity():
    """The reweighted measurement norm is unbiased for the signal norm under
    both the determinantal and the i.i.d. weighting."""
    g = bench_sbm(0.2, 500)
    basis = eigendecompose(laplacian(g))
    u_k = fourier_basis_k(basis, 2)
    x = generate_bandlimited_signal(u_k, stream(5, 0))
    kernel = ideal_lowpass_kernel(basis, 2)
    draws = 10_000

    rng = stream(5, 1)
    vals = np.empty(draws)
    for t in range(draws):
        s = dpp_sample(kernel, rng)
        vals[t] = np.sum(x[s.nodes] ** 2 / s.weights)
    dev_dpp = abs(vals.mean() - 1.0) / (vals.std(ddof=1) / np.sqrt(draws))

    p_star = np.einsum("ij,ij->i", u_k, u_k) / 2.0
    rng = stream(5, 2)
    vals = np.empty(draws)
    for t in range(draws):
        s = iid_leverage_sample(p_star, 4, rng)
        vals[t] = np.sum(x[s.nodes] ** 2 / s.weights)
    dev_iid = abs(vals.mean() - 1.0) / (vals.std(ddof=1) / np.sqrt(draws))

    report(
        5,
        dev_dpp <= 4.0 and dev_iid <= 4.0,
        f"norm identity off by {dev_dpp:.2f} sigma (determinantal), "
        f"{dev_iid:.2f} sigma (i.i.d.), both <= 4",
    )


def test_06_estimator_fidelity():
    """Sketch-estimated inclusion probabilities: total mass within 10% of the
    kernel trace and at least 95% of nodes within 50% relative error."""
    results = []
    for g_idx in range(3):
        g = bench_sbm(0.2, 600 + g_idx)
        lap = laplacian(g)
        basis = eigendecompose(lap)
        q = tune_q(g, 2, stream(6, g_idx, 0), runs_per_probe=256, tol=0.05)
        exact = wilson_kernel_explicit(basis, q).diagonal()
        pi = estimate_pi(lap, q, d=30, n=None, rng=stream(6, g_idx, 1))
        trace_rel = abs(pi.sum() - exact.sum()) / exact.sum()
        within = float(np.mean(np.abs(pi - exact) / np.maximum(exact, 0.01) <= 0.5))
        results.append((trace_rel, within))
    ok = all(tr <= 0.10 and w >= 0.95 for tr, w in results)
    detail = ", ".join(f"graph {i}: trace {tr:.3f} within50 {w:.2f}" for i, (tr, w) in enumerate(results))
    report(6, ok, detail + " (trace <= 0.10, within50 >= 0.95)")


def _paired_walk_vs_iid(eps_frac, graphs, signals, gammas, master):
    """Paired trials: one walk draw and one equal-size i.i.d. draw per signal,
    common noise, recovered at every penalty value."""
    errors = {gamma: ([], []) for gamma in gammas}
    for g_idx in range(graphs):
        g = bench_sbm(eps_frac, master * 1000 + g_idx)
        lap = laplacian(g)
        basis = eigendecompose(lap)
        u_k = fourier_basis_k(basis, 2)
        q = tune_q(g, 2, stream(master, g_idx, 4), runs_per_probe=256, tol=0.05)
        diag = wilson_kernel_explicit(basis, q).diagonal()
        p_star = np.einsum("ij,ij->i", u_k, u_k) / 2.0
        for s_idx in range(signals):
            x = generate_bandlimited_signal(u_k, stream(master, g_idx, s_idx, 1))
            walk = wilson_sample(g, q, stream(master, g_idx, s_idx, 6, 2))
            walk.weights = diag[walk.nodes]
            iid = iid_leverage_sample(p_star, len(walk), stream(master, g_idx, s_idx, 7, 2))
            noise = stream(master, g_idx, s_idx, 0, 3).standard_normal(len(walk)) * 1e-4
            m_w = Measurement(y=x[walk.nodes] + noise, sampling=walk)
            m_i = Measurement(y=x[iid.nodes] + noise, sampling=iid)
            for gamma in gammas:
                params = RecoveryParams(gamma=gamma, r=4)
                errors[gamma][0].append(relative_error(x, recover_unknown_basis(lap, m_w, params)))
                errors[gamma][1].append(relative_error(x, recover_unknown_basis(lap, m_i, params)))
    return {
        gamma: (np.asarray(walk_errs), np.asarray(iid_errs))
        for gamma, (walk_errs, iid_errs) in errors.items()
    }


def test_07_walk_beats_iid_at_strong_structure():
    """At a tenth of the detectability threshold and m tuned to the
    bandlimit, walk-sampled recovery beats i.i.d.-sampled recovery on a
    one-sided paired test at 95% confidence."""
    out = _paired_walk_vs_iid(0.1, graphs=80, signals=50, gammas=(1e-5,), master=7)
    walk_errs, iid_errs = out[1e-5]
    diff = iid_errs - walk_errs
    n = len(diff)
    t_stat = diff.mean() / (diff.std(ddof=1) / np.sqrt(n))
    ordered = walk_errs.mean() <= iid_errs.mean()
    report(
        7,
        ordered and n >= 1000 and t_stat >= 1.645,
        f"{n} paired trials: walk {walk_errs.mean():.4f} <= iid {iid_errs.mean():.4f}, "
        f"paired t {t_stat:.2f} (>= 1.645)",
    )


def test_08_penalty_sweep_saturates():
    """Mean error saturates by gamma = 1e-5 (within 10% of 1e-7) and is
    strictly lower than at gamma = 1e2."""
    out = _paired_walk_vs_iid(0.2, graphs=15, signals=20, gammas=(1e-7, 1e-5, 1e2), master=8)
    means = {gamma: np.concatenate(arrs).mean() for gamma, arrs in out.items()}
    saturated = abs(means[1e-5] - means[1e-7]) <= 0.10 * means[1e-7]
    ordered = means[1e-5] < means[1e2]
    report(
        8,
        saturated and ordered,
        f"mean error 1e-7: {means[1e-7]:.4f}, 1e-5: {means[1e-5]:.4f}, 1e2: {means[1e2]:.4f} "
        "(1e-5 within 10% of 1e-7 and below 1e2)",
    )


def test_09_scalability():
    """One walk run on a hundred-thousand-node graph finishes inside a
    minute and returns a handful of samples."""
    sizes = []
    elapsed = []
    eps = 0.2 * EPS_C
    g = sbm_generate(SbmParams(n=100_000, k_comm=2, c=16.0, eps=eps), stream(9, 0))
    for run in range(10):
        t0 = time.perf_counter()
        sizes.append(len(wilson_sample(g, 5e-4, stream(9, 1 + run))))
        elapsed.append(time.perf_counter() - t0)
    mean_size = float(np.mean(sizes))
    report(
        9,
        max(elapsed) < 60.0 and 2.0 <= mean_size <= 10.0,
        f"slowest run {max(elapsed):.2f}s (< 60s), mean samples {mean_size:.1f} (in [2, 10])",
    )


def test_10_deterministic_selection_quality():
    """Greedy volume within half of the exhaustive optimum, swap-stable
    refinement, and nonsingular restrictions from every deterministic method."""
    rng = np.random.default_rng(10)
    delta = 1e-2
    vol_ok = swaps_ok = sigma_ok = True
    for trial in range(20):
        n = int(rng.integers(6, 11))
        k = int(rng.integers(2, 4))
        q_mat, _ = np.linalg.qr(rng.standard_normal((n, k)))
        best = exhaustive_best_volume(q_mat)
        greedy = greedy_select(q_mat, "mv")
        sub = q_mat[greedy.nodes, :]
        vol_ok &= abs(np.linalg.det(sub.T @ sub)) >= 0.5 * best
        stable = maxvol_select(q_mat, delta=delta).nodes.tolist()
        base = abs(np.linalg.det(q_mat[stable, :]))
        for pos in range(k):
            for cand in range(n):
                if cand in stable:
                    continue
                trial_nodes = list(stable)
                trial_nodes[pos] = cand
                swaps_ok &= abs(np.linalg.det(q_mat[trial_nodes, :])) <= (1 + delta) * base + 1e-12
        for objective in ("wce", "mse", "mv"):
            nodes = greedy_select(q_mat, objective).nodes
            sigma_ok &= singular_values_restriction(q_mat, nodes)[0] > 1e-12
        sigma_ok &= singular_values_restriction(q_mat, stable)[0] > 1e-12
    report(
        10,
        vol_ok and swaps_ok and sigma_ok,
        f"20 instances: volume >= 0.5 x exhaustive {vol_ok}, swap-stable {swaps_ok}, "
        f"all restrictions nonsingular {sigma_ok}",
    )
