"""The benchmark's workloads: closed loop, one client, one request at a time.

Each workload builds its inputs from the workload seed, serves request i
with a request seed derived from (workload seed, i), and checks the
outputs against invariants any correct implementation meets. A request
returns the sum of the relative recovery errors of its trials and the
trial count; a broken invariant raises CheckFailed.
"""

from __future__ import annotations

import numpy as np

from tracer import CheckFailed

FIG1A_EPS_FRACS = (0.05, 0.1, 0.2, 0.5, 1.0)
FIG1B_GAMMAS = (1e-7, 1e-6, 1e-5, 1e-3, 1e-1, 1e1, 1e2)
KNOWN_SAMPLERS = ("dpp-ideal", "greedy-wce", "greedy-mse", "greedy-mv", "maxvol")
UNKNOWN_SAMPLERS = ("wilson", "iid")


def request_seed(seed, i):
    """Nonnegative per-request seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, 0, i]).generate_state(1)[0])


def input_seed(seed, j):
    """Seed of the j-th input a workload generates at set-up."""
    return int(np.random.SeedSequence([seed, 1, j]).generate_state(1)[0])


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


def check_distinct(nodes, k, n, what):
    nodes = np.asarray(nodes)
    require(len(nodes) == k, f"{what}: {len(nodes)} nodes, expected {k}")
    require(len(np.unique(nodes)) == k, f"{what}: repeated nodes")
    require(bool(np.all((nodes >= 0) & (nodes < n))), f"{what}: node index outside [0, {n})")


def check_rows(table, samplers, sweep_values, trials):
    """One row per (sweep value, sampler), each with the full trial count and finite errors."""
    seen = {(r.sweep_value, r.sampler): r for r in table}
    for value in sweep_values:
        for name in samplers:
            row = seen.get((float(value), name))
            require(row is not None, f"missing result row {name} at {value}")
            require(row.trials == trials, f"{name} at {value}: {row.trials} trials, expected {trials}")
            finite = np.isfinite([row.mean_error, row.p10, row.p90]).all()
            require(bool(finite), f"{name} at {value}: non-finite error")


def check_pi(pi, n, what="estimate_pi"):
    pi = np.asarray(pi)
    require(pi.shape == (n,), f"{what}: shape {pi.shape}, expected ({n},)")
    require(bool(np.all(np.isfinite(pi))), f"{what}: non-finite estimate")
    require(bool(np.all(pi >= 0)), f"{what}: negative estimate")


class KnownK20:
    """fig1a protocol at n=1000 with 20 communities and bandlimit 20."""

    name = "known-k20"
    n, k, c, noise, signals = 1000, 20, 16.0, 1e-4, 50
    sketched = False  # makes no estimate_pi call
    # dpp-ideal draws exactly k nodes and the reweighted square solve
    # interpolates, so the error is the noise (norm ~ noise * sqrt(k)) times
    # the restricted basis' conditioning. Draws are occasionally ill
    # conditioned, so the check bounds the 90th percentile, not the mean.
    dpp_error_factor = 100.0
    trace_requests = 2

    def __init__(self, gd):
        self.experiments = gd.experiments

    def setup(self, seed):
        self.seed = seed

    def checks(self):
        def sample_check(args, kwargs, out):
            kernel = args[0]
            mu = kernel.eigenvalues
            if np.all((mu == 0.0) | (mu == 1.0)):
                check_distinct(out.nodes, int(mu.sum()), kernel.n, "dpp_sample")

        def selection_check(args, kwargs, out):
            n, k = np.shape(args[0])
            check_distinct(out.nodes, k, n, out.method)

        return {
            "dpp_sample": sample_check,
            "greedy_select": selection_check,
            "maxvol_select": selection_check,
        }

    def request(self, i):
        frac = FIG1A_EPS_FRACS[i % len(FIG1A_EPS_FRACS)]
        cfg = self.experiments.ExperimentConfig(
            n=self.n,
            k_comm=self.k,
            c=self.c,
            bandlimit=self.k,
            sweep="epsilon",
            grid=(frac,),
            noise_sigma=self.noise,
            graphs_per_point=1,
            signals_per_graph=self.signals,
            seed=request_seed(self.seed, i),
        )
        table = self.experiments.run_experiment_known_basis(cfg)
        check_rows(table, KNOWN_SAMPLERS, cfg.grid, self.signals)
        dpp = next(r for r in table if r.sampler == "dpp-ideal")
        limit = self.dpp_error_factor * self.noise * np.sqrt(self.k)
        require(dpp.p90 <= limit, f"dpp-ideal p90 error {dpp.p90:.3g} above noise level {limit:.3g}")
        return sum(r.mean_error * r.trials for r in table), sum(r.trials for r in table)


class UnknownGamma:
    """fig1b protocol: 7-gamma grid at n=100, k=2, estimated weights."""

    name = "unknown-gamma"
    n, k, signals = 100, 2, 10
    sketched = True
    trace_requests = 6

    def __init__(self, gd):
        self.experiments = gd.experiments

    def setup(self, seed):
        self.seed = seed

    def checks(self):
        def pi_check(args, kwargs, out):
            check_pi(out, args[0].n)

        return {"estimate_pi": pi_check}

    def request(self, i):
        cfg = self.experiments.ExperimentConfig(
            n=self.n,
            k_comm=2,
            c=16.0,
            bandlimit=self.k,
            sweep="gamma",
            grid=FIG1B_GAMMAS,
            eps_frac=0.2,
            r=4,
            tolerance=1e-8,
            estimated_weights=True,
            graphs_per_point=1,
            signals_per_graph=self.signals,
            seed=request_seed(self.seed, i),
        )
        table = self.experiments.run_experiment_unknown_basis(cfg)
        check_rows(table, UNKNOWN_SAMPLERS, cfg.grid, self.signals)
        return sum(r.mean_error * r.trials for r in table), sum(r.trials for r in table)


class ScalePipeline:
    """The walk path on large SBMs with no eigendecomposition: tune q,
    draw walks, estimate pi, measure, recover by CG.

    Set-up builds several graphs of one model and requests cycle through
    them. CG iterations and recovery error differ markedly between graphs
    of the model, so with a single graph a run's figures would depend on
    which graph its seed drew.
    """

    name = "scale-pipeline"
    n, k_comm, c, eps_frac, num_graphs = 10_000, 2, 16.0, 0.2, 8
    sketched = True
    target_k, tune_runs, tune_tol = 50, 16, 0.15
    draws, noise, gamma, r = 4, 1e-4, 1e-5, 4
    # CG stops on its recursive residual; the true residual may drift above it
    residual_limit = 1e-6
    trace_requests = 3

    def __init__(self, gd):
        self.gd = gd

    def setup(self, seed):
        gd = self.gd
        self.seed = seed
        eps = self.eps_frac * gd.critical_epsilon(self.c, self.k_comm)
        params = gd.SbmParams(n=self.n, k_comm=self.k_comm, c=self.c, eps=eps)
        self.inputs = []
        for j in range(self.num_graphs):
            graph = gd.sbm_generate(params, input_seed(seed, j))
            # fixed smooth signal built without spectral code: the centred community indicator
            x = (graph.communities == 0).astype(float)
            x -= x.mean()
            self.inputs.append((graph, gd.laplacian(graph), x / np.linalg.norm(x)))

    def checks(self):
        return {}

    def request(self, i):
        gd = self.gd
        graph, lap, signal = self.inputs[i % self.num_graphs]
        rng = np.random.default_rng(request_seed(self.seed, i))
        q = gd.tune_q(graph, self.target_k, rng, runs_per_probe=self.tune_runs, tol=self.tune_tol)
        samples = [gd.wilson_sample(graph, q, rng) for _ in range(self.draws)]
        pi_hat = gd.estimate_pi(lap, q, rng=rng)
        sample = samples[0]
        meas = gd.measure(
            signal,
            gd.SamplingSet(nodes=sample.nodes, weights=pi_hat[sample.nodes], method=sample.method),
            self.noise,
            rng,
        )
        params = gd.RecoveryParams(gamma=self.gamma, r=self.r)
        x_rec = gd.recover_unknown_basis(lap, meas, params)

        sizes = np.array([len(s) for s in samples], dtype=float)
        for s in samples:
            require(len(np.unique(s.nodes)) == len(s), "wilson_sample: repeated nodes")
        self._check_tuned_size(sizes)
        check_pi(pi_hat, self.n)
        self._check_residual(graph, meas, params, x_rec)
        return gd.relative_error(signal, x_rec), 1

    def _check_tuned_size(self, sizes):
        """The draws' mean size lies in the tune band, widened by the
        sampling error of the tuning probe and of the draws (4 standard
        errors each; a DPP size has variance at most its mean)."""
        top = self.target_k * (1 + self.tune_tol)
        slack = 4 * np.sqrt(top / self.tune_runs) + 4 * np.sqrt(top / len(sizes))
        gap = abs(sizes.mean() - self.target_k)
        require(
            gap <= self.tune_tol * self.target_k + slack,
            f"mean walk size {sizes.mean():.1f} outside the tune band around {self.target_k}",
        )

    def _check_residual(self, graph, meas, params, x_rec):
        """CG converged: the normal-equation residual is small, computed
        here from the adjacency matrix rather than through the package."""
        require(bool(np.isfinite(x_rec).all()), "recover_unknown_basis: non-finite output")
        adj = graph.adjacency()
        deg = np.asarray(adj.sum(axis=1)).ravel()
        out = x_rec
        for _ in range(params.r):
            out = deg * out - adj @ out
        nodes, inv_w = meas.sampling.nodes, 1.0 / meas.sampling.weights
        lhs = params.gamma * out + np.bincount(nodes, x_rec[nodes] * inv_w, minlength=self.n)
        rhs = np.bincount(nodes, meas.y * inv_w, minlength=self.n)
        rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        require(rel <= self.residual_limit, f"CG residual {rel:.2e} above {self.residual_limit}")


WORKLOADS = {w.name: w for w in (KnownK20, UnknownGamma, ScalePipeline)}
