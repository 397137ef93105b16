"""Experiment protocols: epsilon/m/gamma sweeps over SBM graphs, metrics
aggregation into CSV tables, and deterministic seed management."""

from __future__ import annotations

import itertools
import logging
import time
import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np

from .dpp import (
    SamplingSet,
    dpp_sample,
    dpp_weight_matrix,
    ideal_lowpass_kernel,
    wilson_kernel_explicit,
)
from .errors import DegenerateCutoffWarning, InvalidParams, ParseError
from .estimation import estimate_leverage_scores, estimate_pi, floor_zero_probabilities
from .graphs import SbmParams, count, critical_epsilon, laplacian, sbm_generate
from .recovery import (
    Measurement,
    RecoveryParams,
    _relative_errors,
    known_basis_solver,
    measure,
    recover_known_basis_weighted,
    recover_unknown_basis_batch,
    relative_error,
)
from .selection import greedy_select, iid_leverage_sample, maxvol_select
from .serialization import read_csv, write_csv
from .spectral import (
    eigendecompose,
    fourier_basis_k,
    generate_bandlimited_signal,
    generate_bandlimited_signals,
    largest_eigenvalue_estimate,
)
from .wilson import exact_q, wilson_draws, wilson_sample

log = logging.getLogger(__name__)

KNOWN_BASIS_SAMPLERS = ("dpp-ideal", "greedy-wce", "greedy-mse", "greedy-mv", "maxvol")
UNKNOWN_BASIS_SAMPLERS = ("wilson", "iid")

# fixed ids keep per-sampler seed streams stable when samplers are added
_SAMPLER_ID = {
    "dpp-ideal": 1,
    "greedy-wce": 2,
    "greedy-mse": 3,
    "greedy-mv": 4,
    "maxvol": 5,
    "wilson": 6,
    "iid": 7,
}
_TAG_GRAPH, _TAG_SIGNAL, _TAG_DRAW, _TAG_NOISE, _TAG_WEIGHTS = range(5)

RESULT_HEADER = ["sweep_value", "sampler", "mean_error", "p10", "p90", "mean_samples", "trials"]


def stream(master: int, *path: int) -> np.random.Generator:
    """Independent generator for one slot: (point, graph, signal, sampler,
    use) in fig1a, (point, graph, sampler, use) or (point, graph, use) in
    fig1b and fig1c. SeedSequence pads short entropy with zeros, so paths
    that differ only by trailing zeros share a stream: (p, g, _TAG_GRAPH)
    is (p, g)."""
    return np.random.default_rng(np.random.SeedSequence([int(master), *map(int, path)]))


@dataclass
class ExperimentConfig:
    """Flat experiment description, parseable from `key = value` text.
    The expected walk-sample size is `target_m` (0: the bandlimit) in the
    gamma sweep and the grid value in the m sweep; it fixes q exactly."""

    n: int = 100
    k_comm: int = 2
    c: float = 16.0
    bandlimit: int = 2
    sweep: str = "epsilon"
    grid: tuple = (0.1,)
    eps_frac: float = 0.2
    noise_sigma: float = 1e-4
    gamma: float = RecoveryParams.gamma
    r: int = RecoveryParams.r
    tolerance: float = RecoveryParams.tolerance
    graphs_per_point: int = 20
    signals_per_graph: int = 50
    target_m: int = 0
    estimated_weights: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.sweep not in ("epsilon", "m", "gamma"):
            raise InvalidParams(f"unknown sweep variable {self.sweep!r}")
        if len(self.grid) == 0:
            raise InvalidParams("sweep grid must be non-empty")
        if len(set(self.grid)) != len(self.grid):
            raise InvalidParams(f"sweep grid repeats a value: {tuple(self.grid)}")
        for name in ("n", "k_comm", "bandlimit", "graphs_per_point", "signals_per_graph"):
            setattr(self, name, count(getattr(self, name), name))
        for name in ("target_m", "seed"):
            setattr(self, name, count(getattr(self, name), name, minimum=0))
        if self.target_m == 0:
            self.target_m = self.bandlimit

    def sbm_params(self, eps: float) -> SbmParams:
        return SbmParams(n=self.n, k_comm=self.k_comm, c=self.c, eps=eps)


def _coerce(name: str, kind, raw: str):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind is tuple:
            return tuple(float(v) for v in raw.split(",") if v.strip())
        return kind(raw)
    except ValueError as exc:
        raise ParseError(f"bad value for key {name!r}: {raw!r}") from exc


def parse_config(path) -> ExperimentConfig:
    """Parse a flat `key = value` config file; unknown keys are rejected."""
    types = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ParseError(f"{path}:{lineno}: expected key = value, got {text!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in types:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _coerce(key, types[key], raw)
    return ExperimentConfig(**values)


@dataclass
class ResultRow:
    """One sweep point and sampler of a results table; p10 <= p90."""

    sweep_value: float
    sampler: str
    mean_error: float
    p10: float
    p90: float
    mean_samples: float
    trials: int

    def __post_init__(self):
        if self.p10 > self.p90:
            raise InvalidParams("percentiles out of order")


def _aggregate(rows: list[ResultRow], sweep_values, samplers, errors, sizes):
    """Append a row per sweep value and sampler, values outermost. errors
    and sizes are (values, samplers, trials) arrays, every pair with the
    same trial count, or (trials,) for a single value and sampler. The
    percentiles are nearest-rank: the ceil(p n / 100)-th smallest error."""
    values, names = np.atleast_1d(sweep_values), np.atleast_1d(samplers)
    shape = (len(values) * len(names), -1)
    errors = np.reshape(np.asarray(errors, dtype=float), shape)
    sizes = np.reshape(sizes, shape)
    p10, p90 = np.percentile(errors, [10, 90], axis=1, method="inverted_cdf")
    means, mean_sizes = errors.mean(axis=1), sizes.mean(axis=1)
    for i, (value, name) in enumerate(itertools.product(values, names)):
        rows.append(
            ResultRow(
                sweep_value=float(value),
                sampler=str(name),
                mean_error=float(means[i]),
                p10=float(p10[i]),
                p90=float(p90[i]),
                mean_samples=float(mean_sizes[i]),
                trials=errors.shape[1],
            )
        )


def emit_csv(rows: list[ResultRow], path) -> None:
    """Write the result rows; floats carry 17 significant digits so the
    file parses back bit-exactly."""
    write_csv(path, RESULT_HEADER, map(astuple, rows))


def parse_result_csv(path) -> list[ResultRow]:
    kinds = [float, str, float, float, float, float, int]
    return [ResultRow(*row) for row in zip(*read_csv(path, RESULT_HEADER, kinds))]


def _check_bandlimit_gap(basis, k, lap):
    """Warn when the bandlimit splits a repeated eigenvalue. The tie
    tolerance scales with the edge bound on |L|, which a partial basis
    (k + 1 pairs) does not reach."""
    lam = basis.eigenvalues
    scale = max(largest_eigenvalue_estimate(lap), 1.0)
    if k < lap.n and lam[k] - lam[k - 1] <= 1e-12 * scale:
        warnings.warn(
            f"bandlimit {k} falls inside a repeated eigenvalue; the signal span "
            "depends on eigensolver tie-breaking",
            DegenerateCutoffWarning,
            stacklevel=3,
        )
    components = int(np.sum(lam <= 1e-10 * scale))
    log.debug("graph connectivity flag: %d zero eigenvalue(s)", components)


def run_experiment_known_basis(cfg: ExperimentConfig) -> list[ResultRow]:
    """Epsilon sweep comparing the projector-kernel determinantal sampler
    against the deterministic selections, with the Fourier basis known.

    Every sampler sees the same graphs and signals; grid values are
    fractions of the community-detectability threshold.
    """
    if cfg.sweep != "epsilon":
        raise InvalidParams("known-basis experiment sweeps epsilon")
    eps_c = critical_epsilon(cfg.c, cfg.k_comm)
    k = cfg.bandlimit
    shape = (len(cfg.grid), len(KNOWN_BASIS_SAMPLERS), cfg.graphs_per_point * cfg.signals_per_graph)
    errors, sizes = np.empty(shape), np.empty(shape, dtype=int)
    for point, frac in enumerate(cfg.grid):
        for g_idx in range(cfg.graphs_per_point):
            graph = sbm_generate(
                cfg.sbm_params(frac * eps_c), stream(cfg.seed, point, g_idx, _TAG_GRAPH)
            )
            lap = laplacian(graph)
            basis = eigendecompose(lap, k)
            _check_bandlimit_gap(basis, k, lap)
            u_k = fourier_basis_k(basis, k)
            kernel = ideal_lowpass_kernel(basis, k)
            fixed = {
                "greedy-wce": greedy_select(u_k, "wce"),
                "greedy-mse": greedy_select(u_k, "mse"),
                "greedy-mv": greedy_select(u_k, "mv"),
                "maxvol": maxvol_select(u_k),
            }
            # one factorization per fixed selection serves all its signals
            solvers = {name: known_basis_solver(u_k, s) for name, s in fixed.items()}
            for s_idx in range(cfg.signals_per_graph):
                x = generate_bandlimited_signal(
                    u_k, stream(cfg.seed, point, g_idx, s_idx, _TAG_SIGNAL)
                )
                trial = g_idx * cfg.signals_per_graph + s_idx
                for col, name in enumerate(KNOWN_BASIS_SAMPLERS):
                    sid = _SAMPLER_ID[name]
                    if name == "dpp-ideal":
                        sample = dpp_sample(
                            kernel, stream(cfg.seed, point, g_idx, s_idx, sid, _TAG_DRAW)
                        )
                    else:
                        sample = fixed[name]
                    meas = measure(
                        x,
                        sample,
                        cfg.noise_sigma,
                        stream(cfg.seed, point, g_idx, s_idx, sid, _TAG_NOISE),
                    )
                    if name in solvers:
                        x_rec = solvers[name](meas.y)
                    else:
                        x_rec = recover_known_basis_weighted(u_k, meas)
                    errors[point, col, trial] = relative_error(x, x_rec)
                    sizes[point, col, trial] = len(sample)
    rows = []
    _aggregate(rows, cfg.grid, KNOWN_BASIS_SAMPLERS, errors, sizes)
    return rows


def _measurements(xs, nodes, weights, sizes, noise_sigma, rng, method) -> list[Measurement]:
    """measure's readings of draws t = 0, 1, ... of sizes[t] nodes each, held
    concatenated in nodes and weights, draw t reading signal xs[t]. The
    noise is one block from rng, which equals sequential draws of the
    sizes from it."""
    y = xs[np.repeat(np.arange(len(sizes)), sizes), nodes]
    y += noise_sigma * rng.standard_normal(len(nodes))
    return [
        Measurement(y_t, SamplingSet(nodes_t, weights_t, method))
        for y_t, nodes_t, weights_t in zip(
            *(np.split(a, np.cumsum(sizes)[:-1]) for a in (y, nodes, weights))
        )
    ]


def run_experiment_unknown_basis(cfg: ExperimentConfig) -> list[ResultRow]:
    """Sweep over the sample-size target m or over the penalty gamma,
    comparing walk-based determinantal draws against matched i.i.d. draws.

    Each graph's absorption rate q solves s(q) = target exactly from the
    eigenvalues of its Fourier basis (exact_q). Each walk draw is paired
    with an i.i.d. draw of exactly the same size, and for the gamma sweep
    the same draws and measurements are reused at every grid value, so
    curves differ only in what is being swept.

    A graph makes its draws as blocks, one stream per (point, graph,
    sampler, use): its signals as one block of coefficients
    (generate_bandlimited_signals), its walks as one wilson_sample call on
    disjoint copies of the graph, one per signal (wilson_draws), its
    i.i.d. draws as one leverage draw of the walks' total size cut into
    their sizes, each part weighted by its own m_t p, and each sampler's
    noise as one block. The measurements are then recovered for the whole
    gamma grid in one recover_unknown_basis_batch call, whose rows equal
    the one-measurement, one-gamma solves.
    """
    if cfg.sweep not in ("m", "gamma"):
        raise InvalidParams("unknown-basis experiment sweeps m or gamma")
    eps_c = critical_epsilon(cfg.c, cfg.k_comm)
    eps = cfg.eps_frac * eps_c
    k = cfg.bandlimit

    if cfg.sweep == "m":
        targets = [count(np.round(v), "sample-size target") for v in cfg.grid]
        gammas = [cfg.gamma]
    else:
        targets = [cfg.target_m]
        gammas = list(cfg.grid)

    grid_params = [RecoveryParams(gamma=g, r=cfg.r, tolerance=cfg.tolerance) for g in gammas]
    signals = cfg.signals_per_graph
    shape = (len(cfg.grid), len(UNKNOWN_BASIS_SAMPLERS), cfg.graphs_per_point * signals)
    errors, sizes = np.empty(shape), np.empty(shape, dtype=int)

    for t_idx, target in enumerate(targets):
        point = t_idx
        # the grid rows filled from this point: its m, or every gamma
        values = slice(t_idx, t_idx + len(gammas))
        for g_idx in range(cfg.graphs_per_point):
            graph = sbm_generate(
                cfg.sbm_params(eps), stream(cfg.seed, point, g_idx, _TAG_GRAPH)
            )
            lap = laplacian(graph)
            basis = eigendecompose(lap)
            _check_bandlimit_gap(basis, k, lap)
            u_k = fourier_basis_k(basis, k)
            q = exact_q(graph, basis, target)
            wid, iid = _SAMPLER_ID["wilson"], _SAMPLER_ID["iid"]
            xs = generate_bandlimited_signals(
                u_k, signals, stream(cfg.seed, point, g_idx, _TAG_SIGNAL)
            )
            walks = wilson_draws(graph, q, signals, stream(cfg.seed, point, g_idx, wid, _TAG_DRAW))
            m_ts = np.array([len(w) for w in walks])
            w_nodes = np.concatenate(walks)
            if cfg.estimated_weights:
                wrng = stream(cfg.seed, point, g_idx, _TAG_WEIGHTS)
                pi_hat = estimate_pi(lap, q, rng=wrng)
                p_star = estimate_leverage_scores(lap, k, rng=wrng)
                w_weights = floor_zero_probabilities(pi_hat, w_nodes)
            else:
                p_star = np.einsum("ij,ij->i", u_k, u_k) / k
                w_weights = dpp_weight_matrix(wilson_kernel_explicit(basis, q), w_nodes)
            # one i.i.d. draw of the walks' total size, cut into draws of their sizes
            i_nodes = iid_leverage_sample(
                p_star, len(w_nodes), stream(cfg.seed, point, g_idx, iid, _TAG_DRAW)
            ).nodes
            i_weights = np.repeat(m_ts, m_ts) * p_star[i_nodes]
            w_meas, i_meas = (
                _measurements(
                    xs, nodes, weights, m_ts, cfg.noise_sigma,
                    stream(cfg.seed, point, g_idx, sid, _TAG_NOISE), name,
                )
                for name, sid, nodes, weights in (
                    ("wilson", wid, w_nodes, w_weights), ("iid", iid, i_nodes, i_weights)
                )
            )
            # signal-major, in UNKNOWN_BASIS_SAMPLERS order within a signal
            meas = [m for pair in zip(w_meas, i_meas) for m in pair]
            # (signals, samplers, gammas, n)
            x_recs = recover_unknown_basis_batch(lap, meas, grid_params).reshape(
                signals, len(UNKNOWN_BASIS_SAMPLERS), len(gammas), -1
            )
            errs = _relative_errors(xs[:, None, None], x_recs)
            trials = slice(g_idx * signals, (g_idx + 1) * signals)
            errors[values, :, trials] = errs.transpose(2, 1, 0)
            sizes[values, :, trials] = m_ts
    rows = []
    _aggregate(rows, cfg.grid, UNKNOWN_BASIS_SAMPLERS, errors, sizes)
    return rows


def run_scalability_check(n: int, q: float, runs: int = 10, seed: int = 0):
    """Mean walk-sampler output size and mean per-run wall time on one
    large SBM realisation (two communities, c = 16, eps at 0.2 of the
    detectability threshold); generation is excluded from the timing.
    Above wilson.HANDOVER nodes each run is the vectorized draw and
    cycle-popping rounds, then the walk loop for what they leave; at small
    q (n = 1e5, q = 5e-4) the first draw absorbs too few arrows for rounds
    to pay, and the time is mostly the walk loop's."""
    runs = count(runs, "runs")
    eps = 0.2 * critical_epsilon(16.0, 2)
    graph = sbm_generate(SbmParams(n=n, k_comm=2, c=16.0, eps=eps), stream(seed, 0, _TAG_GRAPH))
    sizes = []
    elapsed = []
    for run in range(runs):
        t0 = time.perf_counter()
        sample = wilson_sample(graph, q, stream(seed, run, _TAG_DRAW))
        elapsed.append(time.perf_counter() - t0)
        sizes.append(len(sample))
    return float(np.mean(sizes)), float(np.mean(elapsed))
