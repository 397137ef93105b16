"""Experiment protocols: epsilon/m/gamma sweeps over SBM graphs, metrics
aggregation into CSV tables, and deterministic seed management."""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np

from .dpp import dpp_sample, dpp_weight_matrix, ideal_lowpass_kernel, wilson_kernel_explicit
from .errors import DegenerateCutoffWarning, InvalidParams, ParseError
from .estimation import estimate_leverage_scores, estimate_pi, floor_zero_probabilities
from .graphs import SbmParams, critical_epsilon, laplacian, sbm_generate
from .recovery import RecoveryParams, measure, recover_known_basis, \
    recover_known_basis_weighted, recover_unknown_basis, relative_error
from .selection import greedy_select, iid_leverage_sample, maxvol_select
from .serialization import read_csv, write_csv
from .spectral import eigendecompose, fourier_basis_k, generate_bandlimited_signal
from .wilson import tune_q, wilson_sample

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
_TAG_GRAPH, _TAG_SIGNAL, _TAG_DRAW, _TAG_NOISE, _TAG_TUNE, _TAG_WEIGHTS = range(6)

RESULT_HEADER = ["sweep_value", "sampler", "mean_error", "p10", "p90", "mean_samples", "trials"]


def stream(master: int, *path: int) -> np.random.Generator:
    """Independent generator for one (point, graph, signal, sampler, use) slot."""
    return np.random.default_rng(np.random.SeedSequence([int(master), *map(int, path)]))


@dataclass
class ExperimentConfig:
    """Flat experiment description, parseable from `key = value` text."""

    n: int = 100
    k_comm: int = 2
    c: float = 16.0
    bandlimit: int = 2
    sweep: str = "epsilon"
    grid: tuple = (0.1,)
    eps_frac: float = 0.2
    noise_sigma: float = 1e-4
    gamma: float = 1e-5
    r: int = 4
    tolerance: float = 1e-8
    graphs_per_point: int = 20
    signals_per_graph: int = 50
    target_m: int = 0
    estimated_weights: bool = False
    tune_runs: int = 64
    tune_tol: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if self.sweep not in ("epsilon", "m", "gamma"):
            raise InvalidParams(f"unknown sweep variable {self.sweep!r}")
        if len(self.grid) == 0:
            raise InvalidParams("sweep grid must be non-empty")
        if self.graphs_per_point < 1 or self.signals_per_graph < 1:
            raise InvalidParams("trial counts must be at least 1")
        if self.seed < 0:
            raise InvalidParams("seed must be nonnegative")
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


def _aggregate(rows: list[ResultRow], sweep_value, sampler, errors, sizes):
    """Append the row of one sweep point and sampler. The percentiles are
    nearest-rank: the ceil(p n / 100)-th smallest error."""
    errors = np.asarray(errors, dtype=float)
    p10, p90 = np.percentile(errors, [10, 90], method="inverted_cdf")
    rows.append(
        ResultRow(
            sweep_value=float(sweep_value),
            sampler=sampler,
            mean_error=float(errors.mean()),
            p10=float(p10),
            p90=float(p90),
            mean_samples=float(np.mean(sizes)),
            trials=len(errors),
        )
    )


def emit_csv(rows: list[ResultRow], path) -> None:
    """Write the result rows; floats carry 17 significant digits so the
    file parses back bit-exactly."""
    write_csv(path, RESULT_HEADER, map(astuple, rows))


def parse_result_csv(path) -> list[ResultRow]:
    kinds = [float, str, float, float, float, float, int]
    return [ResultRow(*row) for row in zip(*read_csv(path, RESULT_HEADER, kinds))]


def _check_bandlimit_gap(basis, k, n):
    lam = basis.eigenvalues
    if k < n and lam[k] - lam[k - 1] <= 1e-12 * max(lam[-1], 1.0):
        warnings.warn(
            f"bandlimit {k} falls inside a repeated eigenvalue; the signal span "
            "depends on eigensolver tie-breaking",
            DegenerateCutoffWarning,
            stacklevel=3,
        )
    components = int(np.sum(lam <= 1e-10 * max(lam[-1], 1.0)))
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
    rows = []
    for point, frac in enumerate(cfg.grid):
        errors = {name: [] for name in KNOWN_BASIS_SAMPLERS}
        sizes = {name: [] for name in KNOWN_BASIS_SAMPLERS}
        for g_idx in range(cfg.graphs_per_point):
            graph = sbm_generate(
                cfg.sbm_params(frac * eps_c), stream(cfg.seed, point, g_idx, _TAG_GRAPH)
            )
            basis = eigendecompose(laplacian(graph))
            _check_bandlimit_gap(basis, k, graph.n)
            u_k = fourier_basis_k(basis, k)
            kernel = ideal_lowpass_kernel(basis, k)
            fixed = {
                "greedy-wce": greedy_select(u_k, "wce"),
                "greedy-mse": greedy_select(u_k, "mse"),
                "greedy-mv": greedy_select(u_k, "mv"),
                "maxvol": maxvol_select(u_k),
            }
            for s_idx in range(cfg.signals_per_graph):
                x = generate_bandlimited_signal(
                    u_k, stream(cfg.seed, point, g_idx, s_idx, _TAG_SIGNAL)
                )
                for name in KNOWN_BASIS_SAMPLERS:
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
                    if name == "dpp-ideal":
                        x_rec = recover_known_basis_weighted(u_k, meas)
                    else:
                        x_rec = recover_known_basis(u_k, meas)
                    errors[name].append(relative_error(x, x_rec))
                    sizes[name].append(len(sample))
        for name in KNOWN_BASIS_SAMPLERS:
            _aggregate(rows, frac, name, errors[name], sizes[name])
    return rows


def _unknown_basis_weights(cfg, kernel, pi_hat, sample):
    if cfg.estimated_weights:
        return floor_zero_probabilities(pi_hat, sample.nodes)
    return dpp_weight_matrix(kernel, sample.nodes)


def run_experiment_unknown_basis(cfg: ExperimentConfig) -> list[ResultRow]:
    """Sweep over the sample-size target m or over the penalty gamma,
    comparing walk-based determinantal draws against matched i.i.d. draws.

    Each walk draw is paired with an i.i.d. draw of exactly the same size,
    and for the gamma sweep the same draws and measurements are reused at
    every grid value, so curves differ only in what is being swept.
    """
    if cfg.sweep not in ("m", "gamma"):
        raise InvalidParams("unknown-basis experiment sweeps m or gamma")
    eps_c = critical_epsilon(cfg.c, cfg.k_comm)
    eps = cfg.eps_frac * eps_c
    k = cfg.bandlimit
    rows = []

    if cfg.sweep == "m":
        targets = [int(round(v)) for v in cfg.grid]
        if any(t < 1 for t in targets):
            raise InvalidParams("sample-size targets must be at least 1")
        gammas = [cfg.gamma]
    else:
        targets = [cfg.target_m]
        gammas = list(cfg.grid)

    results = {
        (value, name): [] for value in cfg.grid for name in UNKNOWN_BASIS_SAMPLERS
    }
    sizes = {key: [] for key in results}

    for t_idx, target in enumerate(targets):
        point = t_idx
        for g_idx in range(cfg.graphs_per_point):
            graph = sbm_generate(
                cfg.sbm_params(eps), stream(cfg.seed, point, g_idx, _TAG_GRAPH)
            )
            lap = laplacian(graph)
            basis = eigendecompose(lap)
            _check_bandlimit_gap(basis, k, graph.n)
            u_k = fourier_basis_k(basis, k)
            q = tune_q(
                graph,
                target,
                stream(cfg.seed, point, g_idx, _TAG_TUNE),
                runs_per_probe=cfg.tune_runs,
                tol=cfg.tune_tol,
            )
            kernel = wilson_kernel_explicit(basis, q)
            if cfg.estimated_weights:
                wrng = stream(cfg.seed, point, g_idx, _TAG_WEIGHTS)
                pi_hat = estimate_pi(lap, q, rng=wrng)
                p_star = estimate_leverage_scores(lap, k, rng=wrng)
            else:
                pi_hat = None
                p_star = np.einsum("ij,ij->i", u_k, u_k) / k
            for s_idx in range(cfg.signals_per_graph):
                x = generate_bandlimited_signal(
                    u_k, stream(cfg.seed, point, g_idx, s_idx, _TAG_SIGNAL)
                )
                wid, iid = _SAMPLER_ID["wilson"], _SAMPLER_ID["iid"]
                w_sample = wilson_sample(
                    graph, q, stream(cfg.seed, point, g_idx, s_idx, wid, _TAG_DRAW)
                )
                w_sample.weights = _unknown_basis_weights(cfg, kernel, pi_hat, w_sample)
                m_t = len(w_sample)
                i_sample = iid_leverage_sample(
                    p_star, m_t, stream(cfg.seed, point, g_idx, s_idx, iid, _TAG_DRAW)
                )
                pair = {"wilson": w_sample, "iid": i_sample}
                meas = {
                    name: measure(
                        x,
                        pair[name],
                        cfg.noise_sigma,
                        stream(cfg.seed, point, g_idx, s_idx, _SAMPLER_ID[name], _TAG_NOISE),
                    )
                    for name in UNKNOWN_BASIS_SAMPLERS
                }
                for gamma in gammas:
                    value = cfg.grid[t_idx] if cfg.sweep == "m" else gamma
                    params = RecoveryParams(gamma=gamma, r=cfg.r, tolerance=cfg.tolerance)
                    for name in UNKNOWN_BASIS_SAMPLERS:
                        x_rec = recover_unknown_basis(lap, meas[name], params)
                        results[(value, name)].append(relative_error(x, x_rec))
                        sizes[(value, name)].append(m_t)
    for value in cfg.grid:
        for name in UNKNOWN_BASIS_SAMPLERS:
            _aggregate(rows, value, name, results[(value, name)], sizes[(value, name)])
    return rows


def run_scalability_check(n: int, q: float, runs: int = 10, seed: int = 0):
    """Mean walk-sampler output size and mean per-run wall time on one
    large SBM realisation (two communities, c = 16, eps at 0.2 of the
    detectability threshold); generation is excluded from the timing."""
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
