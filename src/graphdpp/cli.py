"""Command-line front end: graph/signal generation, sampling, measurement,
recovery, probability estimation, and the canned experiment sweeps."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .dpp import dpp_sample, dpp_weight_matrix, ideal_lowpass_kernel, wilson_kernel_explicit
from .errors import GraphDppError, InvalidParams
from .estimation import FILTER_DEGREE, estimate_pi, floor_zero_probabilities
from .experiments import (
    ExperimentConfig,
    emit_csv,
    parse_config,
    run_experiment_known_basis,
    run_experiment_unknown_basis,
    run_scalability_check,
)
from .graphs import SbmParams, critical_epsilon, laplacian, sbm_generate
from .recovery import (
    Measurement,
    RecoveryParams,
    measure,
    recover_known_basis_weighted,
    recover_unknown_basis,
)
from .selection import greedy_select, iid_leverage_sample, maxvol_select
from .serialization import (
    load_graph,
    load_sampling,
    load_signal,
    save_graph,
    save_probabilities,
    save_sampling,
    save_signal,
    write_csv,
)
from .spectral import eigendecompose, fourier_basis_k, generate_bandlimited_signal
from .wilson import TUNE_RUNS, tune_q, wilson_sample

_EXPERIMENT_PRESETS = {
    "fig1a": {"sweep": "epsilon", "grid": (0.05, 0.1, 0.2, 0.5, 1.0)},
    "fig1b": {
        "sweep": "gamma",
        "grid": (1e-7, 1e-6, 1e-5, 1e-3, 1e-1, 1e1, 1e2),
        "eps_frac": 0.2,
    },
    "fig1c": {"sweep": "m", "grid": (2.0, 3.0, 4.0, 6.0, 8.0), "eps_frac": 0.1},
}
_SCALE_N, _SCALE_Q = 100_000, 5e-4  # the scale protocol's node count and absorption rate


def _cmd_generate_graph(args):
    if args.eps is None and args.eps_frac is None:
        raise InvalidParams("give either --eps or --eps-frac")
    eps = args.eps if args.eps is not None else args.eps_frac * critical_epsilon(
        args.c, args.k_comm
    )
    params = SbmParams(n=args.n, k_comm=args.k_comm, c=args.c, eps=eps)
    g = sbm_generate(params, args.seed)
    save_graph(g, args.out, labels_path=args.labels_out)
    print(f"wrote {args.out}: n={g.n} edges={g.num_edges} eps={eps:.6g}")


def _cmd_generate_signal(args):
    g = load_graph(args.graph)
    basis = eigendecompose(laplacian(g), args.k)
    x = generate_bandlimited_signal(fourier_basis_k(basis, args.k), args.seed)
    save_signal(x, args.out)
    print(f"wrote {args.out}: bandlimit {args.k}, unit norm")


def _reject_unread(command, flags):
    """Raise InvalidParams naming the given flags of {flag: given}: command reads none of them."""
    unread = [flag for flag, given in flags.items() if given]
    if unread:
        raise InvalidParams(f"{command} does not read {', '.join(unread)}")


def _cmd_sample(args):
    method = args.method
    walk = method == "wilson"
    _reject_unread(f"sample --method {method}", {
        "--k": walk and args.k is not None,
        "--m": method != "iid" and args.m is not None,
        "--q": not walk and args.q is not None,
        "--target-k": not walk and args.target_k is not None,
    })
    g = load_graph(args.graph)
    rng = np.random.default_rng(args.seed)
    if walk:
        if (args.q is None) == (args.target_k is None):
            raise InvalidParams("give exactly one of --q or --target-k")
        q = args.q if args.q is not None else tune_q(
            g, args.target_k, rng, runs_per_probe=args.runs
        )
        sample = wilson_sample(g, q, rng)
        if args.weights == "exact":
            kernel = wilson_kernel_explicit(eigendecompose(laplacian(g)), q)
            sample.weights = dpp_weight_matrix(kernel, sample.nodes)
        elif args.weights == "estimated":
            pi = estimate_pi(laplacian(g), q, rng=rng)
            sample.weights = floor_zero_probabilities(pi, sample.nodes)
    else:
        k = args.k
        if k is None:
            raise InvalidParams(f"--k is required for method {method}")
        basis = eigendecompose(laplacian(g), k)
        u_k = fourier_basis_k(basis, k)
        if method == "dpp-ideal":
            sample = dpp_sample(ideal_lowpass_kernel(basis, k), rng)
        elif method == "iid":
            p_star = np.einsum("ij,ij->i", u_k, u_k) / k
            sample = iid_leverage_sample(p_star, k if args.m is None else args.m, rng)
        elif method == "maxvol":
            sample = maxvol_select(u_k)
        else:
            sample = greedy_select(u_k, method.removeprefix("greedy-"))
    save_sampling(sample, args.out)
    print(f"wrote {args.out}: method={sample.method} m={len(sample)}")


def _cmd_measure(args):
    x = load_signal(args.signal)
    sampling = load_sampling(args.sampling)
    meas = measure(x, sampling, args.noise_sigma, args.seed)
    save_signal(meas.y, args.out)
    print(f"wrote {args.out}: m={len(meas.y)} sigma={args.noise_sigma:g}")


def _cmd_recover(args):
    g = load_graph(args.graph)
    sampling = load_sampling(args.sampling)
    y = load_signal(args.measurement)
    if len(sampling) == 0:
        raise InvalidParams(f"{args.sampling}: sampling set is empty, nothing to recover from")
    if sampling.weights is None:
        sampling.weights = np.ones(len(sampling))
    meas = Measurement(y=y, sampling=sampling)
    if args.known_basis:
        if args.k is None:
            raise InvalidParams("--k is required with --known-basis")
        u_k = fourier_basis_k(eigendecompose(laplacian(g), args.k), args.k)
        x_rec = recover_known_basis_weighted(u_k, meas)
    else:
        params = RecoveryParams(gamma=args.gamma, r=args.r, tolerance=args.tol)
        x_rec = recover_unknown_basis(laplacian(g), meas, params)
    save_signal(x_rec, args.out)
    print(f"wrote {args.out}: recovered {len(x_rec)} node values")


def _cmd_estimate_pi(args):
    g = load_graph(args.graph)
    pi = estimate_pi(laplacian(g), args.q, d=args.d, n=args.n_sketch, rng=args.seed)
    save_probabilities(pi, args.out)
    print(f"wrote {args.out}: sum(pi)={pi.sum():.6g}")


def _cmd_experiment(args):
    scale = args.protocol == "scale"
    if scale:
        flags = {"--config": args.config is not None, "--full": args.full}
    else:
        flags = {"--n": args.n is not None, "--q": args.q is not None}
    _reject_unread(f"experiment {args.protocol}", flags)
    if scale:
        n = _SCALE_N if args.n is None else args.n
        q = _SCALE_Q if args.q is None else args.q
        mean_size, mean_seconds = run_scalability_check(n, q, seed=args.seed or 0)
        print(f"n={n} q={q:g}: mean samples {mean_size:.2f}, "
              f"mean seconds per run {mean_seconds:.3f}")
        if args.out:
            write_csv(args.out, ["n", "q", "mean_samples", "mean_seconds"],
                      [(n, q, mean_size, mean_seconds)])
        return
    if args.config:
        cfg = parse_config(args.config)
        wanted = _EXPERIMENT_PRESETS[args.protocol]["sweep"]
        if cfg.sweep != wanted:
            raise InvalidParams(f"{args.protocol} sweeps {wanted}, config sweeps {cfg.sweep}")
    else:
        cfg = ExperimentConfig(**_EXPERIMENT_PRESETS[args.protocol])
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.full:
        cfg = replace(cfg, graphs_per_point=100, signals_per_graph=100)
    if args.out is None:
        raise InvalidParams("--out is required for sweep protocols")
    if cfg.sweep == "epsilon":
        table = run_experiment_known_basis(cfg)
    else:
        table = run_experiment_unknown_basis(cfg)
    emit_csv(table, args.out)
    print(f"wrote {args.out}: {len(table)} rows")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdpp",
        description="Determinantal node sampling and bandlimited recovery on graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-graph", help="draw one SBM realisation")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--k-comm", type=int, default=2)
    p.add_argument("--c", type=float, default=16.0)
    p.add_argument("--eps", type=float, default=None, help="probability ratio q2/q1")
    p.add_argument("--eps-frac", type=float, default=None,
                   help="epsilon as a fraction of the detectability threshold")
    p.add_argument("--labels-out", default=None, help="community labels sidecar CSV")
    _common(p)
    p.set_defaults(func=_cmd_generate_graph)

    p = sub.add_parser("generate-signal", help="draw a random bandlimited signal")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True, help="bandlimit")
    _common(p)
    p.set_defaults(func=_cmd_generate_signal)

    p = sub.add_parser("sample", help="select or draw a sampling set")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", required=True, choices=[
        "greedy-wce", "greedy-mse", "greedy-mv", "maxvol", "iid", "dpp-ideal", "wilson",
    ])
    p.add_argument("--k", type=int, default=None, help="bandlimit / set size")
    p.add_argument("--m", type=int, default=None, help="i.i.d. draw count (default k)")
    p.add_argument("--q", type=float, default=None, help="walk absorption rate")
    p.add_argument("--target-k", type=int, default=None,
                   help="tune the absorption rate to this mean sample size")
    p.add_argument("--runs", type=int, default=TUNE_RUNS, help="walk runs per tuning probe")
    p.add_argument("--weights", choices=["exact", "estimated", "none"], default="exact",
                   help="how to fill recovery weights for walk samples")
    _common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("measure", help="read a signal on a sampling set")
    p.add_argument("--signal", required=True)
    p.add_argument("--sampling", required=True)
    p.add_argument("--noise-sigma", type=float, default=1e-4)
    _common(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("recover", help="reconstruct a signal from measurements")
    p.add_argument("--graph", required=True)
    p.add_argument("--sampling", required=True)
    p.add_argument("--measurement", required=True)
    p.add_argument("--known-basis", action="store_true")
    p.add_argument("--k", type=int, default=None, help="bandlimit (known basis)")
    p.add_argument("--gamma", type=float, default=RecoveryParams.gamma)
    p.add_argument("--r", type=int, default=RecoveryParams.r)
    p.add_argument("--tol", type=float, default=RecoveryParams.tolerance)
    _common(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("estimate-pi", help="sketch-estimate walk inclusion probabilities")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--d", type=int, default=FILTER_DEGREE, help="polynomial degree")
    p.add_argument("--n-sketch", type=int, default=None, help="sketch width")
    _common(p)
    p.set_defaults(func=_cmd_estimate_pi)

    p = sub.add_parser("experiment", help="run a canned sweep and write its CSV")
    p.add_argument("protocol", choices=["fig1a", "fig1b", "fig1c", "scale"])
    p.add_argument("--config", default=None, help="key = value experiment config")
    p.add_argument("--full", action="store_true", help="paper-scale trial counts")
    p.add_argument("--n", type=int, default=None,
                   help=f"scale protocol: node count (default {_SCALE_N})")
    p.add_argument("--q", type=float, default=None,
                   help=f"scale protocol: absorption rate (default {_SCALE_Q:g})")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def _common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except GraphDppError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
