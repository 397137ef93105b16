"""graphdpp benchmark: one closed-loop client driving the public API in-process.

    python3 perfbench/run.py --workload known-k20 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` requests run until `--seconds` has passed and the
end-to-end metrics are reported. With `--trace 1` a fixed list of
requests runs once plain and once under the span recorder, and the
per-layer metrics are reported. The last line of standard output is one
JSON object; the full record (environment, request times, failures, and
for traced runs the spans) is written under `.bench_out/`. See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

# The BLAS thread count is part of the program under test: fix it, so that
# every commit is measured alike and shared-host contention on the second
# core does not stall BLAS calls. Set before numpy loads; children inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from envinfo import environment  # noqa: E402  (numpy loads from here on)
from hostprobe import HostProbe, reference_seconds  # noqa: E402
from tracer import (  # noqa: E402
    TRACED_FUNCTIONS,
    UNMEASURED_LAYERS,
    CheckFailed,
    Patcher,
    SpanRecorder,
    checked,
)
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "trials/s",
    "pipeline_s": "s",
    "rel_error_mean": "1",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "selection.self_s": "s",
    "selection.calls": "count",
    "dpp.self_s": "s",
    "dpp.draws": "count",
    "dpp.nodes": "count",
    "spectral.self_s": "s",
    "spectral.eig_calls": "count",
    "spectral.power_iters": "count",
    "recovery.self_s": "s",
    "recovery.solves": "count",
    "recovery.cg_iters_mean": "count",
    "recovery.cg_iters_max": "count",
    "recovery.solve_s_p50": "s",
    "recovery.failed": "count",
    "graphs.self_s": "s",
    "graphs.lap_apply_calls": "count",
    "graphs.lap_apply_cols": "count",
    "graphs.lap_apply_s": "s",
    "graphs.lap_apply_bytes_computed": "B",
    "wilson.self_s": "s",
    "wilson.walks": "count",
    "wilson.nodes_per_s": "1/s",
    "wilson.tune_s": "s",
    "wilson.tune_probes": "count",
    "estimation.self_s": "s",
    "estimation.lap_applies": "count",
    "estimation.fit_error_max": "1",
    "estimation.pi_sum_ratio": "1",
    "estimation.pi_rel_err_median": "1",
    "experiments.self_s": "s",
    "trace.overhead_frac": "1",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import graphdpp; print(time.perf_counter() - t)"
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import graphdpp from this checkout's src/, never from elsewhere."""
    init = SRC / "graphdpp" / "__init__.py"
    if not init.is_file():
        fail(f"no package source at {init.relative_to(ROOT)}; run from a graphdpp checkout")
    sys.path.insert(0, str(SRC))
    import graphdpp
    import graphdpp.estimation
    import graphdpp.experiments

    if Path(graphdpp.__file__).resolve() != init.resolve():
        fail(f"imported graphdpp from {graphdpp.__file__}, not from {init}")
    return graphdpp


def import_seconds():
    """Wall time of `import graphdpp` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.split()[-1])


def measure_setup(workload, seed):
    """Median over repeats of package import plus input generation."""
    totals = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        workload.setup(seed)
        totals.append(t_import + time.perf_counter() - t0)
    return statistics.median(totals)


class Served:
    """What a sequence of requests produced."""

    def __init__(self):
        # per successful request: wall seconds, the same rescaled to the
        # reference host speed, probe seconds, trials, mean relative error
        self.times = []
        self.ref_times = []
        self.probes = []
        self.trials = []
        self.errors = []
        self.attempted = 0
        self.failures = []  # (request, kind, message)
        self.warnings = 0

    @property
    def check_failures(self):
        return [f for f in self.failures if f[1] == "check"]


def serve(workload, requests, error_type, served, probe, recorder=None, deadline=None):
    """Run requests in order, one at a time, adding their outcomes to
    `served`. The host probe runs between requests, outside their timing.
    Stops after the last index or, with a deadline, after the first
    request that ends past it."""
    probe_before = probe()
    for i in requests:
        if recorder is not None:
            recorder.request = i
        served.attempted += 1
        wall = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                error_sum, trials = workload.request(i)
            except CheckFailed as exc:
                served.failures.append((i, "check", str(exc)))
            except error_type as exc:
                served.failures.append((i, type(exc).__name__, str(exc)))
            else:
                wall = time.perf_counter() - t0
                served.times.append(wall)
                served.trials.append(trials)
                served.errors.append(error_sum / trials)
        served.warnings += len(caught)
        probe_after = probe()
        if wall is not None:
            served.ref_times.append(reference_seconds(wall, probe_before, probe_after))
            served.probes.append((probe_before + probe_after) / 2.0)
        probe_before = probe_after
        if deadline is not None and time.perf_counter() >= deadline:
            break


def install_checks(patcher, checks):
    for layer, funcs in TRACED_FUNCTIONS.items():
        for name in funcs:
            if name in checks:
                patcher.function(layer, name, checked(checks[name]))


def end_to_end(served, setup_s):
    ok = len(served.times)
    trials = sum(served.trials)
    error_sum = sum(e * n for e, n in zip(served.errors, served.trials))
    rates = [n / t for n, t in zip(served.trials, served.ref_times)]
    return {
        "setup_s": setup_s,
        "trials_per_s": statistics.median(rates) if ok else 0.0,
        "pipeline_s": statistics.median(served.ref_times) if ok else 0.0,
        "rel_error_mean": error_sum / trials if trials else 0.0,
        "ok_frac": ok / served.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_untraced(gd, workload, seed, seconds):
    setup_s = measure_setup(workload, seed)
    probe = HostProbe()
    with Patcher() as patcher:
        install_checks(patcher, workload.checks())
        served = Served()
        deadline = time.perf_counter() + seconds
        serve(workload, itertools.count(), gd.errors.GraphDppError, served, probe, deadline=deadline)
    return served, end_to_end(served, setup_s), {}


def run_traced(gd, workload, seed, record_path):
    """Fixed request list, once plain and once traced, so counts repeat at a seed."""
    probe = HostProbe()
    requests = range(workload.trace_requests)
    served = Served()
    workload.setup(seed)
    with Patcher() as patcher:
        install_checks(patcher, workload.checks())
        serve(workload, requests, gd.errors.GraphDppError, served, probe)
    plain = served.ref_times[:]
    recorder = SpanRecorder()
    with Patcher() as patcher:
        recorder.install(patcher, gd, workload.checks())
        workload.setup(seed)  # traced once, for the graphs layer's set-up share
        serve(workload, requests, gd.errors.GraphDppError, served, probe, recorder=recorder)
    traced = served.ref_times[len(plain):]
    overhead = sum(traced) / sum(plain) - 1.0 if plain and len(traced) == len(plain) else 0.0
    metrics = recorder.layer_metrics(overhead)
    recorder.write(record_path.with_suffix(".spans.npz"), {"workload": workload.name, "seed": seed})
    extra = {"spans": len(recorder), "unmeasured_layers": list(UNMEASURED_LAYERS)}
    return served, metrics, extra


def run_one(args):
    gd = import_package()
    workload = WORKLOADS[args.workload](gd)
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        served, metrics, extra = run_traced(gd, workload, args.seed, record_path)
        units = PER_LAYER_UNITS
    else:
        served, metrics, extra = run_untraced(gd, workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    sketch = None
    if workload.sketched:
        sketch = workload.n * gd.estimation.default_sketch_width(workload.n) * 8
    env = environment(str(ROOT), workload.name, args.seed, sketch)
    correct = not served.check_failures and len(served.times) > 0
    result = {
        "correct": correct,
        "attempted": served.attempted,
        "failed": len(served.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        **result,
        "environment": env,
        "request_seconds": served.times,
        "request_reference_seconds": served.ref_times,
        "probe_seconds": served.probes,
        "request_rel_errors": served.errors,
        "failures": served.failures,
        "warnings": served.warnings,
        **extra,
    }
    record_path.write_text(json.dumps(record, indent=1))

    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{served.attempted} requests, {len(served.failures)} failed, {served.warnings} warnings")
    for req, kind, message in served.failures:
        print(f"  failed request {req} ({kind}): {message}")
    if args.trace:
        print(f"  unmeasured layers: {', '.join(extra['unmeasured_layers'])}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:.6g} {unit}")
    print("environment " + json.dumps(env))
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be nonnegative")
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
