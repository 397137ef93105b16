"""Call interception for the benchmark: correctness hooks and the span recorder.

`Patcher` replaces a package function at every name it is reached through
(the defining module, each module that imported it by name, and the
package namespace) and restores the originals on exit. `SpanRecorder`
builds the wrappers for a traced run: one span per call, holding the
span name, layer, start, end, parent span and request id, kept in flat
in-memory arrays and written out when the run ends. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

import numpy as np

PACKAGE = "graphdpp"

# layer (= defining module) -> public functions wrapped in a traced run
TRACED_FUNCTIONS = {
    "graphs": ("sbm_generate", "laplacian"),
    "spectral": ("eigendecompose", "largest_eigenvalue_estimate"),
    "dpp": ("dpp_sample",),
    "selection": ("greedy_select", "maxvol_select", "iid_leverage_sample"),
    "wilson": ("wilson_sample", "tune_q"),
    "estimation": ("estimate_pi", "estimate_leverage_scores", "fit_sqrt_filter"),
    "recovery": (
        "recover_known_basis",
        "recover_known_basis_weighted",
        "recover_unknown_basis",
        "measure",
    ),
    "experiments": ("run_experiment_known_basis", "run_experiment_unknown_basis"),
}
APPLY = "LaplacianView.apply"
LAYERS = tuple(TRACED_FUNCTIONS)
# modules the benchmark sends no traffic to; reported as unmeasured
UNMEASURED_LAYERS = ("serialization", "cli")
RECOVERY_SOLVES = ("recover_known_basis", "recover_known_basis_weighted", "recover_unknown_basis")

# Exact oracles for estimate_pi are dense; only graphs up to this size get one.
ORACLE_MAX_N = 2000


class CheckFailed(Exception):
    """A program output broke an invariant the benchmark checks."""


def package_modules():
    return [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Patcher:
    """Replaces package attributes and puts the originals back on exit."""

    def __init__(self):
        self._undo = []

    def function(self, layer, name, make_wrapper):
        orig = getattr(sys.modules[f"{PACKAGE}.{layer}"], name)
        wrapper = make_wrapper(orig)
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name, make_wrapper):
        orig = cls.__dict__[name]
        self._undo.append((cls, name, orig))
        setattr(cls, name, make_wrapper(orig))

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def checked(check):
    """Wrapper factory that runs `check(args, kwargs, result)` after each call."""

    def make(orig):
        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            check(args, kwargs, out)
            return out

        return wrapper

    return make


def _arg_getter(func, name):
    """Fast reader of one argument of `func`, positional or keyword."""
    params = inspect.signature(func).parameters
    pos = list(params).index(name)
    default = params[name].default

    def get(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)

    return get


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []  # (name, layer) per name id
        self.name_id = array("i")
        self.parent = array("i")
        self.request_id = array("i")
        self.start = array("d")
        self.end = array("d")
        # per-span numbers whose meaning depends on the span name (see _extras)
        self.info_a = array("d")
        self.info_b = array("d")
        self.info_c = array("d")
        self.raised = []
        self.request = -1
        self._stack = [-1]
        self.oracle_inputs = []  # (laplacian, q, pi_hat) for small estimate_pi calls
        self._apply_fixed = {}  # id(laplacian) -> (laplacian, fixed bytes, n)

    def __len__(self):
        return len(self.start)

    def install(self, patcher, package, checks):
        """Wrap every traced function and LaplacianView.apply."""
        for layer, funcs in TRACED_FUNCTIONS.items():
            for name in funcs:
                patcher.function(
                    layer, name, lambda orig, n=name, la=layer: self.wrap(orig, n, la, checks.get(n))
                )
        patcher.method(
            package.LaplacianView, "apply", lambda orig: self.wrap(orig, APPLY, "graphs", None)
        )

    def wrap(self, orig, name, layer, check):
        nid = len(self.names)
        self.names.append((name, layer))
        extra = self._extras(orig, name)
        name_ids, parents, requests = self.name_id, self.parent, self.request_id
        starts, ends = self.start, self.end
        info_a, info_b, info_c = self.info_a, self.info_b, self.info_c
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            requests.append(recorder.request)
            starts.append(0.0)
            ends.append(0.0)
            info_a.append(0.0)
            info_b.append(0.0)
            info_c.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            except BaseException:
                recorder.raised.append(idx)
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if extra is not None:
                info_a[idx], info_b[idx], info_c[idx] = extra(args, kwargs, out)
            if check is not None:
                check(args, kwargs, out)
            return out

        return wrapper

    def _extras(self, orig, name):
        """Per-span numbers recorded after a call returns, or None."""
        if name == APPLY:
            fixed = self._apply_fixed

            def apply_extra(args, kwargs, out):
                lap, x = args[0], args[1]
                entry = fixed.get(id(lap))
                if entry is None:
                    adj = lap.graph.adjacency()
                    isz = adj.indices.itemsize
                    # CSR values and indices, row pointers, degree vector: read once
                    nbytes = adj.nnz * (8 + isz) + (adj.shape[0] + 1) * isz + 8 * lap.n
                    entry = fixed[id(lap)] = (lap, nbytes, lap.n)
                cols = 1 if x.ndim == 1 else x.shape[1]
                return cols, entry[1], entry[2]

            return apply_extra
        if name == "wilson_sample":
            get_q = _arg_getter(orig, "q")
            return lambda a, k, out: (len(out), a[0].n, get_q(a, k))
        if name == "dpp_sample":
            return lambda a, k, out: (len(out), 0.0, 0.0)
        if name == "tune_q":
            get_runs = _arg_getter(orig, "runs_per_probe")
            return lambda a, k, out: (get_runs(a, k), out, 0.0)
        if name == "fit_sqrt_filter":
            return lambda a, k, out: (out.fit_error, out.degree, 0.0)
        if name == "recover_unknown_basis":
            get_params = _arg_getter(orig, "params")
            default_r = sys.modules[f"{PACKAGE}.recovery"].RecoveryParams().r
            return lambda a, k, out: (getattr(get_params(a, k), "r", default_r), 0.0, 0.0)
        if name == "estimate_pi":
            get_q = _arg_getter(orig, "q")
            oracle = self.oracle_inputs

            def pi_extra(args, kwargs, out):
                lap, q = args[0], get_q(args, kwargs)
                if lap.n <= ORACLE_MAX_N:
                    oracle.append((lap, q, out))
                return q, float(np.sum(out)), 0.0

            return pi_extra
        return None

    # ---- analysis -------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request_id": np.frombuffer(self.request_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "info_a": np.frombuffer(self.info_a, dtype=np.float64),
            "info_b": np.frombuffer(self.info_b, dtype=np.float64),
            "info_c": np.frombuffer(self.info_c, dtype=np.float64),
        }

    def write(self, path, meta):
        """Spans as one .npz of flat arrays, with names and `meta` as JSON."""
        arrs = self.arrays()
        arrs["raised"] = np.asarray(self.raised, dtype=np.int64)
        names = json.dumps({"names": self.names, **meta})
        np.savez(path, names=np.array(names), **arrs)

    def layer_metrics(self, overhead_frac):
        """Every per-layer metric of the benchmark, from the recorded spans."""
        a = self.arrays()
        span_name = np.array([n for n, _ in self.names], dtype=object)[a["name_id"]]
        span_layer = np.array([la for _, la in self.names], dtype=object)[a["name_id"]]
        parent = a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        raised = np.zeros(len(dur), dtype=bool)
        raised[self.raised] = True
        ia, ib, ic = a["info_a"], a["info_b"], a["info_c"]

        def is_name(*wanted):
            return np.isin(span_name, wanted)

        def nearest(mask):
            """Index of the closest enclosing span (itself included) in `mask`, else -1."""
            res = np.where(mask, np.arange(len(mask)), -1)
            cur = parent.copy()
            while np.any(cur >= 0):
                live = cur >= 0
                hit = live & (res < 0)
                hit[hit] = mask[cur[hit]]
                res[hit] = cur[hit]
                cur = np.where(live, parent[np.maximum(cur, 0)], -1)
            return res

        def layer_self(layer):
            return float(self_time[span_layer == layer].sum())

        apply = is_name(APPLY)
        walks = is_name("wilson_sample")
        tunes = is_name("tune_q")
        under_tune = nearest(tunes)
        tunes = tunes & ~raised
        cg = is_name("recover_unknown_basis")
        under_cg = nearest(cg)
        cg = cg & ~raised
        cg_iters = np.bincount(under_cg[apply & (under_cg >= 0)], minlength=len(dur))[cg] / ia[cg]
        solves = is_name(*RECOVERY_SOLVES)
        probes = np.bincount(under_tune[walks & (under_tune >= 0)], minlength=len(dur))[tunes]
        under_power = nearest(is_name("largest_eigenvalue_estimate"))
        under_est = nearest(span_layer == "estimation")
        walk_time = float(dur[walks].sum())

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self(layer)
        m["selection.calls"] = int(np.count_nonzero(span_layer == "selection"))
        m["dpp.draws"] = int(np.count_nonzero(is_name("dpp_sample")))
        m["dpp.nodes"] = int(ia[is_name("dpp_sample")].sum())
        m["spectral.eig_calls"] = int(np.count_nonzero(is_name("eigendecompose")))
        m["spectral.power_iters"] = int(np.count_nonzero(apply & (under_power >= 0)))
        m["recovery.solves"] = int(np.count_nonzero(solves))
        m["recovery.cg_iters_mean"] = float(cg_iters.mean()) if len(cg_iters) else 0.0
        m["recovery.cg_iters_max"] = float(cg_iters.max()) if len(cg_iters) else 0.0
        m["recovery.solve_s_p50"] = float(np.median(dur[solves])) if solves.any() else 0.0
        m["recovery.failed"] = int(np.count_nonzero(raised & (span_layer == "recovery")))
        m["graphs.lap_apply_calls"] = int(np.count_nonzero(apply))
        m["graphs.lap_apply_cols"] = int(ia[apply].sum())
        m["graphs.lap_apply_s"] = float(dur[apply].sum())
        m["graphs.lap_apply_bytes_computed"] = int((ib[apply] + 16.0 * ic[apply] * ia[apply]).sum())
        m["wilson.walks"] = int(np.count_nonzero(walks))
        m["wilson.nodes_per_s"] = float(ib[walks].sum() / walk_time) if walk_time > 0 else 0.0
        m["wilson.tune_s"] = float(dur[tunes].sum())
        m["wilson.tune_probes"] = float((probes / ia[tunes]).sum()) if tunes.any() else 0.0
        m["estimation.lap_applies"] = int(np.count_nonzero(apply & (under_est >= 0)))
        fits = is_name("fit_sqrt_filter")
        m["estimation.fit_error_max"] = float(ia[fits].max()) if fits.any() else 0.0
        m["estimation.pi_sum_ratio"] = self._pi_sum_ratio(
            is_name("estimate_pi"), walks & (under_tune < 0), a["request_id"], ia, ib, ic
        )
        m["estimation.pi_rel_err_median"] = self._pi_rel_err_median()
        m["trace.overhead_frac"] = float(overhead_frac)
        return m

    @staticmethod
    def _pi_sum_ratio(pis, walks, request_id, ia, ib, ic):
        """Mean over estimate_pi calls of sum(pi_hat) over the mean size of
        the walks drawn at the same q in the same request (tuning walks excluded)."""
        ratios = []
        for i in np.flatnonzero(pis):
            same = walks & (request_id == request_id[i]) & (ic == ia[i])
            if same.any():
                ratios.append(ib[i] / ia[same].mean())
        return float(np.mean(ratios)) if ratios else 0.0

    def _pi_rel_err_median(self):
        """Median over small estimate_pi calls of the per-node median relative
        error against the exact diagonal of q (q I + L)^-1."""
        errs = []
        for lap, q, pi_hat in self.oracle_inputs:
            adj = lap.graph.adjacency().toarray()
            lmat = np.diag(adj.sum(axis=1)) - adj
            exact = q * np.diag(np.linalg.inv(q * np.eye(lap.n) + lmat))
            errs.append(float(np.median(np.abs(pi_hat - exact) / exact)))
        return float(np.median(errs)) if errs else 0.0
