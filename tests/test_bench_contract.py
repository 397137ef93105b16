"""The package surface that the benchmark in perfbench/ relies on.

The traced run wraps functions by name through perfbench/tracer.py; a
renamed or deleted function would break it without failing any other
test. The tracer is loaded from its file and never modified.
"""

import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

import graphdpp
import graphdpp.experiments  # noqa: F401  (the workloads reach it as an attribute)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # compiled from source so that no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_traced_functions_exist(tracer):
    for layer, names in tracer.TRACED_FUNCTIONS.items():
        module = importlib.import_module(f"graphdpp.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"graphdpp.{layer}.{name}"


@pytest.mark.parametrize(
    "layer, name, arg",
    [
        ("wilson", "wilson_sample", "q"),
        ("estimation", "estimate_pi", "q"),
        ("wilson", "tune_q", "runs_per_probe"),
        ("recovery", "recover_unknown_basis", "params"),
    ],
)
def test_traced_arguments_exist(layer, name, arg):
    # the tracer reads these arguments by name through _arg_getter
    func = getattr(importlib.import_module(f"graphdpp.{layer}"), name)
    assert arg in inspect.signature(func).parameters, f"{name}({arg})"


def test_laplacian_apply_is_defined(tracer):
    cls_name, method = tracer.APPLY.split(".")
    assert callable(getattr(graphdpp, cls_name).__dict__.get(method))


def test_public_names_resolve():
    for name in graphdpp.__all__:
        assert hasattr(graphdpp, name), name


def test_recorder_installs_and_restores(tracer):
    originals = {
        (layer, name): getattr(importlib.import_module(f"graphdpp.{layer}"), name)
        for layer, names in tracer.TRACED_FUNCTIONS.items()
        for name in names
    }
    apply = graphdpp.LaplacianView.apply
    with tracer.Patcher() as patcher:
        tracer.SpanRecorder().install(patcher, graphdpp, {})
        assert graphdpp.LaplacianView.apply is not apply
    assert graphdpp.LaplacianView.apply is apply
    for (layer, name), orig in originals.items():
        assert getattr(importlib.import_module(f"graphdpp.{layer}"), name) is orig


WORKLOADS_PATH = TRACER_PATH.with_name("workloads.py")


@pytest.fixture(scope="module")
def workloads(tracer):
    # workloads.py imports its CheckFailed from `tracer`; hand it the copy above
    module = types.ModuleType("perfbench_workloads")
    saved = sys.modules.get("tracer")
    sys.modules["tracer"] = tracer
    try:
        exec(compile(WORKLOADS_PATH.read_text(), str(WORKLOADS_PATH), "exec"), module.__dict__)
    finally:
        if saved is None:
            del sys.modules["tracer"]
        else:
            sys.modules["tracer"] = saved
    return module


@pytest.mark.parametrize("name", ["known-k20", "unknown-gamma"])
def test_every_bench_check_sees_traffic(tracer, workloads, name):
    # the bench installs its output checks by replacing package functions;
    # a protocol that stops calling one of them would drop its check silently
    workload = workloads.WORKLOADS[name](graphdpp)
    layer_of = {f: layer for layer, funcs in tracer.TRACED_FUNCTIONS.items() for f in funcs}
    calls = dict.fromkeys(workload.checks(), 0)
    assert calls, f"{name} declares no checks"

    def counted(check_name, check):
        def run(args, kwargs, out):
            calls[check_name] += 1
            check(args, kwargs, out)

        return run

    with tracer.Patcher() as patcher:
        for check_name, check in workload.checks().items():
            patcher.function(layer_of[check_name], check_name, tracer.checked(counted(check_name, check)))
        workload.setup(1)
        workload.request(0)
    assert all(calls.values()), calls
