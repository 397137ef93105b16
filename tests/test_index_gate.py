"""Every function that reads by caller-supplied node indices checks them
against the size of what it indexes, through one gate: an index below 0 or
at n raises OutOfRange, a fractional one InvalidParams. Count arguments
(sample sizes, degrees, widths, run and trial counts) pass the same gate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdpp import (
    Graph,
    estimate_leverage_scores,
    estimate_pi,
    fit_sqrt_filter,
    gaussian_sketch,
    iid_leverage_sample,
    tune_q,
    Measurement,
    RecoveryParams,
    SamplingSet,
    SbmParams,
    dpp_weight_matrix,
    eigendecompose,
    fourier_basis_k,
    ideal_lowpass_kernel,
    inclusion_probability,
    laplacian,
    measure,
    recover_known_basis,
    recover_known_basis_weighted,
    recover_unknown_basis,
    sbm_generate,
    singular_values_restriction,
    wilson_kernel_explicit,
)
from graphdpp import recovery
from graphdpp.errors import InvalidParams, OutOfRange
from graphdpp.estimation import floor_zero_probabilities
from graphdpp.experiments import ExperimentConfig, run_scalability_check

# the path 0-1-2 with weights 1, 2; node 2's inclusion probability under
# the rank-2 ideal kernel is 0.667, which a wrapped index -1 would return
PATH3 = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
LAP3 = laplacian(PATH3)
U3 = fourier_basis_k(eigendecompose(LAP3), 2)
KERNEL3 = ideal_lowpass_kernel(eigendecompose(LAP3), 2)

# a path above the direct-solve size, so recovery takes conjugate gradient
N_BIG = 600
LAP_BIG = laplacian(
    Graph.from_arrays(N_BIG, np.arange(N_BIG - 1), np.arange(1, N_BIG), np.ones(N_BIG - 1))
)


def meas_at(nodes):
    # SamplingSet itself rejects a negative or fractional index, so those
    # cases stop here; an index at n passes it and reaches the consumer
    s = SamplingSet(nodes=nodes, weights=np.full(len(nodes), 0.5), method="t")
    return Measurement(y=np.ones(len(nodes)), sampling=s)


CONSUMERS = {
    "Graph": (3, lambda v: Graph(3, [(1, v, 1.0)])),
    "Graph.from_arrays": (3, lambda v: Graph.from_arrays(3, [1], [v], [1.0])),
    "singular_values_restriction": (3, lambda v: singular_values_restriction(U3, [0, v])),
    "MarginalKernel.restriction": (3, lambda v: KERNEL3.restriction([0, v])),
    "inclusion_probability": (3, lambda v: inclusion_probability(KERNEL3, [0, v])),
    "dpp_weight_matrix": (3, lambda v: dpp_weight_matrix(KERNEL3, [0, v])),
    "floor_zero_probabilities": (3, lambda v: floor_zero_probabilities(KERNEL3.diagonal(), [0, v])),
    "measure": (3, lambda v: measure(np.ones(3), meas_at([0, v]).sampling)),
    "recover_known_basis": (3, lambda v: recover_known_basis(U3, meas_at([0, v]))),
    "recover_known_basis_weighted": (
        3, lambda v: recover_known_basis_weighted(U3, meas_at([0, v]))
    ),
    "recover_unknown_basis[direct]": (3, lambda v: recover_unknown_basis(LAP3, meas_at([0, v]))),
    "recover_unknown_basis[cg]": (
        N_BIG, lambda v: recover_unknown_basis(LAP_BIG, meas_at([0, v]))
    ),
}


def test_big_path_is_above_the_direct_solve_size():
    assert LAP3.n <= recovery._DIRECT_MAX_N < LAP_BIG.n


@pytest.mark.parametrize("name", list(CONSUMERS))
@pytest.mark.parametrize(
    "bad, error",
    [("negative", OutOfRange), ("n", OutOfRange), ("fraction", InvalidParams)],
)
def test_bad_node_index_rejected(name, bad, error):
    n, consume = CONSUMERS[name]
    value = {"negative": -1, "n": n, "fraction": 0.5}[bad]
    with pytest.raises(error):
        consume(value)


def test_in_range_nodes_still_accepted():
    for n, consume in CONSUMERS.values():
        consume(n - 1)


SBM = sbm_generate(SbmParams(n=30, k_comm=2, c=6.0, eps=0.2), 5)
WALK_KERNEL = wilson_kernel_explicit(eigendecompose(laplacian(SBM)), 0.4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, SBM.n - 1), max_size=12))
def test_checked_reads_equal_plain_fancy_indexing(nodes):
    idx = np.array(nodes, dtype=np.int64)
    rows = WALK_KERNEL.vectors[idx, :]
    np.testing.assert_array_equal(
        WALK_KERNEL.restriction(nodes), (rows * WALK_KERNEL.eigenvalues) @ rows.T
    )
    pi = WALK_KERNEL.diagonal()
    np.testing.assert_array_equal(dpp_weight_matrix(WALK_KERNEL, nodes), pi[idx])
    np.testing.assert_array_equal(floor_zero_probabilities(pi, nodes), pi[idx])


# 3 true entries of 40: read as indices, the mask was 40 "nodes" in {0, 1}
MASK40 = np.isin(np.arange(40), [4, 17, 31])
MASK3 = np.array([True, False, True])
MASK_CONSUMERS = {
    "SamplingSet": lambda: SamplingSet(nodes=MASK40),
    "Graph.from_arrays": lambda: Graph.from_arrays(3, MASK3, [2, 2, 2], [1.0, 1.0, 1.0]),
    "singular_values_restriction": lambda: singular_values_restriction(U3, MASK3),
    "MarginalKernel.restriction": lambda: KERNEL3.restriction(MASK3),
    "inclusion_probability": lambda: inclusion_probability(KERNEL3, MASK3),
    "dpp_weight_matrix": lambda: dpp_weight_matrix(KERNEL3, MASK3),
    "floor_zero_probabilities": lambda: floor_zero_probabilities(KERNEL3.diagonal(), MASK3),
    "measure": lambda: measure(np.ones(3), SamplingSet(nodes=MASK3)),
}


@pytest.mark.parametrize("name", list(MASK_CONSUMERS))
def test_boolean_mask_rejected_as_node_indices(name):
    with pytest.raises(InvalidParams):
        MASK_CONSUMERS[name]()


@pytest.mark.parametrize(
    "build",
    [lambda: RecoveryParams(r="4"), lambda: Graph("3", []), lambda: SamplingSet(nodes=["a"])],
    ids=["RecoveryParams", "Graph", "SamplingSet"],
)
def test_non_numeric_index_rejected(build):
    # np.isfinite is undefined on strings; the gate raised a raw TypeError
    with pytest.raises(InvalidParams):
        build()


COUNT_CONSUMERS = {
    "iid_leverage_sample": lambda v: iid_leverage_sample(np.full(4, 0.25), v, 0),
    "tune_q[runs_per_probe]": lambda v: tune_q(SBM, 3, 0, runs_per_probe=v, tol=0.5),
    "tune_q[max_probes]": lambda v: tune_q(SBM, 3, 0, runs_per_probe=4, tol=0.5, max_probes=v),
    "estimate_pi[d]": lambda v: estimate_pi(LAP3, 0.3, d=v, rng=0),
    "estimate_pi[n]": lambda v: estimate_pi(LAP3, 0.3, n=v, rng=0),
    "fit_sqrt_filter": lambda v: fit_sqrt_filter(lambda lam: 1.0 / (1.0 + lam), v, 2.0),
    "gaussian_sketch[width]": lambda v: gaussian_sketch(5, v, 0),
    "gaussian_sketch[n_nodes]": lambda v: gaussian_sketch(v, 3, 0),
    "estimate_leverage_scores": lambda v: estimate_leverage_scores(LAP3, v, 0),
    "run_scalability_check": lambda v: run_scalability_check(40, 0.5, runs=v),
    "eigendecompose": lambda v: eigendecompose(LAP3, v),
    "fourier_basis_k": lambda v: fourier_basis_k(eigendecompose(LAP3), v),
    "ideal_lowpass_kernel": lambda v: ideal_lowpass_kernel(eigendecompose(LAP3), v),
    **{
        f"ExperimentConfig[{name}]": (lambda name: lambda v: ExperimentConfig(**{name: v}))(name)
        for name in (
            "signals_per_graph", "graphs_per_point", "bandlimit", "target_m", "n", "k_comm", "seed"
        )
    },
}


@pytest.mark.parametrize("name", list(COUNT_CONSUMERS))
@pytest.mark.parametrize(
    "bad", [2.5, float("nan"), "2", [2, 3]], ids=["fraction", "nan", "string", "list"]
)
def test_non_integer_count_rejected(name, bad):
    # a fractional count raised a raw TypeError or IndexError, or (in
    # ExperimentConfig) was accepted and failed later in range(); a
    # fractional seed was truncated, so seeds 2 and 2.7 gave one table;
    # a list raised a raw TypeError
    with pytest.raises(InvalidParams):
        COUNT_CONSUMERS[name](bad)


@pytest.mark.parametrize("name", list(COUNT_CONSUMERS))
@pytest.mark.parametrize("good", [2, 2.0, np.int32(2)], ids=["int", "whole-float", "numpy-int"])
def test_whole_count_accepted(name, good):
    COUNT_CONSUMERS[name](good)


@pytest.mark.parametrize("name", list(COUNT_CONSUMERS))
@pytest.mark.parametrize("bad", [True, np.bool_(True), np.array(True)], ids=["bool", "numpy-bool", "0d"])
def test_boolean_count_rejected(name, bad):
    # True read as the count 1: estimate_pi(lap, q, d=True) ran a degree-1 filter
    with pytest.raises(InvalidParams):
        COUNT_CONSUMERS[name](bad)
