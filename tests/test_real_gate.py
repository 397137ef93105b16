"""Every public real parameter (absorption rates, penalties, tolerances,
noise levels, spectral bounds, the SBM's degree and ratio) passes one gate, graphs.real: a finite real
scalar, positive or nonnegative, returned as a float. Anything else raises
InvalidParams, as a bad count does (tests/test_index_gate.py)."""

import numpy as np
import pytest

from graphdpp import (
    RecoveryParams,
    SamplingSet,
    SbmParams,
    critical_epsilon,
    eigendecompose,
    estimate_pi,
    expected_sample_size,
    fit_sqrt_filter,
    fourier_basis_k,
    laplacian,
    maxvol_select,
    measure,
    sbm_generate,
    tune_q,
    wilson_kernel_explicit,
    wilson_sample,
)
from graphdpp.errors import InvalidParams
from graphdpp.experiments import ExperimentConfig
from graphdpp.graphs import real

SBM = sbm_generate(SbmParams(n=30, k_comm=2, c=6.0, eps=0.2), 5)
LAP = laplacian(SBM)
BASIS = eigendecompose(LAP)
U_K = fourier_basis_k(BASIS, 3)
SAMPLING = SamplingSet(nodes=[0, 4], weights=[0.5, 0.5], method="t")

POSITIVE = {
    "wilson_sample[q]": lambda v: wilson_sample(SBM, v, 0),
    "tune_q[tol]": lambda v: tune_q(SBM, 3, 0, runs_per_probe=4, tol=v),
    "wilson_kernel_explicit[q]": lambda v: wilson_kernel_explicit(BASIS, v),
    "estimate_pi[q]": lambda v: estimate_pi(LAP, v, d=4, n=8, rng=0),
    "RecoveryParams[gamma]": lambda v: RecoveryParams(gamma=v),
    "RecoveryParams[tolerance]": lambda v: RecoveryParams(tolerance=v),
    "expected_sample_size[q]": lambda v: expected_sample_size(BASIS, v),
    "SbmParams[c]": lambda v: SbmParams(n=30, k_comm=2, c=v, eps=0.2),
    "ExperimentConfig[c]": lambda v: ExperimentConfig(c=v),
}
NONNEGATIVE = {
    "fit_sqrt_filter[lambda_max]": lambda v: fit_sqrt_filter(lambda lam: 1.0 / (1.0 + lam), 4, v),
    "measure[noise_sigma]": lambda v: measure(np.ones(SBM.n), SAMPLING, v, 0),
    "ExperimentConfig[noise_sigma]": lambda v: ExperimentConfig(noise_sigma=v),
    "maxvol_select[delta]": lambda v: maxvol_select(U_K, delta=v),
    "SbmParams[eps]": lambda v: SbmParams(n=30, k_comm=2, c=6.0, eps=v),
    "ExperimentConfig[eps_frac]": lambda v: ExperimentConfig(eps_frac=v),
}
EVERY = {**POSITIVE, **NONNEGATIVE}

BAD = {
    "array": np.array([0.5, 0.6]),
    "one-element": np.array([0.5]),
    "string": "0.5",
    "none": None,
    "bool": True,
    "numpy-bool": np.bool_(True),
    "nan": float("nan"),
    "inf": float("inf"),
    "negative": -1.0,
}


@pytest.mark.parametrize("name", list(EVERY))
@pytest.mark.parametrize("bad", list(BAD))
def test_bad_real_rejected(name, bad):
    # an array, a string or None raised a raw ValueError or TypeError (a
    # one-element array passed as q), and True was read as 1.0
    with pytest.raises(InvalidParams, match="finite"):
        EVERY[name](BAD[bad])


@pytest.mark.parametrize("name", list(POSITIVE))
def test_zero_rejected_where_positive(name):
    with pytest.raises(InvalidParams, match="positive and finite"):
        POSITIVE[name](0.0)


@pytest.mark.parametrize("name", list(NONNEGATIVE))
def test_zero_accepted_where_nonnegative(name):
    NONNEGATIVE[name](0)


@pytest.mark.parametrize("name", list(EVERY))
@pytest.mark.parametrize(
    "good", [0.5, 1, np.float32(0.5), np.int64(1), np.array(0.5)],
    ids=["float", "int", "numpy-float", "numpy-int", "0d"],
)
def test_real_scalar_accepted(name, good):
    EVERY[name](good)


@pytest.mark.parametrize("value", [2, 0.25, np.float32(0.5), np.array(3.0), np.uint8(7)])
def test_gate_returns_a_python_float(value):
    out = real(value, "x")
    assert type(out) is float and out == float(value)


def test_gate_messages_name_the_floor():
    with pytest.raises(InvalidParams, match="^q must be positive and finite$"):
        real(0, "q")
    with pytest.raises(InvalidParams, match="^delta must be nonnegative and finite$"):
        real(-1e-300, "delta", positive=False)
    assert real(0, "delta", positive=False) == 0.0


def test_params_store_the_float():
    params = RecoveryParams(gamma=np.array(1e-3), tolerance=np.float32(0.5))
    assert type(params.gamma) is float and type(params.tolerance) is float
    assert type(ExperimentConfig(noise_sigma=0).noise_sigma) is float
    config = ExperimentConfig(c=np.int64(8), eps_frac=np.array(0.5))
    assert type(config.c) is float and type(config.eps_frac) is float
    sbm = SbmParams(n=30, k_comm=2, c=np.float32(6.0), eps=0)
    assert type(sbm.c) is float and type(sbm.eps) is float


# the average degree must also exceed 1, so it stays out of EVERY's
# accepted values, which go down to 0.5
@pytest.mark.parametrize("bad", list(BAD))
def test_bad_critical_epsilon_degree_rejected(bad):
    # a string or None raised a raw TypeError, an array a raw ValueError
    with pytest.raises(InvalidParams, match="finite"):
        critical_epsilon(BAD[bad], 2)


@pytest.mark.parametrize("good", [16, 16.0, np.float32(16.0), np.int64(16), np.array(16.0)])
def test_critical_epsilon_takes_any_real_scalar(good):
    assert critical_epsilon(good, 2) == critical_epsilon(16.0, 2)
