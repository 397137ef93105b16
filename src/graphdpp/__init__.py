"""Determinantal node sampling and bandlimited signal recovery on graphs.

Samples graph nodes through determinantal point processes: the exact
projector-kernel sampler when the Fourier basis is computable, and
absorbing loop-erased random walks when it is not, together with greedy
and leverage-score baselines, reweighted recovery solvers, and SBM
experiment protocols.
"""

from .dpp import (
    MarginalKernel,
    SamplingSet,
    dpp_sample,
    dpp_weight_matrix,
    ideal_lowpass_kernel,
    inclusion_probability,
    sample_size_moments,
    wilson_kernel_explicit,
)
from .estimation import (
    PolynomialFilter,
    estimate_leverage_scores,
    estimate_pi,
    fit_sqrt_filter,
    gaussian_sketch,
)
from .graphs import (
    Graph,
    LaplacianView,
    SbmParams,
    critical_epsilon,
    laplacian,
    sbm_generate,
)
from .recovery import (
    Measurement,
    RecoveryParams,
    measure,
    recover_known_basis,
    recover_known_basis_weighted,
    recover_unknown_basis,
    relative_error,
)
from .selection import (
    ObjectiveKind,
    greedy_select,
    iid_leverage_sample,
    maxvol_select,
    singular_values_restriction,
)
from .spectral import (
    SpectralBasis,
    apply_filter,
    eigendecompose,
    fourier_basis_k,
    generate_bandlimited_signal,
    largest_eigenvalue_estimate,
)
from .wilson import expected_sample_size, tune_q, wilson_sample

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "LaplacianView",
    "SbmParams",
    "MarginalKernel",
    "SamplingSet",
    "SpectralBasis",
    "PolynomialFilter",
    "Measurement",
    "RecoveryParams",
    "ObjectiveKind",
    "sbm_generate",
    "critical_epsilon",
    "laplacian",
    "eigendecompose",
    "fourier_basis_k",
    "generate_bandlimited_signal",
    "apply_filter",
    "largest_eigenvalue_estimate",
    "ideal_lowpass_kernel",
    "wilson_kernel_explicit",
    "dpp_sample",
    "inclusion_probability",
    "sample_size_moments",
    "dpp_weight_matrix",
    "wilson_sample",
    "expected_sample_size",
    "tune_q",
    "fit_sqrt_filter",
    "estimate_pi",
    "estimate_leverage_scores",
    "gaussian_sketch",
    "singular_values_restriction",
    "greedy_select",
    "maxvol_select",
    "iid_leverage_sample",
    "measure",
    "recover_known_basis",
    "recover_known_basis_weighted",
    "recover_unknown_basis",
    "relative_error",
]
