"""Toolkit for the L1-Wasserstein empirical CLT of stationary sequences.

Generate stationary dependent sequences, compute sqrt(n) * d1(F_n, F_Y)
exactly, evaluate the summability conditions governing the Gaussian limit,
sample the limiting Gaussian functional, and compare finite-n statistics
against the limit.
"""
from .errors import DivergenceError, NumericalError, ValidationError
from .models import (
    DistributionModel,
    Exponential,
    ParetoTail,
    Tabulated,
    Uniform,
    model_from_dict,
    power_pushforward,
)
from .transport import (
    ExtendedReal,
    as_sorted_sample,
    lambda21,
    quantile_tail_integral,
    sqrt_tail_integral,
    w1_sample_vs_model,
    w1_two_samples,
)
from .processes import (
    CausalLinear,
    DoublingMap,
    GeometricCoeffs,
    IID,
    IntermittentMap,
    Path,
    PolynomialCoeffs,
    generate,
    generate_batch,
    spawn_rng,
    tabulate_cdf,
)
from .conditions import (
    AlphaPolynomial,
    ConditionReport,
    ConstantBound,
    PhiGeometric,
    alpha_forms_pair,
    check_alpha_condition,
    check_intermittent_threshold,
    check_linear_conditions,
    check_phi_condition,
    lag_cutoff,
)
from .limitlaw import (
    CovarianceGrid,
    PsdRepair,
    StatisticSample,
    brownian_bridge_oracle,
    covariance_dependent,
    covariance_iid,
    quantile_grid,
    sample_limit_functional,
    variance_length_grid,
)
from .harness import (
    ComparisonReport,
    ExperimentConfig,
    ProbeReport,
    compare_distributions,
    divergence_probe,
    ks_two_sample,
    run_clt_experiment,
)

__version__ = "0.1.0"
