"""Regression modeling for zero-inflated counts built on the fractional binomial
distribution, with zero-inflated Poisson / negative binomial baselines,
maximum-likelihood fitting, model comparison, and a simulation harness."""

__version__ = "0.1.0"

from .frbinom import (
    BRUTE_FORCE_MAX_N,
    FbParams,
    FbParamsNatural,
    FeasibilityError,
    OnesSet,
    PmfTable,
    c_max,
    config_prob,
    joint_ones_prob,
    mean,
    pmf,
    pmf_batch,
    pmf_bruteforce,
    sample,
    to_constrained,
    variance_asymptotic,
    variance_exact,
)
from .data import ColumnSpec, DataError, Dataset, RankDeficiencyError, load_csv
from .likelihood import CoefVector, MODELS, coef_dim, link_fb, loglik_and_score
from .likelihood import per_obs_loglik, total_loglik
from .fitting import FitConfig, FitError, FitResult, fit, wald_inference
from .compare import (
    VuongResult,
    aic,
    comparison_report,
    profile_distribution,
    vuong_p_value,
    vuong_statistic,
    vuong_test,
)
from .simulate import SimReport, SimSpec, generate, run_study

__all__ = [
    "BRUTE_FORCE_MAX_N",
    "CoefVector",
    "ColumnSpec",
    "DataError",
    "Dataset",
    "FbParams",
    "FbParamsNatural",
    "FeasibilityError",
    "FitConfig",
    "FitError",
    "FitResult",
    "MODELS",
    "OnesSet",
    "PmfTable",
    "RankDeficiencyError",
    "SimReport",
    "SimSpec",
    "VuongResult",
    "__version__",
    "aic",
    "c_max",
    "coef_dim",
    "comparison_report",
    "config_prob",
    "fit",
    "generate",
    "joint_ones_prob",
    "link_fb",
    "load_csv",
    "loglik_and_score",
    "mean",
    "per_obs_loglik",
    "pmf",
    "pmf_batch",
    "pmf_bruteforce",
    "profile_distribution",
    "run_study",
    "sample",
    "to_constrained",
    "total_loglik",
    "variance_asymptotic",
    "variance_exact",
    "vuong_p_value",
    "vuong_statistic",
    "vuong_test",
    "wald_inference",
]
