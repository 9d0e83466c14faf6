"""Model comparison: information criteria, likelihood-ratio-per-observation
(Vuong) tests for non-nested models, and fitted count profiles.

The Vuong statistic is sqrt(n) * mean(m_i) / sd(m_i) with m_i the
per-observation log-likelihood ratio between two fitted models and sd using
the n-1 divisor.  Large positive values favor the first model; the reported
p-value is the one-sided upper tail of the standard normal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import erfc

from . import __version__
from .data import Dataset
from .fitting import FitResult
from .frbinom import pmf_batch
from .likelihood import link_fb, per_obs_loglik, zinb2_logpmf, zinb_logpmf, zip_logpmf

__all__ = [
    "VuongResult",
    "aic",
    "comparison_report",
    "comparison_table",
    "profile_distribution",
    "vuong_p_value",
    "vuong_statistic",
    "vuong_test",
]


def aic(loglik: float, n_params: int) -> float:
    """Akaike information criterion, 2*k - 2*loglik."""
    if n_params < 1 or n_params != int(n_params):
        raise ValueError("n_params must be a positive integer")
    return 2.0 * n_params - 2.0 * float(loglik)


def vuong_p_value(statistic: float) -> float:
    """One-sided upper-tail normal p-value for a Vuong statistic."""
    return 0.5 * erfc(statistic / math.sqrt(2.0))


def vuong_statistic(loglik_a: np.ndarray, loglik_b: np.ndarray) -> tuple[float, float, float]:
    """Return (statistic, mean_ratio, sd_ratio) from per-observation vectors.

    sd_ratio of exactly zero means the two models are observationally
    identical on this dataset and the statistic is undefined (NaN).
    """
    la = np.asarray(loglik_a, dtype=float)
    lb = np.asarray(loglik_b, dtype=float)
    if la.shape != lb.shape or la.ndim != 1:
        raise ValueError("per-observation vectors must be 1-d with equal length")
    n = la.shape[0]
    if n < 2:
        raise ValueError("need at least 2 observations")
    m = la - lb
    mean = float(np.mean(m))
    sd = float(np.std(m, ddof=1))
    if sd == 0.0:
        return math.nan, mean, 0.0
    return math.sqrt(n) * mean / sd, mean, sd


@dataclass(frozen=True)
class VuongResult:
    model_a: str
    model_b: str
    statistic: float
    p_value: float
    n: int
    mean_ratio: float
    sd_ratio: float
    identical_models: bool

    def to_json_dict(self) -> dict:
        def clean(x):
            return None if not math.isfinite(x) else float(x)

        return {
            "model_a": self.model_a,
            "model_b": self.model_b,
            "statistic": clean(self.statistic),
            "p_value_a_over_b": clean(self.p_value),
            "n": self.n,
            "mean_ratio": clean(self.mean_ratio),
            "sd_ratio": clean(self.sd_ratio),
            "identical_models": self.identical_models,
        }


def _per_obs(results: Sequence[FitResult], dataset: Dataset) -> list[np.ndarray]:
    """Each fit's per-observation log-likelihood, once every fit is known to
    carry the dataset's digest."""
    digest = dataset.digest()
    for r in results:
        if r.dataset_digest != digest:
            raise ValueError(
                f"fit for model {r.model!r} carries digest {r.dataset_digest[:12]}..., "
                f"dataset has {digest[:12]}...; refusing to compare across datasets"
            )
    return [
        per_obs_loglik(r.model, r.coefficients.values, dataset, N=r.N) for r in results
    ]


def _vuong_result(model_a: str, model_b: str, la: np.ndarray, lb: np.ndarray) -> VuongResult:
    stat, mean, sd = vuong_statistic(la, lb)
    identical = sd == 0.0
    return VuongResult(
        model_a=model_a,
        model_b=model_b,
        statistic=stat,
        p_value=math.nan if identical else vuong_p_value(stat),
        n=la.shape[0],
        mean_ratio=mean,
        sd_ratio=sd,
        identical_models=identical,
    )


def vuong_test(
    result_a: FitResult, result_b: FitResult, dataset: Dataset
) -> VuongResult:
    """Vuong test between two fitted models on the dataset they were fit to.

    Both results must carry the digest of this dataset; comparing fits from
    different data is a hard error, not a warning.
    """
    la, lb = _per_obs((result_a, result_b), dataset)
    return _vuong_result(result_a.model, result_b.model, la, lb)


def profile_distribution(
    result: FitResult, dataset: Dataset, max_count: int | None = None
) -> dict:
    """Fitted count distribution averaged over the design rows.

    Returns counts 0..K, the mean fitted probability of each count, and the
    mass beyond K (zero for the bounded model, positive in general for the
    unbounded baselines).
    """
    model = result.model
    theta = result.coefficients.values
    X, n = dataset.X, dataset.n
    if model == "fb":
        N = result.N if result.N is not None else dataset.N
        K = N if max_count is None else min(int(max_count), N)
        p, H, cc = link_fb(X, theta)
        rows = pmf_batch(N, p, H, cc)
        fitted = rows.mean(axis=0)[: K + 1]
        tail = float(max(0.0, 1.0 - fitted.sum()))
    else:
        K = dataset.N if max_count is None else int(max_count)
        logpmf = {"zip": zip_logpmf, "zinb": zinb_logpmf, "zinb2": zinb2_logpmf}[model]
        fitted = np.array([np.exp(logpmf(np.full(n, k), X, theta)).mean() for k in range(K + 1)])
        tail = float(max(0.0, 1.0 - fitted.sum()))
    counts = np.bincount(dataset.y.astype(int), minlength=K + 1)[: K + 1]
    return {
        "model": model,
        "counts": list(range(K + 1)),
        "fitted": [float(v) for v in fitted],
        "tail_mass": tail,
        "empirical": [float(c) / n for c in counts],
    }


def comparison_report(results: Sequence[FitResult], dataset: Dataset) -> dict:
    """AIC leaderboard plus all pairwise Vuong tests for fits on one dataset."""
    if len(results) < 1:
        raise ValueError("need at least one fitted model")
    models = [r.model for r in results]
    if len(set(models)) != len(models):
        raise ValueError("one fit per model; duplicate model names given")
    ordered = sorted(results, key=lambda r: r.aic)
    best_aic = ordered[0].aic
    leaderboard = [
        {
            "model": r.model,
            "loglik": float(r.loglik),
            "d": r.d,
            "aic": float(r.aic),
            "delta_aic": float(r.aic - best_aic),
            "converged": bool(r.converged),
        }
        for r in ordered
    ]
    # one per-observation vector per fit, shared by every pair it is in
    per_obs = _per_obs(results, dataset)
    pairwise = []
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            pairwise.append(
                _vuong_result(
                    results[i].model, results[j].model, per_obs[i], per_obs[j]
                ).to_json_dict()
            )
    return {
        "artifact": "comparison",
        "tool_version": __version__,
        "n": dataset.n,
        "dataset_digest": dataset.digest(),
        "leaderboard": leaderboard,
        "vuong": pairwise,
    }


def comparison_table(report: dict) -> str:
    """Plain-text rendering of a comparison report."""
    lines = [
        f"{'model':8s}{'loglik':>12s}{'d':>4s}{'aic':>12s}{'delta':>9s}  converged",
        "-" * 56,
    ]
    for row in report["leaderboard"]:
        lines.append(
            f"{row['model']:8s}{row['loglik']:12.4f}{row['d']:4d}"
            f"{row['aic']:12.4f}{row['delta_aic']:9.4f}  {row['converged']}"
        )
    if report["vuong"]:
        lines.append("")
        lines.append(f"{'pair':16s}{'statistic':>11s}{'p(one-sided)':>14s}")
        lines.append("-" * 41)
        for v in report["vuong"]:
            stat = v["statistic"]
            p = v["p_value_a_over_b"]
            pair = f"{v['model_a']} vs {v['model_b']}"
            if v["identical_models"]:
                lines.append(f"{pair:16s}{'identical':>11s}{'-':>14s}")
            else:
                lines.append(f"{pair:16s}{stat:11.4f}{p:14.4f}")
    return "\n".join(lines)
