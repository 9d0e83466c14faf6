"""Monte-Carlo study of the regression estimator.

Each replication draws an intercept-free design with k i.i.d. Uniform(-2, 2)
covariate columns, pushes it through the three links, samples responses by
inverse CDF, and refits under a box constraint.  Bias is mean(estimate) -
truth across surviving replications; spread is the sample standard deviation
(n-1 divisor).  Replications are independent, seeded as (seed, N, n, index),
and run one after another in index order.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .data import Dataset
from .fitting import FitConfig, fit
from .likelihood import link_fb

__all__ = ["SimSpec", "SimReport", "generate", "run_study"]


@dataclass(frozen=True)
class SimSpec:
    """Study design: truth, sample geometry, and fitting protocol."""

    theta_true: tuple[float, ...]
    n: int
    N: int
    replications: int = 20
    k: int = 2
    box: float = 5.0
    seed: int = 0
    n_starts: int = 1

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.box <= 0:
            raise ValueError("box must be > 0")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        theta = tuple(float(v) for v in self.theta_true)
        if len(theta) != 3 * self.k:
            raise ValueError(
                f"theta_true needs 3*k = {3 * self.k} components, got {len(theta)}"
            )
        if not all(math.isfinite(v) for v in theta):
            raise ValueError("theta_true must be finite")
        object.__setattr__(self, "theta_true", theta)

    @property
    def coef_names(self) -> tuple[str, ...]:
        cols = [f"x{j + 1}" for j in range(self.k)]
        return tuple(
            f"{block}:{c}" for block in ("psi", "eta", "nu") for c in cols
        )

    def to_dict(self) -> dict:
        return {
            "theta_true": list(self.theta_true),
            "n": self.n,
            "N": self.N,
            "replications": self.replications,
            "k": self.k,
            "box": self.box,
            "seed": self.seed,
            "n_starts": self.n_starts,
        }


def generate(spec: SimSpec, replication_index: int) -> Dataset:
    """Draw one replication's dataset, deterministic in (seed, N, n, index)."""
    if not 0 <= replication_index:
        raise ValueError("replication_index must be >= 0")
    rng = np.random.default_rng(
        [spec.seed, spec.N, spec.n, replication_index]
    )
    X = rng.uniform(-2.0, 2.0, (spec.n, spec.k))
    theta = np.asarray(spec.theta_true, dtype=float)
    p, H, cc = link_fb(X, theta)
    from .frbinom import pmf_batch

    rows = pmf_batch(spec.N, p, H, cc)
    cdf = np.cumsum(rows, axis=1)
    u = rng.uniform(size=spec.n)
    y = np.minimum((cdf < u[:, None]).sum(axis=1), spec.N)
    return Dataset(
        y=y.astype(float),
        X=X,
        column_names=tuple(f"x{j + 1}" for j in range(spec.k)),
        N=spec.N,
        has_intercept=False,
    )


@dataclass(frozen=True)
class SimReport:
    """Aggregated study outcome.

    estimates holds one row per successful replication in replication order;
    se is None when fewer than two replications survive.  elapsed_seconds is
    deliberately kept out of the JSON payload so identical runs serialize to
    identical bytes.
    """

    spec: SimSpec
    estimates: tuple[tuple[float, ...], ...]
    converged: tuple[bool, ...]
    failures: tuple[dict, ...]
    elapsed_seconds: float

    @property
    def n_succeeded(self) -> int:
        return len(self.estimates)

    @property
    def bias(self) -> tuple[float, ...] | None:
        if not self.estimates:
            return None
        est = np.asarray(self.estimates)
        truth = np.asarray(self.spec.theta_true)
        return tuple(float(v) for v in est.mean(axis=0) - truth)

    @property
    def se(self) -> tuple[float, ...] | None:
        if len(self.estimates) < 2:
            return None
        est = np.asarray(self.estimates)
        return tuple(float(v) for v in est.std(axis=0, ddof=1))

    def to_json_dict(self) -> dict:
        return {
            "artifact": "sim_report",
            "tool_version": __version__,
            "spec": self.spec.to_dict(),
            "coef_names": list(self.spec.coef_names),
            "n_succeeded": self.n_succeeded,
            "n_failed": len(self.failures),
            "failures": [dict(f) for f in self.failures],
            "converged": list(self.converged),
            "estimates": [list(row) for row in self.estimates],
            "bias": None if self.bias is None else list(self.bias),
            "se": None if self.se is None else list(self.se),
        }

    def text_table(self) -> str:
        lines = [
            f"n={self.spec.n}  N={self.spec.N}  replications={self.spec.replications}  "
            f"succeeded={self.n_succeeded}  elapsed={self.elapsed_seconds:.1f}s",
            "",
            f"{'coefficient':14s}{'true':>8s}{'bias':>9s}{'s.e.':>9s}",
            "-" * 40,
        ]
        bias = self.bias
        se = self.se
        for i, name in enumerate(self.spec.coef_names):
            b = f"{bias[i]:9.3f}" if bias is not None else "        -"
            s = f"{se[i]:9.3f}" if se is not None else "        -"
            lines.append(f"{name:14s}{self.spec.theta_true[i]:8.2f}{b}{s}")
        if self.failures:
            lines.append("")
            lines.append(f"failed replications: {[f['replication'] for f in self.failures]}")
        return "\n".join(lines)


def _fit_one(spec: SimSpec, rep: int) -> dict:
    dataset = generate(spec, rep)
    config = FitConfig(
        n_starts=spec.n_starts,
        box=spec.box,
        seed=spec.seed,
        compute_hessian=False,
    )
    result = fit("fb", dataset, config)
    values = result.coefficients.values
    if not (np.all(np.isfinite(values)) and math.isfinite(result.loglik)):
        raise ArithmeticError("non-finite estimate or log-likelihood")
    return {
        "estimate": tuple(float(v) for v in values),
        "converged": bool(result.converged),
    }


def run_study(spec: SimSpec) -> SimReport:
    """Run all replications in order and aggregate; failures are counted, not fatal."""
    t0 = time.perf_counter()
    outcomes: list[dict] = []
    failures: list[dict] = []
    for rep in range(spec.replications):
        try:
            outcomes.append(_fit_one(spec, rep))
        except Exception as exc:  # noqa: BLE001 - replication isolation is the point
            failures.append({"replication": rep, "error": f"{type(exc).__name__}: {exc}"})
    return SimReport(
        spec=spec,
        estimates=tuple(out["estimate"] for out in outcomes),
        converged=tuple(out["converged"] for out in outcomes),
        failures=tuple(failures),
        elapsed_seconds=time.perf_counter() - t0,
    )
