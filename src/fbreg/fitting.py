"""Numerical maximum-likelihood fitting in the unconstrained coefficient space.

Strategy: one L-BFGS-B run per start on the analytic score
(``likelihood.loglik_and_score``, one fused value-and-score call per step),
stopped by its own projected-gradient test at gradient_tolerance.  The fit
returns the best start, or among starts tied with it to rounding the one with
the smallest projected gradient, and is converged when that gradient's 2-norm
is below gradient_tolerance * sqrt(d), read off the score L-BFGS-B already
holds.  The observed information uses central differences of the score.  An optional
symmetric box [-B, B]^d is passed to L-BFGS-B as bounds.  Multi-start is
sequential and fully deterministic given the seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np
from scipy import optimize
from scipy.special import erfc

from . import __version__
from .data import Dataset
from .likelihood import CoefVector, MODELS, coef_dim, loglik_and_score

__all__ = [
    "FitConfig",
    "FitError",
    "FitResult",
    "fit",
    "numerical_gradient",
    "numerical_hessian",
    "wald_inference",
]

# substitute for non-finite objective values so line searches can back off
_HUGE = 1e18


class FitError(RuntimeError):
    """No start produced a usable likelihood value."""


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings.

    box, when set to B > 0, constrains every coefficient to [-B, B]
    (simulation protocol); None leaves the space unconstrained (data
    analysis).  The first start is always the zero vector; remaining starts
    are drawn uniformly from [-start_scale, start_scale]^d.
    finite_difference_step sets the per-coordinate step
    finite_difference_step * (1 + |theta_i|) of the score differences behind
    the observed information.
    """

    max_iterations: int = 2000
    gradient_tolerance: float = 1e-5
    n_starts: int = 3
    start_scale: float = 2.0
    box: float | None = None
    finite_difference_step: float = 1e-5
    seed: int = 0
    compute_hessian: bool = True

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("gradient_tolerance", "finite_difference_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.box is not None and self.box <= 0:
            raise ValueError("box bound must be > 0")

    def to_dict(self) -> dict:
        return {
            "max_iterations": self.max_iterations,
            "gradient_tolerance": self.gradient_tolerance,
            "n_starts": self.n_starts,
            "start_scale": self.start_scale,
            "box": self.box,
            "finite_difference_step": self.finite_difference_step,
            "seed": self.seed,
            "compute_hessian": self.compute_hessian,
        }


def numerical_gradient(f: Callable, theta, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient with per-coordinate step h_i = step*(1+|theta_i|).

    A non-finite stencil value triggers one retry with the step shrunk by 10;
    if that also fails the coordinate is reported as an error.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.shape[0]):
        h = step * (1.0 + abs(theta[i]))
        for attempt in (h, h / 10.0):
            probe = theta.copy()
            probe[i] = theta[i] + attempt
            up = f(probe)
            probe[i] = theta[i] - attempt
            down = f(probe)
            if math.isfinite(up) and math.isfinite(down):
                grad[i] = (up - down) / (2.0 * attempt)
                break
        else:
            raise ArithmeticError(f"non-finite stencil around coordinate {i}")
    return grad


def numerical_hessian(f: Callable, theta, step: float = 1e-3) -> np.ndarray:
    """Central second differences, symmetrized as (H + H^T)/2.

    Uses a larger default step than the gradient because second differences
    amplify objective noise by 1/h^2.
    """
    theta = np.asarray(theta, dtype=float)
    d = theta.shape[0]
    h = step * (1.0 + np.abs(theta))
    H = np.empty((d, d))

    def eval_at(*pairs):
        probe = theta.copy()
        for idx, delta in pairs:
            probe[idx] += delta
        return f(probe)

    f0 = eval_at()
    if not math.isfinite(f0):
        raise ArithmeticError("objective non-finite at expansion point")
    for i in range(d):
        for scale in (1.0, 0.1):
            hi = h[i] * scale
            up = eval_at((i, hi))
            down = eval_at((i, -hi))
            if math.isfinite(up) and math.isfinite(down):
                H[i, i] = (up - 2.0 * f0 + down) / (hi * hi)
                break
        else:
            raise ArithmeticError(f"non-finite stencil on diagonal {i}")
        for j in range(i + 1, d):
            for scale in (1.0, 0.1):
                hi, hj = h[i] * scale, h[j] * scale
                pp = eval_at((i, hi), (j, hj))
                pm = eval_at((i, hi), (j, -hj))
                mp = eval_at((i, -hi), (j, hj))
                mm = eval_at((i, -hi), (j, -hj))
                if all(math.isfinite(v) for v in (pp, pm, mp, mm)):
                    H[i, j] = H[j, i] = (pp - pm - mp + mm) / (4.0 * hi * hj)
                    break
            else:
                raise ArithmeticError(f"non-finite stencil at pair ({i}, {j})")
    return 0.5 * (H + H.T)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one maximum-likelihood fit.

    hessian holds symmetrized central differences of the negative score at
    the optimum (the observed information); std_errors/z_stats/p_values are
    filled by wald_inference and contain NaN where the information matrix is
    not positive definite.
    """

    model: str
    coefficients: CoefVector
    loglik: float
    converged: bool
    n: int
    N: int | None
    n_evaluations: int
    column_names: tuple[str, ...]
    has_intercept: bool
    dataset_digest: str
    config: FitConfig
    hessian: np.ndarray | None = None
    std_errors: np.ndarray | None = None
    z_stats: np.ndarray | None = None
    p_values: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return int(self.coefficients.values.shape[0])

    @property
    def aic(self) -> float:
        return 2.0 * self.d - 2.0 * self.loglik

    def to_json_dict(self) -> dict:
        def clean_vec(v):
            if v is None:
                return None
            return [None if not math.isfinite(x) else float(x) for x in np.asarray(v)]

        blocks = {k: clean_vec(b) for k, b in self.coefficients.blocks().items()}
        return {
            "artifact": "fit_result",
            "tool_version": __version__,
            "model": self.model,
            "m": self.coefficients.m,
            "d": self.d,
            "coefficients": clean_vec(self.coefficients.values),
            "blocks": blocks,
            "column_names": list(self.column_names),
            "has_intercept": self.has_intercept,
            "loglik": float(self.loglik),
            "aic": float(self.aic),
            "converged": bool(self.converged),
            "n": self.n,
            "N": self.N,
            "n_evaluations": self.n_evaluations,
            "std_errors": clean_vec(self.std_errors),
            "z_stats": clean_vec(self.z_stats),
            "p_values": clean_vec(self.p_values),
            "hessian": None
            if self.hessian is None
            else [clean_vec(row) for row in self.hessian],
            "diagnostics": self.diagnostics,
            "dataset_digest": self.dataset_digest,
            "config": self.config.to_dict(),
            "seed": self.config.seed,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FitResult":
        def vec(v):
            if v is None:
                return None
            return np.array([math.nan if x is None else float(x) for x in v])

        # keys FitConfig no longer has are dropped, such as the row-cache
        # switch and the simplex tolerance that older artifacts still carry
        known = {f.name for f in fields(FitConfig)}
        cfg_doc = {k: v for k, v in (doc.get("config") or {}).items() if k in known}
        cfg_doc["box"] = cfg_doc.get("box")
        config = FitConfig(**cfg_doc)
        hess = doc.get("hessian")
        return cls(
            model=doc["model"],
            coefficients=CoefVector(doc["model"], vec(doc["coefficients"]), m=doc["m"]),
            loglik=float(doc["loglik"]),
            converged=bool(doc["converged"]),
            n=int(doc["n"]),
            N=None if doc.get("N") is None else int(doc["N"]),
            n_evaluations=int(doc.get("n_evaluations", 0)),
            column_names=tuple(doc.get("column_names", ())),
            has_intercept=bool(doc.get("has_intercept", True)),
            dataset_digest=doc.get("dataset_digest", ""),
            config=config,
            hessian=None if hess is None else np.array([vec(r) for r in hess]),
            std_errors=vec(doc.get("std_errors")),
            z_stats=vec(doc.get("z_stats")),
            p_values=vec(doc.get("p_values")),
            diagnostics=dict(doc.get("diagnostics", {})),
        )

    def coefficient_table(self) -> str:
        """Aligned text table: one row per design column, one 'estimate (p)'
        cell per coefficient block; scalar dispersion gets its own row."""
        blocks = self.coefficients.blocks()
        names = list(self.column_names) or [f"x{j}" for j in range(self.coefficients.m)]
        p_vals = self.p_values

        def cell(block_name, row_idx):
            offset = 0
            for bn, bv in blocks.items():
                if bn == block_name:
                    break
                offset += len(bv)
            est = blocks[block_name][row_idx]
            if p_vals is None or not math.isfinite(p_vals[offset + row_idx]):
                return f"{est:9.4f} (  -  )"
            return f"{est:9.4f} ({p_vals[offset + row_idx]:5.3f})"

        column_blocks = [bn for bn in blocks if bn != "log_theta"]
        widths = 20
        header = "column".ljust(14) + "".join(bn.ljust(widths) for bn in column_blocks)
        lines = [header, "-" * len(header)]
        for r, cname in enumerate(names):
            row = cname.ljust(14)
            for bn in column_blocks:
                row += (cell(bn, r) if r < len(blocks[bn]) else "").ljust(widths)
            lines.append(row)
        # scalar dispersion has no design row of its own
        if "log_theta" in blocks:
            lines.append("log_theta".ljust(14) + cell("log_theta", 0))
        lines.append("")
        lines.append(
            f"model={self.model}  n={self.n}  loglik={self.loglik:.4f}  "
            f"aic={self.aic:.4f}  converged={self.converged}"
        )
        return "\n".join(lines)


def _projected_gradient(grad: np.ndarray, theta: np.ndarray, box: float | None) -> np.ndarray:
    # minimizing: at an active bound, an outward-pointing descent direction is
    # inadmissible, so that component does not count against convergence
    if box is None:
        return grad
    eps = 1e-9 * (1.0 + box)
    pinned = ((theta <= -box + eps) & (grad > 0)) | ((theta >= box - eps) & (grad < 0))
    return np.where(pinned, 0.0, grad)


def fit(
    model: str,
    dataset: Dataset,
    config: FitConfig | None = None,
    N: int | None = None,
    eval_callback: Callable[[np.ndarray, float], None] | None = None,
) -> FitResult:
    """Maximize the log-likelihood; return the best local optimum over all starts.

    Deterministic given config.seed.  converged reflects the projected
    gradient norm at the returned point, not optimizer self-reports.  A start
    whose objective is non-finite everywhere is recorded as failed; if every
    start fails, FitError carries the diagnostics.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    config = config or FitConfig()
    m = dataset.X.shape[1]
    d = coef_dim(model, m)
    n_bound = dataset.N if N is None else int(N)
    box = config.box

    n_evaluations = 0

    def clip(theta: np.ndarray) -> np.ndarray:
        return np.clip(theta, -box, box) if box is not None else theta

    def objective_and_gradient(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal n_evaluations
        th = clip(theta)
        value, score = loglik_and_score(model, th, dataset, N=n_bound)
        if math.isfinite(value) and np.all(np.isfinite(score)):
            neg, grad = -value, -score
        else:
            # a flat, huge trial point makes the line search back off
            neg, grad = _HUGE, np.zeros(d)
        n_evaluations += 1
        if eval_callback is not None:
            eval_callback(np.array(th, dtype=float), -neg)
        return neg, grad

    def gradient(x: np.ndarray) -> np.ndarray:
        neg, grad = objective_and_gradient(x)
        if neg >= _HUGE:
            raise ArithmeticError("non-finite log-likelihood or score")
        return grad

    def score_hessian(x: np.ndarray) -> np.ndarray:
        # column j: central difference of the gradient along coordinate j,
        # over the distance between the probes after the box clipped them
        cols = []
        for j in range(d):
            step = np.zeros(d)
            step[j] = config.finite_difference_step * (1.0 + abs(x[j]))
            up, down = clip(x + step), clip(x - step)
            cols.append((gradient(up) - gradient(down)) / (up[j] - down[j]))
        hess = np.column_stack(cols)
        return 0.5 * (hess + hess.T)

    rng = np.random.default_rng(config.seed)
    starts = [np.zeros(d)]
    for _ in range(config.n_starts - 1):
        starts.append(rng.uniform(-config.start_scale, config.start_scale, d))

    # L-BFGS-B stops once the max-norm of its projected gradient is at most
    # gtol, which bounds the 2-norm tested below by gradient_tolerance*sqrt(d).
    # ftol=0 turns off its stop on small objective decreases; maxcor=20 keeps
    # more curvature pairs than the default 10, for fewer steps to that test.
    options = {
        "maxiter": config.max_iterations,
        "ftol": 0.0,
        "gtol": config.gradient_tolerance,
        "maxcor": 20,
    }
    finished = []
    start_reports = []
    for s_idx, theta0 in enumerate(starts):
        # L-BFGS-B clips theta0 into the bounds and keeps every iterate there
        before = n_evaluations
        res = optimize.minimize(
            objective_and_gradient,
            theta0,
            method="L-BFGS-B",
            jac=True,
            bounds=None if box is None else [(-box, box)] * d,
            options=options,
        )
        fun = float(res.fun)
        report = {
            "start": s_idx,
            "loglik": -fun if fun < _HUGE else None,
            "evaluations": n_evaluations - before,
            "message": str(res.message),
        }
        start_reports.append(report)
        if fun >= _HUGE:
            report["failed"] = True
        else:
            # res.jac is the score the fused call returned at res.x
            gnorm = float(np.linalg.norm(_projected_gradient(res.jac, res.x, box)))
            finished.append((fun, gnorm, res.x))

    if not finished:
        raise FitError(f"all {config.n_starts} starts failed; reports: {start_reports}")

    # L-BFGS-B can stop above gtol when the step it still needs gains less
    # than the log-likelihood's rounding: 3 of 804 default fits on the
    # 540-row categorical design (seeds 1-200 and 7919, four models) did, each
    # within 4 ulps of a start that passed.  Starts within 1e-12 relative of
    # the best value count as tied, and the one nearest a stationary point
    # wins the tie.
    top = min(fun for fun, _, _ in finished)
    fun, gnorm, x_hat = min(
        (f for f in finished if f[0] <= top + 1e-12 * (1.0 + abs(top))),
        key=lambda f: f[1],
    )
    converged = gnorm < config.gradient_tolerance * math.sqrt(d)
    diag_warnings: list[str] = []
    boundary: list[str] = []
    limit = box * 0.999 if box is not None else 15.0
    coefficients = CoefVector(model, x_hat, m=m)
    names = _coef_names(coefficients, dataset.column_names)
    for i, v in enumerate(x_hat):
        if abs(v) >= limit:
            boundary.append(names[i])
    if boundary:
        diag_warnings.append(
            "coefficients at or near the search boundary: " + ", ".join(boundary)
        )

    hessian = None
    if config.compute_hessian:
        try:
            hessian = score_hessian(x_hat)
        except ArithmeticError as exc:
            diag_warnings.append(f"hessian unavailable: {exc}")

    result = FitResult(
        model=model,
        coefficients=coefficients,
        loglik=-fun,
        converged=bool(converged),
        n=dataset.n,
        N=n_bound if model == "fb" else None,
        n_evaluations=n_evaluations,
        column_names=dataset.column_names,
        has_intercept=dataset.has_intercept,
        dataset_digest=dataset.digest(),
        config=config,
        hessian=hessian,
        diagnostics={
            "starts": start_reports,
            "warnings": diag_warnings,
            "boundary": boundary,
            "projected_gradient_norm": gnorm,
            "likelihood_cells": int(dataset.cells.counts.shape[0]),
        },
    )
    if config.compute_hessian:
        result = wald_inference(result)
    return result


def _coef_names(coefficients: CoefVector, column_names: Sequence[str]) -> list[str]:
    cols = list(column_names) or [f"x{j}" for j in range(coefficients.m)]
    names = []
    for bname, block in coefficients.blocks().items():
        if bname == "log_theta":
            names.append(bname)
        else:
            names.extend(f"{bname}:{c}" for c in cols[: len(block)])
    return names


def wald_inference(result: FitResult) -> FitResult:
    """Fill std_errors, z_stats, p_values from the observed information.

    The information matrix is the Hessian of the negative log-likelihood at
    the optimum.  A non-positive-definite information matrix yields NaN
    sentinels and a warning instead of failing the fit.
    """
    if result.hessian is None:
        raise ValueError("hessian required for Wald inference")
    info = np.asarray(result.hessian, dtype=float)
    d = info.shape[0]
    nan_vec = np.full(d, math.nan)
    diag = dict(result.diagnostics)
    warnings_list = list(diag.get("warnings", []))
    try:
        np.linalg.cholesky(info)
        cov = np.linalg.inv(info)
        variances = np.diag(cov).copy()
    except np.linalg.LinAlgError:
        warnings_list.append(
            "observed information is not positive definite; standard errors unavailable"
        )
        diag["warnings"] = warnings_list
        return replace(
            result,
            std_errors=nan_vec,
            z_stats=nan_vec.copy(),
            p_values=nan_vec.copy(),
            diagnostics=diag,
        )
    bad = variances <= 0
    variances[bad] = math.nan
    se = np.sqrt(variances)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = result.coefficients.values / se
        p = erfc(np.abs(z) / math.sqrt(2.0))
    if np.any(bad):
        warnings_list.append("nonpositive variance estimates for some coefficients")
        diag["warnings"] = warnings_list
    unstable = np.isfinite(se) & (se > 1e3)
    if np.any(unstable):
        warnings_list.append(
            "near-singular information: very large standard errors; p-values unreliable"
        )
        diag["warnings"] = warnings_list
    return replace(result, std_errors=se, z_stats=z, p_values=p, diagnostics=diag)
