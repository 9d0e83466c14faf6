"""Per-observation log-probabilities and total log-likelihood for four models.

FB regression links each observation's (p, H, c_circ) to covariates through
logistic transforms of three linear predictors; the zero-inflated baselines
use a log link for the count mean and a logistic link for the zero-inflation
probability.  Everything is computed in log space with clipped linear
predictors, so extreme coefficients degrade gracefully instead of overflowing.

Parameter packing per design with m columns:
    FB     Theta = [psi (m) | eta (m) | nu (m)]          d = 3m
    ZIP    Theta = [beta (m) | gamma (m)]                d = 2m
    ZINB   Theta = [beta (m) | gamma (m) | log theta]    d = 2m + 1
    ZINB2  Theta = [beta (m) | gamma (m) | alpha (m)]    d = 3m
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, expit, gammaln, log_expit

from . import frbinom
from .data import Dataset

__all__ = [
    "MODELS",
    "CoefVector",
    "coef_dim",
    "fb_logpmf",
    "link_fb",
    "per_obs_loglik",
    "total_loglik",
    "zinb2_logpmf",
    "zinb_logpmf",
    "zip_logpmf",
]

MODELS = ("fb", "zip", "zinb", "zinb2")

# linear predictors beyond this saturate exp/expit in float64 anyway
_PRED_CLIP = 700.0

# floor for probabilities entering log(); the FB pmf is strictly positive in
# the interior, so hitting the floor means the mass is below representability
_PROB_FLOOR = 1e-300


def coef_dim(model: str, m: int) -> int:
    """Length of the packed coefficient vector for a design with m columns."""
    if model == "fb" or model == "zinb2":
        return 3 * m
    if model == "zip":
        return 2 * m
    if model == "zinb":
        return 2 * m + 1
    raise ValueError(f"unknown model {model!r}")


@dataclass(frozen=True)
class CoefVector:
    """Packed coefficients for one model over a design with m columns."""

    model: str
    values: np.ndarray
    m: int

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("coefficients must be a 1-d vector")
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")
        expected = coef_dim(self.model, self.m)
        if vals.shape[0] != expected:
            raise ValueError(
                f"model {self.model!r} with m={self.m} needs {expected} coefficients, "
                f"got {vals.shape[0]}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def blocks(self) -> dict[str, np.ndarray]:
        """Named coefficient blocks in packing order."""
        v, m = self.values, self.m
        if self.model == "fb":
            return {"psi": v[:m], "eta": v[m : 2 * m], "nu": v[2 * m :]}
        if self.model == "zip":
            return {"beta": v[:m], "gamma": v[m:]}
        if self.model == "zinb":
            return {"beta": v[:m], "gamma": v[m : 2 * m], "log_theta": v[2 * m :]}
        return {"beta": v[:m], "gamma": v[m : 2 * m], "alpha": v[2 * m :]}


def _clip_predictor(eta: np.ndarray) -> np.ndarray:
    return np.clip(eta, -_PRED_CLIP, _PRED_CLIP)


def _linked_unit(eta: np.ndarray) -> np.ndarray:
    # logistic transform kept strictly inside (0, 1)
    return np.clip(expit(_clip_predictor(eta)), frbinom.LINK_EPS, 1.0 - frbinom.LINK_EPS)


def link_fb(X: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-observation (p, H, c_circ), each the logistic of its own predictor."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m = X.shape[1]
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (3 * m,):
        raise ValueError(f"need 3*m={3 * m} coefficients, got shape {theta.shape}")
    p = _linked_unit(X @ theta[:m])
    H = _linked_unit(X @ theta[m : 2 * m])
    c_circ = _linked_unit(X @ theta[2 * m :])
    return p, H, c_circ


def _fb_loglik_vector(y: np.ndarray, X: np.ndarray, theta: np.ndarray, N: int) -> np.ndarray:
    p, H, c_circ = link_fb(X, theta)
    rows = frbinom.pmf_batch(N, p, H, c_circ)
    probs = rows[np.arange(y.shape[0]), y]
    # pmf_batch's error is absolute, so tiny entries carry little relative
    # precision; recompute those observations' rows exactly (cached)
    for i in np.nonzero(probs < 1e-8)[0]:
        probs[i] = frbinom.pmf_row_exact(N, p[i], H[i], c_circ[i])[y[i]]
    return np.log(np.maximum(probs, _PROB_FLOOR))


def fb_logpmf(y, x, theta, N: int) -> float:
    """log P(B_N = y) at the linked parameters for one observation."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=np.int64))
    x_arr = np.atleast_2d(np.asarray(x, dtype=float))
    if np.any(y_arr > N):
        raise ValueError(
            f"response {int(y_arr.max())} exceeds N={N}; raise the N override"
        )
    if np.any(y_arr < 0):
        raise ValueError("response must be nonnegative")
    out = _fb_loglik_vector(y_arr, x_arr, np.asarray(theta, dtype=float), N)
    return float(out[0]) if np.ndim(y) == 0 else out


def _zip_loglik_vector(y: np.ndarray, X: np.ndarray, theta: np.ndarray) -> np.ndarray:
    m = X.shape[1]
    xb = _clip_predictor(X @ theta[:m])  # log mu
    g = _clip_predictor(X @ theta[m:])  # zero-inflation predictor
    mu = np.exp(xb)
    # y = 0: log(pi + (1-pi) e^-mu); y > 0: log(1-pi) + y log mu - mu - log y!
    zero_branch = np.logaddexp(log_expit(g), log_expit(-g) - mu)
    pos_branch = log_expit(-g) - mu + y * xb - gammaln(y + 1.0)
    return np.where(y == 0, zero_branch, pos_branch)


def _nb_logpmf_terms(y: np.ndarray, xb: np.ndarray, log_theta: np.ndarray) -> np.ndarray:
    # negative binomial with mean mu = e^xb and variance mu + mu^2/theta
    theta = np.exp(log_theta)
    log_ratio = xb - log_theta  # log(mu/theta)
    # log C(y+theta-1, y) = -log B(theta, y) - log y for y >= 1; the gammaln
    # difference form cancels to noise once log theta passes about 30
    y_pos = np.maximum(y, 1.0)
    log_coef = np.where(y >= 1.0, -betaln(theta, y_pos) - np.log(y_pos), 0.0)
    return (
        log_coef
        - theta * np.logaddexp(0.0, log_ratio)
        + y * (xb - np.logaddexp(log_theta, xb))
    )


def _zinb_loglik_vector(
    y: np.ndarray, X: np.ndarray, theta: np.ndarray, per_obs_theta: bool
) -> np.ndarray:
    m = X.shape[1]
    xb = _clip_predictor(X @ theta[:m])
    g = _clip_predictor(X @ theta[m : 2 * m])
    if per_obs_theta:
        log_theta = _clip_predictor(X @ theta[2 * m :])
    else:
        log_theta = np.full(y.shape, float(np.clip(theta[2 * m], -_PRED_CLIP, _PRED_CLIP)))
    nb = _nb_logpmf_terms(y, xb, log_theta)
    nb_zero = -np.exp(log_theta) * np.logaddexp(0.0, xb - log_theta)
    zero_branch = np.logaddexp(log_expit(g), log_expit(-g) + nb_zero)
    pos_branch = log_expit(-g) + nb
    return np.where(y == 0, zero_branch, pos_branch)


def zip_logpmf(y, x, theta) -> float:
    """log mass of the zero-inflated Poisson for one observation."""
    return _scalar_dispatch(_zip_loglik_vector, y, x, theta)


def zinb_logpmf(y, x, theta) -> float:
    """log mass of the zero-inflated negative binomial (scalar dispersion)."""
    return _scalar_dispatch(
        lambda yy, XX, tt: _zinb_loglik_vector(yy, XX, tt, per_obs_theta=False), y, x, theta
    )


def zinb2_logpmf(y, x, theta) -> float:
    """log mass of the zero-inflated negative binomial with linked dispersion."""
    return _scalar_dispatch(
        lambda yy, XX, tt: _zinb_loglik_vector(yy, XX, tt, per_obs_theta=True), y, x, theta
    )


def _scalar_dispatch(fn, y, x, theta):
    y_arr = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if np.any(y_arr < 0):
        raise ValueError("response must be nonnegative")
    x_arr = np.atleast_2d(np.asarray(x, dtype=float))
    out = fn(y_arr.astype(float), x_arr, np.asarray(theta, dtype=float))
    return float(out[0]) if np.ndim(y) == 0 else out


def per_obs_loglik(model: str, theta, dataset: Dataset, N: int | None = None) -> np.ndarray:
    """Vector of log-probabilities, one entry per observation."""
    theta = np.asarray(theta, dtype=float)
    m = dataset.X.shape[1]
    expected = coef_dim(model, m)
    if theta.shape != (expected,):
        raise ValueError(
            f"model {model!r} with m={m} needs {expected} coefficients, got {theta.shape}"
        )
    if model == "fb":
        n_bound = dataset.N if N is None else int(N)
        if int(dataset.y.max()) > n_bound:
            raise ValueError(
                f"response max {int(dataset.y.max())} exceeds N={n_bound}; raise the N override"
            )
        return _fb_loglik_vector(dataset.y, dataset.X, theta, n_bound)
    y = dataset.y.astype(float)
    if model == "zip":
        return _zip_loglik_vector(y, dataset.X, theta)
    if model == "zinb":
        return _zinb_loglik_vector(y, dataset.X, theta, per_obs_theta=False)
    if model == "zinb2":
        return _zinb_loglik_vector(y, dataset.X, theta, per_obs_theta=True)
    raise ValueError(f"unknown model {model!r}")


def total_loglik(model: str, theta, dataset: Dataset, N: int | None = None) -> float:
    """Sum of per-observation log-probabilities over the dataset."""
    return float(np.sum(per_obs_loglik(model, theta, dataset, N=N)))
