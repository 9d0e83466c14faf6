"""Per-observation log-probabilities and total log-likelihood for four models.

An observation's log-mass depends only on its (design row, count) pair, so
every public entry point evaluates the model once per distinct pair
(``Dataset.cells``): per-observation values are read back through the
cells' inverse map, and totals and scores weight each cell by its count.  A
design without repeated pairs has one cell per observation, in observation
order.

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

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln, log_expit

from . import frbinom
from .data import Dataset

__all__ = [
    "MODELS",
    "CoefVector",
    "coef_dim",
    "fb_logpmf",
    "link_fb",
    "loglik_and_score",
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


def _link_slope(v: np.ndarray) -> np.ndarray:
    # d v / d eta of _linked_unit: v (1 - v), and 0 where the clip holds v flat
    eps = frbinom.LINK_EPS
    return np.where((v > eps) & (v < 1.0 - eps), v * (1.0 - v), 0.0)


def _tail_dlog(N: int, y: int, linked: tuple[float, float, float]) -> np.ndarray:
    """d log P(y) / d (p, H, c_circ) by central differences of the exact row."""
    out = np.empty(3)
    for k, v in enumerate(linked):
        up, down = list(linked), list(linked)
        # a logit step of 1e-5, floored near 1, where v is spaced 1e-16 apart
        h = 1e-5 * v * max(1.0 - v, 1e-8)
        up[k], down[k] = v + h, v - h
        logs = [math.log(max(frbinom.pmf_row_exact(N, *at)[y], _PROB_FLOOR)) for at in (up, down)]
        out[k] = (logs[0] - logs[1]) / (up[k] - down[k])
    return out


def _fb_loglik_vector(y: np.ndarray, X: np.ndarray, theta: np.ndarray, N: int, slopes=False):
    """log P per observation; slopes adds d log P / d (psi, eta, nu), (n, 3)."""
    p, H, c_circ = link_fb(X, theta)
    if slopes:
        rows, drows = frbinom._pmf_rows(N, p, H, c_circ, tangents=True)
    else:
        rows = frbinom.pmf_batch(N, p, H, c_circ)
    obs = np.arange(y.shape[0])
    probs = rows[obs, y]
    if slopes:
        dlog = drows[:, obs, y] / np.where(probs > 0.0, probs, 1.0)
    # pmf_batch's error is absolute, so tiny entries carry little relative
    # precision; recompute those observations' rows exactly (cached)
    for i in np.nonzero(probs < 1e-8)[0]:
        linked = (p[i], H[i], c_circ[i])
        probs[i] = frbinom.pmf_row_exact(N, *linked)[y[i]]
        if slopes:
            # on the floor log P is flat
            dlog[:, i] = _tail_dlog(N, y[i], linked) if probs[i] >= _PROB_FLOOR else 0.0
    ll = np.log(np.maximum(probs, _PROB_FLOOR))
    if not slopes:
        return ll
    return ll, dlog.T * np.column_stack([_link_slope(v) for v in (p, H, c_circ)])


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


def _sum_below(y: np.ndarray, ratio: np.ndarray, term) -> np.ndarray:
    # sum_{k<y} term(k * ratio), elementwise over the integer counts y; k
    # runs in blocks that keep the (n, block) work array near 2 MB
    out = np.zeros(y.shape)
    top = int(y.max(initial=0.0))
    block = max(1, (1 << 18) // max(1, y.shape[0]))
    for lo in range(0, top, block):
        k = np.arange(lo, min(top, lo + block), dtype=float)
        out += np.where(k < y[:, None], term(k * ratio[:, None]), 0.0).sum(axis=1)
    return out


def _nb_logpmf_terms(y: np.ndarray, xb: np.ndarray, log_theta: np.ndarray) -> np.ndarray:
    # negative binomial with mean mu = e^xb and variance mu + mu^2/theta:
    # log C(y+theta-1, y) + theta log(theta/(theta+mu)) + y log(mu/(theta+mu))
    #   = sum_{k<y} log1p(k/theta) - log y! + y xb - (theta + y) log1p(mu/theta).
    # The gammaln and betaln differences cancel to noise at large theta;
    # this sum does not.
    log_rise = _sum_below(y, np.exp(-log_theta), np.log1p)
    return (
        log_rise
        - gammaln(y + 1.0)
        + y * xb
        - (np.exp(log_theta) + y) * np.logaddexp(0.0, xb - log_theta)
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


def _predictor_slope(eta: np.ndarray) -> np.ndarray:
    # 1 where _clip_predictor passes eta through, 0 where it holds it flat
    return (np.abs(eta) <= _PRED_CLIP).astype(float)


def _baseline_slopes(model, y, X, theta, ll) -> np.ndarray:
    """d ll / d (count, zero-inflation[, dispersion]) predictor per observation,
    given ll, the log mass at theta.  y = 0 splits by the posterior weight
    r = pi / P(0) of a structural zero."""
    m = X.shape[1]
    raw = [X @ theta[:m], X @ theta[m : 2 * m]]
    xb, g = (_clip_predictor(v) for v in raw)
    mu = np.exp(xb)
    pi = expit(g)
    r = np.exp(np.where(y == 0, log_expit(g) - ll, -np.inf))
    count_weight = np.where(y == 0, 1.0 - r, 1.0)
    if model == "zip":
        cols = [count_weight * (y - mu), r - pi]
    else:
        raw.append(X @ theta[2 * m :] if model == "zinb2" else np.full(y.shape, theta[2 * m]))
        log_theta = _clip_predictor(raw[2])
        shrink = expit(log_theta - xb)  # theta / (theta + mu)
        # theta (psi(y + theta) - psi(theta)) = sum_{k<y} theta/(theta + k);
        # the digamma difference cancels once theta is large next to y
        d_log_theta = (
            _sum_below(y, np.exp(-log_theta), lambda t: 1.0 / (1.0 + t))
            - np.exp(log_theta) * np.logaddexp(0.0, xb - log_theta)
            + (mu - y) * shrink
        )
        cols = [count_weight * (y - mu) * shrink, r - pi, count_weight * d_log_theta]
    return np.column_stack(cols) * np.column_stack([_predictor_slope(v) for v in raw])


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


def _checked(model: str, theta, dataset: Dataset, N: int | None):
    """theta as a float vector of the model's length, and the fb bound N."""
    theta = np.asarray(theta, dtype=float)
    m = dataset.X.shape[1]
    expected = coef_dim(model, m)
    if theta.shape != (expected,):
        raise ValueError(
            f"model {model!r} with m={m} needs {expected} coefficients, got {theta.shape}"
        )
    n_bound = dataset.N if N is None else int(N)
    if model == "fb" and int(dataset.y.max()) > n_bound:
        raise ValueError(
            f"response max {int(dataset.y.max())} exceeds N={n_bound}; raise the N override"
        )
    return theta, n_bound


def _cell_loglik(model: str, theta, dataset: Dataset, N: int | None, slopes=False):
    """log P per distinct (design row, count) cell of the dataset, with
    d log P / d linear predictors per cell when slopes is set."""
    theta, n_bound = _checked(model, theta, dataset, N)
    cells = dataset.cells
    if model == "fb":
        return _fb_loglik_vector(cells.y, cells.X, theta, n_bound, slopes=slopes)
    y = cells.y.astype(float)
    if model == "zip":
        ll = _zip_loglik_vector(y, cells.X, theta)
    else:
        ll = _zinb_loglik_vector(y, cells.X, theta, per_obs_theta=model == "zinb2")
    if not slopes:
        return ll
    return ll, _baseline_slopes(model, y, cells.X, theta, ll)


def per_obs_loglik(model: str, theta, dataset: Dataset, N: int | None = None) -> np.ndarray:
    """Vector of log-probabilities, one entry per observation."""
    return _cell_loglik(model, theta, dataset, N)[dataset.cells.inverse]


def total_loglik(model: str, theta, dataset: Dataset, N: int | None = None) -> float:
    """Sum of per-observation log-probabilities over the dataset."""
    # a pairwise sum rather than a dot product: with every count 1 it adds
    # the observations' values in their own order, as a sum over rows would
    return float(np.sum(dataset.cells.counts * _cell_loglik(model, theta, dataset, N)))


def loglik_and_score(
    model: str, theta, dataset: Dataset, N: int | None = None
) -> tuple[float, np.ndarray]:
    """total_loglik, bit for bit, and its gradient in theta from one pass.

    fb chains forward-mode tangents of the pgf recursion through c_max and
    the logistic links (central differences of the exact row on the tail
    route); zip, zinb and zinb2 use closed forms.  Where a clip holds a
    predictor (at +-700) or a linked value (at LINK_EPS) flat, the score is 0.
    """
    ll, slopes = _cell_loglik(model, theta, dataset, N, slopes=True)
    cells = dataset.cells
    slopes = cells.counts[:, None] * slopes
    if model == "zinb":
        # the scalar dispersion is shared by every observation
        score = np.append((cells.X.T @ slopes[:, :2]).T.ravel(), slopes[:, 2].sum())
    else:
        score = (cells.X.T @ slopes).T.ravel()
    return float(np.sum(cells.counts * ll)), score
