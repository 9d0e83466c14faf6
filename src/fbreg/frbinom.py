"""Fractional binomial distribution: feasibility, exact pmf, moments, sampling.

The underlying process is a stationary sequence of dependent Bernoulli(p)
variables whose joint success probabilities factor over index gaps,

    P(xi_{i0}=1, ..., xi_{in}=1) = p * prod_j (p + c * (i_j - i_{j-1})**(2H-2)),

giving covariance p*c*|i-j|**(2H-2) between distinct positions.  B_N is the
sum of the first N variables: plain binomial(N, p) at c = 0, increasingly
overdispersed and zero-inflated as H and c grow.

The pmf has no closed form.  Inclusion-exclusion over the joint success
probabilities gives it as an alternating sum that cancels catastrophically in
double precision once N is moderately large.  Three routes compute it, kept
independent of each other:

* ``pmf`` -- arbitrary-precision signed sum, with working precision sized
  to the worst cancellation, so absolute errors stay below float64 rounding
  at any N; the reference behind ``sample`` and single tables.
* ``pmf_batch`` -- float64 rows for likelihood evaluation at any N, from the
  renewal structure of B_N.  Every term it adds is nonnegative, so each
  entry keeps relative precision, tail included: on 600 random rows up to
  N = 100, with the logits of (p, H, c_circ) in [-12, 12], it was within
  5e-13 relative (entries above 1e-300) and 1e-14 absolute of ``pmf``.
  Nothing depends on the platform's long double.
* ``pmf_bruteforce`` -- an oracle that enumerates all 2**N configurations
  through a signed superset transform.
"""
from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import mpmath
import numpy as np

__all__ = [
    "BRUTE_FORCE_MAX_N",
    "FeasibilityError",
    "FbParams",
    "FbParamsNatural",
    "OnesSet",
    "PmfTable",
    "c_max",
    "config_prob",
    "joint_ones_prob",
    "mean",
    "pmf",
    "pmf_batch",
    "pmf_bruteforce",
    "sample",
    "to_constrained",
    "variance_asymptotic",
    "variance_exact",
]

BRUTE_FORCE_MAX_N = 20

# Raw signed-sum entries below this are treated as numerical breakdown rather
# than rounding noise; entries in [-RAW_NEGATIVITY_TOLERANCE, 0) are clamped.
RAW_NEGATIVITY_TOLERANCE = 1e-9

# Linked parameters are clipped into [LINK_EPS, 1 - LINK_EPS] so saturation at
# exactly 0.0 or 1.0 can never occur.
LINK_EPS = 1e-12

_EXACT_LOCK = threading.RLock()


class FeasibilityError(ValueError):
    """Parameters outside the feasible region of the dependent-Bernoulli model."""


def _check_open_unit(name: str, value: np.ndarray | float) -> None:
    arr = np.asarray(value, dtype=float)
    if not (np.all(arr > 0.0) and np.all(arr < 1.0)):
        raise FeasibilityError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def c_max(p, H):
    """Upper feasibility bound for the dependence strength c at given (p, H).

    Returns min{1 - p, (-2p + 2^(2H-2) + sqrt(4p - p*2^(2H) + 2^(4H-4))) / 2}.
    The bound is strictly positive on the whole open unit square, so every
    (p, H) admits some dependence.  Accepts scalars or broadcastable arrays.
    """
    p_arr = np.asarray(p, dtype=float)
    h_arr = np.asarray(H, dtype=float)
    _check_open_unit("p", p_arr)
    _check_open_unit("H", h_arr)
    pow22 = np.exp2(2.0 * h_arr - 2.0)
    # discriminant = p*(4 - 2^(2H)) + (2^(2H-2))^2 >= 0 for H < 1
    disc = 4.0 * p_arr - p_arr * np.exp2(2.0 * h_arr) + pow22 * pow22
    branch = 0.5 * (-2.0 * p_arr + pow22 + np.sqrt(disc))
    out = np.minimum(1.0 - p_arr, branch)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class FbParams:
    """Natural parameters (p, H, c) of the fractional binomial distribution.

    Invariants: p, H in (0, 1) and 0 <= c < c_max(p, H), strictly below the
    bound (values on the boundary are rejected).
    """

    p: float
    H: float
    c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "H", float(self.H))
        object.__setattr__(self, "c", float(self.c))
        _check_open_unit("p", self.p)
        _check_open_unit("H", self.H)
        bound = c_max(self.p, self.H)
        if not 0.0 <= self.c < bound:
            raise FeasibilityError(
                f"c={self.c!r} outside [0, c_max) with c_max(p={self.p}, H={self.H}) = {bound!r}"
            )


@dataclass(frozen=True)
class FbParamsNatural:
    """Rescaled parameters (p, H, c_circ) with the dependence on a unit scale.

    c_circ = c / c_max(p, H); any triple in (0,1)^3 maps to a feasible
    distribution, which is what makes unconstrained optimization possible.
    c_circ = 0 is accepted as the exact independent (binomial) case.
    """

    p: float
    H: float
    c_circ: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "H", float(self.H))
        object.__setattr__(self, "c_circ", float(self.c_circ))
        _check_open_unit("p", self.p)
        _check_open_unit("H", self.H)
        if not 0.0 <= self.c_circ < 1.0:
            raise FeasibilityError(
                f"c_circ must lie in [0, 1), got {self.c_circ!r}"
            )


def to_constrained(params: FbParamsNatural) -> FbParams:
    """Map rescaled parameters to natural ones via c = c_circ * c_max(p, H)."""
    bound = c_max(params.p, params.H)
    c = params.c_circ * bound
    if c >= bound:  # one-ulp guard: rounding must not land on the boundary
        c = np.nextafter(bound, 0.0)
    return FbParams(p=params.p, H=params.H, c=c)


@dataclass(frozen=True)
class OnesSet:
    """Strictly increasing 1-based positions of variables pinned to one."""

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        pos = tuple(int(i) for i in self.positions)
        object.__setattr__(self, "positions", pos)
        for i in pos:
            if i < 1:
                raise ValueError(f"positions must be >= 1, got {i}")
        for a, b in zip(pos, pos[1:]):
            if b <= a:
                raise ValueError(f"positions must be strictly increasing, got {pos}")

    def __len__(self) -> int:
        return len(self.positions)


def _as_positions(obj: "OnesSet | Iterable[int]") -> tuple[int, ...]:
    if isinstance(obj, OnesSet):
        return obj.positions
    return OnesSet(tuple(obj)).positions


def joint_ones_prob(ones: "OnesSet | Iterable[int]", params: FbParams) -> float:
    """P(all variables at the given positions are 1).

    Product over consecutive gaps: p * prod(p + c * gap**(2H-2)).  Depends on
    the positions only through their gaps (stationarity).  The empty set has
    probability 1 by convention.
    """
    pos = _as_positions(ones)
    if not pos:
        return 1.0
    p, c = params.p, params.c
    expo = 2.0 * params.H - 2.0
    acc = p
    for a, b in zip(pos, pos[1:]):
        acc *= p + c * float(b - a) ** expo
    return acc


def config_prob(
    ones: "OnesSet | Iterable[int]",
    zeros: "OnesSet | Iterable[int]",
    params: FbParams,
) -> float:
    """P(ones all equal 1 and zeros all equal 0), by inclusion-exclusion.

    Expands over every subset B' of the zeros set with sign (-1)**|B'|,
    evaluating the joint success probability of ones ∪ B'.  Cost is
    2**len(zeros) terms; raw results in [-1e-10, 0) are clamped to zero,
    anything lower raises because the signed sum has genuinely broken down.
    """
    one_pos = _as_positions(ones)
    zero_pos = _as_positions(zeros)
    if set(one_pos) & set(zero_pos):
        raise ValueError("ones and zeros sets overlap")
    if len(zero_pos) > 22:
        raise ValueError(f"zeros set of size {len(zero_pos)} is too large to enumerate")
    import itertools

    terms = []
    for r in range(len(zero_pos) + 1):
        sign = 1.0 if r % 2 == 0 else -1.0
        for sub in itertools.combinations(zero_pos, r):
            merged = tuple(sorted(one_pos + sub))
            terms.append(sign * joint_ones_prob(merged, params))
    raw = math.fsum(terms)
    if raw < -1e-10:
        raise ArithmeticError(
            f"inclusion-exclusion produced {raw}; precision lost beyond tolerance"
        )
    return min(max(raw, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class PmfTable:
    """pmf of B_N on k = 0..N, clamped to nonnegative and renormalized.

    ``raw_min`` records the most negative entry of the signed sum before
    clamping; values below -1e-9 indicate numerical breakdown and are
    surfaced as a warning by the producing routine.
    """

    N: int
    probs: np.ndarray
    params: FbParams
    raw_min: float = 0.0

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)
        if arr.shape != (self.N + 1,):
            raise ValueError(f"probs must have length N+1={self.N + 1}, got {arr.shape}")
        if np.any(arr < 0.0):
            raise ValueError("pmf entries must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"pmf must sum to 1 within 1e-8, got {total!r}")
        mean_from_table = float(np.arange(self.N + 1, dtype=float) @ arr)
        if abs(mean_from_table - self.N * self.params.p) > 1e-8:
            raise ValueError(
                f"mean identity violated: sum k*p_k = {mean_from_table!r}, "
                f"N*p = {self.N * self.params.p!r}"
            )


def _alternating_sum_digits(N: int) -> int:
    # Loose bound on the largest signed term: max_m C(N,m) * 2**m.  The number
    # of decimal digits of that integer is how much precision cancellation can
    # destroy; working precision is padded by 25 digits on top of it.
    worst = max(math.comb(N, m) << m for m in range(N + 1))
    return len(str(worst))


def _pmf_exact_raw(N: int, p: float, H: float, c: float) -> list[float]:
    """Signed-sum pmf in arbitrary precision, returned as float64 raw entries.

    T_m = sum over all size-m position sets of their joint success probability,
    computed by the recursion f(i, m) = sum_{j<i} f(j, m-1) * w(i-j) with
    f(i, 1) = p and gap weight w(d) = p + c*d**(2H-2).  Then
    P(B_N = k) = sum_{m>=k} (-1)**(m-k) * C(m, k) * T_m.

    Serialized by a lock: workdps mutates interpreter-global precision.
    """
    dps = 25 + _alternating_sum_digits(N)
    with _EXACT_LOCK, mpmath.workdps(dps):
        pm = mpmath.mpf(p)
        cm = mpmath.mpf(c)
        expo = 2 * mpmath.mpf(H) - 2
        w = [mpmath.mpf(0)] * N  # w[d] for gaps d = 1..N-1; w[0] unused
        for d in range(1, N):
            w[d] = pm + cm * mpmath.mpf(d) ** expo
        f_prev = [pm] * N  # f(i, 1) over 0-based position index i
        T = [mpmath.mpf(1), mpmath.fsum(f_prev)]
        for m in range(2, N + 1):
            f_next = [mpmath.mpf(0)] * N
            for i in range(m - 1, N):
                f_next[i] = mpmath.fsum(f_prev[j] * w[i - j] for j in range(m - 2, i))
            T.append(mpmath.fsum(f_next[m - 1 :]))
            f_prev = f_next
        out = []
        for k in range(N + 1):
            acc = mpmath.fsum(
                (-1) ** (m - k) * math.comb(m, k) * T[m] for m in range(k, N + 1)
            )
            out.append(float(acc))
    return out


def _finalize_raw(raw: Sequence[float]) -> tuple[tuple[float, ...], float]:
    arr = np.asarray(raw, dtype=float)
    raw_min = float(arr.min())
    arr = np.where(arr < 0.0, 0.0, arr)
    total = math.fsum(arr.tolist())
    if total <= 0.0:
        raise ArithmeticError("pmf collapsed to zero mass after clamping")
    arr = arr / total
    return tuple(arr.tolist()), raw_min


@lru_cache(maxsize=65536)
def _pmf_exact_cached(N: int, p: float, H: float, c: float) -> tuple[tuple[float, ...], float]:
    return _finalize_raw(_pmf_exact_raw(N, p, H, c))


def pmf(N: int, params: FbParams) -> PmfTable:
    """Exact pmf table of B_N at the given natural parameters.

    Always computed through the arbitrary-precision route with working
    precision sized to the worst-case cancellation of the signed sum, so the
    result is correct to float64 at any practical N.  Results are cached on
    (N, p, H, c); the cache is safe for concurrent use.
    """
    N = int(N)
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    probs, raw_min = _pmf_exact_cached(N, params.p, params.H, params.c)
    if raw_min < -RAW_NEGATIVITY_TOLERANCE:
        warnings.warn(
            f"signed pmf sum produced raw entry {raw_min}; table was clamped and renormalized",
            RuntimeWarning,
            stacklevel=2,
        )
    return PmfTable(N=N, probs=np.array(probs), params=params, raw_min=raw_min)


def pmf_bruteforce(N: int, params: FbParams) -> PmfTable:
    """Oracle pmf by enumerating all 2**N zero/one configurations.

    Joint success probabilities are tabulated for every position subset by
    extending each subset at its top element, configuration probabilities are
    then obtained with a signed superset transform over the subset lattice,
    and finally binned by popcount.  Each of the N transform levels takes
    differences of the level before, so the rounding error can double per
    level: on random triples with p >= 0.9 it reached 1.1e-12 at N = 12,
    3.8e-11 at N = 16 and 3.7e-9 at N = 20.  Entrywise checks at 1e-10
    against it hold only up to about N = 16.  Shares no code with the other
    two routes.
    """
    N = int(N)
    if not 1 <= N <= BRUTE_FORCE_MAX_N:
        raise ValueError(f"N must be in 1..{BRUTE_FORCE_MAX_N} for brute force, got {N}")
    p, c = params.p, params.c
    expo = 2.0 * params.H - 2.0
    size = 1 << N

    # gap weights w[d] = p + c*d**(2H-2); index 0 unused
    wt = np.zeros(N, dtype=float)
    if N > 1:
        d = np.arange(1, N, dtype=float)
        wt[1:] = p + c * d**expo

    # top-bit position for every mask (bit index of the highest set bit)
    topbit = np.zeros(size, dtype=np.int64)
    for t in range(N):
        topbit[1 << t : 1 << (t + 1)] = t

    # J[mask] = joint success probability of the positions in mask
    J = np.empty(size, dtype=float)
    J[0] = 1.0
    for b in range(N):
        lo = 1 << b
        J[lo] = p
        if b > 0:
            rest = np.arange(1, lo)
            J[lo + rest] = J[rest] * wt[b - topbit[rest]]

    # signed superset transform: F[A] = sum_{S >= A} (-1)**|S \ A| J[S]
    F = J.copy()
    for b in range(N):
        block = F.reshape(-1, 2 << b)
        block[:, : 1 << b] -= block[:, 1 << b :]

    # bin configuration probabilities by number of ones
    popcnt = np.zeros(size, dtype=np.int64)
    for b in range(N):
        popcnt[1 << b : 1 << (b + 1)] = popcnt[: 1 << b] + 1
    raw = np.bincount(popcnt, weights=F, minlength=N + 1)

    probs, raw_min = _finalize_raw(raw)
    if raw_min < -RAW_NEGATIVITY_TOLERANCE:
        warnings.warn(
            f"superset transform produced raw entry {raw_min}; table was clamped",
            RuntimeWarning,
            stacklevel=2,
        )
    return PmfTable(N=N, probs=np.array(probs), params=params, raw_min=raw_min)


def mean(N: int, params: FbParams) -> float:
    """E[B_N] = N * p (dependence does not shift the mean)."""
    return N * params.p


def variance_exact(N: int, params: FbParams) -> float:
    """Var(B_N) = N p (1-p) + 2 p c * sum_{d=1}^{N-1} (N-d) d**(2H-2)."""
    base = N * params.p * (1.0 - params.p)
    if N <= 1 or params.c == 0.0:
        return base
    d = np.arange(1, N, dtype=float)
    cov = 2.0 * params.p * params.c * float(np.sum((N - d) * d ** (2.0 * params.H - 2.0)))
    return base + cov


def variance_asymptotic(N: int, params: FbParams) -> float:
    """Leading-order variance by dependence regime; diagnostic only.

    b1*N for H < 1/2, 2pc*N*ln N at H = 1/2, b3*N**(2H) for H > 1/2 with
    b1 = p(1-p) + 2pc/(1-2H) and b3 = pc/(H(2H-1)).  Convergence of
    exact/asymptotic toward 1 is slow, and for H < 1/2 the finite-sum constant
    differs from the integral approximation in b1, so ratios settle near but
    not exactly at 1.  Never used inside likelihood computations.
    """
    p, H, c = params.p, params.H, params.c
    if H == 0.5:
        return 2.0 * p * c * N * math.log(N)
    if H < 0.5:
        return (p * (1.0 - p) + 2.0 * p * c / (1.0 - 2.0 * H)) * N
    return p * c / (H * (2.0 * H - 1.0)) * float(N) ** (2.0 * H)


def sample(N: int, params: FbParams, count: int, seed) -> np.ndarray:
    """Inverse-CDF draws of B_N; deterministic for a fixed seed."""
    count = int(count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    table = pmf(N, params)
    cdf = np.cumsum(table.probs)
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, N).astype(np.int64)


def _renewal_rows(N: int, p, H, c, tangents: bool) -> np.ndarray:
    """pmf rows for G natural triples from the renewal structure of B_N.

    Given a success at t, the trials before and after t are independent, so
    the successes are a renewal process with u(0) = 1 and u(d) = p +
    c*d**(2H-2) (Feller, Vol. 1, Ch. XIII).  With D(i) = u(i-1) - u(i) > 0,
    the first-return tail is the series Fbar = 1 / (1 - D(s)), and the
    first-return probabilities are f(n) = (p + c) Fbar(n-1) - S(n) with
    S(n) = sum_{i>=2} D(i) Fbar(n-i).  From a(t, 1) = p Fbar(t-1) and
    a(t, k) = sum_{s<t} a(s, k-1) f(t-s), the chance of k successes up to t
    with the k-th at t,

        P(k) = sum_t a(t, k) Fbar(N-t)  (k >= 1),
        P(0) = Fbar(N) + sum_{k=1..N} c k**(2H-2) Fbar(N-k).

    Every sum adds nonnegative terms, and only f subtracts.  Values are
    pushed forward by elementwise operations once final, so a row's bits do
    not depend on its batch.  Returns (lanes, N+1, G), the rows in lane 0;
    tangents adds d/dp, d/dH and d/dc in lanes 1-3.
    """
    G = p.shape[0]
    e = 2.0 * H - 2.0
    d = np.arange(1, N + 1, dtype=float)[:, None]
    log_d = np.log(d)
    d_pow = np.exp(e * log_d)  # d**(2H-2), d = 1..N
    step = np.log1p(1.0 / d[:-1])  # log(i / (i-1)), i = 2..N
    shrink = np.expm1(e * step)  # (i / (i-1))**(2H-2) - 1 < 0
    gap = -d_pow[:-1] * shrink  # D(i) / c = (i-1)**(2H-2) - i**(2H-2)
    # by lag, pushed from Fbar: D into Fbar, D(i >= 2) into S, c d**(2H-2) into P(0)'s sum
    kern = np.zeros((3, N + 1, G))
    kern[0, 1] = (1.0 - p) - c
    kern[0, 2:] = kern[1, 2:] = c * gap
    kern[2, 1:] = c * d_pow
    acc = np.zeros((3, N + 1, G))
    acc[0, 0] = 1.0
    for m in range(1, N + 1):
        acc[:, m:] += kern[:, 1 : N - m + 2] * acc[0, m - 1]
    fbar = acc[0]
    f = (p + c) * fbar[:-1] - acc[1, 1:]  # f(1..N)
    # a(t, .) is pushed with weights[t, j] = f(j+1) into rows t+1..N, and
    # with weights[t, N-t] = Fbar(N-t) into row N+1, whose column k+1 is P(k)
    t_idx, j_idx = np.arange(N + 1)[:, None], np.arange(N + 1)
    weights = np.concatenate([f, fbar[::-1]])[np.where(j_idx < N - t_idx, j_idx, N + t_idx)]
    a = np.zeros((N + 2, N + 2, G))
    a[1 : N + 1, 1] = p * fbar[:-1]
    for t in range(1, N + 1):
        a[t + 1 :, 2 : t + 2] += weights[t, : N - t + 1, None] * a[t, None, 1 : t + 1]
    out = np.empty((4 if tangents else 1, N + 1, G))
    out[0, 1:] = a[N + 1, 2:]
    out[0, 0] = fbar[N] + acc[2, N]
    if not tangents:
        return out
    # For k >= 1, P(k) = [s^N] p s Fbar**2 F**(k-1) with F = 1 - (1-s) Fbar,
    # so with dFbar = Fbar**2 dD and dF = -(1-s) dFbar, dP(k) = P(k) dp / p
    # + 2 sum_t a(t, k) dFbar(N-t) + (k-1) sum_t a(t, k-1) (Fbar dF)(N-t).
    # By lag, in lanes p, H, c: dD, then d(c d**(2H-2)) for P(0)
    d_kern = np.zeros((6, N + 1, G))
    d_kern[[0, 2], 1] = -1.0
    d_kern[1, 2:] = 2.0 * c * d_pow[:-1] * (-log_d[:-1] * shrink - (1.0 + shrink) * step)
    d_kern[2, 2:] = gap
    d_kern[4, 1:] = 2.0 * c * log_d * d_pow
    d_kern[5, 1:] = d_pow
    # the series product with Fbar, through its lower-triangular Toeplitz matrix
    toeplitz = np.vstack([fbar, np.zeros(G)])[np.where(j_idx <= t_idx, t_idx - j_idx, N + 1)]
    times_fbar = lambda x: np.einsum("nig,lig->lng", toeplitz, x)
    fbar_dkern = times_fbar(d_kern)
    d_fbar = times_fbar(fbar_dkern[:3])
    d_f = -np.diff(d_fbar, axis=1, prepend=0.0)
    # sum_t a(t, k) x(N-t) for k = 1..N, with x = dFbar and x = Fbar dF
    u_v = np.einsum("tkg,ltg->lkg", a[:-1, 1:-1], np.vstack([d_fbar, times_fbar(d_f)])[:, ::-1])
    out[1:, 1:] = 2.0 * u_v[:3]
    out[1:, 2:] += np.arange(1.0, N)[:, None] * u_v[3:, :-1]
    out[1, 1:] += out[0, 1:] / p
    out[1:, 0] = d_fbar[:, N] + fbar_dkern[3:, N]
    out[1:, 0] += np.einsum("kg,lkg->lg", kern[2], d_fbar[:, ::-1])
    return out


def _unique_triples(p: np.ndarray, H: np.ndarray, c_circ: np.ndarray):
    """Distinct (p, H, c_circ) rows and the inverse map, as np.unique(axis=0)
    gives them, without its row-wise sort of a structured view."""
    order = np.lexsort((c_circ, H, p))
    sp, sh, sc = p[order], H[order], c_circ[order]
    first = np.ones(order.shape[0], dtype=bool)
    first[1:] = (sp[1:] != sp[:-1]) | (sh[1:] != sh[:-1]) | (sc[1:] != sc[:-1])
    inv = np.empty(order.shape[0], dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    return sp[first], sh[first], sc[first], inv


def pmf_batch(N: int, p, H, c_circ) -> np.ndarray:
    """pmf tables for per-observation linked parameters, shape (n, N+1).

    p and H are clipped into [LINK_EPS, 1 - LINK_EPS] and c_circ into
    [0, 1 - LINK_EPS]; each unique triple is computed once, in float64 by
    ``_renewal_rows``, and entries that round below zero are clamped to it.
    Every entry, the tail included, keeps relative precision: against
    ``pmf`` on random rows up to N = 100 it stays within 5e-13 relative and
    1e-14 absolute, on every platform.  Rows are bitwise independent of the
    batch they are computed in.
    """
    return _pmf_rows(N, p, H, c_circ, tangents=False)


def _pmf_rows(N: int, p, H, c_circ, tangents: bool):
    """``pmf_batch``, and with tangents the pair (rows, drows).

    drows, of shape (3, n, N+1), holds d rows / d p, d H and d c_circ in the
    linked parameters, chained through c = c_circ * c_max(p, H).  Clamped
    entries and inputs outside the clip ranges get a zero tangent.
    """
    N = int(N)
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    raw = [np.atleast_1d(np.asarray(v, dtype=float)) for v in (p, H, c_circ)]
    linked = [np.clip(v, lo, 1.0 - LINK_EPS) for v, lo in zip(raw, (LINK_EPS, LINK_EPS, 0.0))]
    up, uh, uc, inv = _unique_triples(*linked)
    bound = c_max(up, uh)
    c = uc * bound
    out = np.empty((4 if tangents else 1, up.shape[0], N + 1), dtype=float)
    # keeps each (N, N, rows) work array near 8 MB
    chunk = max(1, (1 << 20) // (N * N))
    for lo in range(0, up.shape[0], chunk):
        part = slice(lo, lo + chunk)
        out[:, part] = _renewal_rows(N, up[part], uh[part], c[part], tangents).transpose(0, 2, 1)
    clamped = out[0] < 0.0
    rows = np.where(clamped, 0.0, out[0])
    if not tangents:
        return rows[inv]
    # c_max = min(1 - p, (-2p + a + root)/2), a = 2^(2H-2), root = sqrt(4p -
    # 4pa + a^2); the root branch is at most 1 - p whenever p <= 1, so it binds
    a = np.exp2(2.0 * uh - 2.0)
    root = np.sqrt(4.0 * up - 4.0 * up * a + a * a)
    dbound_dp = -1.0 + (1.0 - a) / root
    dbound_dh = math.log(2.0) * a * (1.0 + (a - 2.0 * up) / root)
    d_c = out[3]
    drows = np.stack([
        out[1] + d_c * (uc * dbound_dp)[:, None],
        out[2] + d_c * (uc * dbound_dh)[:, None],
        d_c * bound[:, None],
    ])
    drows = np.where(clamped, 0.0, drows)[:, inv]
    for k in range(3):
        drows[k, raw[k] != linked[k]] = 0.0
    return rows[inv], drows
