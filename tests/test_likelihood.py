import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import poisson

from fbreg.data import Dataset
from fbreg.fitting import numerical_gradient
from fbreg.frbinom import (
    LINK_EPS,
    FbParams,
    FbParamsNatural,
    pmf,
    pmf_batch,
    pmf_bruteforce,
    to_constrained,
)
from fbreg.likelihood import (
    CoefVector,
    coef_dim,
    fb_logpmf,
    link_fb,
    loglik_and_score,
    per_obs_loglik,
    total_loglik,
    zinb2_logpmf,
    zinb_logpmf,
    zip_logpmf,
)


def make_dataset(y, X, N=None, has_intercept=False):
    y = np.asarray(y)
    return Dataset(
        y=y,
        X=np.asarray(X, dtype=float),
        column_names=tuple(f"x{j}" for j in range(np.asarray(X).shape[1])),
        N=int(N if N is not None else max(1, y.max())),
        has_intercept=has_intercept,
    )


class TestCoefVector:
    def test_dims(self):
        assert coef_dim("fb", 3) == 9
        assert coef_dim("zip", 3) == 6
        assert coef_dim("zinb", 3) == 7
        assert coef_dim("zinb2", 3) == 9

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="needs 6"):
            CoefVector("zip", np.zeros(5), m=3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            CoefVector("zip", np.array([0.0, np.inf, 0, 0]), m=2)

    def test_blocks(self):
        cv = CoefVector("zinb", np.arange(5.0), m=2)
        blocks = cv.blocks()
        np.testing.assert_array_equal(blocks["beta"], [0, 1])
        np.testing.assert_array_equal(blocks["gamma"], [2, 3])
        np.testing.assert_array_equal(blocks["log_theta"], [4])


class TestLinkFb:
    def test_zero_coefficients_give_half(self):
        p, H, cc = link_fb(np.array([[1.0, 2.0]]), np.zeros(6))
        assert (p[0], H[0], cc[0]) == (0.5, 0.5, 0.5)

    def test_reference_value(self):
        # psi = (-1, 1), x = (1, 2): p = logistic(1)
        theta = np.array([-1.0, 1.0, 0, 0, 0, 0])
        p, _, _ = link_fb(np.array([[1.0, 2.0]]), theta)
        assert p[0] == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_monotone_saturation(self):
        x = np.array([[1.0]])
        values = [link_fb(x, np.array([b, 0.0, 0.0]))[0][0] for b in (0, 2, 5, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))
        # huge predictors saturate at the clip ceiling, strictly inside (0, 1)
        top = link_fb(x, np.array([800.0, 0.0, 0.0]))[0][0]
        assert values[-1] < top < 1.0


class TestFbLogpmf:
    def test_n1_bernoulli(self):
        theta = np.array([0.3, -0.2, 1.0])
        x = np.array([1.0])
        p, _, _ = link_fb(x, theta)
        assert fb_logpmf(1, x, theta, N=1) == pytest.approx(math.log(p[0]), abs=1e-12)
        assert fb_logpmf(0, x, theta, N=1) == pytest.approx(math.log(1 - p[0]), abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = rng.uniform(-1.5, 1.5, 6)
            x = rng.uniform(-2, 2, 2)
            p, H, cc = link_fb(x, theta)
            params = to_constrained(FbParamsNatural(p=p[0], H=H[0], c_circ=cc[0]))
            table = pmf_bruteforce(12, params)
            for y in (0, 3, 12):
                got = math.exp(fb_logpmf(y, x, theta, N=12))
                assert got == pytest.approx(table.probs[y], abs=1e-10)

    def test_binomial_reduction_in_nu_limit(self):
        # nu -> -inf drives c_circ -> 0: plain binomial
        from scipy.stats import binom

        theta = np.array([0.4, 0.0, -600.0])
        x = np.array([1.0])
        p, _, _ = link_fb(x, theta)
        for y in range(6):
            got = math.exp(fb_logpmf(y, x, theta, N=5))
            assert got == pytest.approx(binom.pmf(y, 5, p[0]), rel=1e-9)

    def test_response_above_n_rejected(self):
        with pytest.raises(ValueError, match="N override"):
            fb_logpmf(9, np.array([1.0]), np.zeros(3), N=5)

    def test_normalization_over_support(self):
        theta = np.array([0.5, -0.3, 1.2, 0.4, -1.0, 0.2])
        x = np.array([1.0, -0.7])
        total = sum(math.exp(fb_logpmf(y, x, theta, N=9)) for y in range(10))
        assert total == pytest.approx(1.0, abs=1e-8)


class TestZip:
    def test_reference_value(self):
        # mu = 1, pi = 0.25, y = 2: log(0.75 * e^-1 / 2)
        theta = np.array([0.0, math.log(1 / 3)])
        got = zip_logpmf(2, np.array([1.0]), theta)
        assert got == pytest.approx(-1.9808292530117262, abs=1e-12)

    def test_zero_branch(self):
        theta = np.array([0.3, 0.8])
        x = np.array([1.0])
        mu, pi = math.exp(0.3), 1 / (1 + math.exp(-0.8))
        expected = math.log(pi + (1 - pi) * math.exp(-mu))
        assert zip_logpmf(0, x, theta) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_mixture_is_poisson(self):
        # gamma -> -inf: plain Poisson
        theta = np.array([0.7, -600.0])
        for y in range(8):
            got = zip_logpmf(y, np.array([1.0]), theta)
            assert got == pytest.approx(poisson.logpmf(y, math.exp(0.7)), abs=1e-10)

    def test_total_mass_at_zero_limit(self):
        # pi -> 1 pushes all mass to zero
        theta = np.array([0.0, 40.0])
        assert zip_logpmf(0, np.array([1.0]), theta) == pytest.approx(0.0, abs=1e-12)


class TestZinb:
    def test_reference_value(self):
        # theta = 1, mu = 1, pi ~ 0, y = 0: NB mass 1/2
        theta = np.array([0.0, -40.0, 0.0])
        got = zinb_logpmf(0, np.array([1.0]), theta)
        assert got == pytest.approx(math.log(0.5), abs=1e-9)

    def test_poisson_limit(self):
        # theta -> infinity: NB converges to Poisson (checked at 1e8, tol 1e-4;
        # also tighter agreement per observation at 1e6 within 1e-5)
        x = np.array([1.0])
        for log_theta, tol in ((math.log(1e6), 1e-5), (math.log(1e8), 1e-4)):
            theta = np.array([0.4, -40.0, log_theta])
            for y in range(6):
                got = zinb_logpmf(y, x, theta)
                ref = poisson.logpmf(y, math.exp(0.4))
                assert got == pytest.approx(ref, abs=tol)

    def test_zip_nesting_at_large_theta(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(40), rng.normal(size=40)])
        y = rng.integers(0, 6, size=40)
        ds = make_dataset(y, X, N=6)
        coeffs = np.array([0.3, -0.2, 0.4, 0.1])
        zb = total_loglik("zip", coeffs, ds)
        znb = total_loglik("zinb", np.append(coeffs, math.log(1e8)), ds)
        assert abs(zb - znb) / 40 < 1e-4

    @pytest.mark.parametrize("log_theta", [40.0, 60.0])
    def test_zip_nesting_per_observation_at_huge_theta(self, log_theta):
        # the NB log-mass must reach its Poisson limit, not cancel to noise
        x = np.array([1.0, 0.5])
        coeffs = np.array([math.log(3.0) - 0.1, 0.2, -0.4, 0.3])
        y = np.array([0, 1, 2, 5, 10, 17])
        ref = zip_logpmf(y, x, coeffs)
        zinb = zinb_logpmf(y, x, np.append(coeffs, log_theta))
        zinb2 = zinb2_logpmf(y, x, np.concatenate([coeffs, [log_theta, 0.0]]))
        np.testing.assert_allclose(zinb, ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(zinb2, ref, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("log_theta", [-2.0, 0.5, 3.0, 8.0, 14.0])
    def test_nb_log_mass_matches_mpmath(self, log_theta):
        # 3,000 rows with counts up to 200 take the sum over k < y in blocks
        import mpmath

        rng = np.random.default_rng(6)
        x = np.column_stack([np.ones(3000), rng.uniform(-1, 1, 3000)])
        y = rng.integers(0, 201, 3000)
        coeffs = np.array([2.0, 1.5, -40.0, 0.0, log_theta])
        got = zinb_logpmf(y, x, coeffs)
        with mpmath.workdps(40):
            theta = mpmath.exp(log_theta)
            for i in range(0, 3000, 15):
                mu = mpmath.exp(mpmath.mpf(float(x[i] @ coeffs[:2])))
                k = int(y[i])
                ref = (
                    mpmath.loggamma(k + theta) - mpmath.loggamma(theta) - mpmath.loggamma(k + 1)
                    + theta * mpmath.log(theta / (theta + mu)) + k * mpmath.log(mu / (theta + mu))
                )
                assert got[i] == pytest.approx(float(ref), rel=1e-13, abs=1e-11)

    def test_zinb2_intercept_only_equals_zinb(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = rng.integers(0, 5, size=30)
        ds = make_dataset(y, X, N=5)
        base = np.array([0.2, -0.1, 0.3, 0.5])
        log_theta = 0.7
        znb = total_loglik("zinb", np.append(base, log_theta), ds)
        znb2 = total_loglik("zinb2", np.append(base, [log_theta, 0.0]), ds)
        assert znb2 == pytest.approx(znb, abs=1e-12)

    def test_zinb2_varying_dispersion_differs(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = rng.integers(0, 5, size=30)
        ds = make_dataset(y, X, N=5)
        base = np.array([0.2, -0.1, 0.3, 0.5])
        a = total_loglik("zinb2", np.append(base, [0.7, 0.0]), ds)
        b = total_loglik("zinb2", np.append(base, [0.7, 0.9]), ds)
        assert a != b

    def test_extreme_coefficients_stay_finite(self):
        x = np.array([1.0, 2.0])
        for model_fn, dim in ((zip_logpmf, 4), (zinb_logpmf, 5), (zinb2_logpmf, 6)):
            theta = np.full(dim, -26.73)
            for y in (0, 3):
                assert np.isfinite(model_fn(y, x, theta))
        assert np.isfinite(fb_logpmf(3, x, np.full(6, 26.73), N=10))


class TestTotalLoglik:
    def test_single_row_equals_pointwise(self):
        X = np.array([[1.0, 0.5], [1.0, -0.5], [1.0, 1.5]])
        ds = make_dataset([1, 0, 2], X, N=4)
        theta = np.array([0.3, -0.2, 0.1, 0.4, -0.5, 0.25])
        vec = per_obs_loglik("fb", theta, ds)
        assert total_loglik("fb", theta, ds) == pytest.approx(float(vec.sum()), abs=1e-12)
        assert fb_logpmf(1, X[0], theta, N=4) == pytest.approx(float(vec[0]), abs=1e-12)

    def test_additive_over_split(self):
        rng = np.random.default_rng(8)
        X = np.column_stack([np.ones(24), rng.normal(size=24)])
        y = rng.integers(0, 7, size=24)
        whole = make_dataset(y, X, N=7)
        first = make_dataset(y[:12], X[:12], N=7)
        second = make_dataset(y[12:], X[12:], N=7)
        for model in ("zip", "zinb", "zinb2", "fb"):
            theta = rng.uniform(-0.5, 0.5, coef_dim(model, 2))
            total = total_loglik(model, theta, whole)
            parts = total_loglik(model, theta, first) + total_loglik(model, theta, second)
            assert total == pytest.approx(parts, abs=1e-12)

    def test_all_logpmf_nonpositive(self):
        rng = np.random.default_rng(9)
        X = np.column_stack([np.ones(20), rng.normal(size=20)])
        y = rng.integers(0, 5, size=20)
        ds = make_dataset(y, X, N=5)
        for model in ("fb", "zip", "zinb", "zinb2"):
            theta = rng.uniform(-1, 1, coef_dim(model, 2))
            assert np.all(per_obs_loglik(model, theta, ds) <= 1e-12)

    def test_dimension_mismatch_rejected(self):
        ds = make_dataset([0, 1, 2], np.column_stack([np.ones(3), [0.1, 0.5, 0.9]]), N=3)
        with pytest.raises(ValueError, match="needs"):
            total_loglik("fb", np.zeros(5), ds)

    @given(
        seed=st.integers(0, 10_000),
        model=st.sampled_from(["zip", "zinb", "zinb2"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_baselines_finite_on_random_inputs(self, seed, model):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(15), rng.normal(size=15)])
        y = rng.integers(0, 20, size=15)
        ds = make_dataset(y, X, N=20)
        theta = rng.uniform(-3, 3, coef_dim(model, 2))
        assert np.isfinite(total_loglik(model, theta, ds))


def score_design(N=6, n=30):
    """Intercept, a two-level categorical column and a continuous one."""
    X = np.column_stack([np.ones(n), np.arange(n) % 2, np.linspace(-1.0, 1.0, n)])
    y = (np.arange(n) * 5) % (N + 1)
    return make_dataset(y, X, N=N, has_intercept=True)


def assert_score_matches_differences(model, theta, ds):
    """The fused call against central differences of total_loglik: the value
    bit for bit, the score within 1e-6 relative to its largest entry or 1e-6
    absolute."""
    theta = np.asarray(theta, dtype=float)
    value, score = loglik_and_score(model, theta, ds)
    assert value == total_loglik(model, theta, ds)
    ref = numerical_gradient(lambda t: total_loglik(model, t, ds), theta)
    assert np.max(np.abs(score - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))
    return score


def exact_row(N, p, H, cc):
    return pmf(N, to_constrained(FbParamsNatural(p=p, H=H, c_circ=cc))).probs


def fb_exact_loglik(theta, ds):
    """fb log-likelihood with every observation on the arbitrary-precision pmf."""
    p, H, cc = link_fb(ds.X, theta)
    return sum(
        math.log(max(exact_row(ds.N, p[i], H[i], cc[i])[ds.y[i]], 1e-300))
        for i in range(ds.n)
    )


class TestLoglikAndScore:
    @pytest.mark.parametrize("model", ["fb", "zip", "zinb", "zinb2"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_numerical_gradient(self, model, data):
        ds = score_design()
        d = coef_dim(model, 3)
        theta = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
        assert_score_matches_differences(model, theta, ds)

    @given(theta=st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9))
    @settings(max_examples=15, deadline=None)
    def test_fb_matches_exact_route_differences(self, theta):
        ds = score_design()
        theta = np.array(theta)
        _, score = loglik_and_score("fb", theta, ds)
        ref = numerical_gradient(lambda t: fb_exact_loglik(t, ds), theta)
        assert np.max(np.abs(score - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))

    def test_fb_tail_rows(self):
        # y = N at p near 0.02 and c_circ near 3e-4 puts those observations
        # below 1e-8, where value and score must keep relative precision
        base = score_design()
        y = np.where(np.arange(base.n) % 3 == 0, base.N, np.arange(base.n) % 2)
        ds = make_dataset(y, base.X, N=base.N, has_intercept=True)
        theta = np.array([-4.0, 0.3, 0.2, 0.5, -0.4, 0.3, -8.0, 0.5, 0.4])
        p, H, cc = link_fb(ds.X, theta)
        probs = pmf_batch(ds.N, p, H, cc)[np.arange(ds.n), ds.y]
        assert np.all((probs < 1e-8) == (ds.y == ds.N))
        assert_score_matches_differences("fb", theta, ds)

    def test_fb_row_on_the_probability_floor(self):
        # row 0: p and c_circ near 1e-11 and y = N = 30, exact mass below 1e-300
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.5]])
        ds = make_dataset([30, 2, 0], X, N=30, has_intercept=True)
        theta = np.array([-25.0, 24.0, 0.0, 0.3, -25.0, 24.5])
        p, H, cc = link_fb(X, theta)
        assert LINK_EPS < p[0] and exact_row(30, p[0], H[0], cc[0])[30] < 1e-300
        score = assert_score_matches_differences("fb", theta, ds)
        # row 0 contributes nothing to the score
        rest = make_dataset([2, 0], X[1:], N=30, has_intercept=True)
        np.testing.assert_array_equal(score, loglik_and_score("fb", theta, rest)[1])

    def test_fb_link_clipped_at_link_eps(self):
        # row 0 holds p at 1 - LINK_EPS, H and c_circ at LINK_EPS
        X = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        ds = make_dataset([4, 1, 3], X, N=4, has_intercept=True)
        theta = np.array([0.3, 40.0, -0.2, -40.0, 0.1, -40.0])
        p, H, cc = link_fb(X, theta)
        assert p[0] == 1.0 - LINK_EPS and H[0] == LINK_EPS and cc[0] == LINK_EPS
        assert_score_matches_differences("fb", theta, ds)

    def test_fb_at_a_corner_of_the_study_box(self):
        # criterion 6 fits inside [-5, 5]^d
        ds = score_design()
        theta = 5.0 * np.array([1, -1, 1, -1, 1, -1, -1, 1, 1])
        assert_score_matches_differences("fb", theta, ds)

    @pytest.mark.parametrize("log_theta", [2.0, 10.0, 20.0, 40.0, 60.0])
    def test_zinb_dispersion_score(self, log_theta):
        # theta (psi(y + theta) - psi(theta)) as a digamma difference is off
        # by 5e-6 at log theta 20 and by 139 at 40
        ds = score_design()
        theta = np.array([0.4, -0.2, 0.3, -0.8, 0.3, 0.2, log_theta])
        _, score = loglik_and_score("zinb", theta, ds)
        ref = numerical_gradient(lambda t: total_loglik("zinb", t, ds), theta)
        assert abs(score[-1] - ref[-1]) <= 1e-6

    def test_zinb2_scalar_dispersion_equals_zinb(self):
        ds = score_design()
        base = np.array([0.4, -0.2, 0.3, -0.8, 0.3, 0.2])
        _, zinb = loglik_and_score("zinb", np.append(base, 0.7), ds)
        _, zinb2 = loglik_and_score("zinb2", np.append(base, [0.7, 0.0, 0.0]), ds)
        np.testing.assert_allclose(zinb2[:6], zinb[:6], rtol=1e-12, atol=1e-12)
        # the intercept of the dispersion predictor is the shared log theta
        assert zinb2[6] == pytest.approx(zinb[6], rel=1e-12, abs=1e-12)

    def test_clipped_predictor_gives_zero_score(self):
        ds = score_design()
        theta = np.array([0.4, -0.2, 0.3, 800.0, 0.0, 0.0])
        _, score = loglik_and_score("zip", theta, ds)
        np.testing.assert_array_equal(score[3:], 0.0)


def grouped_design(N=6, seed=5):
    """Six covariate patterns and counts from a few values, so that most
    (design row, count) pairs repeat, in shuffled order."""
    rng = np.random.default_rng(seed)
    n = 90
    g = np.arange(n) % 2
    dose = np.array([0.5, 1.0, 2.0])[np.arange(n) % 3]
    y = np.array([0, 0, 1, 3, N])[np.arange(n) % 5]
    order = rng.permutation(n)
    X = np.column_stack([np.ones(n), g, dose])[order]
    return make_dataset(y[order], X, N=N, has_intercept=True)


GROUPED_THETA = {
    "fb": [-0.4, 0.3, 0.2, 0.5, -0.4, 0.3, 0.6, -0.5, 0.4],
    "zip": [0.4, -0.2, 0.3, -0.8, 0.3, 0.2],
    "zinb": [0.4, -0.2, 0.3, -0.8, 0.3, 0.2, 0.7],
    "zinb2": [0.4, -0.2, 0.3, -0.8, 0.3, 0.2, 0.7, -0.3, 0.2],
}


class TestGroupedLikelihood:
    """Each model runs once per distinct (design row, count) pair; the
    results must be those of a pass over every observation."""

    @pytest.mark.parametrize("model", ["fb", "zip", "zinb", "zinb2"])
    def test_matches_scalar_logpmf_row_by_row(self, model):
        ds = grouped_design()
        assert ds.cells.counts.shape[0] < ds.n
        theta = np.array(GROUPED_THETA[model])
        scalar = {
            "fb": lambda y, x: fb_logpmf(y, x, theta, N=ds.N),
            "zip": lambda y, x: zip_logpmf(y, x, theta),
            "zinb": lambda y, x: zinb_logpmf(y, x, theta),
            "zinb2": lambda y, x: zinb2_logpmf(y, x, theta),
        }[model]
        rows = np.array([scalar(int(ds.y[i]), ds.X[i]) for i in range(ds.n)])
        vec = per_obs_loglik(model, theta, ds)
        np.testing.assert_allclose(vec, rows, rtol=1e-12, atol=0.0)
        total = total_loglik(model, theta, ds)
        assert total == pytest.approx(float(rows.sum()), rel=1e-12)
        value, _ = loglik_and_score(model, theta, ds)
        assert value == total

    @pytest.mark.parametrize("model", ["fb", "zip", "zinb", "zinb2"])
    def test_score_weights_each_cell_by_its_count(self, model):
        ds = grouped_design()
        assert_score_matches_differences(model, GROUPED_THETA[model], ds)

    def test_continuous_design_has_one_cell_per_observation(self):
        ds = score_design()
        assert ds.cells.counts.shape[0] == ds.n
