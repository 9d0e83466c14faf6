import json
import math

import numpy as np
import pytest

from fbreg.data import ColumnSpec, Dataset, load_csv
from fbreg.fitting import (
    FitConfig,
    FitResult,
    fit,
    numerical_gradient,
    numerical_hessian,
    wald_inference,
)
from fbreg.frbinom import FbParamsNatural, pmf, pmf_batch, to_constrained
from fbreg.likelihood import CoefVector, link_fb, loglik_and_score, total_loglik


def make_dataset(y, X, names=None, N=None):
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    names = tuple(names) if names else tuple(f"x{j}" for j in range(X.shape[1]))
    return Dataset(
        y=y,
        X=X,
        column_names=names,
        N=N if N is not None else int(max(y.max(), 1)),
        has_intercept=False,
    )


def simulate_zip(rng, n, beta, gamma):
    x = rng.uniform(-2.0, 2.0, n)
    X = np.column_stack([np.ones(n), x])
    mu = np.exp(X @ beta)
    pi = 1.0 / (1.0 + np.exp(-(X @ gamma)))
    y = np.where(rng.uniform(size=n) < pi, 0, rng.poisson(mu))
    return X, y.astype(float)


class TestNumericalGradient:
    def test_quadratic_matches_closed_form(self):
        A = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 3.0]])
        b = np.array([0.5, -1.0, 0.25])

        def f(t):
            return float(t @ A @ t + b @ t)

        theta = np.array([0.7, -0.3, 1.2])
        expected = 2.0 * A @ theta + b
        got = numerical_gradient(f, theta)
        assert np.allclose(got, expected, rtol=0, atol=1e-6)

    def test_transcendental_vs_analytic(self):
        def f(t):
            return float(np.sum(np.sin(t)) + np.exp(t[0] / 3.0))

        theta = np.array([0.4, -1.1, 2.0])
        expected = np.cos(theta)
        expected[0] += np.exp(theta[0] / 3.0) / 3.0
        got = numerical_gradient(f, theta)
        assert np.allclose(got, expected, atol=1e-6)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
    def test_step_shrinks_once_near_domain_wall(self):
        def f(t):
            return float(np.sqrt(t[0]))

        theta = np.array([2e-6])
        # default step pokes below zero; one shrink keeps the stencil inside
        got = numerical_gradient(f, theta, step=1e-5)
        expected = 0.5 / math.sqrt(theta[0])
        assert got[0] == pytest.approx(expected, rel=0.05)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
    def test_raises_when_shrink_insufficient(self):
        def f(t):
            return float(np.sqrt(t[0]))

        with pytest.raises(ArithmeticError, match="coordinate 0"):
            numerical_gradient(f, np.array([1e-8]), step=1e-5)


class TestNumericalHessian:
    def test_quadratic_recovers_2a(self):
        A = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 3.0]])

        def f(t):
            return float(t @ A @ t)

        H = numerical_hessian(f, np.array([0.5, -0.25, 1.0]))
        assert np.allclose(H, 2.0 * A, atol=1e-6)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(4, 4))
        A = A @ A.T + np.eye(4)

        def f(t):
            return float(t @ A @ t + np.sum(t**3) / 10.0)

        H = numerical_hessian(f, rng.normal(size=4))
        assert np.array_equal(H, H.T)

    def test_nonfinite_expansion_point_raises(self):
        def f(t):
            return math.nan

        with pytest.raises(ArithmeticError):
            numerical_hessian(f, np.zeros(2))

    def test_independent_second_difference(self):
        # cross partial of exp(x*y) at (0.3, -0.2) is (1 + xy) exp(xy)
        def f(t):
            return float(np.exp(t[0] * t[1]))

        H = numerical_hessian(f, np.array([0.3, -0.2]))
        xy = 0.3 * -0.2
        assert H[0, 1] == pytest.approx((1 + xy) * math.exp(xy), abs=1e-6)


class TestFitZip:
    def test_recovers_truth_within_wald_bands(self):
        rng = np.random.default_rng(42)
        beta = np.array([0.5, 0.8])
        gamma = np.array([-1.0, 0.5])
        X, y = simulate_zip(rng, 800, beta, gamma)
        ds = make_dataset(y, X, names=("intercept", "x"))
        res = fit("zip", ds, FitConfig(n_starts=2, seed=0))
        assert res.converged
        truth = np.r_[beta, gamma]
        err = np.abs(res.coefficients.values - truth)
        assert np.all(err < 3.0 * res.std_errors)

    def test_loglik_matches_direct_evaluation(self):
        rng = np.random.default_rng(1)
        X, y = simulate_zip(rng, 200, np.array([0.2, 0.5]), np.array([-0.5, 0.0]))
        ds = make_dataset(y, X)
        res = fit("zip", ds, FitConfig(n_starts=1, seed=0))
        direct = total_loglik("zip", res.coefficients.values, ds)
        assert res.loglik == pytest.approx(direct, abs=1e-10)

    def test_final_value_never_worse_than_best_seen(self):
        rng = np.random.default_rng(2)
        X, y = simulate_zip(rng, 150, np.array([0.3, 0.4]), np.array([0.0, -0.3]))
        ds = make_dataset(y, X)
        seen = []
        res = fit(
            "zip",
            ds,
            FitConfig(n_starts=2, seed=7),
            eval_callback=lambda theta, ll: seen.append(ll),
        )
        assert len(seen) == res.n_evaluations
        assert res.loglik >= max(seen) - 1e-6 * (1.0 + abs(res.loglik))

    def test_seed_determinism_bitwise(self):
        rng = np.random.default_rng(3)
        X, y = simulate_zip(rng, 120, np.array([0.1, 0.6]), np.array([-0.4, 0.2]))
        ds = make_dataset(y, X)
        cfg = FitConfig(n_starts=3, seed=11)
        a = fit("zip", ds, cfg)
        b = fit("zip", ds, cfg)
        assert np.array_equal(a.coefficients.values, b.coefficients.values)
        assert a.loglik == b.loglik
        assert a.n_evaluations == b.n_evaluations
        assert np.array_equal(a.std_errors, b.std_errors)

    def test_start_reports_count_evaluations(self):
        rng = np.random.default_rng(5)
        X, y = simulate_zip(rng, 120, np.array([0.2, 0.5]), np.array([-0.5, 0.3]))
        res = fit("zip", make_dataset(y, X), FitConfig(n_starts=3, seed=2))
        starts = res.diagnostics["starts"]
        assert [r["start"] for r in starts] == [0, 1, 2]
        assert all(r["evaluations"] > 0 for r in starts)
        assert all(1 <= r["iterations"] <= r["evaluations"] for r in starts)
        assert all(isinstance(r["message"], str) and r["message"] for r in starts)
        # beyond the starts, only the 2d score differences of the observed
        # information evaluate the likelihood
        assert sum(r["evaluations"] for r in starts) + 2 * res.d == res.n_evaluations

    def test_gradient_tolerance_reaches_optimizer(self):
        rng = np.random.default_rng(7)
        X, y = simulate_zip(rng, 300, np.array([0.4, 0.6]), np.array([-0.8, 0.4]))
        ds = make_dataset(y, X)
        runs = {
            tol: fit("zip", ds, FitConfig(n_starts=1, gradient_tolerance=tol,
                                          compute_hessian=False))
            for tol in (1e-1, 1e-7)
        }
        loose, tight = runs[1e-1], runs[1e-7]
        assert loose.converged and tight.converged
        assert (loose.diagnostics["starts"][0]["evaluations"]
                < tight.diagnostics["starts"][0]["evaluations"])
        assert tight.diagnostics["projected_gradient_norm"] < 1e-7 * math.sqrt(tight.d)

    def test_convergence_judged_on_score_at_estimate(self):
        rng = np.random.default_rng(8)
        X, y = simulate_zip(rng, 150, np.array([0.3, 0.5]), np.array([-0.6, 0.2]))
        ds = make_dataset(y, X)
        res = fit("zip", ds, FitConfig(n_starts=2, seed=4, compute_hessian=False))
        value, score = loglik_and_score("zip", res.coefficients.values, ds)
        assert value == res.loglik
        assert res.diagnostics["projected_gradient_norm"] == float(np.linalg.norm(score))

    def test_fit_uses_analytic_scores(self, monkeypatch):
        import fbreg.fitting as fitting

        def refuse(*args, **kwargs):
            raise AssertionError("finite-difference oracle called by fit")

        monkeypatch.setattr(fitting, "numerical_gradient", refuse)
        monkeypatch.setattr(fitting, "numerical_hessian", refuse)
        rng = np.random.default_rng(6)
        X, y = simulate_zip(rng, 100, np.array([0.2, 0.5]), np.array([-0.5, 0.3]))
        res = fit("zip", make_dataset(y, X), FitConfig(n_starts=2, seed=0))
        assert res.converged and np.all(np.isfinite(res.std_errors))

    def test_observed_information_matches_second_differences(self):
        rng = np.random.default_rng(7)
        X, y = simulate_zip(rng, 300, np.array([0.4, 0.6]), np.array([-0.8, 0.4]))
        ds = make_dataset(y, X)
        res = fit("zip", ds, FitConfig(n_starts=1, seed=0))
        ref = numerical_hessian(
            lambda t: -total_loglik("zip", t, ds), res.coefficients.values
        )
        assert np.max(np.abs(res.hessian - ref)) <= 1e-4 * np.max(np.abs(ref))

    def test_box_constrains_all_coordinates(self):
        rng = np.random.default_rng(4)
        X, y = simulate_zip(rng, 100, np.array([0.2, 0.1]), np.array([-3.5, 0.0]))
        ds = make_dataset(y, X)
        res = fit("zip", ds, FitConfig(n_starts=1, box=0.5, seed=0))
        assert np.all(np.abs(res.coefficients.values) <= 0.5 + 1e-12)


class TestStartSelection:
    @staticmethod
    def _photoperiod_design(seed):
        # 540 rows, photoperiod at 2 levels, BAP at 4 doses, N = 17, counts
        # drawn from the fb model: the shape of the apple-shoot analysis
        n, N = 540, 17
        rng = np.random.default_rng([seed, n, N])
        pho = rng.integers(0, 2, n)
        bap = rng.choice(np.array([0.5, 1.0, 2.0, 4.0]), n)
        u = rng.uniform(size=n)
        theta = np.array([-1.1, 0.25, 0.0, 1.1, 0.0, 0.0, 1.39, 0.0, 0.0])
        y = np.empty(n)
        for a in (0, 1):
            for b in (0.5, 1.0, 2.0, 4.0):
                rows = (pho == a) & (bap == b)
                p, H, cc = (float(v[0]) for v in link_fb([[1.0, a, b]], theta))
                params = to_constrained(FbParamsNatural(p=p, H=H, c_circ=cc))
                cdf = np.cumsum(pmf(N, params).probs)
                y[rows] = np.minimum(np.searchsorted(cdf, u[rows], side="right"), N)
        X = np.column_stack([np.ones(n), pho, bap])
        return make_dataset(y, X, names=("intercept", "pho", "bap"), N=N)

    def test_tied_starts_prefer_the_smaller_gradient(self):
        # on this design, start 0 stops when its next step would gain less
        # than the log-likelihood's rounding, above the gradient test; the
        # other two starts end at the same value and pass it
        ds = self._photoperiod_design(34)
        res = fit("zip", ds, FitConfig(compute_hessian=False))
        assert res.converged
        values = [r["loglik"] for r in res.diagnostics["starts"]]
        assert max(values) - min(values) <= 1e-12 * abs(res.loglik)
        assert res.loglik >= max(values) - 1e-12 * abs(res.loglik)


    def test_artifact_counts_likelihood_cells(self):
        # 8 covariate patterns times at most 18 counts, against 540 rows
        ds = self._photoperiod_design(34)
        res = fit("zip", ds, FitConfig(n_starts=1, compute_hessian=False))
        cells = res.to_json_dict()["diagnostics"]["likelihood_cells"]
        assert cells == ds.cells.counts.shape[0] <= 8 * 18


class TestFitFb:
    THETA_TRUE = np.array([-0.5, 0.8, 1.5, 0.5, 0.0, -0.5])

    def _dataset(self):
        rng = np.random.default_rng(11)
        n, N = 200, 8
        x = rng.uniform(-2, 2, n)
        X = np.column_stack([np.ones(n), x])
        p, H, cc = link_fb(X, self.THETA_TRUE)
        rows = pmf_batch(N, p, H, cc)
        u = rng.uniform(size=n)
        y = np.minimum((np.cumsum(rows, axis=1) < u[:, None]).sum(axis=1), N)
        return make_dataset(y.astype(float), X, names=("intercept", "x"), N=N)

    def test_recovers_generating_coefficients(self):
        res = fit("fb", self._dataset(), FitConfig(n_starts=1, box=5.0, seed=1))
        assert res.converged
        assert res.N == 8
        # mean-structure coefficients are tightly identified; dependence
        # coefficients less so at n=200, allow wide but bounded error
        err = np.abs(res.coefficients.values - self.THETA_TRUE)
        assert np.all(err[:2] < 0.5)
        assert np.all(err < 2.5)

    def test_evaluation_budget(self):
        # one L-BFGS-B run on analytic scores takes about 27 evaluations;
        # on central-difference gradients it took about 500, and with a
        # simplex warm start in front about 1,700
        res = fit(
            "fb",
            self._dataset(),
            FitConfig(n_starts=1, box=5.0, seed=1, compute_hessian=False),
        )
        assert res.n_evaluations <= 800
        assert res.n_evaluations <= 100

    def test_all_zero_responses_hit_boundary(self):
        n = 50
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(n), rng.uniform(-1, 1, n)])
        ds = make_dataset(np.zeros(n), X, names=("intercept", "x"), N=5)
        res = fit("fb", ds, FitConfig(n_starts=1, box=5.0, seed=0))
        assert res.converged
        # mass concentrates on zero, so the maximized loglik approaches 0
        assert -0.5 < res.loglik < 0.0
        assert "psi:intercept" in res.diagnostics["boundary"]
        assert any("boundary" in w for w in res.diagnostics["warnings"])


class TestFitZinb2:
    def test_unboxed_starts_agree(self):
        # two-level factor x four-valued dose, covariate-dependent dispersion
        rng = np.random.default_rng(1)
        n = 240
        X = np.column_stack(
            [np.ones(n), rng.integers(0, 2, n), rng.choice([0.5, 1.0, 2.0, 4.0], n)]
        )
        mu = np.exp(X @ np.array([0.8, 0.3, 0.2]))
        pi = 1.0 / (1.0 + np.exp(-(X @ np.array([-1.0, 0.5, 0.0]))))
        theta = np.exp(X @ np.array([0.5, 0.0, 0.2]))
        y = rng.poisson(rng.gamma(theta, mu / theta))
        y = np.where(rng.uniform(size=n) < pi, 0, y).astype(float)
        ds = make_dataset(y, X, names=("intercept", "level", "dose"))
        res = fit("zinb2", ds, FitConfig(n_starts=3, seed=0))
        assert res.converged
        starts = res.diagnostics["starts"]
        assert len(starts) == 3
        for report in starts:
            assert report["loglik"] == pytest.approx(res.loglik, abs=1e-6)


class TestReferenceLevelInvariance:
    CSV = "\n".join(
        ["count,grp,x"]
        + [
            f"{y},{g},{v}"
            for y, g, v in zip(
                [0, 2, 1, 0, 4, 0, 3, 1, 0, 2, 5, 0, 1, 0, 2, 3, 0, 1, 4, 0] * 3,
                ["a", "b", "c", "a", "b", "c", "a", "b", "c", "a"] * 6,
                [0.5, -1.2, 0.3, 1.1, -0.4, 0.9, -0.8, 0.2, 1.5, -1.0] * 6,
            )
        ]
    )

    def test_loglik_invariant_to_reference_choice(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(self.CSV)
        fits = {}
        for ref in ("a", "c"):
            ds = load_csv(
                str(path),
                response_column="count",
                column_specs=[
                    ColumnSpec("grp", "categorical", reference_level=ref),
                    ColumnSpec("x", "numeric"),
                ],
            )
            fits[ref] = fit("zip", ds, FitConfig(n_starts=1, seed=0))
        assert fits["a"].loglik == pytest.approx(fits["c"].loglik, abs=1e-4)
        # the parameterizations differ even though the model is the same
        assert not np.allclose(
            fits["a"].coefficients.values, fits["c"].coefficients.values
        )


class TestWaldInference:
    def _result_with_hessian(self, values, hessian):
        values = np.asarray(values, dtype=float)
        return FitResult(
            model="zip",
            coefficients=CoefVector("zip", values, m=values.shape[0] // 2),
            loglik=-10.0,
            converged=True,
            n=50,
            N=None,
            n_evaluations=1,
            column_names=("a", "b")[: values.shape[0] // 2],
            has_intercept=False,
            dataset_digest="",
            config=FitConfig(),
            hessian=np.asarray(hessian, dtype=float),
        )

    def test_identity_information_gives_unit_se(self):
        res = self._result_with_hessian([1.0, -2.0], np.eye(2))
        out = wald_inference(res)
        assert np.allclose(out.std_errors, 1.0)
        assert np.allclose(out.z_stats, [1.0, -2.0])

    def test_z_of_1_96_maps_to_five_percent(self):
        res = self._result_with_hessian([1.96, 0.0], np.eye(2))
        out = wald_inference(res)
        assert out.p_values[0] == pytest.approx(0.05, abs=5e-4)
        assert out.p_values[1] == pytest.approx(1.0, abs=1e-12)

    def test_scaled_information(self):
        # info = diag(4, 25) -> cov = diag(1/4, 1/25) -> se = (1/2, 1/5)
        res = self._result_with_hessian([1.0, 1.0], np.diag([4.0, 25.0]))
        out = wald_inference(res)
        assert np.allclose(out.std_errors, [0.5, 0.2])
        assert np.allclose(out.z_stats, [2.0, 5.0])

    def test_indefinite_information_yields_nan_sentinels(self):
        res = self._result_with_hessian([1.0, 1.0], np.diag([1.0, -1.0]))
        out = wald_inference(res)
        assert np.all(np.isnan(out.std_errors))
        assert np.all(np.isnan(out.p_values))
        assert any("positive definite" in w for w in out.diagnostics["warnings"])

    def test_requires_hessian(self):
        res = self._result_with_hessian([1.0, 1.0], np.eye(2))
        res = FitResult(
            **{
                **{f: getattr(res, f) for f in (
                    "model coefficients loglik converged n N n_evaluations "
                    "column_names has_intercept dataset_digest config".split()
                )},
                "hessian": None,
            }
        )
        with pytest.raises(ValueError, match="hessian"):
            wald_inference(res)


class TestFitResultSerialization:
    def _small_fit(self):
        rng = np.random.default_rng(9)
        X, y = simulate_zip(rng, 80, np.array([0.2, 0.3]), np.array([0.0, 0.0]))
        ds = make_dataset(y, X, names=("intercept", "x"))
        return fit("zip", ds, FitConfig(n_starts=1, seed=0))

    def test_round_trip_preserves_estimates(self):
        res = self._small_fit()
        doc = json.loads(json.dumps(res.to_json_dict(), sort_keys=True))
        back = FitResult.from_json_dict(doc)
        assert back.model == res.model
        assert np.array_equal(back.coefficients.values, res.coefficients.values)
        assert back.loglik == res.loglik
        assert back.aic == res.aic
        assert back.dataset_digest == res.dataset_digest

    def test_nan_serializes_to_null(self):
        res = self._small_fit()
        se = res.std_errors.copy()
        se[0] = math.nan
        from dataclasses import replace

        doc = replace(res, std_errors=se).to_json_dict()
        assert doc["std_errors"][0] is None
        assert doc["std_errors"][1] == se[1]
        back = FitResult.from_json_dict(doc)
        assert math.isnan(back.std_errors[0])

    def test_json_is_serializable_and_stable(self):
        res = self._small_fit()
        s1 = json.dumps(res.to_json_dict(), sort_keys=True)
        s2 = json.dumps(self._small_fit().to_json_dict(), sort_keys=True)
        assert s1 == s2

    def test_coefficient_table_mentions_columns(self):
        res = self._small_fit()
        table = res.coefficient_table()
        assert "intercept" in table
        assert "beta" in table and "gamma" in table
        assert f"{res.loglik:.4f}" in table


class TestFitConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        with pytest.raises(ValueError):
            FitConfig(gradient_tolerance=0.0)
        with pytest.raises(ValueError):
            FitConfig(n_starts=0)
        with pytest.raises(ValueError):
            FitConfig(box=-1.0)

    def test_unknown_model_rejected(self):
        ds = make_dataset([1.0, 2.0, 0.0], np.ones((3, 1)))
        with pytest.raises(ValueError, match="unknown model"):
            fit("poisson", ds)

    def test_config_echo_in_result(self):
        rng = np.random.default_rng(9)
        X, y = simulate_zip(rng, 60, np.array([0.2, 0.1]), np.array([0.0, 0.0]))
        ds = make_dataset(y, X)
        cfg = FitConfig(n_starts=1, seed=123, box=4.0)
        res = fit("zip", ds, cfg)
        assert res.config == cfg
        assert res.to_json_dict()["config"]["seed"] == 123
        assert res.to_json_dict()["config"]["box"] == 4.0
