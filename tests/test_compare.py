import math

import numpy as np
import pytest

from fbreg import compare
from fbreg.compare import (
    VuongResult,
    aic,
    comparison_report,
    comparison_table,
    profile_distribution,
    vuong_p_value,
    vuong_statistic,
    vuong_test,
)
from fbreg.data import Dataset
from fbreg.fitting import FitConfig, fit
from fbreg.frbinom import pmf_batch
from fbreg.likelihood import link_fb


def make_dataset(y, X, names=("intercept", "x"), N=None):
    y = np.asarray(y, dtype=float)
    return Dataset(
        y=y,
        X=np.asarray(X, dtype=float),
        column_names=tuple(names),
        N=N if N is not None else int(max(y.max(), 1)),
        has_intercept=False,
    )


@pytest.fixture(scope="module")
def fitted_pair():
    rng = np.random.default_rng(21)
    n = 250
    x = rng.uniform(-2, 2, n)
    X = np.column_stack([np.ones(n), x])
    mu = np.exp(0.4 + 0.6 * x)
    pi = 1.0 / (1.0 + np.exp(-(-0.8 + 0.3 * x)))
    y = np.where(rng.uniform(size=n) < pi, 0, rng.poisson(mu)).astype(float)
    ds = make_dataset(y, X)
    res_zip = fit("zip", ds, FitConfig(n_starts=1, seed=0))
    res_zinb = fit("zinb", ds, FitConfig(n_starts=1, seed=0))
    return ds, res_zip, res_zinb


class TestAic:
    def test_known_nine_parameter_value(self):
        assert aic(-611.48, 9) == 1240.96

    def test_known_fifteen_parameter_value(self):
        assert aic(-606.32, 15) == 1242.64

    def test_ten_parameter_value(self):
        assert aic(-886.13, 10) == 1792.26

    def test_penalty_ordering(self):
        # same fit, more parameters, strictly worse criterion
        assert aic(-100.0, 5) < aic(-100.0, 6)

    def test_rejects_nonpositive_or_fractional_dimension(self):
        with pytest.raises(ValueError):
            aic(-10.0, 0)
        with pytest.raises(ValueError):
            aic(-10.0, 2.5)


class TestVuongPValue:
    def test_reference_values(self):
        assert vuong_p_value(1.86) == pytest.approx(0.031442762980752709, abs=1e-12)
        assert vuong_p_value(1.38) == pytest.approx(0.083793322415014262, abs=1e-12)

    def test_zero_statistic_is_half(self):
        assert vuong_p_value(0.0) == 0.5

    def test_complement_symmetry(self):
        for s in (0.3, 1.1, 2.7):
            assert vuong_p_value(-s) == pytest.approx(1.0 - vuong_p_value(s), abs=1e-15)


class TestVuongStatistic:
    def test_hand_computed_case(self):
        la = np.array([1.0, 2.0, 3.0])
        lb = np.zeros(3)
        stat, mean, sd = vuong_statistic(la + lb, lb)
        assert mean == pytest.approx(2.0)
        assert sd == pytest.approx(1.0)
        assert stat == pytest.approx(math.sqrt(3) * 2.0, abs=1e-12)

    def test_antisymmetry_is_exact(self):
        rng = np.random.default_rng(8)
        la = rng.normal(size=60)
        lb = rng.normal(size=60)
        s_ab, _, sd_ab = vuong_statistic(la, lb)
        s_ba, _, sd_ba = vuong_statistic(lb, la)
        assert s_ab == -s_ba
        assert sd_ab == sd_ba

    def test_constant_shift_leaves_statistic_alone(self):
        rng = np.random.default_rng(9)
        la = rng.normal(size=40)
        lb = rng.normal(size=40)
        shift = rng.normal(size=40)
        s0, _, _ = vuong_statistic(la, lb)
        s1, _, _ = vuong_statistic(la + shift, lb + shift)
        assert s1 == pytest.approx(s0, abs=1e-9)

    def test_zero_spread_returns_nan(self):
        la = np.array([1.0, 2.0, 3.0])
        stat, mean, sd = vuong_statistic(la, la - 0.5)
        assert sd == 0.0
        assert math.isnan(stat)
        assert mean == pytest.approx(0.5)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            vuong_statistic(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            vuong_statistic(np.zeros(1), np.zeros(1))


class TestVuongTest:
    def test_swapped_order_negates_statistic(self, fitted_pair):
        ds, res_zip, res_zinb = fitted_pair
        ab = vuong_test(res_zip, res_zinb, ds)
        ba = vuong_test(res_zinb, res_zip, ds)
        assert ab.statistic == -ba.statistic
        assert ab.n == ds.n
        assert ab.p_value == pytest.approx(vuong_p_value(ab.statistic), abs=1e-15)

    def test_self_comparison_flags_identical(self, fitted_pair):
        ds, res_zip, _ = fitted_pair
        out = vuong_test(res_zip, res_zip, ds)
        assert out.identical_models
        assert math.isnan(out.statistic)
        assert math.isnan(out.p_value)

    def test_digest_mismatch_refused(self, fitted_pair):
        ds, res_zip, res_zinb = fitted_pair
        other = make_dataset(
            ds.y[:100], ds.X[:100], names=ds.column_names, N=ds.N
        )
        with pytest.raises(ValueError, match="digest"):
            vuong_test(res_zip, res_zinb, other)

    def test_json_dict_cleans_nan(self, fitted_pair):
        ds, res_zip, _ = fitted_pair
        doc = vuong_test(res_zip, res_zip, ds).to_json_dict()
        assert doc["statistic"] is None
        assert doc["p_value_a_over_b"] is None
        assert doc["identical_models"] is True


class TestProfileDistribution:
    def test_bounded_model_profile_sums_to_one(self):
        rng = np.random.default_rng(31)
        n, N = 120, 6
        x = rng.uniform(-1, 1, n)
        X = np.column_stack([np.ones(n), x])
        theta = np.array([-0.5, 0.4, 1.0, 0.2, -0.5, 0.1])
        p, H, cc = link_fb(X, theta)
        rows = pmf_batch(N, p, H, cc)
        u = rng.uniform(size=n)
        y = np.minimum((np.cumsum(rows, axis=1) < u[:, None]).sum(axis=1), N)
        ds = make_dataset(y.astype(float), X, N=N)
        res = fit("fb", ds, FitConfig(n_starts=1, box=5.0, seed=0, compute_hessian=False))
        prof = profile_distribution(res, ds)
        assert prof["counts"] == list(range(N + 1))
        assert sum(prof["fitted"]) + prof["tail_mass"] == pytest.approx(1.0, abs=1e-8)
        assert prof["tail_mass"] == pytest.approx(0.0, abs=1e-8)
        assert sum(prof["empirical"]) == pytest.approx(1.0, abs=1e-12)

    def test_unbounded_baseline_has_tail(self, fitted_pair):
        ds, res_zip, _ = fitted_pair
        prof = profile_distribution(res_zip, ds, max_count=int(ds.y.max()))
        fitted = np.array(prof["fitted"])
        assert np.all(fitted >= 0)
        assert sum(prof["fitted"]) + prof["tail_mass"] == pytest.approx(1.0, abs=1e-6)
        assert prof["tail_mass"] > 0

    def test_zero_cell_matches_mixture_formula(self, fitted_pair):
        ds, res_zip, _ = fitted_pair
        prof = profile_distribution(res_zip, ds, max_count=3)
        beta, gamma = (
            res_zip.coefficients.blocks()["beta"],
            res_zip.coefficients.blocks()["gamma"],
        )
        mu = np.exp(ds.X @ beta)
        pi = 1.0 / (1.0 + np.exp(-(ds.X @ gamma)))
        expected = float(np.mean(pi + (1 - pi) * np.exp(-mu)))
        assert prof["fitted"][0] == pytest.approx(expected, rel=1e-9)


class TestComparisonReport:
    def test_leaderboard_sorted_with_deltas(self, fitted_pair):
        ds, res_zip, res_zinb = fitted_pair
        report = comparison_report([res_zip, res_zinb], ds)
        aics = [row["aic"] for row in report["leaderboard"]]
        assert aics == sorted(aics)
        assert report["leaderboard"][0]["delta_aic"] == 0.0
        assert len(report["vuong"]) == 1
        assert report["dataset_digest"] == ds.digest()

    def test_duplicate_models_rejected(self, fitted_pair):
        ds, res_zip, _ = fitted_pair
        with pytest.raises(ValueError, match="duplicate"):
            comparison_report([res_zip, res_zip], ds)

    def test_aic_rows_consistent_with_results(self, fitted_pair):
        ds, res_zip, res_zinb = fitted_pair
        report = comparison_report([res_zip, res_zinb], ds)
        by_model = {row["model"]: row for row in report["leaderboard"]}
        assert by_model["zip"]["aic"] == pytest.approx(aic(res_zip.loglik, res_zip.d))
        assert by_model["zinb"]["d"] == res_zinb.d

    def test_one_per_observation_pass_per_fit(self, monkeypatch):
        rng = np.random.default_rng(4)
        n = 60
        X = np.column_stack([np.ones(n), np.arange(n) % 2])
        y = rng.integers(0, 5, n)
        ds = make_dataset(y, X, N=6)
        config = FitConfig(n_starts=1, max_iterations=5, compute_hessian=False)
        results = [fit(m, ds, config) for m in ("fb", "zip", "zinb", "zinb2")]
        calls = []
        per_obs = compare.per_obs_loglik
        monkeypatch.setattr(
            compare, "per_obs_loglik", lambda *a, **k: calls.append(a[0]) or per_obs(*a, **k)
        )
        report = comparison_report(results, ds)
        assert sorted(calls) == ["fb", "zinb", "zinb2", "zip"]
        pairs = [
            vuong_test(a, b, ds).to_json_dict()
            for i, a in enumerate(results)
            for b in results[i + 1 :]
        ]
        assert report["vuong"] == pairs

    def test_table_rendering(self, fitted_pair):
        ds, res_zip, res_zinb = fitted_pair
        table = comparison_table(comparison_report([res_zip, res_zinb], ds))
        assert "zip" in table and "zinb" in table
        assert "aic" in table
        assert "vs" in table


class TestVuongResultShape:
    def test_fields_round_trip(self):
        r = VuongResult("fb", "zip", 1.5, 0.066, 100, 0.02, 0.13, False)
        doc = r.to_json_dict()
        assert doc["model_a"] == "fb"
        assert doc["statistic"] == 1.5
        assert doc["n"] == 100
        assert not doc["identical_models"]
