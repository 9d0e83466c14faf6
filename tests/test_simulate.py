import json
import math

import numpy as np
import pytest

import fbreg.simulate as sim
from fbreg.frbinom import c_max, variance_exact, FbParams
from fbreg.likelihood import link_fb
from fbreg.simulate import SimReport, SimSpec, generate, run_study

THETA = (-1.0, 1.0, 2.0, 1.0, 0.0, -1.0)


class TestSimSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimSpec(theta_true=THETA, n=100, N=10, replications=0)
        with pytest.raises(ValueError, match="3\\*k"):
            SimSpec(theta_true=(1.0, 2.0), n=100, N=10)
        with pytest.raises(ValueError):
            SimSpec(theta_true=THETA, n=100, N=10, box=0.0)
        with pytest.raises(ValueError):
            SimSpec(theta_true=THETA, n=100, N=10, k=0)
        with pytest.raises(ValueError):
            SimSpec(theta_true=(math.inf,) * 6, n=100, N=10)

    def test_coef_names_cover_links_and_columns(self):
        spec = SimSpec(theta_true=THETA, n=50, N=5)
        assert spec.coef_names == (
            "psi:x1",
            "psi:x2",
            "eta:x1",
            "eta:x2",
            "nu:x1",
            "nu:x2",
        )

    def test_three_covariate_design(self):
        spec = SimSpec(theta_true=tuple(range(9)), n=50, N=5, k=3)
        assert len(spec.coef_names) == 9


class TestGenerate:
    def test_deterministic_per_seed_and_index(self):
        spec = SimSpec(theta_true=THETA, n=80, N=8, seed=3)
        a = generate(spec, 2)
        b = generate(spec, 2)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.X, b.X)
        assert a.digest() == b.digest()

    def test_replications_differ(self):
        spec = SimSpec(theta_true=THETA, n=80, N=8, seed=3)
        assert generate(spec, 0).digest() != generate(spec, 1).digest()

    def test_design_geometry(self):
        spec = SimSpec(theta_true=THETA, n=60, N=7, seed=1)
        ds = generate(spec, 0)
        assert ds.X.shape == (60, 2)
        assert not ds.has_intercept
        assert ds.N == 7
        assert np.all(np.abs(ds.X) < 2.0)
        assert np.all(ds.y >= 0) and np.all(ds.y <= 7)

    def test_zero_coefficients_give_central_parameters(self):
        # x'theta = 0 for every x, so each response is drawn at
        # p = 1/2, H = 1/2, c = c_max(1/2, 1/2) / 2
        spec = SimSpec(theta_true=(0.0,) * 6, n=4000, N=8, seed=9)
        ds = generate(spec, 0)
        p, H, cc = link_fb(ds.X, np.zeros(6))
        assert np.all(p == 0.5) and np.all(H == 0.5) and np.all(cc == 0.5)
        c = 0.5 * c_max(0.5, 0.5)
        var = variance_exact(8, FbParams(p=0.5, H=0.5, c=c))
        band = 3.0 * math.sqrt(var / 4000)
        assert abs(ds.y.mean() - 8 * 0.5) < band

    def test_mean_matches_linked_probabilities(self):
        # E[y_i] = N p_i, so mean(y) should track mean(N p_i)
        spec = SimSpec(theta_true=THETA, n=3000, N=10, seed=4)
        ds = generate(spec, 1)
        p, _, _ = link_fb(ds.X, np.asarray(THETA))
        centered = ds.y - 10 * p
        band = 3.0 * centered.std(ddof=1) / math.sqrt(ds.n)
        assert abs(centered.mean()) < band

    def test_negative_index_rejected(self):
        spec = SimSpec(theta_true=THETA, n=50, N=5)
        with pytest.raises(ValueError):
            generate(spec, -1)


@pytest.fixture(scope="module")
def small_report():
    spec = SimSpec(theta_true=THETA, n=50, N=5, replications=3, seed=2)
    return spec, run_study(spec)


class TestRunStudy:
    def test_aggregates_have_expected_shape(self, small_report):
        spec, report = small_report
        assert report.n_succeeded == 3
        assert len(report.failures) == 0
        assert len(report.bias) == 6
        assert len(report.se) == 6
        assert all(math.isfinite(b) for b in report.bias)
        assert all(s >= 0 for s in report.se)
        assert len(report.converged) == 3

    def test_json_reruns_identical_and_exclude_timing(self, small_report):
        spec, report = small_report
        again = run_study(spec)
        a = json.dumps(report.to_json_dict(), sort_keys=True)
        b = json.dumps(again.to_json_dict(), sort_keys=True)
        assert a == b
        assert "elapsed" not in a
        assert report.elapsed_seconds > 0

    def test_single_replication_has_no_spread(self):
        spec = SimSpec(theta_true=THETA, n=50, N=5, replications=1, seed=8)
        report = run_study(spec)
        assert report.se is None
        assert report.bias is not None
        assert report.to_json_dict()["se"] is None

    def test_failed_replication_is_counted_and_excluded(self, monkeypatch):
        real_fit = sim.fit
        calls = {"count": 0}

        def flaky_fit(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("synthetic failure")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(sim, "fit", flaky_fit)
        spec = SimSpec(theta_true=THETA, n=50, N=5, replications=3, seed=2)
        report = run_study(spec)
        assert report.n_succeeded == 2
        assert len(report.failures) == 1
        assert report.failures[0]["replication"] == 1
        assert "synthetic failure" in report.failures[0]["error"]
        assert len(report.estimates) == 2

    def test_text_table_mentions_coefficients_and_timing(self, small_report):
        _, report = small_report
        table = report.text_table()
        assert "psi:x1" in table and "nu:x2" in table
        assert "elapsed" in table
        assert "bias" in table

    def test_report_estimates_drive_bias(self, small_report):
        spec, report = small_report
        est = np.asarray(report.estimates)
        manual = est.mean(axis=0) - np.asarray(THETA)
        assert np.allclose(report.bias, manual, atol=0)

    def test_empty_study_reports_none_bias(self):
        spec = SimSpec(theta_true=THETA, n=50, N=5, replications=1, seed=0)
        report = SimReport(
            spec=spec, estimates=(), converged=(), failures=(), elapsed_seconds=0.1
        )
        assert report.bias is None
        assert report.se is None
        assert report.to_json_dict()["bias"] is None
