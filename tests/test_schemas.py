import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fbreg.compare import comparison_report
from fbreg.data import Dataset
from fbreg.fitting import FitConfig, fit
from fbreg.simulate import SimSpec, run_study

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / name) as fh:
        return json.load(fh)


def round_trip(doc):
    # what a consumer sees: the artifact after a serialize/parse cycle
    return json.loads(json.dumps(doc, sort_keys=True))


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(14)
    n = 100
    x = rng.uniform(-2, 2, n)
    X = np.column_stack([np.ones(n), x])
    mu = np.exp(0.3 + 0.4 * x)
    pi = 1 / (1 + np.exp(0.8 - 0.2 * x))
    y = np.where(rng.uniform(size=n) < pi, 0, rng.poisson(mu)).astype(float)
    ds = Dataset(
        y=y,
        X=X,
        column_names=("intercept", "x"),
        N=int(max(y.max(), 1)),
        has_intercept=False,
    )
    res_zip = fit("zip", ds, FitConfig(n_starts=1, seed=0))
    res_zinb = fit("zinb", ds, FitConfig(n_starts=1, seed=0))
    return ds, res_zip, res_zinb


class TestFitResultSchema:
    def test_artifact_validates(self, fitted):
        _, res_zip, res_zinb = fitted
        schema = load_schema("fit_result.schema.json")
        jsonschema.validate(round_trip(res_zip.to_json_dict()), schema)
        jsonschema.validate(round_trip(res_zinb.to_json_dict()), schema)

    def test_likelihood_cells_recorded_and_optional(self, fitted):
        ds, res_zip, _ = fitted
        schema = load_schema("fit_result.schema.json")
        doc = round_trip(res_zip.to_json_dict())
        # continuous covariates: no (design row, count) pair repeats
        assert doc["diagnostics"]["likelihood_cells"] == ds.n
        # artifacts written before the counter existed still validate
        del doc["diagnostics"]["likelihood_cells"]
        jsonschema.validate(doc, schema)

    def test_start_iterations_recorded_and_optional(self, fitted):
        _, res_zip, _ = fitted
        schema = load_schema("fit_result.schema.json")
        doc = round_trip(res_zip.to_json_dict())
        assert all(isinstance(r["iterations"], int) for r in doc["diagnostics"]["starts"])
        for r in doc["diagnostics"]["starts"]:
            del r["iterations"]
        jsonschema.validate(doc, schema)

    def test_missing_required_key_fails(self, fitted):
        _, res_zip, _ = fitted
        schema = load_schema("fit_result.schema.json")
        doc = round_trip(res_zip.to_json_dict())
        del doc["dataset_digest"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)

    def test_wrong_artifact_kind_fails(self, fitted):
        _, res_zip, _ = fitted
        schema = load_schema("fit_result.schema.json")
        doc = round_trip(res_zip.to_json_dict())
        doc["artifact"] = "something_else"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)


class TestComparisonSchema:
    def test_artifact_validates(self, fitted):
        ds, res_zip, res_zinb = fitted
        schema = load_schema("comparison.schema.json")
        doc = round_trip(comparison_report([res_zip, res_zinb], ds))
        jsonschema.validate(doc, schema)

    def test_negative_delta_fails(self, fitted):
        ds, res_zip, res_zinb = fitted
        schema = load_schema("comparison.schema.json")
        doc = round_trip(comparison_report([res_zip, res_zinb], ds))
        doc["leaderboard"][0]["delta_aic"] = -1.0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)


class TestSimReportSchema:
    def test_artifact_validates(self):
        spec = SimSpec(
            theta_true=(-1.0, 1.0, 2.0, 1.0, 0.0, -1.0),
            n=50,
            N=5,
            replications=2,
            seed=3,
        )
        schema = load_schema("sim_report.schema.json")
        doc = round_trip(run_study(spec).to_json_dict())
        jsonschema.validate(doc, schema)
        assert "elapsed" not in json.dumps(doc)

    def test_schemas_declare_dialect_and_id(self):
        for name in (
            "fit_result.schema.json",
            "sim_report.schema.json",
            "comparison.schema.json",
        ):
            schema = load_schema(name)
            assert schema["$schema"].endswith("2020-12/schema")
            assert schema["$id"].endswith("/v1")
