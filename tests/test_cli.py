import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import binom

from fbreg.cli import main

CSV_HEADER = "shoots,photo,xvar\n"


def write_csv(path, seed=17, n=120):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    grp = rng.choice(["lo", "hi"], size=n)
    mu = np.exp(0.3 + 0.5 * x + 0.4 * (grp == "hi"))
    pi = 1 / (1 + np.exp(-(-0.9 + 0.4 * x)))
    y = np.where(rng.uniform(size=n) < pi, 0, rng.poisson(mu))
    with open(path, "w") as fh:
        fh.write(CSV_HEADER)
        for yi, g, xi in zip(y, grp, x):
            fh.write(f"{yi},{g},{xi:.6f}\n")
    return path


DATASET_FLAGS = [
    "--response",
    "shoots",
    "--covariate",
    "photo:categorical",
    "--covariate",
    "xvar:numeric",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    csv = write_csv(root / "counts.csv")
    zip_art = root / "zip.json"
    fb_art = root / "fb.json"
    rc_zip = main(
        ["fit", "--input", str(csv), *DATASET_FLAGS, "--model", "zip",
         "--starts", "1", "--format", "json", "--out", str(zip_art)]
    )
    rc_fb = main(
        ["fit", "--input", str(csv), *DATASET_FLAGS, "--model", "fb",
         "--starts", "1", "--box", "8", "--format", "json", "--out", str(fb_art)]
    )
    assert rc_zip == 0 and rc_fb == 0
    return {"root": root, "csv": csv, "zip": zip_art, "fb": fb_art}


class TestPmfCommand:
    def test_independent_case_is_binomial(self, capsys):
        rc = main(["pmf", "--p", "0.5", "--H", "0.5", "--c0", "0", "--N", "10",
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        expected = binom.pmf(np.arange(11), 10, 0.5)
        assert np.allclose(doc["probabilities"], expected, atol=1e-12)
        assert doc["params"]["c"] == 0.0
        assert doc["mean"] == 5.0

    def test_dependence_inflates_zero_mass(self, capsys):
        rc = main(["pmf", "--p", "0.3", "--H", "0.9", "--c0", "0.9", "--N", "30",
                   "--format", "json"])
        assert rc == 0
        with_dep = json.loads(capsys.readouterr().out)
        rc = main(["pmf", "--p", "0.3", "--H", "0.9", "--c0", "0", "--N", "30",
                   "--format", "json"])
        assert rc == 0
        without = json.loads(capsys.readouterr().out)
        assert with_dep["probabilities"][0] > without["probabilities"][0]

    def test_invalid_probability_is_usage_error(self, capsys):
        rc = main(["pmf", "--p", "1.2", "--H", "0.5", "--c0", "0", "--N", "5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_csv_format_rows(self, capsys):
        rc = main(["pmf", "--p", "0.4", "--H", "0.7", "--c0", "0.5", "--N", "6",
                   "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,probability"
        assert len(lines) == 8
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_table_format_contains_moments(self, capsys):
        rc = main(["pmf", "--p", "0.4", "--H", "0.7", "--c0", "0.5", "--N", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean" in out and "variance" in out


class TestFitCommand:
    def test_artifact_contents(self, workdir):
        doc = json.loads(workdir["zip"].read_text())
        assert doc["artifact"] == "fit_result"
        assert doc["model"] == "zip"
        assert doc["converged"] is True
        assert len(doc["coefficients"]) == 6
        assert doc["dataset_digest"]
        assert doc["config"]["seed"] == 0
        assert doc["tool_version"]

    def test_fb_and_zip_share_dataset_digest(self, workdir):
        zip_doc = json.loads(workdir["zip"].read_text())
        fb_doc = json.loads(workdir["fb"].read_text())
        assert zip_doc["dataset_digest"] == fb_doc["dataset_digest"]
        assert fb_doc["N"] is not None
        assert zip_doc["N"] is None

    def test_table_goes_to_stdout_with_out(self, workdir, capsys, tmp_path):
        out = tmp_path / "again.json"
        rc = main(
            ["fit", "--input", str(workdir["csv"]), *DATASET_FLAGS,
             "--model", "zip", "--starts", "1", "--format", "json",
             "--out", str(out)]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "beta" in printed and "gamma" in printed
        assert out.exists()

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        out = tmp_path / "rerun.json"
        main(["fit", "--input", str(workdir["csv"]), *DATASET_FLAGS,
              "--model", "zip", "--starts", "1", "--format", "json",
              "--out", str(out)])
        assert out.read_bytes() == workdir["zip"].read_bytes()

    def test_n_override_recorded(self, workdir, tmp_path, capsys):
        rc = main(
            ["fit", "--input", str(workdir["csv"]), *DATASET_FLAGS,
             "--model", "fb", "--N", "12", "--starts", "1", "--box", "8",
             "--format", "json"]
        )
        assert rc in (0, 3)
        doc = json.loads(capsys.readouterr().out)
        assert doc["N"] == 12

    def test_missing_input_is_io_error(self, capsys):
        rc = main(["fit", "--input", "/nonexistent/x.csv", *DATASET_FLAGS,
                   "--model", "zip"])
        assert rc == 4
        assert "error" in capsys.readouterr().err

    def test_bad_covariate_spec_is_usage_error(self, workdir, capsys):
        rc = main(["fit", "--input", str(workdir["csv"]), "--response", "shoots",
                   "--covariate", "photo", "--model", "zip"])
        assert rc == 2
        assert "name:kind" in capsys.readouterr().err


class TestCompareCommand:
    def test_leaderboard_sorted(self, workdir, capsys):
        rc = main(
            ["compare", "--input", str(workdir["csv"]), *DATASET_FLAGS,
             "--fit", str(workdir["fb"]), "--fit", str(workdir["zip"]),
             "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        aics = [r["aic"] for r in doc["leaderboard"]]
        assert aics == sorted(aics)
        assert len(doc["vuong"]) == 1
        assert doc["invocation"]["fits"]

    def test_digest_mismatch_aborts(self, workdir, tmp_path, capsys):
        other_csv = write_csv(tmp_path / "other.csv", seed=99)
        rc = main(
            ["compare", "--input", str(other_csv), *DATASET_FLAGS,
             "--fit", str(workdir["fb"]), "--fit", str(workdir["zip"])]
        )
        assert rc == 2
        assert "digest" in capsys.readouterr().err

    def test_malformed_artifact_is_io_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(
            ["compare", "--input", str(workdir["csv"]), *DATASET_FLAGS,
             "--fit", str(bad), "--fit", str(workdir["zip"])]
        )
        assert rc == 4
        assert "malformed" in capsys.readouterr().err

    def test_artifact_with_retired_cache_switch_loads(self, workdir, tmp_path):
        # fit artifacts written before the pmf row cache, the simplex warm
        # start and the Newton polish were removed carry their settings in
        # their config and their counters in their diagnostics; they predate
        # the likelihood_cells counter
        doc = json.loads(workdir["zip"].read_text())
        del doc["diagnostics"]["likelihood_cells"]
        doc["config"]["use_cache"] = True
        doc["config"]["parameter_tolerance"] = 1e-6
        doc["diagnostics"]["score_calls"] = doc["n_evaluations"]
        doc["diagnostics"]["newton_polish_steps"] = 1
        for report in doc["diagnostics"]["starts"]:
            report["score_calls"] = report["evaluations"]
        older = tmp_path / "older_zip.json"
        older.write_text(json.dumps(doc))
        rc = main(
            ["compare", "--input", str(workdir["csv"]), *DATASET_FLAGS,
             "--fit", str(workdir["fb"]), "--fit", str(older)]
        )
        assert rc == 0

    def test_wrong_artifact_kind_is_usage_error(self, workdir, tmp_path, capsys):
        notfit = tmp_path / "notfit.json"
        notfit.write_text(json.dumps({"artifact": "pmf"}))
        rc = main(
            ["compare", "--input", str(workdir["csv"]), *DATASET_FLAGS,
             "--fit", str(notfit), "--fit", str(workdir["zip"])]
        )
        assert rc == 2


class TestVuongCommand:
    def test_two_fits(self, workdir, capsys):
        rc = main(
            ["vuong", "--input", str(workdir["csv"]), *DATASET_FLAGS,
             "--fit", str(workdir["fb"]), "--fit", str(workdir["zip"]),
             "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["artifact"] == "vuong"
        assert doc["model_a"] == "fb" and doc["model_b"] == "zip"
        assert math.isfinite(doc["statistic"])

    def test_self_comparison_is_identical_outcome(self, workdir, capsys):
        rc = main(
            ["vuong", "--input", str(workdir["csv"]), *DATASET_FLAGS,
             "--fit", str(workdir["zip"]), "--fit", str(workdir["zip"]),
             "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["identical_models"] is True
        assert doc["statistic"] is None

    def test_wrong_fit_count_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["vuong", "--input", str(workdir["csv"]), *DATASET_FLAGS,
                  "--fit", str(workdir["zip"])])
        assert exc.value.code == 2


class TestProfileCommand:
    def test_csv_shape(self, workdir, capsys):
        rc = main(
            ["profile", "--input", str(workdir["csv"]), *DATASET_FLAGS,
             "--fit", str(workdir["fb"]), "--fit", str(workdir["zip"]),
             "--max-count", "5"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,fitted_fb,fitted_zip,empirical"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "0"
        assert 0 < float(first[1]) < 1

    def test_empirical_column_is_relative_frequency(self, workdir, capsys):
        rc = main(
            ["profile", "--input", str(workdir["csv"]), *DATASET_FLAGS,
             "--fit", str(workdir["zip"]), "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        emp = [row[-1] for row in doc["rows"]]
        assert sum(emp) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_models_rejected(self, workdir, capsys):
        rc = main(
            ["profile", "--input", str(workdir["csv"]), *DATASET_FLAGS,
             "--fit", str(workdir["zip"]), "--fit", str(workdir["zip"])]
        )
        assert rc == 2
        assert "duplicate" in capsys.readouterr().err


class TestSimulateCommand:
    def test_json_artifact_and_rerun_bytes(self, tmp_path):
        args = ["simulate", "--theta=-1,1,2,1,0,-1", "--n", "40", "--N", "5",
                "--replications", "2", "--starts", "1",
                "--seed", "9", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["artifact"] == "sim_report"
        assert doc["spec"]["seed"] == 9
        assert len(doc["estimates"]) <= 2

    def test_table_format(self, capsys):
        rc = main(["simulate", "--theta=-1,1,2,1,0,-1", "--n", "40", "--N", "5",
                   "--replications", "1", "--starts", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "psi:x1" in out and "bias" in out

    def test_bad_theta_length_is_usage_error(self, capsys):
        rc = main(["simulate", "--theta=1,2", "--n", "40", "--N", "5"])
        assert rc == 2
        assert "3*k" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fbreg.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "fbreg" in proc.stdout

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fbreg.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 2
