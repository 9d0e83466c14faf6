"""Smoke tests for the command-line scripts under scripts/: each main() runs
on tiny arguments, so a library change that breaks a script's calls or flags
fails here."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_simulation_study(tmp_path, capsys):
    out = tmp_path / "study.json"
    script = load_script("run_simulation_study")
    rc = script.main(["--n", "30", "40", "--N", "4", "--replications", "2",
                      "--seed", "1", "--out", str(out)])
    assert rc == 0
    reports = json.loads(out.read_text())["reports"]
    assert [r["spec"]["n"] for r in reports] == [30, 40]
    assert all(r["artifact"] == "sim_report" for r in reports)
    printed = capsys.readouterr().out
    assert "psi:x1" in printed and "s.e. shrank" in printed


def test_pmf_gallery(capsys):
    script = load_script("pmf_gallery")
    assert script.main(["--p", "0.3", "--N", "5", "--H", "0.7",
                        "--cc", "0", "0.5", "--head", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("p=0.3 N=5 H=0.7")
    # the c=0 row is the binomial: P(0) = 0.7^5, variance ratio 1
    zero_row = lines[2].split()
    assert float(zero_row[1]) == pytest.approx(0.7**5, abs=5e-5)
    assert float(zero_row[2]) == pytest.approx(1.0, abs=5e-4)
