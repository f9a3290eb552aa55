"""CLI exit-code contract, output formats, determinism."""

import json
import subprocess
import sys

import pytest

from qbias.cli import main

RUN = [sys.executable, "-m", "qbias.cli"]


def run_cli(args):
    return subprocess.run(RUN + args, capture_output=True, text=True)


def test_oracle_zero_case():
    res = run_cli(["oracle", "--a", "1", "--b", "2", "--m", "2",
                   "--x", "1", "--y", "0", "--n", "0"])
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["value"] == "0/1"


def test_invalid_config_exit_2_and_json_error():
    res = run_cli(["oracle", "--a", "1", "--b", "1", "--m", "2", "--n", "3"])
    assert res.returncode == 2
    err = json.loads(res.stderr)
    assert "error" in err
    res = run_cli(["oracle", "--a", "1", "--b", "2", "--m", "2", "--n", "not-int"])
    assert res.returncode == 2
    for argv in (["asymptotics", "convergence", "--a", "1", "--m", "3", "--samples", "1.5"],
                 ["asymptotics", "boundary", "--a", "1", "--m", "3", "--z", "abc"],
                 ["asymptotics", "boundary", "--a", "1", "--m", "3", "--z", "nan"],
                 ["asymptotics", "boundary", "--a", "1", "--m", "3", "--z", "inf"],
                 ["asymptotics", "constants", "--a", "1", "--m", "3",
                  "--out", "/nonexistent/x.json"],
                 # verifications that would compare nothing
                 ["cross-check", "--m-max", "0"],
                 ["verify", "thm1", "--m-max", "1"],
                 ["verify", "thm2", "--m-max", "2"],
                 ["verify", "nonneg", "--draws", "0"],
                 ["verify", "identities", "--names", ""]):
        res = run_cli(argv)
        assert res.returncode == 2, argv
        assert "error" in json.loads(res.stderr.splitlines()[-1])


def test_tail_bound_failure_exit_3_and_json_error():
    res = run_cli(["asymptotics", "boundary", "--a", "1", "--m", "3", "--flavor", "01",
                   "--z", "0.05", "--N", "200"])
    assert res.returncode == 3
    err = json.loads(res.stderr)
    assert err["type"] == "TailBoundError"


def test_scan_exit_codes():
    res = run_cli(["scan-conjecture", "--a", "2", "--b", "3", "--m", "5", "--N", "220"])
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["threshold"] == 45
    # the excluded case keeps violating near the horizon: guarded -> exit 3
    res = run_cli(["scan-conjecture", "--a", "1", "--b", "2", "--m", "3", "--N", "120"])
    assert res.returncode == 3
    res = run_cli(["scan-conjecture", "--a", "1", "--b", "2", "--m", "3", "--N", "120",
                   "--no-horizon-guard"])
    assert res.returncode == 0


def test_verify_thm1_small():
    res = run_cli(["verify", "thm1", "--m-max", "3", "--N", "40",
                   "--x-grid", "1,2", "--y-grid", "0,1", "--jobs", "1"])
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["passed"] is True and obj["violations"] == []


def test_verify_nonneg_seeded():
    res = run_cli(["verify", "nonneg", "--kind", "chern_corollary",
                   "--draws", "5", "--N", "60", "--seed", "7"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["passed"] is True


def test_compute_bias_csv_format():
    res = run_cli(["compute-bias", "--a", "1", "--b", "2", "--m", "2",
                   "--x", "1", "--y", "0", "--N", "6", "--format", "csv"])
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "0,0"
    assert lines[-1] == "6,7"


def test_compute_bias_methods_agree():
    out = {}
    for method in ("gf", "dp"):
        res = run_cli(["compute-bias", "--a", "1", "--b", "2", "--m", "3",
                       "--x", "1", "--y", "1", "--N", "12", "--method", method])
        assert res.returncode == 0
        out[method] = json.loads(res.stdout)["values"]
    assert out["gf"] == out["dp"]


def test_symmetric_method_validation():
    res = run_cli(["compute-bias", "--a", "1", "--b", "3", "--m", "3",
                   "--x", "0", "--y", "1", "--N", "10", "--method", "symmetric"])
    assert res.returncode == 2  # b != m - a


def test_rational_cli_inputs():
    res = run_cli(["oracle", "--a", "1", "--b", "2", "--m", "2",
                   "--x", "3/2", "--y", "1/2", "--n", "4"])
    assert res.returncode == 0
    value = json.loads(res.stdout)["value"]
    assert "/" in value
    res = run_cli(["oracle", "--a", "1", "--b", "2", "--m", "2",
                   "--x", "1.5", "--y", "0", "--n", "2"])
    assert res.returncode == 2  # floats rejected for exact computations


def test_determinism_byte_identical(tmp_path):
    args = ["verify", "identities", "--N", "60"]
    first = run_cli(args + ["--out", str(tmp_path / "a.json")])
    second = run_cli(args + ["--out", str(tmp_path / "b.json")])
    assert first.returncode == second.returncode == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_main_callable_in_process(capsys):
    code = main(["asymptotics", "constants", "--a", "1", "--m", "3"])
    assert code == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert obj["values"][0]["value"] == 0.5
