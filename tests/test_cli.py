"""CLI exit-code contract, output formats, determinism."""

import argparse
import ast
import contextlib
import inspect
import io
import json
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import qbias.cli
from qbias.cli import main
from qbias.reports import canonical_json

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
                 # a modulus below 1 or beyond float range
                 ["asymptotics", "boundary", "--a", "1", "--m", "0", "--z", "0.5"],
                 ["asymptotics", "boundary", "--a", "1", "--m", "-3", "--z", "0.5"],
                 ["asymptotics", "constants", "--a", "1", "--m", "1" + "0" * 400],
                 # a real-point value that underflows to 0.0
                 ["asymptotics", "boundary", "--a", "1", "--m", "3", "--flavor", "01",
                  "--z", "10000", "--h", "1"],
                 # verifications that would compare nothing
                 ["cross-check", "--m-max", "0"],
                 ["verify", "thm1", "--m-max", "1"],
                 ["verify", "thm2", "--m-max", "2"],
                 ["verify", "nonneg", "--draws", "0"],
                 ["verify", "identities", "--names", ""],
                 ["verify", "lemma2-1", "--a", "1", "--b", "2", "--m", "5", "--N", "4"],
                 # orders and sample sizes outside what the routes accept
                 ["scan-conjecture", "--a", "1", "--b", "2", "--m", "3", "--N", "-1"],
                 ["verify", "identities", "--N", "0", "--names", "jacobi"],
                 ["asymptotics", "convergence", "--a", "1", "--m", "3", "--samples", "3000"],
                 ["asymptotics", "predict", "--profile", "partitions",
                  "--n-values", "1" + "0" * 400],
                 ["verify", "thm1", "--m-max", "2", "--N", "10", "--jobs", "0"],
                 ["verify", "thm1", "--N", "0"],
                 ["verify", "thm2", "--N", "-3"],
                 ["verify", "thm1", "--N", "3"],
                 # common flags follow the subcommand, never precede it
                 ["--format", "csv", "compute-bias", "--a", "1", "--b", "2", "--m", "2",
                  "--N", "5"],
                 ["--jobs", "3", "verify", "thm1", "--m-max", "2", "--N", "10"],
                 # flags the command does not read
                 ["asymptotics", "constants", "--a", "1", "--m", "3", "--N", "10"],
                 ["asymptotics", "convergence", "--a", "1", "--m", "3", "--N", "2000"],
                 ["compute-bias", "--a", "1", "--b", "2", "--m", "2", "--N", "5",
                  "--jobs", "2"],
                 ["oracle", "--total", "--x", "1", "--y", "1", "--n", "3",
                  "--a", "1", "--b", "1", "--m", "9"]):
        res = run_cli(argv)
        assert res.returncode == 2, argv
        assert {"error", "type"} <= set(json.loads(res.stderr.splitlines()[-1])), argv
    # a control character in a token is escaped, so the error stays one line
    res = run_cli(["oracle", "--n", "1", "--a", "1", "--b", "2", "--m", "3", "foo\nbar"])
    assert res.returncode == 2
    assert "foo\nbar" in json.loads(res.stderr.splitlines()[-1])["error"]
    # argparse refusals take the same path, and their message names the flag
    for flag, argv in (
            ("--y-grid", ["verify", "thm2", "--m-max", "4", "--N", "20", "--x-grid", "1",
                          "--y-grid", "0"]),
            ("--kind", ["verify", "identities", "--N", "20", "--kind", "maino"]),
            ("--jobs", ["verify", "thm1", "--m-max", "2", "--N", "10", "--jobs", "-3"]),
            ("--m", ["verify", "thm1", "--m", "3", "--N", "10"]),  # abbreviates --m-max
            ("--x", ["compute-bias", "--a", "1", "--b", "2", "--m", "3", "--N", "5",
                     "--x", "1.5"]),
            ("--x-grid", ["verify", "thm1", "--x-grid", "1,abc"]),
            # the guard is on by default; only --no-horizon-guard is a flag
            ("--horizon-guard", ["scan-conjecture", "--a", "1", "--b", "2", "--m", "3",
                                 "--N", "120", "--horizon-guard"])):
        res = run_cli(argv)
        assert res.returncode == 2, argv
        err = json.loads(res.stderr.splitlines()[-1])
        assert err["type"] == "InvalidParameterError", argv
        assert flag in err["error"], argv


def test_tail_bound_failure_exit_3_and_json_error():
    res = run_cli(["asymptotics", "boundary", "--a", "1", "--m", "3", "--flavor", "01",
                   "--z", "0.05", "--N", "200"])
    assert res.returncode == 3
    err = json.loads(res.stderr)
    assert err["type"] == "TailBoundError"


def test_boundary_order_cap_exit_2_and_json_error():
    # z = 0.01 needs an order above 2^15 and an explicit huge N asks for one:
    # both are refused before any series is built
    for extra in (["--z", "0.01"], ["--z", "0.5", "--N", "10000000"]):
        res = subprocess.run(RUN + ["asymptotics", "boundary", "--a", "1", "--m", "3"] + extra,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 2, extra
        assert json.loads(res.stderr)["type"] == "InvalidParameterError"


def test_scan_exit_codes():
    res = run_cli(["scan-conjecture", "--a", "2", "--b", "3", "--m", "5", "--N", "220"])
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["threshold"] == 45
    # the excluded case keeps violating near the horizon: guarded -> exit 3
    res = run_cli(["scan-conjecture", "--a", "1", "--b", "2", "--m", "3", "--N", "120"])
    assert res.returncode == 3
    assert json.loads(res.stdout)["inconclusive"] is True
    assert json.loads(res.stderr)["type"] == "HorizonGuard"
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


def test_compute_bias_dp_writes_the_gf_json_for_rational_weights(capsys):
    # every dp value is a rational here, its empty sum at n = 0 too
    out = {}
    for method in ("gf", "dp"):
        assert main(["compute-bias", "--a", "1", "--b", "2", "--m", "3", "--x", "3/2",
                     "--y", "1/2", "--N", "20", "--method", method]) == 0
        out[method] = capsys.readouterr().out
    assert json.loads(out["dp"])["values"][0] == "0/1"
    assert out["dp"].replace('"method":"dp"', '"method":"gf"') == out["gf"]


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


def test_canonical_json_escapes_control_characters():
    # JSON forbids a raw U+0000-U+001F inside a string
    obj = {"k": 'a\x01b\n"\\', "t": "\t"}
    text = canonical_json(obj)
    assert text == '{"k":"a\\u0001b\\u000a\\"\\\\","t":"\\u0009"}\n'
    assert json.loads(text) == obj


def test_total_oracle_writes_canonical_weights():
    # equal weights written differently give the same report bytes, in the
    # bias oracle's "p/q" form
    halves = [run_cli(["oracle", "--total", "--x", x, "--y", "1", "--n", "3"])
              for x in ("2/4", "1/2")]
    assert [r.returncode for r in halves] == [0, 0]
    assert halves[0].stdout == halves[1].stdout
    obj = json.loads(halves[0].stdout)
    assert (obj["x"], obj["y"], obj["value"]) == ("1/2", "1/1", "33/8")


def test_determinism_byte_identical(tmp_path):
    args = ["verify", "identities", "--N", "60"]
    first = run_cli(args + ["--out", str(tmp_path / "a.json")])
    second = run_cli(args + ["--out", str(tmp_path / "b.json")])
    assert first.returncode == second.returncode == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_verify_identities_runs_every_substitution():
    res = run_cli(["verify", "identities", "--N", "20"])
    assert res.returncode == 0
    results = json.loads(res.stdout)["results"]
    assert [(r["identity"], r["N"]) for r in results] == (
        [("jacobi", 20)] * 5 + [("fine", 20)] * 3 + [("heine", 20)] * 3
        + [("theta_reciprocal", None), ("kronecker", None)])


def test_main_callable_in_process(capsys):
    code = main(["asymptotics", "constants", "--a", "1", "--m", "3"])
    assert code == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert obj["values"][0]["value"] == 0.5


def test_help_returns_0_in_process(capsys):
    assert main(["verify", "thm1", "--help"]) == 0
    assert "--y-grid" in capsys.readouterr().out


def test_unread_flag_prints_the_leaf_usage():
    res = run_cli(["verify", "thm1", "--m", "3"])
    assert res.returncode == 2
    usage, *_, last = res.stderr.splitlines()
    assert usage.startswith("usage: qbias verify thm1 ")
    assert json.loads(last) == {"error": "unrecognized arguments: --m 3",
                                "type": "InvalidParameterError"}


def test_kept_parser_matches_fresh_parsers(monkeypatch):
    """main keeps one parser across calls: different leaves and a refusal
    in between give the same bytes and exit codes as a fresh parser each."""
    argvs = [["oracle", "--a", "1", "--b", "2", "--m", "3", "--n", "6"],
             ["verify", "thm1", "--m", "3"],
             ["asymptotics", "constants", "--a", "1", "--m", "5", "--format", "csv"],
             ["oracle", "--total", "--x", "1/2", "--n", "4"],
             ["oracle", "--a", "1", "--b", "2", "--m", "3", "--n", "6"]]

    def run_all():
        seen = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                seen.append((main(argv), out.getvalue(), err.getvalue()))
        return seen

    kept = run_all()
    monkeypatch.setattr(qbias.cli, "_parser", qbias.cli.build_parser)
    assert kept == run_all()
    assert [code for code, _, _ in kept] == [0, 2, 0, 0, 0]
    assert kept[0] == kept[-1]


def test_unexpected_exception_exit_4_and_json_error(monkeypatch, capsys):
    def broken(spec, N):
        raise ZeroDivisionError("defect")

    monkeypatch.setattr(qbias.cli, "bias_series_gf", broken)
    code = main(["compute-bias", "--a", "1", "--b", "2", "--m", "3", "--N", "5"])
    assert code == 4
    lines = capsys.readouterr().err.splitlines()
    assert "Traceback (most recent call last):" in lines[:-1]
    err = json.loads(lines[-1])
    assert err == {"error": "defect", "type": "ZeroDivisionError"}


def _leaves(parser, prefix=()):
    """(command, parser) for every leaf command under ``parser``."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(prefix), parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from _leaves(sub, prefix + (name,))


def _args_read(function):
    """Every ``args.<name>`` that a runner's source reads."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def test_every_leaf_declares_exactly_the_flags_its_runner_reads():
    leaves = dict(_leaves(qbias.cli.build_parser()))
    assert sorted(leaves) == sorted(qbias.cli._RUNNERS)
    declared = {command: {a.dest for a in parser._actions if a.option_strings}
                - {"help", "format", "out"} for command, parser in leaves.items()}
    served = {}
    for command, runner in qbias.cli._RUNNERS.items():
        served.setdefault(runner, []).append(command)
    for runner, commands in served.items():
        read = _args_read(runner)
        for command in commands:
            assert declared[command] <= read, (command, declared[command] - read)
        assert read <= set().union(*(declared[c] for c in commands)), (
            runner.__name__, read - set().union(*(declared[c] for c in commands)))


# random small argv: every order capped at 60 (oracle n at 12) and sweeps
# run in-process, so one draw stays cheap
_SMALL = st.integers(1, 7).map(str)
_ORDER = st.integers(1, 60).map(str)
_WEIGHT = st.sampled_from(("0", "1", "2", "1/2", "3/2", "-1"))
_GRID = st.sampled_from(("1,2", "3/2", "0,1/2", "1", "0", "-1"))
_JUNK = st.sampled_from(("", "x", "-1", "0", "2/0", "1.5", "nan", "1,,2", "1,abc"))
# flags whose values argparse converts to exact rationals or names
_CONVERTED = ("--x", "--y", "--x-grid", "--y-grid", "--names")
_CLASSES = {"--a": None, "--b": None, "--m": None}
_WEIGHTS = {"--x": _WEIGHT, "--y": _WEIGHT}
_SWEEP = {"--m-max": st.integers(2, 4).map(str), "--N": _ORDER, "--x-grid": _GRID}
_SYMMETRIC = {"--a": None, "--m": None, "--flavor": st.sampled_from(("01", "10", "11"))}
# the flags of each leaf command; "oracle --total" is drawn as a leaf of its own
_COMMANDS = {
    "compute-bias": {**_CLASSES, **_WEIGHTS, "--N": _ORDER,
                     "--method": st.sampled_from(("gf", "dp", "symmetric"))},
    "verify thm1": {**_SWEEP, "--y-grid": _GRID},
    "verify thm2": _SWEEP,
    "verify lemma2-1": {**_CLASSES, **_WEIGHTS, "--N": _ORDER},
    "verify nonneg": {
        "--kind": st.sampled_from(("f_series", "maino", "chern_corollary", "andrews")),
        "--draws": st.integers(1, 3).map(str), "--seed": _SMALL, "--N": _ORDER},
    "verify identities": {
        "--names": st.sampled_from(("jacobi", "fine,heine", "kronecker", "nope")),
        "--N": _ORDER},
    "scan-conjecture": {**_CLASSES, "--N": _ORDER},
    "asymptotics constants": _SYMMETRIC,
    "asymptotics predict": {
        "--profile": st.sampled_from(("partitions", "distinct", "overpartitions")),
        "--n-values": st.sampled_from(("10,100", "1000", "0", "-5"))},
    "asymptotics convergence": {
        **_SYMMETRIC, "--samples": st.sampled_from(("20,40", "30,60", "0,1", "-5,0"))},
    "asymptotics boundary": {
        **_SYMMETRIC, "--z": st.sampled_from(("0.5,0.4", "0.05", "2", "-0.3", "0")),
        "--h": _SMALL, "--N": _ORDER},
    "oracle": {**_CLASSES, **_WEIGHTS, "--n": st.integers(0, 12).map(str)},
    "oracle --total": {**_WEIGHTS, "--n": st.integers(0, 12).map(str)},
    "cross-check": {"--m-max": st.integers(2, 3).map(str),
                    "--n-max": st.integers(1, 10).map(str)},
}
# flags given on every draw: required ones, and those whose defaults would
# run far past the caps
_ALWAYS = {"--a", "--b", "--m", "--N", "--samples", "--n", "--m-max", "--n-max",
           "--draws", "--profile"}


@st.composite
def small_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = command.split()
    m = draw(st.integers(2, 7))
    classes = {"--m": str(m), "--a": str(draw(st.integers(1, m))),
               "--b": str(draw(st.integers(1, m)))}
    for flag, values in _COMMANDS[command].items():
        if flag in _ALWAYS or draw(st.booleans()):
            argv += [flag, classes.get(flag) or draw(values)]
    if len(argv) > 2 and draw(st.booleans()):
        # one malformed token anywhere, or in the value of a converted flag
        spots = [i + 1 for i, tok in enumerate(argv) if tok in _CONVERTED]
        if spots and draw(st.booleans()):
            argv[draw(st.sampled_from(spots))] = draw(_JUNK)
        else:
            argv[draw(st.integers(1, len(argv) - 1))] = draw(_JUNK)
    if command in ("verify thm1", "verify thm2"):
        argv += ["--jobs", "1"]
    return argv + ["--format", draw(st.sampled_from(("json", "csv", "human")))]


@settings(max_examples=60, deadline=None)
@given(small_argv())
def test_exit_code_contract_on_random_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), argv
    if code >= 2:
        assert {"error", "type"} <= set(json.loads(err.getvalue().splitlines()[-1])), argv
