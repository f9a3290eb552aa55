"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, install, summarize  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)["digests"]


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_printed_metrics_match_benchmark_json():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        lines, result = _bench("--workload", "deep-rat", "--seed", "0", "--seconds", "0",
                               "--trace", trace)
        declared = _declared(kind)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        named = [line.split(" = ")[0] for line in lines if " = " in line]
        assert named == list(declared)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_tracer_restores_every_binding():
    import qbias.checks
    import qbias.engine

    tracer = install(Tracer())
    patched = list(tracer._patches)
    try:
        assert len(patched) > 30
        for owner, attr, original in patched:
            current = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            assert current is not original, attr
        assert qbias.engine._METHODS["gf"] is not qbias.engine.bias_series_gf
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        current = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        assert current is original, attr
    assert qbias.engine._METHODS["gf"] is qbias.engine.bias_series_gf
    assert qbias.checks.bias_series_gf is qbias.engine.bias_series_gf


def _one_pass(tmp_path, tag, trace, reference=None):
    outdir, result = tmp_path / tag, tmp_path / f"{tag}.json"
    cmd = [sys.executable, os.path.join(BENCH, "onepass.py"), "--workload", "battery",
           "--seed", "0", "--jobs", "2", "--trace", str(trace),
           "--outdir", str(outdir), "--result", str(result)]
    if reference:
        cmd += ["--reference", str(reference)]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=170)
    return outdir, json.loads(result.read_text())


def test_battery_reports_identical_with_tracing_on_and_off(tmp_path):
    plain_dir, plain = _one_pass(tmp_path, "plain", 0)
    traced_dir, traced = _one_pass(tmp_path, "traced", 1)
    assert traced["spans"] and "spans" not in plain
    names = sorted(os.listdir(plain_dir))
    assert names and names == sorted(os.listdir(traced_dir))
    for name in names:
        assert (plain_dir / name).read_bytes() == (traced_dir / name).read_bytes(), name
    assert plain["failed"] == traced["failed"] == 0


def test_wrong_digest_makes_fail_frac_positive(tmp_path):
    bad = {key: "0" * 64 if key.startswith("compare") else value
           for key, value in REFERENCE.items()}
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"digests": bad}))
    _, result = _bench("--workload", "deep-rat", "--seed", "0", "--seconds", "0",
                       "--trace", "1", "--reference", str(path))
    assert result["metrics"]["fail_frac"]["value"] > 0
    assert result["failed"] > 0 and not result["correct"]


def test_every_drawable_operation_has_a_reference_digest():
    for name in workloads.WORKLOADS:
        for seed in range(500):
            for op in workloads.draw(name, seed):
                assert workloads.op_key(op) in REFERENCE, (name, seed, op)
        assert all(workloads.op_key(op) in REFERENCE for op in workloads.all_ops(name))


def test_summarize_busy_and_self_time():
    ms = 1_000_000
    spans = [
        ["outer", -1, 0, 10 * ms],
        ["inner", 0, 1 * ms, 4 * ms],
        ["inner", 0, 5 * ms, 7 * ms],
        ["outer", 2, 5 * ms, 6 * ms],   # re-entered: busy time counts it once
    ]
    rows = summarize(spans)
    assert rows["outer"]["calls"] == 2
    assert abs(rows["outer"]["busy_s"] - 0.010) < 1e-12
    assert abs(rows["outer"]["self_s"] - (0.005 + 0.001)) < 1e-12
    assert abs(rows["inner"]["busy_s"] - 0.005) < 1e-12
    assert abs(rows["inner"]["self_s"] - 0.004) < 1e-12
