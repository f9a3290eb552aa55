"""The benchmark's tracer (perfbench/tracer.py) rebinds qbias names from
outside; every name it wraps must exist, and every binding must come back.
The benchmark's deep compares and scans must still give the outputs whose
digests perfbench/reference.json holds.

perfbench's own tests check this too, but they sit outside this suite, so
renaming or dropping a traced name, or changing an output, would break the
benchmark unseen."""

import importlib.util
import json
import pathlib

import pytest

import qbias.checks
import qbias.engine

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    # loaded from its file, as perfbench/ is not a package; nothing there is
    # changed
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def binding(owner, attr):
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def test_tracer_installs_and_restores_every_binding():
    tracer_module = load("tracer")
    tracer = tracer_module.install(tracer_module.Tracer())
    patched = list(tracer._patches)
    try:
        assert patched
        for owner, attr, original in patched:
            assert binding(owner, attr) is not original, attr
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert binding(owner, attr) is original, attr
    assert qbias.engine._METHODS["gf"] is qbias.engine.bias_series_gf
    assert qbias.checks.compare_bias is qbias.engine.compare_bias
    assert qbias.checks.bias_series_gf is qbias.engine.bias_series_gf


WORKLOADS = load("workloads")
DEEP_OPS = [op for name in ("deep-int", "deep-rat") for op in WORKLOADS.all_ops(name)
            if op[0] in ("compare", "scan")]


@pytest.mark.parametrize("op", DEEP_OPS, ids=WORKLOADS.op_key)
def test_deep_compares_and_scans_match_their_reference_digests(op):
    reference = json.loads((PERFBENCH / "reference.json").read_text())["digests"]
    result = WORKLOADS.run_op(op, 1, None)
    got = WORKLOADS.digest(WORKLOADS.output_bytes(op, result, None))
    assert got == reference[WORKLOADS.op_key(op)]
