"""The benchmark's tracer (perfbench/tracer.py) rebinds qbias names from
outside; every name it wraps must exist, and every binding must come back.

perfbench's own tests check this too, but they sit outside this suite, so
renaming or dropping a traced name would break the benchmark unseen."""

import importlib.util
import pathlib

import qbias.checks
import qbias.engine

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def binding(owner, attr):
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def test_tracer_installs_and_restores_every_binding():
    tracer_module = load_tracer()
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
