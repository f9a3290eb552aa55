"""One workload pass in a fresh interpreter; run.py starts one per pass.

The pass imports qbias, runs the seed's operations, and times them from the
first call into qbias to the last result, so the engine's module caches
start cold as they do for every CLI user.  The calibration kernel runs just
before and just after the timed region.  Then the pass hashes each exact
output against the reference and writes one JSON result file.

    python3 perfbench/onepass.py --workload W --seed S --jobs J --trace 0|1 \
        --outdir DIR --result FILE [--reference FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, install  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_pass(workload, seed, jobs, trace, outdir, reference) -> dict:
    import qbias.cli  # noqa: F401  (the set-up every CLI run pays, outside the timed region)
    import qbias.scalars

    ops = workloads.draw(workload, seed)
    paths = [os.path.join(outdir, f"op{i}.out") for i in range(len(ops))]
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    cal = calibrate.samples()
    tracer = install(Tracer()) if trace else None
    results = []
    try:
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        for op, path in zip(ops, paths):
            try:
                results.append((workloads.run_op(op, jobs, path), None))
            except Exception:  # a failing operation is counted, not fatal
                results.append((None, traceback.format_exc(limit=3)))
        wall = time.perf_counter() - t0
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    finally:
        if tracer is not None:
            tracer.restore()
    cal += calibrate.samples()

    failures = []
    for op, path, (result, error) in zip(ops, paths, results):
        key = workloads.op_key(op)
        if error is not None:
            failures.append({"op": key, "why": error})
            continue
        got = workloads.digest(workloads.output_bytes(op, result, path))
        want = reference.get(key)
        if got != want:
            failures.append({"op": key, "why": f"digest {got} != reference {want}"})
    out = {
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "cal_s": statistics.median(cal),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "backend": type(qbias.scalars.rational(1, 2)).__module__.split(".")[0],
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counters"] = tracer.counters()
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--outdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = p.parse_args(argv)
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)["digests"]
    os.makedirs(args.outdir, exist_ok=True)
    out = run_pass(args.workload, args.seed, args.jobs, args.trace, args.outdir, reference)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
