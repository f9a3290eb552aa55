"""Regenerate reference.json: the SHA-256 of every operation's exact output.

Every operation any seed can draw is run once, in this process, and must
succeed (CLI runs must exit 0).  Run it only on a commit whose outputs are
known good; the benchmark then flags any later change in an exact output.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def main() -> int:
    outdir = os.path.join(os.path.dirname(HERE), ".bench_out", "reference")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "op.out")
    digests = {}
    for workload in sorted(workloads.WORKLOADS):
        for op in workloads.all_ops(workload):
            if os.path.exists(path):
                os.remove(path)
            t0 = time.perf_counter()
            result = workloads.run_op(op, 2, path)
            cost = time.perf_counter() - t0
            key = workloads.op_key(op)
            if op[0] == "cli" and result != 0:
                raise SystemExit(f"{key} exited {result}")
            digests[key] = workloads.digest(workloads.output_bytes(op, result, path))
            print(f"{workload}\t{cost:.3f}\t{key}", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"digests": dict(sorted(digests.items()))}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
