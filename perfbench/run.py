"""qbias benchmark: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--out FILE] [--reference FILE]

Run from the root of a qbias checkout.  Every pass runs in a fresh
interpreter (perfbench/onepass.py) with QBIAS_JOBS cleared and jobs pinned,
so the engine's module caches start cold as they do for a CLI user.  Passes
repeat until S seconds have been spent measuring; medians are reported.

--trace 0 reports the end-to-end metrics: wall_s, cpu_s and peak_rss_mb of
one pass, and setup_s, the time a fresh interpreter takes to import
qbias.cli.  --trace 1 pairs a traced pass with an untraced one and reports
the per-layer metrics.  The last line of stdout is the result as JSON; the
lines before it print each metric with its unit and the run's metadata.

Times are seconds at a reference machine speed: each pass also times the
fixed kernel in calibrate.py, and its seconds are scaled by
calibrate.REFERENCE_S / kernel time, so a slow spell of a shared host does
not read as a slower qbias.  The meta line keeps the unscaled medians.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import summarize  # noqa: E402

JOBS = 2            # the pool size every sweep pass is pinned to
SETUP_PER_PASS = 3  # fresh-interpreter imports timed before each pass
MIN_PASSES = 3      # an end-to-end run measures at least this many passes
PASS_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_BUSY = ("engine.gf", "engine.compare", "engine.symmetric", "engine.total", "engine.dp",
         "checks.sweep", "checks.scan", "checks.cross", "checks.nonneg", "oracle.bias",
         "series.mul", "series.invert", "series.pochhammer", "series.evaluate",
         "identities.formal", "identities.numeric", "asymptotics.convergence",
         "asymptotics.boundary", "reports.render", "cli.main")
_SELF = ("checks.sweep", "checks.scan", "checks.cross", "cli.main")
_CALLS = (("engine.gf.calls", "engine.gf"), ("engine.compare.calls", "engine.compare"),
          ("oracle.bias.calls", "oracle.bias"), ("cli.runs", "cli.main"))
_COUNTERS = (("engine.gf.out_kbits", "kbit"), ("checks.sweep.comparisons", "count"),
             ("reports.bytes", "B"))

PER_LAYER = {f"{name}.busy_s": "s" for name in _BUSY}
PER_LAYER.update({f"{name}.self_s": "s" for name in _SELF})
PER_LAYER.update({metric: "count" for metric, _ in _CALLS})
PER_LAYER.update(dict(_COUNTERS))
PER_LAYER.update({"checks.sweep.scaling_eff": "ratio", "trace.overhead_frac": "ratio",
                  "fail_frac": "ratio"})


def _env() -> dict:
    env = dict(os.environ)
    env.pop("QBIAS_JOBS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_import(env) -> float:
    """Wall time of a fresh interpreter running ``import qbias.cli``.

    No timeout: with one, subprocess polls for the exit in sleeps of up to
    50 ms, which would round the sample up by as much.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qbias.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


class Passes:
    """Starts passes in fresh interpreters and keeps their results."""

    def __init__(self, workload, seed, reference, env):
        self.workload, self.seed, self.reference, self.env = workload, seed, reference, env
        self.scratch = os.path.join(ROOT, ".bench_out", f"{workload}-{seed}-{os.getpid()}")
        self.count = 0

    def run(self, jobs: int, trace: int) -> dict:
        self.count += 1
        outdir = os.path.join(self.scratch, f"pass{self.count}")
        result = os.path.join(self.scratch, f"pass{self.count}.json")
        os.makedirs(outdir)
        cmd = [sys.executable, os.path.join(HERE, "onepass.py"),
               "--workload", self.workload, "--seed", str(self.seed), "--jobs", str(jobs),
               "--trace", str(trace), "--outdir", outdir, "--result", result,
               "--reference", self.reference]
        # A session of its own lets a timeout stop the pass and its pool workers.
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"pass exceeded {PASS_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise RuntimeError(f"pass exited {proc.returncode}:\n{err[-2000:]}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def cleanup(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


def _speed(run: dict) -> float:
    """Factor turning a pass's seconds into seconds at the reference speed."""
    return calibrate.REFERENCE_S / run["cal_s"]


def _layer_values(traced: dict) -> dict:
    rows = summarize(traced["spans"])
    empty = {"busy_s": 0.0, "self_s": 0.0, "calls": 0}
    speed = _speed(traced)
    values = {f"{n}.busy_s": rows.get(n, empty)["busy_s"] * speed for n in _BUSY}
    values.update({f"{n}.self_s": rows.get(n, empty)["self_s"] * speed for n in _SELF})
    values.update({metric: rows.get(n, empty)["calls"] for metric, n in _CALLS})
    values.update({c: traced["counters"].get(c, 0) for c, _ in _COUNTERS})
    return values


def measure_end_to_end(passes: Passes, seconds: float, env) -> tuple:
    """Passes at the pinned jobs, each preceded by set-up samples.

    The set-up samples are spread over the whole run and scaled by the
    calibration of the pass that follows them.  One untimed import first
    writes the bytecode cache, as an installed CLI has it.
    """
    time_import(env)
    imports, setup, runs = [], [], []
    t0 = time.perf_counter()
    while len(runs) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        before = [time_import(env) for _ in range(SETUP_PER_PASS)]
        run = passes.run(JOBS, 0)
        imports += before
        setup += [s * _speed(run) for s in before]
        runs.append(run)
    values = {k: statistics.median(r[k] * _speed(r) for r in runs) for k in ("wall_s", "cpu_s")}
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    values["setup_s"] = statistics.median(setup)
    raw = {k: statistics.median(r[k] for r in runs) for k in ("wall_s", "cpu_s", "cal_s")}
    raw["setup_s"] = statistics.median(imports)
    return values, runs, raw


def measure_layers(passes: Passes, seconds: float) -> tuple:
    """Pairs of a traced and an untraced pass with the same inputs.

    The traced sweep runs at jobs=1 so that every engine span stays in one
    process; its untraced partner also runs at jobs=1, and one more untraced
    pass at the pinned jobs gives the scaling efficiency of the pool.
    """
    sweep = passes.workload == "sweep"
    trace_jobs = 1 if sweep else JOBS
    layer_rows, traced_walls, plain_walls, pool_walls, runs = [], [], [], [], []
    t0 = time.perf_counter()
    while not layer_rows or time.perf_counter() - t0 < seconds:
        traced = passes.run(trace_jobs, 1)
        plain = passes.run(trace_jobs, 0)
        runs += [traced, plain]
        layer_rows.append(_layer_values(traced))
        traced_walls.append(traced["wall_s"] * _speed(traced))
        plain_walls.append(plain["wall_s"] * _speed(plain))
        if sweep:
            pooled = passes.run(JOBS, 0)
            runs.append(pooled)
            pool_walls.append(pooled["wall_s"] * _speed(pooled))
    values = {k: statistics.median(row[k] for row in layer_rows) for k in layer_rows[0]}
    values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    values["checks.sweep.scaling_eff"] = (
        statistics.median(plain_walls) / (JOBS * statistics.median(pool_walls)) if sweep else 0.0)
    return values, runs, {"cal_s": statistics.median(r["cal_s"] for r in runs)}


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", help="also write the result and its metadata to this file")
    p.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                   help="digests of the exact outputs (default: perfbench/reference.json)")
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "qbias")):
        sys.stderr.write(f"no qbias sources under {ROOT}/src; run from a qbias checkout\n")
        return 2

    env = _env()
    passes = Passes(args.workload, args.seed, os.path.abspath(args.reference), env)
    try:
        if args.trace:
            values, runs, raw = measure_layers(passes, args.seconds)
        else:
            values, runs, raw = measure_end_to_end(passes, args.seconds, env)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    finally:
        passes.cleanup()

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        values["fail_frac"] = failed / attempted
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": JOBS, "passes": len(runs),
        "backend": runs[0]["backend"], "python": platform.python_version(),
        "nproc": os.cpu_count(), "src_lines": src_lines(),
        "reference_speed_cal_s": calibrate.REFERENCE_S, "unscaled": raw,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    for r in runs:
        for f in r["failures"]:
            sys.stderr.write(f"FAILED {f['op']}: {f['why']}\n")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed {failed} of {attempted} operations")
    print("meta " + json.dumps(meta, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "result": result,
                       "passes": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "cal_s")}
                                  for r in runs]},
                      fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
