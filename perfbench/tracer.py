"""In-memory spans around qbias's public functions, installed from outside.

The benchmark never edits ``src/``: a :class:`Tracer` rebinds each traced
function at the name its caller looks up (a module global, a class
attribute or a dispatch-table entry), records one span per call, and puts
every original binding back on :meth:`Tracer.restore`.

A span is ``[name, parent, start_ns, end_ns]``; ``parent`` is the index of
the enclosing span, or -1.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import time

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attr, original) in install order
        self._pending = []  # (counter, measure, result), measured after the pass

    def wrap(self, owner, attr, name, count=None):
        """Rebind owner.attr (or owner[attr] for a dict) to a span-recording wrapper.

        ``name`` is the span name, or a callable taking the call's positional
        arguments and returning it.  ``count`` is an optional (counter,
        measure) pair: measure(result) is added to the counter once the pass
        has ended, so the measurement stays out of the timed spans.
        """
        is_map = isinstance(owner, dict)
        original = owner.get(attr, _MISSING) if is_map else vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} has no binding {attr!r} to trace")
        spans, stack, pending = self.spans, self._stack, self._pending
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            label = name(args) if callable(name) else name
            spans.append([label, stack[-1] if stack else -1, clock(), 0])
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()
            if count is not None:
                pending.append((count[0], count[1], result))
            return result

        if is_map:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put back every binding this tracer replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def counters(self) -> dict:
        totals: dict = {}
        for counter, measure, result in self._pending:
            totals[counter] = totals.get(counter, 0) + measure(result)
        return totals


def _coeff_bits(values) -> int:
    bits = 0
    for v in values:
        if isinstance(v, int):
            bits += abs(v).bit_length()
        else:
            bits += abs(int(v.numerator)).bit_length() + int(v.denominator).bit_length()
    return bits


def _identity_span(args):
    import qbias.identities

    return ("identities.formal" if args[0] in qbias.identities.FORMAL_IDENTITIES
            else "identities.numeric")


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced qbias binding.  Import qbias before calling this."""
    import qbias.asymptotics as asymptotics
    import qbias.checks as checks
    import qbias.cli as cli
    import qbias.engine as engine
    import qbias.identities as identities
    import qbias.oracle as oracle
    import qbias.series as series

    gf_bits = ("engine.gf.out_kbits", lambda s: _coeff_bits(s.coeffs) / 1000)
    comparisons = ("checks.sweep.comparisons", lambda rep: rep.comparisons)
    report_bytes = ("reports.bytes", lambda text: len(text.encode("utf-8")))

    # compare_bias dispatches through engine._METHODS, so the gf and dp
    # routes it runs are traced at those table entries.
    tracer.wrap(engine._METHODS, "gf", "engine.gf", gf_bits)
    tracer.wrap(engine._METHODS, "dp", "engine.dp")
    for attr, name in (("compare_bias", "engine.compare"),
                       ("bias_series_symmetric", "engine.symmetric"),
                       ("total_weighted_series", "engine.total")):
        tracer.wrap(engine, attr, name)

    tracer.wrap(checks, "bias_series_gf", "engine.gf", gf_bits)
    tracer.wrap(checks, "bias_series_dp", "engine.dp")
    tracer.wrap(checks, "compare_bias", "engine.compare")
    tracer.wrap(checks, "symmetric_distinct_pair", "engine.symmetric")
    tracer.wrap(checks, "dominance_sweep", "checks.sweep", comparisons)
    tracer.wrap(checks, "distinct_dominance_sweep", "checks.sweep", comparisons)
    tracer.wrap(checks, "conjecture_scan", "checks.scan")

    # cross_check_matrix imports oracle_bias from the module at call time.
    tracer.wrap(oracle, "oracle_bias", "oracle.bias")

    tracer.wrap(cli, "main", "cli.main")
    for command in list(cli._RUNNERS):
        tracer.wrap(cli._RUNNERS, command, f"cli.run.{command}")
    for attr in ("canonical_json", "render_csv", "render_human"):
        tracer.wrap(cli, attr, "reports.render", report_bytes)
    # the names the runners of the battery's commands look up
    tracer.wrap(cli, "bias_series_dp", "engine.dp")
    tracer.wrap(cli, "cross_check_matrix", "checks.cross")
    tracer.wrap(cli, "nonneg_suite", "checks.nonneg")
    tracer.wrap(cli, "verify_identity", _identity_span)
    tracer.wrap(cli, "convergence_report", "asymptotics.convergence")
    tracer.wrap(cli, "boundary_check", "asymptotics.boundary")

    tracer.wrap(asymptotics, "bias_series_symmetric", "engine.symmetric")
    tracer.wrap(asymptotics, "total_weighted_series", "engine.total")
    tracer.wrap(asymptotics, "evaluate_numeric", "series.evaluate")

    tracer.wrap(identities, "pochhammer_product", "series.pochhammer")
    tracer.wrap(series.TruncatedSeries, "__mul__", "series.mul")
    tracer.wrap(series.TruncatedSeries, "invert", "series.invert")
    return tracer


def summarize(spans) -> dict:
    """Per span name: busy seconds, self seconds and call count.

    Busy time adds up the spans of a name that no span of the same name
    encloses.  Self time is a span's duration minus the time its direct
    children cover; spans come from one thread, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = {}
    for i, (name, parent, start, end) in enumerate(spans):
        row = out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += (end - start - child_ns[i]) / 1e9
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            row["busy_s"] += (end - start) / 1e9
    return out
