"""Command-line surface: every verification and computation as a
reproducible, scriptable run with machine-readable output.

Each leaf command has its own argparse parser, and every flag value is
parsed there, by a ``type=`` converter for the exact rationals, the
comma-separated lists and the positive counts; the runners only read the
parsed values.

Exit codes: 0 all checks pass, 1 verified violation, 2 invalid
configuration (a malformed value, a flag the command does not read, given
in full or abbreviated, and a verification that would compare nothing
included), 3 inconclusive (horizon or tail-bound guard tripped), 4
unexpected internal error (any exception that is not a ``QbiasError``; its
traceback precedes the JSON error line).  Every exit code >= 2 also ends
stderr with a JSON object ``{"error": ..., "type": ...}``; an argparse
refusal is an ``InvalidParameterError`` whose error is argparse's message,
which names the flag, after the usage line.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys

from .asymptotics import (
    PROFILES,
    bias_constant,
    boundary_check,
    convergence_report,
    tauberian_predict_log,
)
from .biasspec import BiasSpec
from .checks import (
    NONNEG_KINDS,
    conjecture_scan,
    cross_check_matrix,
    distinct_dominance_sweep,
    dominance_sweep,
    nonneg_suite,
    random_nonneg_params,
)
from .engine import (
    FLAVOR_XY,
    bias_series_gf,
    bias_series_dp,
    bias_series_symmetric,
    monotonicity_check,
)
from .identities import verify_identity
from .oracle import oracle_bias, oracle_total
from .reports import canonical_json, render_csv, render_human
from .scalars import (
    QbiasError,
    InvalidParameterError,
    TailBoundError,
    format_rational,
    parse_rational,
)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _arg(parse, many=False):
    """argparse type= for one ``parse`` value, or with many=True for a
    comma-separated list of them; a refusal keeps parse's message."""
    def convert(text):
        try:
            if many:
                return [parse(tok) for tok in text.split(",") if tok.strip()]
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise ValueError(f"need a positive integer, not {text!r}")
    return value


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"need a finite number, not {text!r}")
    return value


def _names(text):
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise argparse.ArgumentTypeError("need at least one identity name")
    return names


class _Parser(argparse.ArgumentParser):
    """Refuses by raising, so a refusal leaves main on the QbiasError path.
    Subparsers take this class too and refuse, under their own usage, what they leave unread."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidParameterError(message)

    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return args, extras


def build_parser() -> argparse.ArgumentParser:
    common, classes, weights, order, grid, symmetric = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    common.add_argument("--format", choices=("json", "csv", "human"), default="json")
    common.add_argument("--out", help="write the report to this path instead of stdout")
    for flag in ("--a", "--b", "--m"):
        classes.add_argument(flag, type=int, required=True)
    weights.add_argument("--x", type=_arg(parse_rational), default="1")
    weights.add_argument("--y", type=_arg(parse_rational), default="0")
    order.add_argument("--N", type=int, default=200)
    grid.add_argument("--m-max", type=int, default=6)
    grid.add_argument("--x-grid", type=_arg(parse_rational, many=True), default="1,3/2,2,3")
    grid.add_argument("--jobs", type=_arg(_positive_int), default=None,
                      help="worker processes for the sweep (default: all cores)")
    symmetric.add_argument("--a", type=int, required=True)
    symmetric.add_argument("--m", type=int, required=True)

    top = _Parser(
        prog="qbias",
        description="Exact residue-class bias computations and verifications.",
    )
    groups = {"": top.add_subparsers(dest="command", required=True)}
    for name, text in (("verify", "theorem sweeps, non-negativity suites, identities"),
                       ("asymptotics", "constants, predictions, convergence, boundary")):
        groups[name] = groups[""].add_parser(name, help=text).add_subparsers(required=True)

    def leaf(command, text, *parents):
        group, _, name = command.rpartition(" ")
        p = groups[group].add_parser(name, parents=[common, *parents], help=text,
                                     allow_abbrev=False)
        p.set_defaults(command=command)
        return p

    p = leaf("compute-bias", "bias sequence by a chosen method", classes, weights)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--method", choices=("gf", "dp", "symmetric"), default="gf")

    p = leaf("verify thm1", "weighted dominance sweep", grid, order)
    p.add_argument("--y-grid", type=_arg(parse_rational, many=True), default="0,1/2,1,2")
    leaf("verify thm2", "witnessed y=1 dominance sweep", grid, order)
    leaf("verify lemma2-1", "monotonicity of one bias sequence", classes, weights, order)
    p = leaf("verify nonneg", "seeded non-negativity draws", order)
    p.add_argument("--kind", choices=tuple(NONNEG_KINDS), help="default: every kind")
    p.add_argument("--draws", type=_arg(_positive_int), default=50)
    p.add_argument("--seed", type=int, default=0)
    p = leaf("verify identities", "triple-product and transformation identities", order)
    p.add_argument("--names", type=_names,
                   default="jacobi,fine,heine,theta_reciprocal,kronecker")

    p = leaf("scan-conjecture", "finite-horizon threshold scan", classes)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--no-horizon-guard", dest="horizon_guard", action="store_false")

    p = leaf("asymptotics constants", "limiting bias constants", symmetric)
    p.add_argument("--flavor", choices=tuple(FLAVOR_XY), help="default: every flavor")
    p = leaf("asymptotics predict", "Tauberian growth prediction")
    p.add_argument("--profile", choices=tuple(PROFILES), required=True)
    p.add_argument("--n-values", type=_arg(int, many=True), default="1000")
    p = leaf("asymptotics convergence", "exact ratios against the constant", symmetric)
    p.add_argument("--flavor", choices=tuple(FLAVOR_XY), default="01")
    p.add_argument("--samples", type=_arg(int, many=True), default="500,1000,2000")
    p = leaf("asymptotics boundary", "real-point values near the boundary", symmetric)
    p.add_argument("--flavor", choices=tuple(FLAVOR_XY), default="01")
    p.add_argument("--z", type=_arg(_finite_float, many=True), default="0.5,0.4,0.3")
    p.add_argument("--h", type=int, default=0)
    p.add_argument("--N", type=int)

    p = leaf("oracle", "brute-force values from the definitions", weights)
    for flag in ("--a", "--b", "--m"):
        p.add_argument(flag, type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--total", action="store_true",
                   help="total weighted count instead of the bias count")

    p = leaf("cross-check", "method-agreement matrix gf/dp/oracle")
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--n-max", type=int, default=12)

    return top


_parser = functools.cache(build_parser)  # built on the first call to main, then kept


def _fmt_exact(v):
    return str(v) if isinstance(v, int) else format_rational(v)


def _run_compute_bias(args):
    spec = BiasSpec(args.a, args.b, args.m, args.x, args.y)
    if args.method == "symmetric":
        if spec.b != spec.m - spec.a:
            raise InvalidParameterError("symmetric method needs b = m - a")
        flavor = {xy: f for f, xy in FLAVOR_XY.items()}.get((spec.x, spec.y))
        if flavor is None:
            raise InvalidParameterError(
                "symmetric closed forms exist for (x,y) in {(1,0),(0,1),(1,1)}")
        series = bias_series_symmetric(spec.a, spec.m, flavor, args.N)
    elif args.method == "dp":
        series = bias_series_dp(spec, args.N)
    else:
        series = bias_series_gf(spec, args.N)
    obj = {
        "spec": spec.to_json_obj(),
        "method": args.method,
        "N": args.N,
        "values": [_fmt_exact(v) for v in series.coeffs],
    }
    rows = [("n", "value")] + [(n, v) for n, v in enumerate(series.coeffs)]
    return obj, rows, EXIT_PASS


def _sweep_result(rep):
    rows = [("spec", "violations")] + [(s, " ".join(map(str, v)))
                                       for s, v in rep.violations]
    return rep.to_json_obj(), rows, EXIT_PASS if rep.passed else EXIT_VIOLATION


def _run_thm1(args):
    return _sweep_result(dominance_sweep(
        args.m_max, args.x_grid, args.y_grid, args.N, jobs=args.jobs))


def _run_thm2(args):
    return _sweep_result(distinct_dominance_sweep(
        args.m_max, args.x_grid, args.N, jobs=args.jobs))


def _run_lemma2_1(args):
    spec = BiasSpec(args.a, args.b, args.m, args.x, args.y)
    if args.N < spec.m:
        raise InvalidParameterError("lemma2-1 compares c_n with c_{n+m}: need N >= m")
    series = bias_series_gf(spec, args.N)
    ok, bad = monotonicity_check(series.coeffs, spec.m)
    obj = {
        "check": "lemma2-1",
        "spec": spec.to_json_obj(),
        "N": args.N,
        "passed": ok,
        "first_failure": bad,
    }
    rows = [("n", "value")] + [(n, _fmt_exact(v)) for n, v in enumerate(series.coeffs)]
    return obj, rows, EXIT_PASS if ok else EXIT_VIOLATION


def _run_nonneg(args):
    kinds = [args.kind] if args.kind else NONNEG_KINDS
    rng = random.Random(args.seed)
    results = [nonneg_suite(kind, random_nonneg_params(kind, rng), args.N).to_json_obj()
               for kind in kinds for _ in range(args.draws)]
    all_ok = all(r["passed"] for r in results)
    obj = {"check": "nonneg", "N": args.N, "draws": args.draws,
           "seed": args.seed, "passed": all_ok, "results": results}
    rows = [("kind", "passed", "first_negative")] + [
        (r["kind"], r["passed"], r["first_negative"]) for r in results]
    return obj, rows, EXIT_PASS if all_ok else EXIT_VIOLATION


# the monomial substitutions each formal identity is checked at; every
# other name is checked numerically at _IDENTITY_POINTS, with no order
_IDENTITY_SUBS = {
    "jacobi": [{"c": c, "s": s} for (c, s) in ((1, 1), (1, 2), (-1, 2), (2, 3), (-3, 1))],
    "fine": [
        {"alpha": (1, 2), "gamma": (1, 3), "z": (1, 1)},
        {"alpha": (2, 1), "gamma": (1, 2), "z": (1, 1)},
        {"alpha": (1, 1), "gamma": (parse_rational("1/2"), 2), "z": (1, 2)},
    ],
    "heine": [
        {"alpha": (1, 1), "beta": (1, 1), "gamma": (1, 2), "z": (1, 1)},
        {"alpha": (1, 2), "beta": (1, 1), "gamma": (1, 2), "z": (1, 1)},
        {"alpha": (2, 1), "beta": (1, 1), "gamma": (1, 3), "z": (1, 2)},
    ],
}
_IDENTITY_POINTS = [{"points": [(0.2, 0.5), (0.15, 0.4), (0.1, 0.3)]}]


def _run_identities(args):
    reports = [verify_identity(name, params, args.N if name in _IDENTITY_SUBS else None)
               for name in args.names for params in _IDENTITY_SUBS.get(name, _IDENTITY_POINTS)]
    results = [rep.to_json_obj() for rep in reports]
    all_ok = all(rep.passed for rep in reports)
    obj = {"check": "identities", "passed": all_ok, "results": results}
    rows = [("identity", "mode", "passed", "max_discrepancy")] + [
        (r["identity"], r["mode"], r["passed"], r["max_discrepancy"]) for r in results]
    return obj, rows, EXIT_PASS if all_ok else EXIT_VIOLATION


def _run_scan(args):
    rep = conjecture_scan(args.a, args.b, args.m, args.N)
    obj = rep.to_json_obj()
    obj["horizon_guard"] = args.horizon_guard
    rows = [("quantity", "value"),
            ("threshold", rep.threshold),
            ("inconclusive", rep.inconclusive),
            ("violations", " ".join(map(str, rep.violations)))]
    code = EXIT_PASS
    if rep.inconclusive and args.horizon_guard:
        # the report still goes to stdout; stderr carries the verdict, as for
        # every other exit code >= 2
        sys.stderr.write(canonical_json(
            {"error": "threshold violations near the scan horizon",
             "type": "HorizonGuard"}))
        code = EXIT_INCONCLUSIVE
    return obj, rows, code


def _run_constants(args):
    flavors = [args.flavor] if args.flavor else FLAVOR_XY
    consts = [bias_constant(args.a, args.m, f) for f in flavors]
    obj = {"task": "constants",
           "values": [{"a": c.a, "m": c.m, "flavor": c.flavor, "value": c.value}
                      for c in consts]}
    rows = [("a", "m", "flavor", "value")] + [
        (c.a, c.m, c.flavor, c.value) for c in consts]
    return obj, rows, EXIT_PASS


def _run_predict(args):
    profile = PROFILES[args.profile]
    vals = [(n, tauberian_predict_log(profile, n)) for n in args.n_values]
    obj = {"task": "predict", "profile": args.profile,
           "rows": [{"n": n, "log_main_term": v} for n, v in vals]}
    rows = [("n", "log_main_term")] + vals
    return obj, rows, EXIT_PASS


def _run_convergence(args):
    rep = convergence_report(args.a, args.m, args.flavor, args.samples)
    code = EXIT_PASS if rep.trend_ok in (True, None) else EXIT_VIOLATION
    return {"task": "convergence", **rep.to_json_obj()}, rep.to_csv_rows(), code


def _run_boundary(args):
    rep = boundary_check(args.a, args.m, args.flavor, args.z, args.h, args.N)
    return {"task": "boundary", **rep.to_json_obj()}, rep.to_csv_rows(), EXIT_PASS


def _run_oracle(args):
    classes = (args.a, args.b, args.m)
    # one leaf serves both oracles, so a flag the chosen one ignores is refused here
    if classes.count(None) != (3 if args.total else 0):
        raise InvalidParameterError("the bias oracle needs --a --b --m; --total takes none")
    if args.total:
        value = oracle_total(args.x, args.y, args.n)
        obj = {"oracle": "total", "x": format_rational(args.x), "y": format_rational(args.y),
               "n": args.n, "value": _fmt_exact(value)}
    else:
        spec = BiasSpec(*classes, args.x, args.y)
        value = oracle_bias(spec, args.n)
        obj = {"oracle": "bias", "spec": spec.to_json_obj(), "n": args.n,
               "value": _fmt_exact(value)}
    rows = [("n", "value"), (args.n, value)]
    return obj, rows, EXIT_PASS


def _run_cross_check(args):
    rows_data, all_ok = cross_check_matrix(args.m_max, args.n_max)
    obj = {"check": "cross-check", "m_max": args.m_max, "n_max": args.n_max,
           "passed": all_ok, "rows": rows_data}
    rows = [("spec", "gf_eq_dp", "gf_eq_oracle")] + [
        (r["spec"], r["gf_eq_dp"], r["gf_eq_oracle"]) for r in rows_data]
    return obj, rows, EXIT_PASS if all_ok else EXIT_VIOLATION


# one runner per leaf command; main looks the runner up here at call time
_RUNNERS = {
    "compute-bias": _run_compute_bias,
    "verify thm1": _run_thm1,
    "verify thm2": _run_thm2,
    "verify lemma2-1": _run_lemma2_1,
    "verify nonneg": _run_nonneg,
    "verify identities": _run_identities,
    "scan-conjecture": _run_scan,
    "asymptotics constants": _run_constants,
    "asymptotics predict": _run_predict,
    "asymptotics convergence": _run_convergence,
    "asymptotics boundary": _run_boundary,
    "oracle": _run_oracle,
    "cross-check": _run_cross_check,
}


def _emit(args, obj, rows) -> None:
    if args.format == "json":
        text = canonical_json(obj)
    elif args.format == "csv":
        text = render_csv(rows)
    else:
        text = render_human(obj) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParameterError(
                f"cannot write --out {args.out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        obj, rows, code = _RUNNERS[args.command](args)
        _emit(args, obj, rows)
    except SystemExit:
        # only --help exits the parser: every refusal raises InvalidParameterError
        return EXIT_PASS
    except QbiasError as exc:
        sys.stderr.write(canonical_json(
            {"error": str(exc), "type": type(exc).__name__}))
        return EXIT_INCONCLUSIVE if isinstance(exc, TailBoundError) else EXIT_INVALID
    except Exception as exc:
        # a defect, not a verdict: never let it read as a violation (exit 1);
        # traceback is imported here, so a CLI start does not pay for it
        import traceback
        traceback.print_exc()
        sys.stderr.write(canonical_json(
            {"error": str(exc) or repr(exc), "type": type(exc).__name__}))
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
