"""Command-line surface: catalog, analyze, criterion, integrate, verify.

Exit codes: 0 success (criterion: exists), 1 verification failure,
2 usage error, 3 criterion negative, 4 internal error (one line; the
traceback too when HDT_DEBUG is set), 141 stdout closed by its reader
(silent; 128 + SIGPIPE).  All numeric report fields print with 12
significant digits; lambda is parsed as an exact decimal so boundary
verdicts are deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .cascade import restricted_root_data, strongly_orthogonal_cascade, verify_rho_identities
from .criterion import HighestWeightInput, hc_condition, hc_threshold, parse_decimal, reduction_trace
from .hermitian import catalog, compact_nodes, dim_p_plus, pair_by_label, partition_roots
from .integral import (DEFAULT_LADDER, MIN_EPS, build_integrand, classify_convergence,
                       closed_form_integral, int_text, ladder_precheck, not_run)
from .suite import run_suite
from .weights import extend_compact_coords, weight_system, weyl_dimension

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_EXISTS = 3
EXIT_INTERNAL = 4
EXIT_OUTPUT_CLOSED = 141

_DISC_NOTE = "disc normalization (k-1)/pi applied, k = -lambda"
_RANGE_NOTE = "formal dimension scalar beyond the double range"


def fmt(x) -> str:
    """12 significant digits for floats; exact text for rationals and ints."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


class UsageError(Exception):
    pass


def _parse_lambda0(pair, text: str | None):
    if text is None:
        vals = [0] * len(compact_nodes(pair))
    else:
        try:
            vals = [int(v) for v in text.split(",")] if text.strip() else []
        except ValueError as exc:
            raise UsageError(f"lambda0 must be comma-separated integers: {exc}") from exc
    try:
        return extend_compact_coords(pair, vals)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_lambda(pair, lam0, text: str) -> Fraction:
    """--lambda as an exact decimal.  The margin threshold - lambda and the
    smallest exponent one below it print as doubles, so a lambda or Lambda0
    that puts them beyond the double range is refused."""
    try:
        lam = parse_decimal(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if abs(hc_threshold(pair, lam0) - lam) + 1 > sys.float_info.max:
        raise UsageError("lambda or lambda0 out of range: the margin threshold - lambda "
                         f"must lie within the double range (about {sys.float_info.max:.2g})")
    return lam


def _get_pair(label: str):
    try:
        return pair_by_label(label)
    except KeyError as exc:
        # str() of a KeyError quotes its message
        raise UsageError(exc.args[0]) from exc


def _restricted_fields(rd) -> dict:
    return {"r": rd.r, "a": rd.a if rd.a_defined else None, "b": rd.b, "p": rd.p}


def _catalog_rows():
    rows = []
    for pair in catalog():
        rd = restricted_root_data(pair)
        rows.append({
            "pair": pair.label,
            "name": pair.name,
            "cartan": str(pair.cartan_type),
            "node": pair.node + 1,
            **_restricted_fields(rd),
            "dim": dim_p_plus(pair),
            "restricted": rd.type_tag,
        })
    return rows


def cmd_catalog(args) -> int:
    rows = _catalog_rows()
    if args.output == "json":
        print(json.dumps(rows, indent=2))
        return EXIT_OK
    head = f"{'pair':<10} {'name':<10} {'cartan':<7} {'node':>4} {'r':>2} {'a':>3} {'b':>2} {'p':>3} {'dim':>4}  restricted"
    print(head)
    print("-" * len(head))
    for row in rows:
        a = "-" if row["a"] is None else str(row["a"])
        print(
            f"{row['pair']:<10} {row['name']:<10} {row['cartan']:<7} {row['node']:>4} "
            f"{row['r']:>2} {a:>3} {row['b']:>2} {row['p']:>3} {row['dim']:>4}  {row['restricted']}"
        )
    print(f"{len(rows)} pairs")
    return EXIT_OK


def cmd_analyze(args) -> int:
    pair = _get_pair(args.pair)
    rs = pair.root_system
    rd = restricted_root_data(pair)
    cr = strongly_orthogonal_cascade(pair)
    part = partition_roots(pair)
    rho_report = verify_rho_identities(pair)

    if args.output == "json":
        data = {
            "pair": pair.label,
            "name": pair.name,
            "cartan": str(pair.cartan_type),
            "node": pair.node + 1,
            "compact_nodes": [n + 1 for n in compact_nodes(pair)],
            **_restricted_fields(rd),
            "dim": dim_p_plus(pair),
            "restricted": rd.type_tag,
            "gammas": [list(g) for g in cr.gammas],
            "compact_positive": len(part.compact_pos),
            "noncompact_positive": len(part.noncompact_pos),
            "compact_restricting_to_zero": rd.zero_compact_count,
            "rho_on_h_r": str(rho_report.rho_on_h_r),
            "two_rho_n_on_h": [str(v) for v in rho_report.two_rho_n_on_h],
        }
        print(json.dumps(data, indent=2))
        return EXIT_OK

    a = str(rd.a) if rd.a_defined else "-"
    print(f"pair {pair.label}  name {pair.name}  cartan {pair.cartan_type}  noncompact node {pair.node + 1}")
    nodes = ",".join(str(n + 1) for n in compact_nodes(pair))
    print(f"compact nodes (lambda0 coordinate order): [{nodes}]")
    print(f"rank r = {rd.r}  multiplicities a = {a}, b = {rd.b}  genus p = {rd.p}  restricted type {rd.type_tag}")
    print(f"dim p+ = {dim_p_plus(pair)}  |Delta_c+| = {len(part.compact_pos)}  compact restricting to 0: {rd.zero_compact_count}")
    print("cascade roots (ascending, simple-root coefficients):")
    for j, g in enumerate(cr.gammas):
        print(f"  gamma_{j + 1} = {list(g)}")
    print("restricted multiplicity table:")
    print(f"  gamma_j                : 1 each ({rd.r} roots)")
    if rd.r >= 2:
        print(f"  (gamma_j+gamma_k)/2    : a = {rd.a} each ({rd.a * rd.r * (rd.r - 1) // 2} roots)")
        print(f"  (gamma_j-gamma_k)/2    : a = {rd.a} each, compact")
    print(f"  gamma_j/2              : b = {rd.b} each ({rd.b * rd.r} roots), and b = {rd.b} compact")
    print("identity checks (exact):")
    print(f"  rho(h_r) = {rho_report.rho_on_h_r} = p - 1  ok")
    vals = ", ".join(str(v) for v in rho_report.two_rho_n_on_h)
    print(f"  2 rho_n(h_j) = [{vals}] = p for all j  ok")
    print(f"  p = (r-1)a + b + 2 = {rd.p}  ok")
    return EXIT_OK


def cmd_criterion(args) -> int:
    pair = _get_pair(args.pair)
    lam0 = _parse_lambda0(pair, args.lambda0)
    lam = _parse_lambda(pair, lam0, args.lam)
    inp = HighestWeightInput(pair, lam0, lam)
    verdict = hc_condition(inp)
    rd = restricted_root_data(pair)

    checks = [
        {"name": "forms-agree", "passed": verdict.exists == verdict.original_form_exists},
        {"name": "reduction-trace-nonnegative", "passed": bool(reduction_trace(inp))},
    ]
    if args.output == "json":
        data = {
            "pair": pair.label,
            **_restricted_fields(rd),
            "threshold": str(verdict.threshold),
            "exists": verdict.exists,
            "checks": checks,
            "lambda": str(lam),
            "lambda0": [int(c) for i, c in enumerate(lam0) if i != pair.node],
            "margin": verdict.margin,
            "witnesses": [list(w) for w in verdict.witnesses],
            "lambda_is_integer": verdict.lambda_is_integer,
        }
        print(json.dumps(data, indent=2))
    else:
        lam0_txt = ",".join(str(int(c)) for i, c in enumerate(lam0) if i != pair.node)
        print(f"pair {pair.label}  lambda0 [{lam0_txt}]  lambda {lam}")
        print(f"threshold (exact): {verdict.threshold}")
        print(f"exists: {'yes' if verdict.exists else 'no'}   margin {fmt(verdict.margin)}")
        print(f"original form agrees: {'yes' if verdict.exists == verdict.original_form_exists else 'NO'}")
        if verdict.witnesses:
            print(f"violating noncompact roots: {[list(w) for w in verdict.witnesses]}")
        if not verdict.lambda_is_integer:
            print("note: lambda is not an integer; the character lives on the universal cover")
    return EXIT_OK if verdict.exists else EXIT_NOT_EXISTS


def cmd_integrate(args) -> int:
    pair = _get_pair(args.pair)
    lam0 = _parse_lambda0(pair, args.lambda0)
    lam = _parse_lambda(pair, lam0, args.lam)
    try:
        ladder = tuple(float(e) for e in args.eps.split(","))
    except ValueError as exc:
        raise UsageError(f"bad eps ladder: {exc}") from exc
    if any(not MIN_EPS <= e < 1 for e in ladder):
        raise UsageError(f"eps values must be in [{MIN_EPS:g}, 1)")
    if len(ladder) < 3:
        raise UsageError("eps ladder needs at least three values")
    if len(set(ladder)) != len(ladder):
        raise UsageError("eps values must be distinct")
    rd = restricted_root_data(pair)
    # the verdict and the smallest exponent -lambda - p - Lambda0(h_r) are the
    # criterion's; the weights only run the eps ladder, if `ladder_precheck` allows
    verdict = hc_condition(HighestWeightInput(pair, lam0, lam))
    classification = "convergent" if verdict.exists else "divergent"
    min_exponent = float(verdict.threshold - lam - 1)
    full = scalar = closed_form_integral(pair, lam0, lam) if verdict.exists else None
    if full is not None and rd.r == 1:
        # k - 1 beyond the double range puts the product beyond it too
        scalar = full * ((-float(lam) - 1.0) / math.pi) if -lam < sys.float_info.max else math.inf
    if scalar is not None and not 0.0 < scalar < math.inf:
        full = scalar = None  # the value is beyond the double range
    if reason := ladder_precheck(pair, lam0):
        ws, report = None, not_run(reason)
    else:
        ws = weight_system(pair, lam0)
        spec = build_integrand(pair, ws, lam, with_multiplicities=True)
        report = classify_convergence(spec, ladder, full=full)
    if scalar is None:
        extra = _RANGE_NOTE if verdict.exists else None
    else:
        extra = _DISC_NOTE if rd.r == 1 else None
    note = "; ".join(filter(None, (report.note, extra))) or None

    if args.output == "json":
        data = {
            "pair": pair.label,
            **_restricted_fields(rd),
            "lambda": str(lam),
            "classification": classification,
            "empirical": report.empirical_classification,
            "min_exponent": min_exponent,
            "ladder": [{"eps": e, "estimate": v} for e, v in report.truncated_values],
            # NaN when the ladder did not run; JSON has no NaN
            "fitted_slope": _finite_or_none(report.fitted_slope),
            "increment_exponent": _finite_or_none(report.increment_exponent),
            "formal_dimension_scalar": scalar,
            "scalar_note": note,
        }
        print(json.dumps(data, indent=2))
        return EXIT_OK

    print(f"pair {pair.label}  lambda {lam}  rank r = {rd.r}  genus p = {rd.p}")
    size = (f"weights in trace: {len(ws.weights)}" if ws
            else f"dim tau: {int_text(weyl_dimension(pair, lam0))}")
    print(f"{size}  min exponent: {fmt(min_exponent)}")
    if report.empirical_classification == "not-run":
        print(report.note)
    else:
        print("eps ladder (truncated integrals):")
        for e, v in report.truncated_values:
            print(f"  eps {e:<8g} estimate {fmt(v)}")
        print(f"fitted log-log slope: {fmt(report.fitted_slope)}")
        print(f"increment exponent estimate: {fmt(report.increment_exponent)}")
        print(f"empirical classification: {report.empirical_classification}")
    print(f"classification: {classification}")
    if scalar is not None:
        # the not-run reason, if any, is printed above
        print(f"formal dimension scalar: {fmt(scalar)}" + (f"  [{_DISC_NOTE}]" if rd.r == 1 else ""))
    elif verdict.exists:
        print(_RANGE_NOTE)
    return EXIT_OK


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol_scale) and args.tol_scale > 0):
        raise UsageError("--tol-scale must be a finite positive number")
    seed = args.seed
    if seed is None:
        text = os.environ.get("HDT_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise UsageError(f"HDT_SEED must be an integer, got {text!r}") from None
    if seed < 0:
        raise UsageError(f"the seed must be a non-negative integer, got {seed}")
    results = run_suite(args.scope, seed=seed, tol_scale=args.tol_scale, fast=args.fast)
    failed = [r for r in results if not r.passed]
    if args.output == "json":
        data = {
            "scope": args.scope,
            "seed": seed,
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "residual": r.residual,
                    "tolerance": r.tolerance,
                    "detail": r.detail,
                }
                for r in results
            ],
            "passed": len(results) - len(failed),
            "failed": len(failed),
        }
        print(json.dumps(data, indent=2))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            line = f"[{status}] {r.name}: residual {fmt(r.residual)} (tol {fmt(r.tolerance)})"
            if r.detail:
                line += f"  -- {r.detail}"
            print(line)
        print(f"{len(results) - len(failed)}/{len(results)} checks passed (seed {seed})")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hdt",
        description="Hermitian symmetric pairs and the holomorphic discrete series: "
        "structure tables, existence criterion, convergence integrals, and "
        "matrix-model verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list all pairs with (r, a, b, p)")
    p.add_argument("--output", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("analyze", help="cascade, multiplicities and identity checks for one pair")
    p.add_argument("pair")
    p.add_argument("--output", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("criterion", help="decide existence for (pair, lambda0, lambda)")
    p.add_argument("pair")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="central parameter, plain decimal (no scientific notation)")
    p.add_argument("--lambda0", default=None,
                   help="comma-separated dominant integers on the compact nodes")
    p.add_argument("--output", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("integrate", help="truncated convergence integrals on an eps ladder")
    p.add_argument("pair")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--lambda0", default=None)
    p.add_argument("--eps", default=",".join(f"{e:g}" for e in DEFAULT_LADDER))
    p.add_argument("--output", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("verify", help="run the exact and numeric verification suites")
    p.add_argument("scope", nargs="?", choices=["exact", "numeric", "all"], default="all")
    p.add_argument("--seed", type=int, default=None, help="falls back to HDT_SEED, then 0")
    p.add_argument("--tol-scale", type=float, default=1.0,
                   help="multiply the numeric tolerances (use a tiny value to force "
                   "failures); exact checks are true or false")
    p.add_argument("--fast", action="store_true",
                   help="fewer factorization triples (100 per su(p,q) instead of 1000)")
    p.add_argument("--output", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_verify)
    for parser in (ap, *sub.choices.values()):
        # argparse's own errors end in one line too, without its usage block;
        # it takes the value in "--lambda0 -1,0" for an option, so name the "=" form
        parser.error = lambda message: ap.exit(EXIT_USAGE, f"error: {message}" + (
            " (write a negative value as --lambda0=-1,0)"
            if message.startswith("argument --lambda0") else "") + "\n")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: the rest of the output, and the final flush,
        # go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OUTPUT_CLOSED
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        if "HDT_DEBUG" in os.environ:
            import traceback

            traceback.print_exc()
        detail = str(exc).replace("\n", " ")
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
