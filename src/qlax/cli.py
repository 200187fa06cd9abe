"""Command-line front end.

Subcommands:

    commutator A B      bracket of two operator expressions
    kdv-verify          check the flow identity of the shipped order-2/3 pair
    lax-solve FILE      solve a problem file and verify the residual
    symmetry FILE       transport S0 and verify all three symmetry checks
    convergence FILE    truncation-error study (matrix backend)

Exit codes: 0 all checks passed, 1 checks ran and failed, 2 input error.
The QLAX_FORMAT environment variable overrides --format.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional

from .algebra import RATIONAL, rational
from .diffpoly import DiffPoly
from .errors import ProblemFileError, QlaxError
from .laxflow import MAX_ORDER, defects, lax_solve
from .matrix import convergence_study
from .psdo import PsdoSymbol, commutator, kdv_pair
from .problemfile import load_probes, load_problem_file
from .render import (
    convergence_json,
    convergence_points,
    dumps,
    first_nonzero,
    json_value,
    residual_report,
    series_lines,
)
from .symops import (
    apply_series,
    probes_vanish,
    symmetry3_residual,
    symmetry_defects,
    transport,
    transported_solution_check,
)
from . import expr

PASS = "PASS"
FAIL = "FAIL"


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _verdict(checks) -> bool:
    """Whether every (name, passed) check passed; the failed ones are named
    on one stderr line."""
    failed = [name for name, passed in checks if not passed]
    if failed:
        sys.stderr.write(f"failed check: {', '.join(failed)}\n")
    return not failed


def cmd_commutator(args: argparse.Namespace) -> int:
    a = expr.parse_operator(args.a)
    b = expr.parse_operator(args.b)
    result = commutator(a, b)
    if args.format == "json":
        _emit(dumps({"schema": "qlax/commutator/1", "commutator": json_value(result)}))
    else:
        _emit(f"[{args.a}, {args.b}] = {result}")
    return 0


def cmd_kdv_verify(args: argparse.Namespace) -> int:
    l_op, p_op = kdv_pair()
    if args.perturb is not None:
        p_op = p_op + PsdoSymbol.from_dp(DiffPoly.u(0).scale(args.perturb))
    bracket = commutator(p_op, l_op)
    expected = PsdoSymbol.from_dp(expr.parse_diffpoly("6*u*u_1 - u_3"))
    difference = bracket - expected
    ok = difference.is_zero()
    if args.format == "json":
        doc = {
            "schema": "qlax/kdv-verify/1",
            "pass": ok,
            "commutator": json_value(bracket),
            "expected": json_value(expected),
            "difference": json_value(difference),
        }
        _emit(dumps(doc))
    else:
        lines = [
            f"L = {l_op}",
            f"P = {p_op}",
            f"[P, L] = {bracket}",
            f"expected = {expected}",
        ]
        if ok:
            lines.append(f"{PASS}: [P, L] equals the flow right-hand side exactly")
        else:
            lines.append(f"difference = {difference}")
            lines.append(f"{FAIL}: [P, L] does not match")
        _emit("\n".join(lines))
    return 0 if ok else 1


def _where(norms: dict) -> str:
    """The label that names where a failed flow check first fails."""
    first = first_nonzero(norms)
    return "" if first is None else " (first nonzero at q^%d, t^%d)" % first


def cmd_lax_solve(args: argparse.Namespace) -> int:
    prob = load_problem_file(args.problem, default_n=args.qorder)
    sol = lax_solve(prob)
    # Independent of the recurrences, and on matrices of their kernel; as
    # the flows are unique, they pin both printed series.
    lq_defects, w_defects = defects(sol.lq, sol.pq, True), defects(sol.w, sol.pq, False)
    where = _where(lq_defects)
    ok = _verdict((
        ("dLq/dt = [Pq, Lq]" + where, not lq_defects),
        ("Lq(0) = L0", sol.lq.coeffs[0] == prob.l0),
        ("W(0) = 1", sol.w.coeffs[0] == prob.alg.one),
        ("dW/dt = Pq*W" + _where(w_defects), not w_defects),
    ))
    if args.format == "json":
        doc = {
            "schema": "qlax/laxsolve-report/1",
            "backend": prob.backend,
            "N": prob.n,
            "W": sol.w,
            "Lq": sol.lq,
            "residual": residual_report(lq_defects, prob.n),
        }
        _emit(dumps(doc))
    else:
        lines = [f"backend: {prob.backend}, N = {prob.n}"]
        lines += series_lines("W", sol.w)
        lines += series_lines("Lq", sol.lq)
        lines.append(f"residual: {'NONZERO' + where if lq_defects else 'zero (exact)'}")
        lines.append(PASS if ok else FAIL)
        _emit("\n".join(lines))
    return 0 if ok else 1


def _symmetry_probes(args: argparse.Namespace, prob) -> list:
    probes = prob.alg.probes()
    probes.append(prob.l0)
    for c in prob.p.coeffs:
        if not c.is_zero() and c not in probes:
            probes.append(c)
    if args.probe_set:
        probes.extend(load_probes(args.probe_set, prob.backend, prob.alg))
    return probes


def cmd_symmetry(args: argparse.Namespace) -> int:
    prob = load_problem_file(args.problem, default_n=args.qorder)
    if prob.s0 is None:
        raise ProblemFileError("S0", "missing (the symmetry command needs an initial symmetry)")
    sol = lax_solve(prob)
    sq = transport(prob.s0, sol.pq, sol.lq)
    probes = _symmetry_probes(args, prob)
    located = symmetry_defects(sq, sol.pq)  # {} for a zero r3 tensor, None when a side has unknown coordinates
    r3 = None if located == {} else symmetry3_residual(sq, sol.pq)  # built only for the probes and Lq
    r3_zero = r3 is None or probes_vanish(r3, probes)
    r2_zero = r3 is None or apply_series(r3, sol.lq).is_zero()  # the symmetry2 residual, reusing r3
    carried = transported_solution_check(prob.s0, prob, sol, sq)
    ok = _verdict((("symmetry3 residual" + _where(located or {}), r3_zero), ("symmetry2 residual", r2_zero), ("transported solution", carried)))
    if args.format == "json":
        doc = {
            "schema": "qlax/symmetry-report/1",
            "pass": ok,
            "symmetry3_zero": r3_zero,
            "symmetry2_zero": r2_zero,
            "transported_solution": carried,
            "probes": len(probes),
        }
        _emit(dumps(doc))
    else:
        lines = [
            f"symmetry3 residual: {PASS if r3_zero else FAIL} (checked on {len(probes)} probes)",
            f"symmetry2 residual: {PASS if r2_zero else FAIL} (exact)",
            f"transported solution: {PASS if carried else FAIL}",
            PASS if ok else FAIL,
        ]
        _emit("\n".join(lines))
    return 0 if ok else 1


def cmd_convergence(args: argparse.Namespace) -> int:
    prob = load_problem_file(args.problem, default_n=args.qorder)
    if prob.backend != "matrix":
        raise ProblemFileError("backend", "the convergence study needs the matrix backend")
    ref_n = min(prob.n + 6, MAX_ORDER) if args.refN is None else args.refN
    if args.refN is None and ref_n < prob.n + 2:
        raise ProblemFileError("N", f"must be at most {MAX_ORDER - 2} for the convergence study, got {prob.n}")
    try:
        report = convergence_study(prob, args.q or ["1/8", "1/16"], ref_n)
    except ValueError as e:
        raise QlaxError(f"refN: {e}") from e
    if args.format == "json":
        _emit(dumps(convergence_json(report)))
    else:
        lines = [f"N = {report.n}, refN = {report.ref_n}"]
        for p in convergence_points(report):
            ratio = "-" if p["ratio_to_prev"] is None else f"{p['ratio_to_prev']:.4g}"
            lines.append(f"q = {p['q']}: error = {p['error']:.6g}, ratio_to_prev = {ratio}")
        _emit("\n".join(lines))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main``
    call: it depends on no input, and parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (QLAX_FORMAT overrides)",
    )
    solving = argparse.ArgumentParser(add_help=False, parents=[common])
    solving.add_argument(
        "--qorder", type=int, default=2, metavar="N",
        help="default q-truncation order for problem files without N",
    )

    parser = argparse.ArgumentParser(
        prog="qlax",
        description="Exact verification toolkit for time-scaled operator flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("commutator", parents=[common], help="bracket of two operator expressions")
    p.add_argument("a", help="left operator expression, e.g. 'd'")
    p.add_argument("b", help="right operator expression, e.g. 'u'")
    p.set_defaults(func=cmd_commutator)

    p = sub.add_parser("kdv-verify", parents=[common], help="verify the shipped Lax-pair identity")
    p.add_argument(
        "--perturb", metavar="EPS", type=rational, default=None,
        help="add EPS*u to P before checking (demonstrates failure detection)",
    )
    p.set_defaults(func=cmd_kdv_verify)

    p = sub.add_parser("lax-solve", parents=[solving], help="solve a problem file and check the residual")
    p.add_argument("problem", help="path to a problem JSON file")
    p.set_defaults(func=cmd_lax_solve)

    p = sub.add_parser("symmetry", parents=[solving], help="transport S0 and run the symmetry checks")
    p.add_argument("problem", help="path to a problem JSON file with S0")
    p.add_argument(
        "--probe-set", metavar="PATH", default=None,
        help="JSON file with extra probe elements for the symmetry checks",
    )
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("convergence", parents=[solving], help="truncation-error study (matrix backend)")
    p.add_argument("problem", help="path to a matrix problem JSON file")
    p.add_argument("--q", action="append", type=rational, metavar="Q", help="evaluation point (repeatable; default 1/8, 1/16)")
    p.add_argument("--refN", type=int, default=None, help=f"reference truncation order (default N+6, at most {MAX_ORDER})")
    p.set_defaults(func=cmd_convergence)

    return parser


def _attach_negative_fractions(argv: List[str]) -> List[str]:
    # argparse takes "-3" as a value but reads "-1/10" as an option name;
    # glue such a literal to the long option before it ("--perturb=-1/10").
    # Arguments after a bare "--" are positional and stay as they are.
    out: List[str] = []
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + list(argv[i:])
        prev = out[-1] if out else ""
        if arg.startswith("-") and "/" in arg and RATIONAL.match(arg) and prev.startswith("--") and "=" not in prev:
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_fractions(sys.argv[1:] if argv is None else argv))
    if (env := os.environ.get("QLAX_FORMAT")) in ("json", "text"):
        args.format = env
    try:
        return args.func(args)
    except (QlaxError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
