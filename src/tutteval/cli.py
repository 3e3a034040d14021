"""Command-line front end: run the verification suites and emit reports.

Subcommands select a suite; every check prints one PASS/FAIL line, and
`--emit-json` additionally writes the full report array (timing omitted, so
two runs with the same parameters are byte-identical).  `--fixtures DIR`
pins the derived values (dependency vectors, b-sequence, kappa constants)
on first use and compares against the pinned files afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import holonomic, template, tutte, verifier
from .polyring import poly_to_str
from .report import Report, failed, inconclusive, reports_to_json


def _fixture_report(directory: str, name: str, payload) -> Report:
    """Pin payload under DIR/name.json on first run; compare afterwards.

    A pin is written to DIR/name.json.tmp and renamed into place, so an
    interrupted run leaves either no fixture or a complete one."""
    t0 = time.perf_counter()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name + ".json")
    text = json.dumps(payload, indent=1, sort_keys=True)
    rep = Report(check="fixture", params={"name": name}, status="pass",
                 witness=None, n_cases=1, millis=0)
    if not os.path.exists(path):
        tmp = path + ".tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        rep.witness = f"pinned {path}"
    else:
        with open(path) as fh:
            pinned = fh.read()
        if pinned != text:
            rep.status = "fail"
            rep.witness = f"differs from pinned {path}"
    rep.millis = int((time.perf_counter() - t0) * 1000)
    return rep


def _tutte_suite(args) -> list:
    return [
        tutte.three_way_report(THREE_WAY_MAX_I, args.tamari_max),
        tutte.lagrange_report(args.max_i),
    ]


def _no_m(suite: str, m_max: int) -> list:
    return [inconclusive(suite, {"m_max": m_max},
                         f"m in 0..{m_max} is empty; need m_max >= 0", 0,
                         time.perf_counter())]


def _template_suite(args) -> list:
    if args.m_max < 0:
        return _no_m("template", args.m_max)
    reports = [template.verify_q2_ode(m) for m in range(args.m_max + 1)]
    # the even m share one log(1 + sqrt(1 - 4x^2)) at the run's order, built
    # only if one of them has a coefficient to compare
    N, top = args.order, min(args.m_max, 8)
    evens = range(0, top + 1, 2)
    lg = None
    if any(template.compared_upto(m, N) >= 0 for m in evens):
        lg = template.log_one_plus_sqrt(N)
    for m in range(top + 1):
        reports.append(template.verify_series_identity(m, N, lg))
    if args.fixtures:
        kappas = {str(m): [str(q) for q in template.kappa_constant(m)]
                  for m in evens}
        reports.append(_fixture_report(args.fixtures, "kappa", kappas))
    return reports


def _hm_suite(args) -> list:
    if args.m_max < 0:
        return _no_m("hm", args.m_max)
    S, L = args.s_cap, args.lambda_cap
    # every m reads the same series (a prefix of the powers of 1 + r); an m
    # above 2 S - 1, or a negative L, is inconclusive before any is built
    top = min(args.m_max, 2 * S - 1)
    inputs = template.h_m_inputs(top, S, L) if top >= 0 and L >= 0 else None
    return [template.verify_h_m(m, S, L, inputs)
            for m in range(args.m_max + 1)]


def _certified(find, arg):
    """find(arg), or the ArithmeticError that refused the dependency
    vector; arg may itself be a refusal, which is passed on.  The reason
    of a refusal fails every report that reads the vector."""
    if isinstance(arg, ArithmeticError):
        return arg
    try:
        return find(arg)
    except ArithmeticError as exc:
        return exc


def _holonomic_suite(args) -> list:
    reports = [
        holonomic.p0_report(),
        holonomic.p0_series_report(P0_SERIES_ORDER),
        holonomic.tower_oracle(args.tower, *TOWER_ORACLE_CAPS),
    ]
    # each dependency vector and its columns are built once, here, and
    # passed to every report that reads them; Rhat is derived from R
    cols = holonomic.tower_columns(4)
    R = _certified(holonomic.find_R, cols)
    reports.append(holonomic.dependency_report("R", R, cols))
    Rhat = _certified(holonomic.find_Rhat, R)
    if not isinstance(Rhat, ArithmeticError):
        # Rhat relates the columns one derivative deeper
        cols = holonomic.tower_columns(5, cols)
    reports.append(holonomic.dependency_report("Rhat", Rhat, cols))
    t0 = time.perf_counter()
    try:
        bd = holonomic.b_direct(args.s_cap, args.b_orders)
    except (ValueError, ArithmeticError) as exc:
        # caps too small for the orders, or saturated: the direct sequence
        # and the two reports on it are missing, and the run cannot pass
        bd = None
        bd_rep = inconclusive("b_direct", {"s_cap": args.s_cap,
                                           "orders": args.b_orders},
                              str(exc), 0, t0)
    br, rec_rep = holonomic.b_recursion(args.b_orders, R, Rhat)
    reports += [rec_rep, bd.degree_report() if bd is not None else bd_rep,
                br.degree_report()]
    if bd is not None:
        reports.append(holonomic.b_equality_report(bd, br))
    reports.append(holonomic.coprimality_report())
    if args.fixtures:
        for name, dv in (("dependency_R", R), ("dependency_Rhat", Rhat)):
            if isinstance(dv, ArithmeticError):
                # a refused vector has nothing to pin or compare
                reports.append(failed("fixture", {"name": name}, str(dv), 0,
                                      time.perf_counter()))
                continue
            reports.append(_fixture_report(
                args.fixtures, name, [poly_to_str(p) for p in dv.entries]))
        if bd is not None:
            reports.append(_fixture_report(
                args.fixtures, "b_sequence",
                [poly_to_str(p) for p in bd.bl]))
    return reports


def _conjecture_suite(args) -> list:
    if args.n_max < 1 or args.i_max < 0:
        return [inconclusive("conjecture",
                             {"n_max": args.n_max, "i_max": args.i_max},
                             "no relation to check; need n_max >= 1 and "
                             "i_max >= 0", 0, time.perf_counter())]
    tab = verifier.f_table(args.n_max + 2, args.i_max)
    reports = [tab.degree_report()]
    reports += verifier.conjecture_reports(args.n_max, args.i_max, args.jobs,
                                           tab)
    reports.append(verifier.restriction_spot_check(min(args.n_max, 5),
                                                  min(args.i_max, 4), tab))
    return reports


def _hilbert_suite(args) -> list:
    if args.n_max < 1:
        return [inconclusive("hilbert", {"n_max": args.n_max},
                             "no dimension to check; need n_max >= 1", 0,
                             time.perf_counter())]
    return [verifier.hilbert_check(n) for n in range(1, args.n_max + 1)]


def _iso_suite(args) -> list:
    return [verifier.iso_check(args.order, args.lambda_cap)]


_SUITES = {
    "tutte": _tutte_suite,
    "template": _template_suite,
    "hm": _hm_suite,
    "holonomic": _holonomic_suite,
    "conjecture": _conjecture_suite,
    "hilbert": _hilbert_suite,
    "iso": _iso_suite,
}


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not a positive integer")
    return n


def _add_common(p):
    p.add_argument("--emit-json", metavar="PATH",
                   help="write the JSON report array to PATH")
    p.add_argument("--fixtures", metavar="DIR",
                   help="pin/compare derived values under DIR")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for the vanishing checks")


# the caps no flag sets: the three-way tutte order, the phi' series order
# and the tower oracle's (s, lambda) caps
THREE_WAY_MAX_I = 6
P0_SERIES_ORDER = 20
TOWER_ORACLE_CAPS = (8, 6)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="exact verification of the power-series identities")
    sub = parser.add_subparsers(dest="suite", required=True)

    p = sub.add_parser("tutte", help="three-way series agreement")
    p.add_argument("--max-i", type=int, default=40)
    p.add_argument("--tamari-max", type=int, default=tutte.TAMARI_MAX)
    _add_common(p)

    p = sub.add_parser("template", help="ODE and Laurent-series identities")
    p.add_argument("--m-max", type=int, default=12)
    p.add_argument("--order", type=int, default=30)
    _add_common(p)

    p = sub.add_parser("hm", help="h_m equivalence and degree bounds")
    p.add_argument("--m-max", type=int, default=6)
    p.add_argument("--s-cap", type=int, default=12)
    p.add_argument("--lambda-cap", type=int, default=8)
    _add_common(p)

    p = sub.add_parser("holonomic",
                       help="derivative tower, dependencies, b-sequence")
    p.add_argument("--tower", type=int, default=3)
    p.add_argument("--b-orders", type=int, default=12)
    p.add_argument("--s-cap", type=int, default=14)
    _add_common(p)

    p = sub.add_parser("conjecture", help="template vanishing of relations")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--i-max", type=int, default=6)
    _add_common(p)

    p = sub.add_parser("hilbert", help="quotient Hilbert series")
    p.add_argument("--n-max", type=int, default=5)
    _add_common(p)

    p = sub.add_parser("iso", help="curvature substitution identities")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--lambda-cap", type=int, default=8)
    _add_common(p)

    p = sub.add_parser("all", help="every suite at default parameters")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.suite == "all":
        # each suite at its own parser defaults, with the shared flags
        shared = ["--jobs", str(ns.jobs)]
        if ns.fixtures:
            shared += ["--fixtures", ns.fixtures]
        runs = [suite(parser.parse_args([name] + shared))
                for name, suite in _SUITES.items()]
    else:
        runs = [_SUITES[ns.suite](ns)]
    reports = [rep for run in runs for rep in run]
    for rep in reports:
        print(rep.line())
    if ns.emit_json:
        with open(ns.emit_json, "w") as fh:
            fh.write(reports_to_json(reports))
    # a suite that checked nothing cannot pass
    return 0 if all(runs) and all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
