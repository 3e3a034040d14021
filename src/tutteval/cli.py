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
from .report import Report, reports_to_json


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
        tutte.three_way_report(6, args.tamari_max),
        tutte.lagrange_report(args.max_i),
    ]


def _template_suite(args) -> list:
    reports = [template.verify_q2_ode(m) for m in range(args.m_max + 1)]
    for m in range(min(args.m_max, 8) + 1):
        reports.append(template.verify_series_identity(m, args.order))
    if args.fixtures:
        kappas = {str(m): [str(q) for q in template.kappa_constant(m)]
                  for m in range(0, min(args.m_max, 8) + 1, 2)}
        reports.append(_fixture_report(args.fixtures, "kappa", kappas))
    return reports


def _hm_suite(args) -> list:
    return [template.verify_h_m(m, args.s_cap, args.lambda_cap)
            for m in range(args.m_max + 1)]


def _holonomic_suite(args) -> list:
    reports = [
        holonomic.p0_report(),
        holonomic.p0_series_report(),
        holonomic.tower_oracle(min(args.tower, 3), 8, 6),
        holonomic.dependency_report("R"),
        holonomic.dependency_report("Rhat"),
    ]
    bd = holonomic.b_direct(args.s_cap, args.b_orders)
    br, rec_rep = holonomic.b_recursion(args.b_orders)
    reports += [
        rec_rep,
        bd.degree_report(),
        br.degree_report(),
        holonomic.b_equality_report(bd, br),
        holonomic.coprimality_report(),
    ]
    if args.fixtures:
        R = holonomic.find_R()
        Rhat = holonomic.find_Rhat()
        reports.append(_fixture_report(
            args.fixtures, "dependency_R",
            [poly_to_str(p) for p in R.entries]))
        reports.append(_fixture_report(
            args.fixtures, "dependency_Rhat",
            [poly_to_str(p) for p in Rhat.entries]))
        reports.append(_fixture_report(
            args.fixtures, "b_sequence",
            [poly_to_str(p) for p in bd.bl]))
    return reports


def _conjecture_suite(args) -> list:
    tab = verifier.f_table(args.n_max + 2, args.i_max)
    reports = [tab.degree_report()]
    reports += verifier.conjecture_reports(args.n_max, args.i_max, args.jobs,
                                           tab)
    reports.append(verifier.restriction_spot_check(min(args.n_max, 5),
                                                  min(args.i_max, 4)))
    return reports


def _hilbert_suite(args) -> list:
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


def _add_common(p):
    p.add_argument("--emit-json", metavar="PATH",
                   help="write the JSON report array to PATH")
    p.add_argument("--fixtures", metavar="DIR",
                   help="pin/compare derived values under DIR")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the vanishing checks")


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
        reports = []
        for name, suite in _SUITES.items():
            reports += suite(parser.parse_args([name] + shared))
    else:
        reports = _SUITES[ns.suite](ns)
    for rep in reports:
        print(rep.line())
    if ns.emit_json:
        with open(ns.emit_json, "w") as fh:
            fh.write(reports_to_json(reports))
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
