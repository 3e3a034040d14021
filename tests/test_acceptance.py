"""End-to-end acceptance gate: ten criteria, each an exact-equality check
with a wall-clock budget, reported as a single pass/fail line (visible with
`pytest -s tests/test_acceptance.py`)."""

import time

from tutteval import holonomic, template, tutte, verifier
from tutteval.cli import main
from tutteval.exactnum import ONE, Rat, ZERO
from tutteval.polyring import Poly


def _criterion(num, label, budget, fn):
    t0 = time.perf_counter()
    ok, detail = True, ""
    try:
        fn()
    except AssertionError as exc:
        ok, detail = False, f" ({exc})"
    dt = time.perf_counter() - t0
    within = dt <= budget
    verdict = "PASS" if ok and within else "FAIL"
    print(f"criterion {num:2d} [{verdict}] {label}: {dt:.2f}s "
          f"(budget {budget:.0f}s){detail}")
    assert ok, f"criterion {num}: {label}{detail}"
    assert within, f"criterion {num}: {dt:.2f}s over {budget:.0f}s budget"


def test_criterion_1_sequence_three_ways():
    expected = (1, 3, 13, 68, 399, 2530)

    def check():
        rep = tutte.three_way_report(6)
        assert rep.ok, rep.line()
        for i, v in enumerate(expected, start=1):
            assert tutte.tutte_coeff(i) == Rat(v)

    _criterion(1, "sequence agreement, three routes, 6 terms", 10, check)


def test_criterion_2_lagrange_40_terms():
    def check():
        rep = tutte.lagrange_report(40)
        assert rep.ok, rep.line()

    _criterion(2, "series vs closed form for phi, 40 terms", 1, check)


def test_criterion_3_first_derivative_closed_form():
    def check():
        rep = holonomic.p0_report()
        assert rep.ok, rep.line()
        l, f = Poly.var("l"), Poly.var("f")
        num = 12 * l * f ** 3 + 52 * l * f ** 2 + 4 * l * f - 36 * l + 9 * f
        p0 = holonomic.p0_quot()
        assert len(p0.num) == 4
        for i in range(4):
            assert p0.num[i].scale(p0.c) * (256 * l ** 2 - 27 * l) == \
                p0.den_poly() * num.as_univar("f")[i]

    _criterion(3, "first derivative as exact rational function", 1, check)


def test_criterion_4_ode_and_series_identity():
    def check():
        for m in range(13):
            assert template.verify_q2_ode(m).ok, f"ODE fails at m={m}"
        lg = template.log_one_plus_sqrt(30)
        for m in range(9):
            assert template.verify_series_identity(m, 30, lg).ok, \
                f"series identity fails at m={m}"
        assert template.kappa_constant(0) == (ZERO, ONE)

    _criterion(4, "ODE m<=12, series identity m<=8, log-2 constant", 30, check)


def test_criterion_5_h_m_equivalence():
    def check():
        inputs = template.h_m_inputs(6, 12, 8)
        for m in range(7):
            rep = template.verify_h_m(m, 12, 8, inputs)
            assert rep.ok, rep.line()

    _criterion(5, "reduced series h_m, m<=6, caps (12,8)", 120, check)


def _clear_holonomic_caches():
    """Drop every cached holonomic build, so a timed check measures a cold
    build whatever ran before it in the same process."""
    for fn in (holonomic.p0_quot, holonomic.w_quot, holonomic.q_tower):
        fn.cache_clear()


def test_criterion_6_dependency_structure():
    def check():
        _clear_holonomic_caches()
        cols = holonomic.tower_columns(4)
        R = holonomic.find_R(cols)
        rep = holonomic.dependency_report("R", R, cols)
        assert rep.ok, rep.line()
        rep = holonomic.dependency_report("Rhat", holonomic.find_Rhat(R),
                                          holonomic.tower_columns(5, cols))
        assert rep.ok, rep.line()

    _criterion(6, "kernel band structure, both dependency vectors", 120, check)


def test_criterion_7_b_sequence_both_routes():
    def check():
        _clear_holonomic_caches()
        direct = holonomic.b_direct(14, 12)
        R = holonomic.find_R()
        rec, rep = holonomic.b_recursion(12, R, holonomic.find_Rhat(R))
        assert rep.ok, rep.line()
        eq = holonomic.b_equality_report(direct, rec)
        assert eq.ok, eq.line()
        assert direct.degree_report().ok

    _criterion(7, "coefficient sequence, direct vs recursion, 12 orders",
               120, check)


def test_criterion_8_vanishing_single_job():
    def check():
        reps = verifier.conjecture_reports(8, 6, 1, verifier.f_table(10, 6))
        assert len(reps) == 8
        for r in reps:
            assert r.ok, r.line()

    _criterion(8, "template vanishing n<=8 i<=6, single process", 600, check)


def test_criterion_8b_vanishing_parallel():
    def check():
        reps = verifier.conjecture_reports(8, 6, 8, verifier.f_table(10, 6))
        assert all(r.ok for r in reps)

    _criterion(8, "template vanishing n<=8 i<=6, eight processes", 120, check)


def test_criterion_9_hilbert_series():
    def check():
        for n in range(1, 6):
            rep = verifier.hilbert_check(n)
            assert rep.ok, rep.line()

    _criterion(9, "quotient Hilbert series n<=5, palindromic", 60, check)


def test_criterion_10_deterministic_output(tmp_path):
    def check():
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["all", "--emit-json", str(a)]) == 0
        assert main(["all", "--emit-json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), "runs differ byte-for-byte"

    _criterion(10, "full run emits byte-identical reports", 600, check)
