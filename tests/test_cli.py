"""Command-line front end: exit codes, report lines, JSON emission, and the
fixture pin/compare round trip."""

import itertools
import json
import os
from pathlib import Path

import pytest

from tutteval import cli, holonomic, template, verifier
from tutteval.cli import _fixture_report, build_parser, main
from tutteval.report import Report, reports_to_json


def test_parser_rejects_garbage():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["tutte", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("suite", ["tutte", "template", "hm", "holonomic",
                                   "conjecture", "hilbert", "iso", "all"])
def test_parser_rejects_jobs_below_one(suite, capsys):
    # no suite runs with zero or negative worker processes
    for jobs in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([suite, "--jobs", jobs])
        assert exc.value.code == 2
        assert f"--jobs: {jobs} is not a positive integer" in (
            capsys.readouterr().err)
    assert build_parser().parse_args([suite, "--jobs", "2"]).jobs == 2


def test_tutte_suite_exit_and_lines(capsys):
    rc = main(["tutte", "--max-i", "10"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert len(out) == 2
    assert all(line.startswith("[PASS]") for line in out)
    assert any("three_way" in line for line in out)
    assert any("phi_lagrange" in line for line in out)


def test_iso_json_emission(tmp_path, capsys):
    path = tmp_path / "reports.json"
    rc = main(["iso", "--order", "6", "--lambda-cap", "4",
               "--emit-json", str(path)])
    capsys.readouterr()
    assert rc == 0
    data = json.loads(path.read_text())
    assert len(data) == 1
    assert data[0]["check"] == "iso"
    assert data[0]["status"] == "pass"
    # timing is scrubbed so repeated runs are byte-identical
    assert data[0]["millis"] is None


def test_hilbert_suite(capsys):
    rc = main(["hilbert", "--n-max", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 2


@pytest.mark.filterwarnings("error")
def test_fixture_pin_then_compare(tmp_path):
    # an unclosed file would raise here as a ResourceWarning
    d = str(tmp_path)
    first = _fixture_report(d, "demo", {"a": "1", "b": "x"})
    assert first.ok and first.status == "pass"
    again = _fixture_report(d, "demo", {"b": "x", "a": "1"})  # key order free
    assert again.ok
    tampered = _fixture_report(d, "demo", {"a": "2", "b": "x"})
    assert not tampered.ok
    # the pin went through a temporary file that was renamed into place
    assert os.listdir(d) == ["demo.json"]


def test_fixture_pin_failure_leaves_no_file(tmp_path, monkeypatch):
    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", broken_replace)
    with pytest.raises(OSError):
        _fixture_report(str(tmp_path), "demo", {"a": "1"})
    assert os.listdir(tmp_path) == []


def test_all_runs_each_suite_at_its_parser_defaults(monkeypatch, tmp_path):
    seen = {}

    def recorder(name):
        def run(args):
            seen[name] = vars(args)
            return [Report(name, {}, "pass", None, 1, 0)]
        return run

    monkeypatch.setattr(cli, "_SUITES",
                        {name: recorder(name) for name in cli._SUITES})
    assert main(["all", "--emit-json", str(tmp_path / "r.json")]) == 0
    assert list(seen) == list(cli._SUITES)
    for name, got in seen.items():
        assert got == vars(build_parser().parse_args([name])), name
    # the shared flags reach every suite
    main(["all", "--jobs", "3", "--fixtures", str(tmp_path)])
    for name, got in seen.items():
        assert got == vars(build_parser().parse_args(
            [name, "--jobs", "3", "--fixtures", str(tmp_path)])), name


def test_all_matches_the_pinned_report(tmp_path, capsys):
    # `verify all --emit-json` output pinned from an earlier tree: a change
    # to any check's verdict, witness, case count or parameters shows here
    path = tmp_path / "all.json"
    assert main(["all", "--emit-json", str(path)]) == 0
    capsys.readouterr()
    pinned = Path(__file__).parent / "fixtures" / "verify_all.json"
    assert path.read_bytes() == pinned.read_bytes()


@pytest.mark.parametrize("argv, fixture", [
    (["conjecture", "--n-max", "16", "--i-max", "10"],
     "verify_conjecture_16_10.json"),
    (["hm", "--m-max", "10", "--s-cap", "20", "--lambda-cap", "12"],
     "verify_hm_10_20_12.json"),
    (["template", "--m-max", "24", "--order", "60"],
     "verify_template_24_60.json"),
    (["holonomic", "--tower", "6", "--b-orders", "40", "--s-cap", "42"],
     "verify_holonomic_6_40_42.json"),
    (["conjecture", "--n-max", "64", "--i-max", "24"],
     "verify_conjecture_64_24.json"),
    (["tutte", "--max-i", "300"], "verify_tutte_300.json"),
])
def test_deep_caps_match_the_pinned_reports(argv, fixture, tmp_path, capsys):
    # caps far past the defaults, pinned from an earlier tree: they run the
    # series inverse, square root and log, and the b recursions, much deeper
    # than `verify all`
    path = tmp_path / "r.json"
    assert main(argv + ["--emit-json", str(path)]) == 0
    capsys.readouterr()
    pinned = Path(__file__).parent / "fixtures" / fixture
    assert path.read_bytes() == pinned.read_bytes()


def test_conjecture_suite_builds_its_f_table_once(monkeypatch, capsys):
    calls = []
    f_table = verifier.f_table

    def counted(K_max, I_max):
        calls.append((K_max, I_max))
        return f_table(K_max, I_max)

    monkeypatch.setattr(verifier, "f_table", counted)
    assert main(["conjecture", "--n-max", "3", "--i-max", "2"]) == 0
    capsys.readouterr()
    # one table for the degree report and the vanishing checks, one wider
    # table for the restriction spot check
    assert calls == [(5, 2), (7, 2)]
    # from n_max = 7 on, the suite's table reaches k = 5 + 4 and the spot
    # check reads it: the default run builds one table
    calls.clear()
    assert main(["conjecture"]) == 0
    capsys.readouterr()
    assert calls == [(10, 6)]


def test_template_suite_builds_one_log(monkeypatch, capsys):
    # the five even m <= 8 share one log(1 + sqrt(1 - 4x^2)) at the suite's
    # order; an order below 2 leaves every m inconclusive and builds none
    calls = []
    log = template.LaurentX.log

    def counted(self):
        calls.append(self.caps)
        return log(self)

    monkeypatch.setattr(template.LaurentX, "log", counted)
    assert main(["template"]) == 0
    assert calls == [(30,)]
    calls.clear()
    capsys.readouterr()
    assert main(["template", "--order", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    identity = [ln for ln in lines if "series_identity" in ln]
    assert len(identity) == 9
    assert all(ln.startswith("[INCONCLUSIVE]") for ln in identity), identity
    assert calls == []
    # at order 2 only m = 0 has a coefficient to compare, and it needs the log
    main(["template", "--order", "2"])
    assert calls == [(2,)]


def test_json_report_shape():
    rep = Report("demo", {"n": 1}, "pass", None, 3, 17)
    obj = json.loads(reports_to_json([rep]))
    assert obj[0]["millis"] is None
    obj_t = json.loads(reports_to_json([rep], with_timing=True))
    assert obj_t[0]["millis"] == 17


def test_failure_exit_code(tmp_path, capsys):
    # pin a fixture, corrupt it on disk, and re-run: exit code must be 1
    fixdir = tmp_path / "fix"
    cmd = ["template", "--m-max", "0", "--order", "10",
           "--fixtures", str(fixdir)]
    rc = main(cmd)
    capsys.readouterr()
    assert rc == 0
    pinned = fixdir / "kappa.json"
    pinned.write_text('{\n "0": [\n  "7",\n  "7"\n ]\n}')
    rc = main(cmd)
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def _run_holonomic(argv, capsys, tmp_path):
    path = tmp_path / "reports.json"
    rc = main(["holonomic"] + argv + ["--emit-json", str(path)])
    lines = capsys.readouterr().out.splitlines()
    return rc, lines, json.loads(path.read_text())


def test_b_direct_cap_error_is_a_report(capsys, tmp_path):
    # caps too small for the orders: an inconclusive report in place of a
    # traceback, and nothing that needs the direct sequence
    rc, lines, data = _run_holonomic(
        ["--s-cap", "5", "--b-orders", "4"], capsys, tmp_path)
    assert rc == 1
    rep = next(r for r in data if r["check"] == "b_direct")
    assert rep["status"] == "inconclusive"
    assert rep["params"] == {"s_cap": 5, "orders": 4}
    assert rep["witness"] == "s cap 5 too small for lambda cap 4"
    assert not any(r["check"] == "b_equality" for r in data)
    assert [r["params"]["source"] for r in data
            if r["check"] == "b_degree"] == ["recursion"]
    assert all(r["status"] == "pass" for r in data if r is not rep)
    assert any(line.startswith("[INCONCLUSIVE] b_direct") for line in lines)


def test_b_direct_saturation_is_a_report(monkeypatch, capsys, tmp_path):
    def saturated(S, L):
        raise ArithmeticError(f"b_3 saturates the s cap {S}; "
                              "result inconclusive")

    monkeypatch.setattr(holonomic, "b_direct", saturated)
    fixdir = tmp_path / "fix"
    rc, _, data = _run_holonomic(
        ["--b-orders", "4", "--fixtures", str(fixdir)], capsys, tmp_path)
    assert rc == 1
    rep = next(r for r in data if r["check"] == "b_direct")
    assert rep["status"] == "inconclusive"
    assert rep["witness"] == "b_3 saturates the s cap 14; result inconclusive"
    assert not any(r["check"] == "b_equality" for r in data)
    # no direct sequence, so nothing is pinned for it
    assert not (fixdir / "b_sequence.json").exists()


def test_b_reports_carry_the_orders_asked_for(capsys, tmp_path):
    # the reports on the two b sequences carry the orders asked for, even
    # when a sequence came out empty
    rc, lines, data = _run_holonomic(["--b-orders", "0"], capsys, tmp_path)
    assert rc == 1
    b_reports = [r for r in data if r["check"].startswith("b_")]
    assert [(r["check"], r["status"]) for r in b_reports] == [
        ("b_recursion", "inconclusive"), ("b_degree", "pass"),
        ("b_degree", "inconclusive"), ("b_equality", "inconclusive")]
    assert all(r["params"]["orders"] == 0 for r in b_reports)
    assert ("[INCONCLUSIVE] b_degree(source=recursion, orders=0) cases=0"
            in "\n".join(lines))


def test_a_refused_dependency_vector_is_a_report(monkeypatch, capsys,
                                               tmp_path):
    # R times a common factor is refused by its certificate: every report
    # line is still printed, the reports that need R or Rhat fail with the
    # reason, nothing is pinned for them, and the refused certificate runs
    # once for the whole run
    kernel = holonomic._kernel_vector
    normalize = holonomic.clear_and_normalize
    certified = []

    def planted(cols, primes):
        return [(holonomic.LAM + 2) * p for p in kernel(cols, primes)]

    def counted(vec):
        certified.append(len(vec))
        return normalize(vec)

    monkeypatch.setattr(holonomic, "_kernel_vector", planted)
    monkeypatch.setattr(holonomic, "clear_and_normalize", counted)
    fixdir = tmp_path / "fix"
    rc, lines, data = _run_holonomic(["--fixtures", str(fixdir)], capsys,
                                     tmp_path)
    assert rc == 1 and certified == [5]
    assert len(lines) == len(data) == 13
    reason = "the entries share a factor in l: their images at "
    failing = [(r["check"], r["params"]) for r in data
               if r["status"] == "fail"]
    assert failing == [("dependency", {"kind": "R"}),
                       ("dependency", {"kind": "Rhat"}),
                       ("b_recursion", {"orders": 12}),
                       ("fixture", {"name": "dependency_R"}),
                       ("fixture", {"name": "dependency_Rhat"})]
    assert all(r["witness"].startswith(reason) for r in data
               if r["status"] == "fail")
    assert not (fixdir / "dependency_R.json").exists()
    assert not (fixdir / "dependency_Rhat.json").exists()
    # the recursion has no sequence, so its degree and the equality of the
    # two sources are inconclusive; the direct sequence still passes
    assert [(r["check"], r["status"]) for r in data
            if r["check"] in ("b_degree", "b_equality")] == [
        ("b_degree", "pass"), ("b_degree", "inconclusive"),
        ("b_equality", "inconclusive")]


def test_holonomic_suite_builds_each_vector_and_column_set_once(
        monkeypatch, capsys, tmp_path):
    # `verify holonomic --fixtures DIR` builds R, Rhat and the columns of
    # top 4 and of top 5 once each, and passes them to every report and pin
    # that reads them; Rhat is derived from that R
    calls = []

    def spy(name, fn):
        def counted(*args):
            calls.append(name if name != "tower_columns" else args[0])
            return fn(*args)
        monkeypatch.setattr(holonomic, name, counted)

    # no cache holds these builds, so a warm tower changes no count
    for name in ("find_R", "find_Rhat", "tower_columns"):
        spy(name, getattr(holonomic, name))
    rc, _, data = _run_holonomic(["--fixtures", str(tmp_path / "fix")],
                                 capsys, tmp_path)
    assert rc == 0 and len(data) == 13
    assert calls == [4, "find_R", "find_Rhat", 5]


@pytest.mark.parametrize("argv, check, witness", [
    (["conjecture", "--i-max", "-1"], "conjecture",
     "no relation to check; need n_max >= 1 and i_max >= 0"),
    (["conjecture", "--n-max", "-2"], "conjecture",
     "no relation to check; need n_max >= 1 and i_max >= 0"),
    (["conjecture", "--n-max", "0"], "conjecture",
     "no relation to check; need n_max >= 1 and i_max >= 0"),
    (["hm", "--m-max", "1", "--lambda-cap", "-1"], "h_m",
     "lambda cap -1 is negative; need >= 0"),
    (["tutte", "--max-i", "0"], "phi_lagrange",
     "n_max 0 leaves no coefficient to compare; need n_max >= 1"),
    (["hilbert", "--n-max", "0"], "hilbert",
     "no dimension to check; need n_max >= 1"),
    (["iso", "--order", "0"], "iso",
     "order 0 and lambda cap 8 leave no lambda term to compare; "
     "need order >= 4 and lambda cap >= 1"),
    (["iso", "--order", "6", "--lambda-cap", "0"], "iso",
     "order 6 and lambda cap 0 leave no lambda term to compare; "
     "need order >= 4 and lambda cap >= 1"),
    (["template", "--m-max", "-1"], "template",
     "m in 0..-1 is empty; need m_max >= 0"),
    (["hm", "--m-max", "-1"], "hm", "m in 0..-1 is empty; need m_max >= 0"),
    (["tutte", "--tamari-max", "0"], "tutte_three_way",
     "tamari_max 0 is outside 1..TAMARI_MAX = 6: no Tamari interval count "
     "to compare"),
    (["tutte", "--tamari-max", "20"], "tutte_three_way",
     "tamari_max 20 is outside 1..TAMARI_MAX = 6: no Tamari interval count "
     "to compare"),
])
def test_bad_caps_are_reports(argv, check, witness, capsys, tmp_path):
    # caps that leave nothing to compare give inconclusive reports and exit
    # 1, never a traceback, a pass on zero cases or a silent empty run
    path = tmp_path / "reports.json"
    rc = main(argv + ["--emit-json", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    data = json.loads(path.read_text())
    bad = [r for r in data if r["status"] != "pass"]
    assert f"[INCONCLUSIVE] {check}(" in out
    assert bad and all(r["status"] == "inconclusive" for r in bad)
    assert all(r["check"] == check and r["witness"] == witness
               and r["n_cases"] == 0 for r in bad)


# small caps for every suite whose caps reach its checks
CAP_SWEEP = {
    "tutte": {"--max-i": [0, 1, 2, 3], "--tamari-max": [-1, 0, 1, 2, 3, 7]},
    "template": {"--m-max": [0, 1, 3, 8], "--order": [0, 1, 2, 3, 4, 6, 10]},
    "hm": {"--m-max": [3], "--s-cap": [0, 1, 2, 3, 4],
           "--lambda-cap": [-1, 0, 1, 2]},
    "conjecture": {"--n-max": [1, 2, 3, 4, 6], "--i-max": [0, 1, 2, 4]},
    "hilbert": {"--n-max": [1, 2, 3]},
    "iso": {"--order": [0, 1, 2, 3, 4, 6], "--lambda-cap": [0, 1, 2, 4]},
    "holonomic": {"--tower": [0, 1, 7], "--b-orders": [-1, 0, 1],
                  "--s-cap": [2]},
}


def _emitted(argv, tmp_path, capsys) -> list:
    path = tmp_path / "sweep.json"
    main(argv + ["--emit-json", str(path)])
    capsys.readouterr()
    return json.loads(path.read_text())


def _case(rep: dict) -> tuple:
    # a check is identified by its check name and its m, n, kind or source;
    # the other parameters are caps
    return rep["check"], tuple((k, v) for k, v in rep["params"].items()
                               if k in ("m", "n", "kind", "source"))


@pytest.mark.parametrize("suite", sorted(CAP_SWEEP))
def test_small_caps_pass_only_on_a_real_comparison(suite, tmp_path, capsys):
    # at every cap a pass has compared at least one case, and its witness
    # is the one the default caps give for the same check
    default = {_case(r): r for r in _emitted([suite], tmp_path, capsys)}
    grid = CAP_SWEEP[suite]
    for values in itertools.product(*grid.values()):
        argv = [suite]
        for flag, v in zip(grid, values):
            argv += [flag, str(v)]
        for rep in _emitted(argv, tmp_path, capsys):
            if rep["status"] != "pass":
                continue
            assert rep["n_cases"] > 0, (argv, rep)
            assert _case(rep) in default, (argv, rep)
            assert rep["witness"] == default[_case(rep)]["witness"], (argv,
                                                                      rep)


def test_hm_with_nothing_to_compare_is_inconclusive(capsys):
    # h_0 and its direct reduction both vanish at lambda cap 0
    rep = template.verify_h_m(0, 3, 0, template.h_m_inputs(0, 3, 0))
    assert rep.status == "inconclusive" and rep.n_cases == 0
    assert rep.witness == ("h_0 and its direct reduction both vanish at "
                           "s cap 3, lambda cap 0; nothing to compare")
    assert main(["hm", "--m-max", "1", "--lambda-cap", "0"]) == 1
    assert "[INCONCLUSIVE] h_m(m=0" in capsys.readouterr().out
