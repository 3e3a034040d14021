"""Command-line front end: exit codes, report lines, JSON emission, and the
fixture pin/compare round trip."""

import json
import os

import pytest

from tutteval import cli, verifier
from tutteval.cli import _fixture_report, build_parser, main
from tutteval.report import Report, reports_to_json


def test_parser_rejects_garbage():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["tutte", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


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
            return []
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
