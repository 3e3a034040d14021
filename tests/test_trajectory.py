"""The trajectory harness of benchmarks/: it reads the report lines that the
command line prints, and times one fresh process."""

import importlib.util
from pathlib import Path

from tutteval.report import Report

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "trajectory", _ROOT / "benchmarks" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory)


def test_report_ms_reads_every_line_form():
    # with and without a witness, list-valued params, and a witness that
    # itself holds a number before "ms"
    lines = [
        Report("vanishing", {"n": 1, "i_max": 6, "ks": [2, 3]}, "pass",
               None, 4, 17).line(),
        Report("p0", {}, "pass", "singular locus: l = 0", 1, 3).line(),
        Report("b_degree", {}, "fail", "deg b_2 = 3 > 2 in 5ms", 2, 250)
        .line(),
        Report("hilbert", {"n_max": 0}, "inconclusive", "n_max 0", 0, 0)
        .line(),
    ]
    got = [trajectory._REPORT_MS.match(line) for line in lines]
    assert [int(m[1]) for m in got] == [17, 3, 250, 0]
    assert trajectory._REPORT_MS.match("3 passed in 5ms") is None


def test_run_once_times_a_fresh_process():
    got = trajectory.run_once(["iso"])
    assert got["rc"] == 0 and got["reports"] == 1
    assert got["wall_s"] > 0 and got["peak_rss_mb"] > 1
    assert got["reports_ms"] >= 0
