"""The per-layer tracer of the benchmark harness still finds the layers it
times: a program change that renames or moves a traced method makes its
metric read 0 instead of raising, so a small traced run must see the
truncated product kernel, the series log, inverse and sqrt, the f-table,
the direct reduction of h_m and the holonomic phases at work."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced(*argvs) -> dict:
    """The tracer's metrics over cold runs of the given subcommands."""
    saved = list(sys.path)  # importing worker also puts src/ on the path
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import worker
    finally:
        sys.path[:] = saved
    from tutteval import cli

    for cache in worker._lru_caches():  # a cold run, as in a benchmark round
        cache.cache_clear()
    tracer = layers.Tracer().install()
    try:
        for argv in argvs:
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer.snapshot()


def test_traced_run_sees_the_series_layers(capsys):
    values = _traced(["template", "--m-max", "2", "--order", "10"],
                     ["hm", "--m-max", "2", "--s-cap", "6",
                      "--lambda-cap", "4"],
                     ["iso"],
                     ["conjecture", "--n-max", "3", "--i-max", "2"])
    capsys.readouterr()
    for metric in ("kernels.mul_trunc2_calls", "series.log_s",
                   "series.inverse_s", "series.sqrt_s",
                   "verifier.f_table_calls", "verifier.f_table_terms",
                   "template.direct_reduction_s"):
        assert values[metric] > 0, metric


def test_traced_run_sees_the_holonomic_phases(capsys):
    values = _traced(["holonomic", "--tower", "1", "--b-orders", "2",
                      "--s-cap", "4"])
    capsys.readouterr()
    for metric in ("holonomic.find_R_s", "holonomic.find_Rhat_s",
                   "holonomic.recheck_s", "holonomic.b_s",
                   "holonomic.q_tower_builds"):
        assert values[metric] > 0, metric
