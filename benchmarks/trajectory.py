#!/usr/bin/env python3
"""Wall time, peak memory and report time of `verify` runs, one file per
tree: the trajectory of the checker's cost from change to change.

    python3 benchmarks/trajectory.py --label LABEL [--out-dir DIR] [--smoke]

Run from anywhere; it times the sources of the checkout it lives in.  Each
run of `RUNS` (`verify all` and the deep caps) is a fresh
`python -m tutteval.cli` process with `src/` on its path.  For each one it
records the wall time from spawn to exit, the peak resident memory that
`os.wait4` reports for the child, and the sum of the `ms` fields of the
report lines the child prints.  An untimed warm-up run first writes the
bytecode cache, which every timed run then reads.  It reads nothing but
the child's output and exit status, so a change to the program cannot
break it.  The runs go round robin, `REPEAT` times, so a drift of the
machine's speed spreads over all of them; the median of each metric is
kept beside its samples.

The result goes to `BENCH_<label>.json` in `--out-dir` (the root of the
checkout by default), with the machine it ran on.  `--smoke` runs
`verify all` and the smallest deep run once each, to show that the harness
still works.  The exit status is 0 when every run exited 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# `verify all`, then the deep caps, cheapest first
RUNS = [
    ["all"],
    ["tutte", "--max-i", "300"],
    ["template", "--m-max", "24", "--order", "60"],
    ["conjecture", "--n-max", "64", "--i-max", "24"],
    ["holonomic", "--tower", "6", "--b-orders", "40", "--s-cap", "42"],
    ["holonomic", "--tower", "10"],
    ["hm", "--m-max", "16", "--s-cap", "40", "--lambda-cap", "20"],
    ["hilbert", "--n-max", "40"],
    ["holonomic", "--tower", "6", "--b-orders", "80", "--s-cap", "82"],
    ["conjecture", "--n-max", "100", "--i-max", "40"],
    ["hilbert", "--n-max", "80"],
]
SMOKE_RUNS = RUNS[:2]
# processes per run: the median of three is robust to one slow process
REPEAT = 3
# untimed: imports every module once, so each is compiled before timing
WARM_UP = ["iso"]

# a report line: [STATUS] check(params) cases=N Mms[ witness=...]
_REPORT_MS = re.compile(r"\[[A-Z]+\] .*? cases=-?\d+ (\d+)ms(?: witness=|$)")


def run_once(argv: list) -> dict:
    """One fresh `verify` process: exit code, wall time, peak RSS and the
    number and summed `ms` of its report lines."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    # every run reads the bytecode cache that the warm-up run wrote, also
    # where the caller's environment disables writing it: compiling the
    # sources would add to the wall time and the peak RSS of the first run
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "tutteval.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, env=env, cwd=ROOT) as proc:
        out = proc.stdout.read()
        # reaped here, so that the child's own resource usage is read
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    ms = [int(m[1]) for m in map(_REPORT_MS.match, out.splitlines()) if m]
    # ru_maxrss is in KiB on Linux
    return {"rc": proc.returncode, "wall_s": round(wall, 4),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 2),
            "reports_ms": sum(ms), "reports": len(ms)}


def machine() -> dict:
    """What the numbers were measured on."""
    info = {"platform": platform.platform(),
            "python": f"{platform.python_implementation()} "
                      f"{platform.python_version()}",
            "cpus": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = platform.processor() or "unknown"
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="names BENCH_<label>.json, e.g. a short commit")
    parser.add_argument("--out-dir", default=ROOT,
                        help="where the JSON goes (the checkout's root)")
    parser.add_argument("--smoke", action="store_true",
                        help="two runs, once each: checks the harness")
    args = parser.parse_args()
    runs, repeat = (SMOKE_RUNS, 1) if args.smoke else (RUNS, REPEAT)

    run_once(WARM_UP)
    samples = [[] for _ in runs]
    for _ in range(repeat):
        for argv, got in zip(runs, samples):
            got.append(run_once(argv))
    results = []
    for argv, got in zip(runs, samples):
        entry = {"argv": ["verify", *argv],
                 "rc": max((s["rc"] for s in got), key=abs),
                 "reports": got[0]["reports"]}
        for key in ("wall_s", "peak_rss_mb", "reports_ms"):
            values = [s[key] for s in got]
            entry[key] = statistics.median(values)
            entry[key + "_samples"] = values
        results.append(entry)
        print(f"{' '.join(entry['argv'])}: {entry['wall_s']:.3f} s, "
              f"{entry['peak_rss_mb']:.1f} MB, reports {entry['reports_ms']}"
              f" ms, rc {entry['rc']}")

    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump({"label": args.label, "machine": machine(), "repeat": repeat,
                   "runs": results}, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0 if all(entry["rc"] == 0 for entry in results) else 1


if __name__ == "__main__":
    sys.exit(main())
