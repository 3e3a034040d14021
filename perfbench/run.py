#!/usr/bin/env python3
"""The tutteval benchmark: verdict time, CPU, memory and per-layer cost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh Python
process (see worker.py); several more processes only import the program,
to time set-up.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (verdict_s, setup_s,
cpu_s, peak_rss_mb); with --trace 1 they are the per-layer ones of
layers.py, measured in the same way from a traced process.  The workloads
are exact arithmetic at fixed caps and have no random part: the seed picks
the hash seed of the workload process and the perturbations the oracle
self-tests must reject.  Results also go to .perfbench_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from layers import LAYER_METRICS  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_PROBES = 7     # import-only processes per run, after one warm-up
DEADLINE_S = 170     # the whole run, children included


def _child(args: list, env: dict, deadline: float) -> str:
    """Run a child to completion and return its standard output; a child
    still running at the deadline is killed and waited for."""
    proc = subprocess.run([sys.executable, WORKER] + args, env=env,
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "tutteval", "cli.py")):
        print(f"no tutteval sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2 ** 32))
    # the warm-up probe writes the bytecode cache, so set-up is timed with
    # it whether or not the caller's environment disables writing it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    outdir = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(outdir, exist_ok=True)

    try:
        setup = []
        for k in range(SETUP_PROBES + 1):
            t0 = time.monotonic()
            ready = float(_child(["probe"], env, deadline))
            if k:  # the first probe may compile bytecode
                setup.append(ready - t0)
        with tempfile.TemporaryDirectory(dir=outdir) as tmp:
            t0 = time.monotonic()
            out = _child(["run", args.workload, str(args.seconds),
                          str(args.trace), str(args.seed), tmp], env, deadline)
        res = json.loads(out.strip().splitlines()[-1])
        setup.append(res["ready"] - t0)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3

    verdicts = [v for v, _ in res["rounds"]]
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {
            "verdict_s": {"value": statistics.median(verdicts), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cpu_s": {"value": statistics.median(c for _, c in res["rounds"]),
                      "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    failed = len(res["failures"])
    result = {"correct": failed == 0, "attempted": res["attempted"],
              "failed": failed, "metrics": metrics}

    for line in res["failures"]:
        print("FAILED", line)
    print(f"{args.workload}: {len(verdicts)} round(s), verdict_s "
          f"{', '.join(f'{v:.3f}' for v in verdicts)}, "
          f"{len(res['checks'])} checks, trace={args.trace}")
    stem = os.path.join(outdir, f"{args.workload}.seed{args.seed}"
                                f".trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**result, "verdicts_s": verdicts, "setup_samples_s": setup,
                   "checks": res["checks"], "failures": res["failures"]},
                  fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": res["spans"]}, fh)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
