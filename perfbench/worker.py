"""One benchmark process: import tutteval, run a workload, check it.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py run WORKLOAD SECONDS TRACE SEED TMPDIR

`probe` imports the program and prints the monotonic clock, so the parent
can time process start through imports.  `run` prints one JSON object as
its last line: the monotonic time at which the imports were done, the
verdict and CPU time of each round, the peak resident memory, the
operations attempted and failed, and with TRACE = 1 the per-layer metrics.

A round runs the workload's `verify` invocations once, in this process,
through `tutteval.cli.main`, after clearing every `lru_cache` of tutteval,
so each round is a cold build.  Rounds repeat until SECONDS have passed;
a round longer than that runs once.  Every later round must give reports
byte-identical to the first.  A traced process traces the first round
only, so its counts do not depend on the number of rounds.  The
correctness checks run after the last round and after memory and the
layer counts are read, so they add nothing to either.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

# workload -> the `verify` argument lists of one round
WORKLOADS = {
    "holonomic-cold": [["holonomic"]],
    "series-sweep": [["tutte"], ["template"], ["hm"], ["conjecture"],
                     ["hilbert"], ["iso"],
                     ["conjecture", "--n-max", "16", "--i-max", "10"]],
}

# caps of the oracles: the full check covers every coefficient of R
# (s-degree 17, lambda-degree 28) and Rhat (21, 34); the self-test is small
F_CAPS = (21, 39)
F_CAPS_SMALL = (6, 14)
B_CAPS = (14, 12)   # `verify holonomic` defaults: --s-cap 14 --b-orders 12
LOG_K = 18          # n_max + 2 of the large conjecture run


def run_cli(cli, argv: list, path: str) -> tuple:
    """(exit code, JSON report text) of one `verify` invocation."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--jobs", "1", "--emit-json", path])
    with open(path) as fh:
        return rc, fh.read()


def _lru_caches() -> list:
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("tutteval"):
            for val in vars(mod).values():
                if hasattr(val, "cache_clear"):
                    seen[id(val)] = val
    return list(seen.values())


def _entries(dv) -> dict:
    """A DependencyVector as {i: {(s-exp, lambda-exp): coefficient}}."""
    out = {}
    for k, p in enumerate(dv.entries):
        terms = {}
        for m, c in p.terms.items():
            if m[0] or any(m[3:]):
                raise ValueError(f"entry {k + dv.offset} is not in s, lambda")
            terms[(m[1], m[2])] = c
        out[k + dv.offset] = terms
    return out


def _doubled(entries: dict, i: int) -> dict:
    out = dict(entries)
    out[i] = {k: 2 * v for k, v in entries[i].items()}
    return out


def holonomic_checks(rng) -> list:
    """(name, problem or None) for each check of holonomic-cold."""
    import oracles
    from tutteval import holonomic

    checks = []
    F = oracles.f_expansion(*F_CAPS)
    F_small = oracles.f_expansion(*F_CAPS_SMALL)
    for dv in (holonomic.find_R(), holonomic.find_Rhat()):
        ent = _entries(dv)
        checks.append((f"{dv.kind} annihilates F at caps {F_CAPS}",
                       oracles.annihilation_residue(ent, F)))
        i = rng.choice(sorted(ent))
        ok = oracles.annihilation_residue(ent, F_small)
        bad = oracles.annihilation_residue(_doubled(ent, i), F_small)
        checks.append((f"self-test: {dv.kind} passes and {dv.kind} with "
                       f"entry {i} doubled fails at caps {F_CAPS_SMALL}",
                       ok if ok is not None else
                       None if bad is not None else "doubled entry accepted"))

    bd = holonomic.b_direct(*B_CAPS)
    problem = None
    for l, p in enumerate(bd.bl):
        if p.degree("s") > l:
            problem = f"deg_s b_{l} = {p.degree('s')} > {l}"
            break
    checks.append(("b_direct has s-degree <= l at every order", problem))

    def b_mismatch(bl):
        for l, p in enumerate(bl):
            got = {m[1]: c for m, c in p.terms.items()}
            want = oracles.b_from_f(F, l)
            for e in range(len(want)):
                if got.get(e, 0) != want[e]:
                    return f"b_{l} differs at s^{e}"
        return None

    checks.append(("b_direct equals l! [lambda^l] (s + F)",
                   b_mismatch(bd.bl)))
    l = rng.randrange(len(bd.bl))
    bad = list(bd.bl)
    bad[l] = bad[l] + holonomic.Poly.var("s") ** rng.randrange(l + 1)
    checks.append((f"self-test: a b sequence with b_{l} perturbed fails",
                   None if b_mismatch(bad) is not None
                   else "perturbed b accepted"))
    return checks


def series_checks(rng) -> list:
    """(name, problem or None) for each check of series-sweep."""
    import oracles
    from tutteval import verifier

    checks = []
    tab = verifier.f_table(LOG_K, 0)
    col = {k: {(m[0], m[1]): c for m, c in tab.get(k, 0).terms.items()}
           for k in range(1, LOG_K + 1)}
    want = oracles.log_column(LOG_K)

    def log_mismatch(c):
        for k in range(1, LOG_K + 1):
            if c[k] != want[k]:
                return f"f_{{{k},0}} differs from log(1+t+s)"
        return None

    checks.append((f"f_table({LOG_K}, 0) equals the log(1+t+s) expansion",
                   log_mismatch(col)))
    k = rng.randrange(1, LOG_K + 1)
    key = rng.choice(sorted(col[k]))
    bad = {**col, k: {**col[k], key: 2 * col[k][key]}}
    checks.append((f"self-test: f_{{{k},0}} with t^{key[0]} s^{key[1]} "
                   f"doubled fails the log oracle",
                   None if log_mismatch(bad) is not None
                   else "perturbed column accepted"))

    problem, cases = None, 0
    for n in range(1, LOG_K - 1):
        problem, c = oracles.template_residue(col, n)
        cases += c
        if problem:
            break
    checks.append((f"template integrals of f_{{n+1,0}}, f_{{n+2,0}} vanish "
                   f"for n <= {LOG_K - 2} ({cases} cases)", problem))
    n = rng.randrange(1, LOG_K - 1)
    key = rng.choice(sorted(col[n + 1]))
    bad = {**col, n + 1: {**col[n + 1], key: 2 * col[n + 1][key]}}
    checks.append((f"self-test: f_{{{n + 1},0}} with t^{key[0]} s^{key[1]} "
                   f"doubled fails the template oracle at n = {n}",
                   None if oracles.template_residue(bad, n)[0] is not None
                   else "perturbed column accepted"))
    return checks


CHECKS = {"holonomic-cold": holonomic_checks, "series-sweep": series_checks}


def run(workload: str, seconds: float, trace: bool, seed: int,
        tmp: str) -> dict:
    from tutteval import cli

    ready = time.monotonic()
    caches = _lru_caches()
    tracer = layers = spans = None
    if trace:
        from layers import Tracer
        tracer = Tracer().install()

    rounds, jsons = [], []
    start = time.perf_counter()
    while True:
        for cache in caches:
            cache.cache_clear()
        texts = []
        c0, t0 = time.process_time(), time.perf_counter()
        for j, argv in enumerate(WORKLOADS[workload]):
            texts.append(run_cli(cli, argv, os.path.join(tmp, f"{j}.json")))
        rounds.append((time.perf_counter() - t0, time.process_time() - c0))
        jsons.append(texts)
        if tracer:  # the layer counts are those of one round
            layers, spans = tracer.snapshot(), tracer.spans
            tracer.uninstall()
            tracer = None
        if time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failures = 0, []
    for r, texts in enumerate(jsons):
        for argv, (rc, text) in zip(WORKLOADS[workload], texts):
            for rep in json.loads(text):
                attempted += 1
                if rep["status"] != "pass" or rep["n_cases"] <= 0:
                    failures.append(f"round {r}: verify {' '.join(argv)}: "
                                    f"{rep['check']}({rep['params']}) "
                                    f"{rep['status']}, {rep['n_cases']} cases")
        if r:
            attempted += 1
            if texts != jsons[0]:
                failures.append(f"round {r}: reports differ from round 0")

    rng = random.Random(seed)
    try:
        checks = CHECKS[workload](rng)
    except Exception as exc:  # a crash in the checks is a failed check
        checks = [("correctness checks", f"{type(exc).__name__}: {exc}")]
    for name, problem in checks:
        attempted += 1
        if problem is not None:
            failures.append(f"{name}: {problem}")

    return {"ready": ready, "rounds": rounds, "peak_rss_mb": peak_rss_mb,
            "attempted": attempted, "failures": failures,
            "checks": [name for name, _ in checks],
            "layers": layers, "spans": spans}


def main(argv: list) -> int:
    if argv == ["probe"]:
        import tutteval.cli  # noqa: F401  (the import is what is timed)
        print(time.monotonic())
        return 0
    if len(argv) != 6 or argv[0] != "run" or argv[1] not in WORKLOADS:
        print(__doc__, file=sys.stderr)
        return 2
    _, workload, seconds, trace, seed, tmp = argv
    result = run(workload, float(seconds), trace == "1", int(seed), tmp)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
