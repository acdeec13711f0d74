"""Self-test of the benchmark at the tiny scale, in about a minute.

    python3 perfbench/selftest.py

Checks that every metric prints with its declared unit, that the tiny
reports match their reference digests, that timed passes run without
tracing wrappers, that two traced runs of one seed count the same calls,
that the zero-call predictions of the layer map hold, that the coverage
guard names what it misses and restores every binding, and that the
benchmark refuses to run without the nilaut sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

from run import BENCH_DIR, OUT_DIR, ROOT, print_summary, timed_run, traced_run, unit_of
from tracer import CoverageError, Tracer, _nilaut_modules, count_traced_bindings
from workloads import PREDICTED_ZERO_CALLS, WORKLOADS

SEED = 3
failures = []


def check(ok, what):
    print("  [%s] %s" % ("ok" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def declared_units():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json lists exactly the defined workloads")
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def check_printed(run, trace, units):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        print_summary({"workload": "w", "seed": SEED, "python": "", "nproc": 0,
                       "platform": "", "git_sha": ""}, run, trace)
    lines = buf.getvalue().splitlines()
    missing = [name for name, unit in units.items()
               if not any(ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines)]
    check(not missing, "every metric prints with its unit (missing: %s)" % missing[:5])


def test_workload(name, e2e_units, layer_units):
    print("workload %s" % name)
    timed = timed_run(name, SEED, 0.001, scale="tiny")
    check({k: unit_of(k) for k in timed["metrics"]} == e2e_units,
          "timed metrics are exactly the end-to-end metrics, with their units")
    check_printed(timed, 0, e2e_units)
    check(timed["failed"] == 0 and timed["attempted"] > 0, "reports match their reference digests")
    check(all(p["traced_bindings"] == 0 for p in timed["passes"]), "timed passes bind no wrappers")

    first = traced_run(name, SEED, scale="tiny")
    second = traced_run(name, SEED, scale="tiny")
    check({k: unit_of(k) for k in first["metrics"]} == layer_units,
          "traced metrics are exactly the per-layer metrics, with their units")
    check_printed(first, 1, layer_units)
    check(first["failed"] == 0 and second["failed"] == 0, "traced reports match their digests")
    calls_a = {k: v for k, v in first["metrics"].items() if k.endswith(".calls")}
    calls_b = {k: v for k, v in second["metrics"].items() if k.endswith(".calls")}
    check(calls_a == calls_b, "two traced runs of one seed give identical call counts")
    check(calls_a["harness.run_suite.calls"] == len(WORKLOADS[name].calls["tiny"]),
          "one run_suite span per call")
    nonzero = [fn for fn in PREDICTED_ZERO_CALLS[name] if calls_a[fn + ".calls"]]
    check(not nonzero, "predicted zero-call functions are not called (called: %s)" % nonzero)
    contexts = {tuple(c) for c in first["context_args"]}
    check(contexts <= set(WORKLOADS[name].contexts),
          "set-up builds every context the calls use (extra: %s)"
          % sorted(contexts - set(WORKLOADS[name].contexts)))


def bindings():
    return {(m.__name__, k): id(v) for m in _nilaut_modules() for k, v in vars(m).items()}


def test_guard():
    print("coverage guard")
    sys.path.insert(0, str(ROOT / "src"))
    import nilaut.harness
    from nilaut.automorphisms import compose
    from nilaut.nilgroup import GroupContext

    before = bindings()
    get_before = vars(GroupContext)["get"]
    tracer = Tracer()
    tracer.names.append("nilgroup.no_such_function")
    try:
        tracer.install()
        check(False, "a missing function is reported")
    except CoverageError as exc:
        check("nilgroup.no_such_function" in str(exc), "a missing function is reported by name")
    check(count_traced_bindings() == 0 and bindings() == before, "a failed install restores every binding")

    tracer = Tracer()
    tracer.install()
    check(nilaut.harness.compose is not compose and vars(GroupContext)["get"] is not get_before,
          "functions and methods are wrapped")
    nilaut.harness.compose = compose
    try:
        tracer.verify()
        check(False, "an unwrapped binding is reported")
    except CoverageError as exc:
        check("nilaut.harness.compose" in str(exc), "an unwrapped binding is reported by name")
    tracer.restore()
    check(count_traced_bindings() == 0 and bindings() == before
          and vars(GroupContext)["get"] is get_before, "restore puts back every original binding")


def test_bare_directory():
    print("bare directory")
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "matrices", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the sources the benchmark exits %d and prints no result" % proc.returncode)


def main() -> int:
    e2e_units, layer_units = declared_units()
    for name in WORKLOADS:
        test_workload(name, e2e_units, layer_units)
    test_guard()
    test_bare_directory()
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
