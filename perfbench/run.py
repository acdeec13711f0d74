"""nilaut benchmark: seeded verification campaigns, timed end to end.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass over the workload's call list
runs in a fresh interpreter (worker.py), one after another, until the next
pass would end after --seconds.  With --trace 0 the last line of output is
a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of one traced pass.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE_SEEDS, WORKLOADS, suite_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 9  # set-ups per timed run, counting those of the passes
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "peak_rss_mb":
        return "MB"
    return "s"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment(workload: str, seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    try:
        # the ceiling keeps git from reading a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        sha = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "platform": platform.platform(),
        "git_sha": sha,
        "workload": workload,
        "seed": seed,
    }


def load_reference(scale: str, workload: str) -> dict:
    path = BENCH_DIR / "digests.json"
    try:
        with open(path) as fh:
            ref = json.load(fh)["scales"][scale][workload]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError("no reference digests for %s/%s in %s: %s" % (scale, workload, path, exc))
    calls = [c.spec() for c in WORKLOADS[workload].calls[scale]]
    if ref["calls"] != calls or set(ref["seeds"]) != {str(s) for s in range(REFERENCE_SEEDS)}:
        raise BenchError("digests.json is stale for %s/%s; run perfbench/make_digests.py"
                         % (scale, workload))
    return ref["seeds"]


class Runner:
    """Starts workers one at a time and scores their reports."""

    def __init__(self, workload: str, scale: str = "full"):
        self.workload = workload
        self.scale = scale
        self.started = time.perf_counter()

    def worker(self, mode: str, seed: int, spans_path=None) -> dict:
        spec = {"root": str(ROOT), "workload": self.workload, "scale": self.scale,
                "suite_seed": seed, "mode": mode,
                "spans_path": str(spans_path) if spans_path else None}
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the %.0f s run limit" % RUN_LIMIT_S)
        if proc.returncode != 0:
            raise BenchError("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr[-4000:]))
        return json.loads(proc.stdout.strip().splitlines()[-1])


def score(result: dict, reference: list):
    """(attempted, failed) checks of one pass; each call adds its reference
    digest as one more check, and a call that raised fails all of them."""
    attempted = failed = 0
    for got, want in zip(result["calls"], reference):
        if "error" in got:
            attempted += want["checks"] + 1
            failed += want["checks"] + 1
            print("call raised: %s" % got["error"], file=sys.stderr)
            continue
        attempted += got["checks"] + 1
        failed += got["failed"] + (got["sha256"] != want["sha256"])
    return attempted, failed


def tail(values):
    """(percentile, value) of the highest sample with at least ten samples
    beyond it, or None when there are fewer than 21 samples (the tail would
    not lie above the median)."""
    n = len(values)
    if n < 21:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def timed_run(workload: str, seed: int, seconds: float, scale: str = "full") -> dict:
    reference = load_reference(scale, workload)
    runner = Runner(workload, scale)
    passes, walls = [], []
    while True:
        s = suite_seed(seed, len(passes))
        t = time.perf_counter()
        res = runner.worker("pass", s)
        walls.append(time.perf_counter() - t)
        res["suite_seed"] = s
        passes.append(res)
        # another pass must leave time for the set-up-only workers after it
        pass_wall = statistics.median(walls)
        setup_wall = statistics.median(w - p["campaign_wall_s"] for w, p in zip(walls, passes))
        setups_left = max(0, SETUP_SAMPLES - len(passes) - 1)
        elapsed = time.perf_counter() - runner.started
        if elapsed + pass_wall + setups_left * setup_wall > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.worker("setup", suite_seed(seed, 0))["setup_s"])
    attempted = failed = 0
    for p in passes:
        if p["traced_bindings"]:
            raise BenchError("a timed pass ran with tracing wrappers bound")
        a, f = score(p, reference[str(p["suite_seed"])])
        attempted += a
        failed += f
    campaign = [p["campaign_s"] for p in passes]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "campaign_s": statistics.median(campaign),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        },
        "samples": {"setup_s": setups, "campaign_s": campaign},
        "wall": {
            "setup_s": statistics.median(p["setup_wall_s"] for p in passes),
            "campaign_s": statistics.median(p["campaign_wall_s"] for p in passes),
        },
        "speed": statistics.median(p["campaign_speed"] for p in passes),
        "tail": tail(campaign),
        "passes": passes,
    }


def traced_run(workload: str, seed: int, scale: str = "full") -> dict:
    reference = load_reference(scale, workload)
    runner = Runner(workload, scale)
    s = suite_seed(seed, 0)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / ("spans-%s-seed%d.json" % (workload, seed))
    base = runner.worker("pass", s)
    traced = runner.worker("pass", s, spans_path=spans_path)
    attempted = failed = 0
    for p in (base, traced):
        p["suite_seed"] = s
        if p["traced_bindings"]:
            raise BenchError("tracing wrappers were bound outside the traced pass")
        a, f = score(p, reference[str(s)])
        attempted += a
        failed += f
    metrics = dict(traced["trace"])
    metrics["trace.overhead_ratio"] = traced["campaign_s"] / base["campaign_s"] - 1.0
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "context_args": traced["context_args"],
        "spans": traced["spans"],
        "spans_path": str(spans_path),
        "passes": [base, traced],
    }


def print_summary(env: dict, run: dict, trace: int) -> None:
    print("nilaut benchmark: workload %s, seed %d, trace %d" % (env["workload"], env["seed"], trace))
    print("environment: python %s, nproc %s, %s, git %s"
          % (env["python"], env["nproc"], env["platform"], env["git_sha"]))
    print("suite seeds: %s" % [p.get("suite_seed") for p in run["passes"]])
    for name, value in run["metrics"].items():
        print("  %-58s %14.6g %s" % (name, value, unit_of(name)))
    if not trace:
        n = len(run["samples"]["campaign_s"])
        t = run["tail"]
        tail_text = ("p%.0f %.6g s" % t if t else
                     "n/a (a tail with 10 passes beyond it needs 21 passes; raise --seconds)")
        print("  campaign_s: median of %d passes; tail %s" % (n, tail_text))
        print("  setup_s: median of %d set-ups" % len(run["samples"]["setup_s"]))
        print("  machine speed: %.3f of the reference (median over passes); unscaled wall "
              "medians: setup_s %.6g s, campaign_s %.6g s"
              % (run["speed"], run["wall"]["setup_s"], run["wall"]["campaign_s"]))
    else:
        print("  spans: %d, written to %s" % (run["spans"], run["spans_path"]))
    print("  fail_ratio %d/%d = %.6g" % (run["failed"], run["attempted"],
                                         run["failed"] / run["attempted"]))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nilaut" / "__init__.py").is_file():
        print("error: no nilaut sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed)
    try:
        if args.trace:
            run = traced_run(args.workload, args.seed)
        else:
            run = timed_run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(record, "w") as fh:
        json.dump({"environment": env, **run}, fh, indent=1)
    print_summary(env, run, args.trace)
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in run["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
