"""One pass of a workload in a fresh interpreter.

Run by run.py as ``python3 perfbench/worker.py '<json spec>'``; prints one
JSON line.  A fresh interpreter per pass leaves the lazy in-context caches
cold, as they are for every CLI invocation.

Spec keys: root (checkout root), workload, scale ("full" or "tiny"),
suite_seed, mode ("setup" builds the contexts and stops; "pass" also runs
the call list once) and spans_path (trace the pass and write its spans
there; null for a timed pass).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys

from calibrate import SpeedClock


def report_digest(report) -> str:
    """sha256 of the canonical report without the top-level version and
    without each check's trials field; every other byte must match."""
    payload = json.loads(report.to_canonical_json())
    del payload["version"]
    for check in payload["checks"]:
        del check["trials"]
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(spec):
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    tracer = None
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    clock = SpeedClock()
    if spec.get("spans_path"):
        import nilaut  # import is not traced; time the set-up alone
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with clock.segment() as setup:
        from nilaut.nilgroup import GroupContext  # runs nilaut/__init__, importing every module

        for rank, cls in workload.contexts:
            GroupContext.get(rank, cls)
    out = {"setup_s": setup.scaled_s, "setup_wall_s": setup.wall_s, "setup_speed": setup.speed}
    if spec["mode"] == "pass":
        from nilaut.harness import SuiteConfig, run_suite

        results = []
        for call in workload.calls[spec["scale"]]:
            cfg = SuiteConfig(call.suite, call.rank, call.nil_class, call.trials, spec["suite_seed"])
            with clock.segment() as seg:
                try:
                    report = run_suite(cfg)
                except Exception as exc:  # counted as failed checks by run.py
                    report = exc
            results.append((report, seg))
        out["campaign_s"] = sum(seg.scaled_s for _, seg in results)
        out["campaign_wall_s"] = sum(seg.wall_s for _, seg in results)
        out["campaign_speed"] = out["campaign_s"] / out["campaign_wall_s"]
        out["probes"] = sum(seg.probes for _, seg in results)
        # digests are the benchmark's check, so they are taken off the clock
        out["calls"] = [
            {"error": "%s: %s" % (type(r).__name__, r), "seconds": s.scaled_s} if isinstance(r, Exception)
            else {"seconds": s.scaled_s, "wall_s": s.wall_s, "checks": len(r.checks),
                  "failed": sum(1 for c in r.checks if not c["passed"]), "sha256": report_digest(r)}
            for r, s in results
        ]
    if tracer is not None:
        tracer.restore()
        out["trace"] = tracer.summary()
        out["context_args"] = sorted(tracer.context_args)
        out["spans"] = len(tracer.spans)
        tracer.write_spans(spec["spans_path"])
    from tracer import count_traced_bindings

    out["traced_bindings"] = count_traced_bindings()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
