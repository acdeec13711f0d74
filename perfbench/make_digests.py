"""Regenerate perfbench/digests.json, the reference report digests.

    python3 perfbench/make_digests.py [workload ...]

Runs every (or each named) workload's call list at both scales for each of the
REFERENCE_SEEDS suite seeds, each pass in a fresh interpreter, and stores
one digest (see worker.report_digest) and check count per run_suite call.
Every report must pass; a failing one is never stored as a reference.
Regenerate only when a workload's call list changes, or when a change to
the reports is intended, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys

from run import BENCH_DIR, Runner
from workloads import REFERENCE_SEEDS, WORKLOADS


def main(names) -> int:
    path = BENCH_DIR / "digests.json"
    scales = {"full": {}, "tiny": {}}
    if names and path.exists():
        with open(path) as fh:
            scales = json.load(fh)["scales"]
    for scale in ("full", "tiny"):
        for name in names or WORKLOADS:
            workload = WORKLOADS[name]
            seeds = {}
            for seed in range(REFERENCE_SEEDS):
                res = Runner(name, scale).worker("pass", seed)
                entry = []
                for call, got in zip(workload.calls[scale], res["calls"]):
                    if "error" in got or got["failed"]:
                        print("error: %s %s seed %d does not pass: %s"
                              % (name, call.spec(), seed, got), file=sys.stderr)
                        return 1
                    entry.append({"sha256": got["sha256"], "checks": got["checks"]})
                seeds[str(seed)] = entry
                print("%s %s seed %d: %.2f s" % (scale, name, seed, res["campaign_s"]), flush=True)
            scales[scale][name] = {"calls": [c.spec() for c in workload.calls[scale]], "seeds": seeds}
    with open(path, "w") as fh:
        json.dump({"reference_seeds": REFERENCE_SEEDS, "scales": scales}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    unknown = set(sys.argv[1:]) - set(WORKLOADS)
    if unknown:
        sys.exit("unknown workload(s): %s" % ", ".join(sorted(unknown)))
    sys.exit(main(sys.argv[1:]))
