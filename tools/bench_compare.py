#!/usr/bin/env python3
"""Compares one sharebench result with the newest CI reference in the ledger.

Usage (from the repository root):
  python3 sharebench/run.py --workload postmark --seed 1 --seconds 3 > r.json
  python3 tools/bench_compare.py --workload postmark r.json

The reference is the newest BENCH_ledger.json row whose workload carries a
"ci_reference": medians and [min, max] over several runs of that PR at
seed 1 and the reference's "seconds" (3, the length CI runs). A wan_*_ms
value is a mean over the run's trajectory, whose length depends on run
time and host speed, so the result must come from a run of that length.

The WAN-clock metrics (wan_*_ms) come from the paper's DSL link model and
the virtual crypto clock, so they barely move between runs of one commit:
any of them more than MAX_WORSE_PCT (2%) worse than the reference median
fails the compare (exit 1). The wall-clock metrics (ops_per_s, setup_s)
drift with the host; their deltas are printed, with the reference's range,
and never gated. A run that is not correct or has failed operations also
fails.
"""

import argparse
import json
import os
import sys

LEDGER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "BENCH_ledger.json")
LOWER_IS_BETTER = {"setup_s"}
WALL_CLOCK = ("ops_per_s", "setup_s")
MAX_WORSE_PCT = 2.0


def last_json_line(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        sys.exit("bench_compare: %s is empty" % path)
    return json.loads(lines[-1])


def ledger_reference(ledger, workload):
    """The newest ledger row's CI reference for `workload`."""
    for row in reversed(ledger["rows"]):
        ref = row.get("workloads", {}).get(workload, {}).get("ci_reference")
        if ref:
            return row, ref
    sys.exit("bench_compare: no ledger row has a ci_reference for %s"
             % workload)


def pct(new, old):
    return 100.0 * (new - old) / old if old else 0.0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("result", help="sharebench output (last line is JSON)")
    p.add_argument("--workload", required=True)
    args = p.parse_args()

    result = last_json_line(args.result)
    with open(LEDGER) as f:
        row, ref = ledger_reference(json.load(f), args.workload)
    medians, ranges = ref["median"], ref["range"]
    got = {k: v["value"] for k, v in result["metrics"].items()}
    print("bench_compare: %s against ledger PR %s (%s), %d runs of %s s"
          % (args.workload, row["pr"], row.get("commit", "?"), ref["runs"],
             ref["seconds"]))

    failures = []
    if not result.get("correct", False) or result.get("failed", 1) != 0:
        failures.append("run not correct or had failed operations "
                        "(failed=%s)" % result.get("failed"))
    for name in sorted(k for k in medians if k.startswith("wan_")):
        if name not in got:
            failures.append("%s missing from the result" % name)
            continue
        d = pct(got[name], medians[name])
        verdict = "FAIL" if d > MAX_WORSE_PCT else "ok"
        print("  %-16s %10.3f -> %10.3f  %+7.3f%%  %s"
              % (name, medians[name], got[name], d, verdict))
        if d > MAX_WORSE_PCT:
            failures.append("%s %.3f%% worse (bound %.1f%%)"
                            % (name, d, MAX_WORSE_PCT))
    for name in WALL_CLOCK:
        if name not in got or name not in medians:
            continue
        d = pct(got[name], medians[name])
        better = d < 0 if name in LOWER_IS_BETTER else d > 0
        print("  %-16s %10.3f -> %10.3f  %+7.3f%%  %s, not gated"
              " (reference range %s-%s)"
              % (name, medians[name], got[name], d,
                 "better" if better else "worse", *ranges[name]))

    if failures:
        for f in failures:
            print("bench_compare: FAIL: " + f)
        sys.exit(1)
    print("bench_compare: OK")


if __name__ == "__main__":
    main()
