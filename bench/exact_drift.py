#!/usr/bin/env python3
"""Report virtual-result drift between two nvmbench builds.

    python3 bench/exact_drift.py BASE_NVMBENCH HEAD_NVMBENCH

Runs both programs on every workload of bench/e2e/run.py and seeds 1-3,
with --seconds 0 --min-iterations 1, and prints a Markdown report: every
key of the `exact` object (the deterministic virtual results) whose value
differs, with the base and head values, or a line saying that all agree.
CI appends it to the job summary, where a change that claims bit-identical
virtual results can be checked at a glance.  Moving these numbers is not an
error (a performance change moves them on purpose): the exit code is
non-zero only when a run fails, times out or reports incorrect results.
"""
import argparse
import os
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in bench/e2e
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "e2e"))
from run import WORKLOADS, run_binary  # noqa: E402

SEEDS = [1, 2, 3]


def exact(binary, workload, seed):
    out = run_binary(binary, workload, seed, 0, 1)
    if not out["correct"]:
        sys.exit(f"{binary} --workload {workload} --seed {seed}: "
                 "correct is false")
    return out["exact"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base")
    ap.add_argument("head")
    args = ap.parse_args()
    # run_binary resolves a relative path against its build directory.
    base, head = os.path.abspath(args.base), os.path.abspath(args.head)

    rows = []
    for w in WORKLOADS:
        for seed in SEEDS:
            b, h = exact(base, w, seed), exact(head, w, seed)
            for key in sorted(b.keys() | h.keys()):
                if b.get(key) != h.get(key):
                    rows.append((w, seed, key, b.get(key, {}).get("value"),
                                 h.get(key, {}).get("value")))

    seeds = ", ".join(str(s) for s in SEEDS)
    print("### Virtual-result drift against the merge base\n")
    if not rows:
        print(f"Every `exact` key agrees on {len(WORKLOADS)} workloads, "
              f"seeds {seeds}.")
        return
    print(f"{len(rows)} `exact` values differ (seeds {seeds}):\n")
    print("| workload | seed | key | base | head |")
    print("|---|---|---|---|---|")
    for w, seed, key, bv, hv in rows:
        print(f"| {w} | {seed} | `{key}` | {bv} | {hv} |")


if __name__ == "__main__":
    main()
