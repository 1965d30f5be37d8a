#!/usr/bin/env python3
"""Compare the host cost of two nvmbench builds over alternating pairs.

    python3 bench/host_pairs.py BASE_NVMBENCH HEAD_NVMBENCH --workload rand
    python3 bench/host_pairs.py BASE HEAD --workload ckpt-ec --pairs 6

Runs the two programs on one workload and seed for N pairs (default 10).
Pair i runs the base first when i is even and the head first when it is
odd, so that neither side always meets the warmer or the busier machine.
Each run is one measurement of bench/e2e/run.py: run_seconds of
BENCHMARK.json and at least 3 iterations, host metrics taken as the median
over the run's iterations.

For host_us_per_op, setup_s and peak_rss_mb (all lower is better) it prints
every run in pair order, each side's median and quartiles, the change of
the median, whether that change exceeds the base's interquartile range,
and the pairs in which the head was lower.  It also reports whether the
`exact` objects (the deterministic virtual results) of all runs match;
a mismatch is reported, not failed, because a change may move them on
purpose (bench/exact_drift.py lists the keys).  The exit code is non-zero
only when a run fails, times out or reports incorrect results.
"""
import argparse
import os
import statistics
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in bench/e2e
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "e2e"))
from run import WORKLOADS, host_median, load_spec, run_binary  # noqa: E402

METRICS = ["host_us_per_op", "setup_s", "peak_rss_mb"]


def measure(binary, workload, seed, seconds):
    out = run_binary(binary, workload, seed, seconds, 3)
    if not out["correct"] or out["failed"] != 0:
        sys.exit(f"{binary} --workload {workload}: correct "
                 f"{out['correct']}, {out['failed']} failed ops")
    values = {name: host_median(out, name)
              for name in ("host_us_per_op", "setup_s")}
    values["peak_rss_mb"] = out["peak_rss_mb"]
    return values, out["exact"]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 2:
        sys.exit("--pairs must be at least 2")
    # run_binary resolves a relative path against its build directory.
    sides = {"base": os.path.abspath(args.base),
             "head": os.path.abspath(args.head)}
    seconds = load_spec()["run_seconds"]

    runs = {"base": [], "head": []}
    exacts = []
    for i in range(args.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for side in order:
            values, exact = measure(sides[side], args.workload, args.seed,
                                    seconds)
            runs[side].append(values)
            exacts.append(exact)
        print(f"pair {i + 1}/{args.pairs}: " + "  ".join(
            f"{side} {runs[side][-1]['host_us_per_op']:.2f} us/op"
            for side in order), file=sys.stderr, flush=True)

    print(f"## {args.workload}, seed {args.seed}: {args.pairs} alternating "
          f"pairs of {seconds} s runs\n")
    print("| metric | base median [q1, q3] | head median [q1, q3] | change "
          "| beyond base IQR | pairs head lower |")
    print("|---|---|---|---|---|---|")
    for name in METRICS:
        base = [r[name] for r in runs["base"]]
        head = [r[name] for r in runs["head"]]
        bm, bq1, bq3 = summary(base)
        hm, hq1, hq3 = summary(head)
        change = (hm / bm - 1.0) * 100.0 if bm else 0.0
        beyond = "yes" if abs(hm - bm) > bq3 - bq1 else "no"
        lower = sum(h < b for b, h in zip(base, head))
        print(f"| {name} | {bm:.4g} [{bq1:.4g}, {bq3:.4g}] | "
              f"{hm:.4g} [{hq1:.4g}, {hq3:.4g}] | {change:+.1f}% | {beyond} "
              f"| {lower}/{args.pairs} |")
    print()
    for name in METRICS:
        for side in ("base", "head"):
            print(f"{name} {side}: " +
                  " ".join(f"{r[name]:.4g}" for r in runs[side]))
    same = all(e == exacts[0] for e in exacts)
    print("\n`exact` objects: " +
          ("all runs match." if same else "DIFFER between runs "
           "(see bench/exact_drift.py)."))


if __name__ == "__main__":
    main()
