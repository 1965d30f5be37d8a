#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 bench/e2e/run.py                      # all workloads, seed 1
    python3 bench/e2e/run.py --workload rand --seed 7
    python3 bench/e2e/run.py --workload stream --trace 1
    python3 bench/e2e/run.py --workload degraded --repeat 5 --json out.json

Builds bench/e2e (Release) into build/e2e under the repository root, runs
each chosen workload in its own nvmbench process, checks correctness and
prints every metric as `name value unit`.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
A run measures for run_seconds of BENCHMARK.json; --seconds is accepted
only with that value, so that runs stay comparable.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off.  --trace 1 reports the per-layer metrics: half the time budget
runs the untraced nvmbench, half the traced nvmbench_traced, and
host.trace_overhead_frac compares their host_us_per_op.  Chrome traces and
per-layer summaries land in build/e2e/traces.

--repeat N runs every workload N times with one seed, prints the median and
quartiles of each metric, and fails if any virtual metric or counter
differs between the repeats; it then runs the next seed once and fails
unless the virtual metrics change.
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
WORKLOADS = ["stream", "rand", "ckpt-ec", "degraded"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))]]
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log,
                                      stderr=subprocess.STDOUT)
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed, see {log_path}")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_binary(binary, workload, seed, seconds, min_iterations,
               trace_out=None):
    cmd = [os.path.join(BUILD, binary), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--min-iterations", str(min_iterations)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{binary} --workload {workload} timed out")
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr[-4000:])
        fail(f"{binary} --workload {workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_median(out, name):
    return statistics.median(out["host"][name]["values"])


def measure(workload, seed, seconds, trace, spec):
    """One benchmark run of `workload`.  Returns a dict with ok, attempted,
    failed, the declared metrics as {name: (value, unit)}, the latency
    sample count, errors, and every exact (virtual or counted) metric."""
    metrics = {}
    if not trace:
        out = run_binary("nvmbench", workload, seed, seconds, 3)
        runs = [out]
        for name in ("setup_s", "host_us_per_op"):
            metrics[name] = (host_median(out, name), out["host"][name]["unit"])
        metrics["peak_rss_mb"] = (out["peak_rss_mb"], "MB")
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        plain = run_binary("nvmbench", workload, seed, seconds / 2, 2)
        traced = run_binary("nvmbench_traced", workload, seed, seconds / 2, 2,
                            os.path.join(BUILD, "traces"))
        runs = [plain, traced]
        out = traced
        for name, series in traced["host"].items():
            if name.startswith("host.") or name.startswith("store.manager."):
                metrics[name] = (statistics.median(series["values"]),
                                 series["unit"])
        for name, m in traced["substrate"].items():
            metrics[name] = (m["value"], m["unit"])
        metrics["host.trace_overhead_frac"] = (
            host_median(traced, "host_us_per_op") /
            host_median(plain, "host_us_per_op") - 1.0, "ratio")
        wanted = [m["name"] for m in spec["per_layer"]]
    for name, m in out["exact"].items():
        metrics.setdefault(name, (m["value"], m["unit"]))
    errors = [e for r in runs for e in r["errors"]]
    if trace and plain["exact"] != traced["exact"]:
        errors.append("tracing changed a virtual-time result")
    missing = [n for n in wanted if n not in metrics]
    if missing:
        errors.append("metrics not produced: " + ", ".join(missing))
    ok = all(r["correct"] for r in runs) and not errors
    return {
        "ok": ok,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {n: metrics[n] for n in wanted if n in metrics},
        "samples": out["exact"].get("op_samples", {}).get("value"),
        "errors": errors,
        "exact": out["exact"],
    }


def print_metrics(workload, metrics, samples, spread=None):
    for name, (value, unit) in metrics.items():
        line = f"{workload} {name} {value:.6g} {unit}"
        if "op_p" in name and samples is not None:
            line += f"  (n={int(samples)})"
        if spread is not None:
            lo, hi = spread[name]
            line += f"  [q1 {lo:.6g}, q3 {hi:.6g}]"
        print(line)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--json", help="write every result to this file")
    args = ap.parse_args()
    if args.repeat < 1:
        fail("--repeat must be at least 1")

    spec = load_spec()
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        fail(f"--seconds must be {seconds}, the run_seconds of BENCHMARK.json")
    workloads = args.workload or WORKLOADS
    build()

    results = {}
    correct = True
    attempted = failed = 0
    combined = {}
    for w in workloads:
        reps = [measure(w, args.seed, seconds, args.trace, spec)
                for _ in range(args.repeat)]
        for r in reps:
            correct &= r["ok"]
            attempted += r["attempted"]
            failed += r["failed"]
            for e in r["errors"]:
                print(f"{w} error: {e}", file=sys.stderr)
        names = list(reps[0]["metrics"])
        medians = {n: (statistics.median(r["metrics"][n][0] for r in reps),
                       reps[0]["metrics"][n][1]) for n in names}
        spread = None
        if args.repeat > 1:
            spread = {}
            for n in names:
                values = [r["metrics"][n][0] for r in reps]
                q = statistics.quantiles(values, n=4)
                spread[n] = (q[0], q[2])
            if any(r["exact"] != reps[0]["exact"] for r in reps):
                correct = False
                print(f"{w} error: virtual metrics differ between repeats "
                      f"of seed {args.seed}", file=sys.stderr)
            other = measure(w, args.seed + 1, seconds, args.trace, spec)
            if other["exact"] == reps[0]["exact"]:
                correct = False
                print(f"{w} error: seed {args.seed + 1} gave the same virtual "
                      f"metrics as seed {args.seed}", file=sys.stderr)
        print_metrics(w, medians, reps[0]["samples"], spread)
        results[w] = {"runs": [r["metrics"] for r in reps],
                      "median": medians, "errors": [e for r in reps
                                                    for e in r["errors"]]}
        for n, m in medians.items():
            key = n if len(workloads) == 1 else f"{w}/{n}"
            combined[key] = {"value": m[0], "unit": m[1]}

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "trace": args.trace, "repeat": args.repeat,
                       "workloads": results}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
