#!/usr/bin/env python3
"""Paper-pipeline benchmark runner (see perfbench/README.md).

Run one workload and print its metrics as the last line of stdout:

    python3 perfbench/run.py --workload grid-warm --seed 7 --seconds 30 --trace 0

Run every workload, each in its own process, and print a summary table:

    python3 perfbench/run.py --workload all --seed 7 --seconds 30

Compare two sets of recorded runs (see --record):

    python3 perfbench/run.py --compare before.jsonl after.jsonl

The benchmark builds `teabench` from the checkout's sources into
`.bench_build/` and keeps every file it writes there. It must be started
from the root of the checkout.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "teabench")
WORK = os.path.join(BUILD, "work")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
# daemon-mt is runnable but not listed in BENCHMARK.json: at this
# revision it returns wrong cells (README.md, "Known defect").
WORKLOADS = ["grid-cold", "grid-warm", "daemon-mt"]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configure and build teabench; a no-op when it is up to date."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "teabench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def teabench(args, capture):
    cmd = [BINARY] + args + ["--work", os.path.relpath(WORK, ROOT)]
    proc = subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else sys.stderr)
    if proc.returncode != 0:
        fail("teabench exited %d: %s" % (proc.returncode, " ".join(args)))
    return proc.stdout


def run_workload(workload, seed, seconds, trace):
    """Run one workload in its own process; returns (info lines, result)."""
    teabench(["--prep", "--workload", workload, "--seed", str(seed)],
             capture=False)
    out = teabench(["--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)],
                   capture=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("teabench printed no result line")
    return lines[:-1], result


def select(result, names):
    """The result line: exactly the metrics BENCHMARK.json names."""
    metrics = {}
    for m in names:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s is in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def record(path, workload, seed, trace, result):
    with open(path, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "trace": trace, "result": result}) + "\n")


def run_all(seed, seconds):
    rows = []
    for w in WORKLOADS:
        _, result = run_workload(w, seed, seconds, 0)
        rows.append((w, result))
    names = []
    for _, r in rows:
        for n in r["metrics"]:
            if n not in names:
                names.append(n)
    print("%-18s" % "metric" + "".join("%16s" % w for w, _ in rows))
    for n in names:
        cells = []
        for _, r in rows:
            m = r["metrics"].get(n)
            cells.append("%16s" % ("%.4g %s" % (m["value"], m["unit"])
                                   if m else "-"))
        print("%-18s" % n + "".join(cells))
    print("%-18s" % "correct" +
          "".join("%16s" % r["correct"] for _, r in rows))
    print("%-18s" % "failed/attempted" +
          "".join("%16s" % ("%d/%d" % (r["failed"], r["attempted"]))
                  for _, r in rows))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a, path_b):
    """Per workload x end-to-end metric: medians, quartiles, verdict."""
    spec = load_spec()
    sides = []
    for path in (path_a, path_b):
        runs = {}
        with open(path) as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    if rec["trace"] == 0:
                        runs.setdefault(rec["workload"], []).append(
                            rec["result"])
        sides.append(runs)
    worse = 0
    print("%-10s %-18s %27s %27s  %s" % ("workload", "metric",
                                         "A median [q1, q3]",
                                         "B median [q1, q3]", "verdict"))
    for w in sorted(set(sides[0]) & set(sides[1])):
        for m in spec["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in s[w]
                     if m["name"] in r["metrics"]] for s in sides]
            if not vals[0] or not vals[1]:
                continue
            qa, qb = quartiles(vals[0]), quartiles(vals[1])
            bound = m["bound"]
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0
                         for q in (qa, qb))
            # Positive change = B is worse than A.
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            if m["better"] == "higher":
                change = -change
            lower = m["better"] == "lower"
            b_always_better = (max(vals[1]) < min(vals[0]) if lower
                               else min(vals[1]) > max(vals[0]))
            if spread > bound and not b_always_better:
                verdict = "unresolved (spread %.1f%% > bound %.0f%%)" % (
                    100 * spread, 100 * bound)
            elif change > bound:
                verdict = "WORSE by %.1f%% (bound %.0f%%)" % (
                    100 * change, 100 * bound)
                worse += 1
            elif change > 0:
                verdict = "ok: %.1f%% worse, within bound" % (100 * change)
            else:
                verdict = "ok: %.1f%% better%s" % (
                    -100 * change,
                    ", every B run better" if b_always_better else "")
            print("%-10s %-18s %27s %27s  %s" % (
                w, m["name"],
                "%.4g [%.4g, %.4g]" % (qa[1], qa[0], qa[2]),
                "%.4g [%.4g, %.4g]" % (qb[1], qb[0], qb[2]), verdict))
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", metavar="FILE",
                    help="append this run's full result to FILE (JSONL)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two --record files")
    args = ap.parse_args()

    if args.compare:
        sys.exit(compare(*args.compare))
    if not args.workload:
        ap.error("--workload is required")
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    build()
    if args.workload == "all":
        run_all(args.seed, seconds)
        return
    t0 = time.time()
    info, result = run_workload(args.workload, args.seed, seconds,
                                args.trace)
    for line in info:
        print(line)
    if args.record:
        record(args.record, args.workload, args.seed, args.trace, result)
    extra = {k: v["value"] for k, v in result["metrics"].items()}
    print("all measured (%.0f s): %s" % (time.time() - t0,
                                         json.dumps(extra, sort_keys=True)))
    listed = [w["name"] for w in spec["workloads"]]
    if args.workload in listed:
        names = spec["per_layer"] if args.trace else spec["end_to_end"]
        result = select(result, names)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
