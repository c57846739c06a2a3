#!/usr/bin/env python3
"""The taccd benchmark: builds taccd and the benchmark client from source,
then runs one workload, repeats workloads, or compares two result sets.

One run (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeat mode (median and quartiles per metric; results appended to --out):
    python3 perfbench/run.py --repeat 10 [--workloads a,b] [--seed-base 1]
                             [--seconds S] [--trace 0|1] [--out FILE]

Compare mode (parent first, change second; see README.md for the rule):
    python3 perfbench/run.py --compare PARENT.json CHANGE.json

Run from the repository root. Build outputs, the daemon's socket and logs,
and span files go under .bench_build/ in the current directory.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds taccd plus the benchmark client; returns the
    build directory, or exits non-zero if the sources cannot be built."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    with open(build_log, "a") as out:
        for step in steps:
            code = subprocess.call(step, stdout=out, stderr=subprocess.STDOUT)
            if code != 0:
                with open(build_log) as failed:
                    log("".join(failed.readlines()[-20:]))
                log("perfbench: build failed: " + " ".join(step))
                sys.exit(1)
    return BUILD_DIR


def stamp():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = os.environ.get("PERFBENCH_GIT_SHA", "")
    if not sha:
        # The ceiling keeps git from reporting an enclosing repository when
        # the checkout itself is not one.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, env=env).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = ""
    return {"cpu": cpu, "nproc": os.cpu_count(), "build_type": BUILD_TYPE,
            "git_sha": sha or "unknown"}


def run_once(build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, parsed result)."""
    command = [os.path.join(build_dir, "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace),
               "--taccd", os.path.join(build_dir, "taccd"),
               "--out", os.path.join(build_dir, "run")]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return None, None
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log("perfbench: run failed with exit code %d" % done.returncode)
        return lines, None
    return lines, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)


def repeat(args):
    build_dir = build()
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in load_benchmark()["workloads"]])
    results = {"stamp": stamp(), "runs": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out) as previous:
            results = json.load(previous)
    for workload in workloads:
        runs = results["runs"].setdefault(workload, [])
        for i in range(args.repeat):
            seed = args.seed_base + i
            started = time.time()
            _, result = run_once(build_dir, workload, seed, args.seconds,
                                 args.trace)
            if result is None:
                sys.exit(1)
            runs.append({"seed": seed, "trace": args.trace, "result": result})
            log("%s seed %d: correct=%s attempted=%d failed=%d (%.0f s)" % (
                workload, seed, result["correct"], result["attempted"],
                result["failed"], time.time() - started))
    if args.out:
        with open(args.out, "w") as out:
            json.dump(results, out, indent=1)
    print("stamp: " + json.dumps(results["stamp"]))
    for workload in workloads:
        runs = [r["result"] for r in results["runs"][workload]
                if r["trace"] == args.trace]
        print("%s (%d runs, all correct: %s)" % (
            workload, len(runs), all(r["correct"] for r in runs)))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            print("  %-34s median %12.6g  q1 %12.6g  q3 %12.6g  iqr/median "
                  "%6.2f%%  %s" % (name, q2, q1, q3, spread * 100,
                                   runs[0]["metrics"][name]["unit"]))


def compare(parent_file, change_file):
    """Applies the claim rule per workload and end-to-end metric."""
    metrics = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    with open(parent_file) as f:
        parent = json.load(f)
    with open(change_file) as f:
        change = json.load(f)
    print("parent: " + json.dumps(parent["stamp"]))
    print("change: " + json.dumps(change["stamp"]))
    print("%-20s %-20s %12s %12s %10s %6s  verdict" % (
        "workload", "metric", "parent", "change", "parent_iqr", "wins"))
    for workload, parent_runs in parent["runs"].items():
        change_runs = change["runs"].get(workload, [])
        p_runs = [r["result"] for r in parent_runs if r["trace"] == 0]
        c_runs = [r["result"] for r in change_runs if r["trace"] == 0]
        if not p_runs or not c_runs:
            print("%-20s missing runs on one side" % workload)
            continue
        for name, spec in metrics.items():
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            lower = spec["better"] == "lower"
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            pairs = list(zip(p, c))
            wins = sum(1 for a, b in pairs if better(b, a))
            pq1, pmed, pq3 = quartiles(p)
            cmed = statistics.median(c)
            iqr = pq3 - pq1
            worse_by = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
            if wins * 10 >= 9 * len(pairs) and abs(cmed - pmed) > iqr and \
                    better(cmed, pmed):
                verdict = "improved"
            elif worse_by > spec["bound"]:
                verdict = "REGRESSED (worse by %.1f%%, bound %.0f%%)" % (
                    worse_by * 100, spec["bound"] * 100)
            elif pmed and iqr / pmed > spec["bound"] and not all(
                    better(b, a) for a in p for b in c):
                verdict = "unresolved (parent spread above bound)"
            else:
                verdict = "no change beyond bound"
            print("%-20s %-20s %12.6g %12.6g %10.4g %3d/%-2d  %s" % (
                workload, name, pmed, cmed, iqr, wins, len(pairs), verdict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--workloads")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    if args.repeat:
        repeat(args)
        return 0
    if not args.workload:
        parser.error("--workload, --repeat or --compare is required")
    build_dir = build()
    print("# stamp " + json.dumps(stamp()), flush=True)
    lines, result = run_once(build_dir, args.workload, args.seed, args.seconds,
                             args.trace)
    if result is None:
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
