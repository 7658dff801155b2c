#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary (perfbench/src) is compiled together with the simulator
libraries under src/ into $CARGO_TARGET_DIR, or .bench_build when that is
unset. Build output goes to stderr. With --trace 0 set-up is timed in
SETUPS separate processes and setup_s is their median. The binary reports
values by name; the metrics printed are the ones BENCHMARK.json lists
(end_to_end for --trace 0, per_layer for --trace 1), with its units, and a
per-layer metric the workload never records reads 0. The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

SETUPS = 5
HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {REPO}/src")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=REPO).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def metric_specs(trace):
    try:
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return spec["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read the metric list from BENCHMARK.json: {e}")


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return lines[:-1], json.loads(lines[-1])
    except (IndexError, ValueError):
        return lines, None


def run(cmd, timeout_s):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=REPO, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout_s} s: " + " ".join(cmd))
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: " + " ".join(cmd))
    lines, result = last_json(proc.stdout)
    if result is None:
        fail("no JSON result from: " + " ".join(cmd))
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    specs = metric_specs(args.trace)
    build_dir = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The task list is fixed work sized for --seconds on a nominal host; a
    # slow host or the traced run's extra calls stretch it, so allow 3x.
    timeout_s = 3 * args.seconds + 60

    setups = []
    if args.trace == 0:
        for _ in range(SETUPS - 1):
            setups.append(run(cmd + ["--setup-only"], timeout_s)[1]["setup_s"])
    lines, result = run(cmd, timeout_s)
    for line in lines:
        print(line)
    values = result["metrics"]
    if args.trace == 0:
        setups.append(values["setup_s"])
        values["setup_s"] = statistics.median(setups)
        print("setup_s: median of %d set-ups, each in its own process: %s" %
              (len(setups), " ".join("%.4f" % s for s in setups)))
        missing = [m["name"] for m in specs if m["name"] not in values]
        if missing:
            fail("the binary reported no " + ", ".join(missing))
    metrics = {}
    for m in specs:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-48s %.6g %s" % (m["name"], value, m["unit"]))
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
