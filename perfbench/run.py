#!/usr/bin/env python3
"""Builds and runs the MyRaft end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>
    python3 perfbench/run.py --self-test

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the repository's sources; it is configured and built into
.bench_build/ under the current directory on first use, and rebuilt
incrementally afterwards. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. That line is checked against
BENCHMARK.json: a run must report exactly the metrics listed there
(end_to_end for --trace 0, per_layer for --trace 1).

--self-test runs the binary's own self-test (forged acked write, seed
determinism, traced/untraced identity) and checks that malformed or unknown
flags are refused.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.abspath(".bench_build")
BINARY = os.path.join(BUILD_DIR, "myraft_perf")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "myraft_perf",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def expected_metrics(trace):
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return [m["name"] for m in spec[key]]


def flag_value(argv, name):
    for i, arg in enumerate(argv):
        if arg == name and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def run_benchmark(argv):
    proc = subprocess.run([BINARY] + argv, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    missing = set(expected_metrics(flag_value(argv, "--trace"))) ^ set(
        result["metrics"])
    if missing:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: " +
                 ", ".join(sorted(missing)))


def self_test():
    status = subprocess.run([BINARY, "--self-test"]).returncode
    refused = [
        ["--workload", "sysbench_ring", "--seed=x", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "sysbench_ring", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--quick"],
        ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace",
         "0"],
        ["--workload", "sysbench_ring", "--seed", "1", "--seconds", "1",
         "--trace", "2"],
        ["--workload", "sysbench_ring", "--seed", "1", "--seconds", "1"],
    ]
    for argv in refused:
        code = subprocess.run([BINARY] + argv, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        ok = code == 2
        print("%s refuses %s" % ("PASS" if ok else "FAIL", " ".join(argv)))
        if not ok:
            status = 1
    sys.exit(status)


def main():
    build()
    argv = sys.argv[1:]
    if argv == ["--self-test"]:
        self_test()
    run_benchmark(argv)


if __name__ == "__main__":
    main()
