#!/usr/bin/env python3
"""Golden sim-time outputs: one diff shows whether a change moves any
simulated result.

Usage (from the repository root, after building the benches):

    python3 bench/golden.py --check  [--build-dir build] [--jobs N]
    python3 bench/golden.py --update [--build-dir build] [--jobs N]

On fixed seeds it runs
  * every paper bench at --quick (bench_micro measures host time only and
    is left out);
  * bench_chaos --corpus=50 --raftstat and bench_chaos --corpus=25 --reconfig;
  * the four perfbench workloads at --seed 1 --seconds 1 --trace 0 (built
    into .bench_build/ by perfbench/run.py on first use);
  * bench_fleet --shards=64 --smoke, of which only the sim-time sections
    of its BENCH summary are kept (its stdout, memory and tick sections
    carry wall time, RSS and loop-cost counts);
and keeps only sim-time values, one text file per run under bench/golden/:
the run's stdout, its log lines with their file:line stamps removed, and
every BENCH_*.json it wrote, flattened to one "path = value" line per leaf.
Two bulky parts of a BENCH file's internals are kept short: a per-node
metric snapshot becomes one line per metric summed over the nodes (a
histogram contributes its count) plus a digest of each node's snapshot,
and a sampler time series becomes its window count plus a digest. A
moved digest names the node or series to compare by running the bench at
both commits. perfbench contributes its [sim] metrics and op counts; host
time, RSS and the host-paced repetition count are left out.

--update rewrites bench/golden/. --check writes the same files to a
temporary directory and diffs them against bench/golden/; it exits 1 on
any difference. A change that moves sim outputs regenerates the files and
explains each diff.
"""

import argparse
import concurrent.futures
import difflib
import glob
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "bench", "golden")

PAPER_BENCHES = [
    "bench_table1_roles",
    "bench_table2_failover",
    "bench_fig5a_prod_latency",
    "bench_fig5b_prod_throughput",
    "bench_fig5c_sysbench_latency",
    "bench_fig5d_sysbench_throughput",
    "bench_proxy_bandwidth",
    "bench_flexiraft_quorums",
    "bench_mock_elections",
    "bench_heartbeat_sweep",
    "bench_reads",
    "bench_apply_lag",
]

CHAOS_RUNS = {
    "chaos_corpus50": ["--corpus=50", "--raftstat"],
    "chaos_reconfig25": ["--corpus=25", "--reconfig"],
}

PERFBENCH_WORKLOADS = ["sysbench_ring", "prod_mixed", "failover",
                       "fleet_storm"]

FLEET_ARGS = ["--shards=64", "--smoke"]
# The sim-time sections of BENCH_fleet.json's summary.
FLEET_SIM_SECTIONS = ["bootstrap", "throughput", "storm", "fleet_counters"]

# "[<sim us> <node> <LEVEL> <file>:<line>] " -> "[<sim us> <node> <LEVEL>] "
LOG_STAMP = re.compile(r"^(\[[^\]]*?) [\w.+-]+\.(?:cc|h):\d+\]")

# perfbench report lines: "  <name>  <value> <unit>  [sim|host|-]".
PERF_LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)\s+\[(sim|host|-)\]$")
# Op counts that depend on how many repetitions the host had time for.
PERF_HOST_PACED = {"repetitions"}


def strip_log_stamps(text):
    return "\n".join(LOG_STAMP.sub(r"\1]", line)
                     for line in text.splitlines())


def digest(value):
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def node_metrics_lines(nodes, path):
    """Per-node registry snapshots: each metric summed over the nodes,
    then one digest per node."""
    totals = {}
    for metrics in nodes.values():
        for name, value in metrics.items():
            count = value["count"] if isinstance(value, dict) else value
            totals[name] = totals.get(name, 0) + count
    for name in sorted(totals):
        yield f"{path}.<sum>.{name} = {json.dumps(totals[name])}"
    for node, metrics in nodes.items():
        yield f"{path}.{node} sha256 = {digest(metrics)}"


def flatten_json(value, path=""):
    """One "path = value" line per leaf; a list of scalars stays on one
    line. Node metric snapshots and time series are summarised (see the
    module docstring)."""
    if isinstance(value, dict):
        if path.endswith("internals.metrics"):
            yield from node_metrics_lines(value, path)
            return
        if path.endswith("time_series"):
            yield f"{path}.windows = {json.dumps(value.get('windows'))}"
            yield f"{path} sha256 = {digest(value)}"
            return
        for key, child in value.items():
            yield from flatten_json(child, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and any(
            isinstance(v, (dict, list)) for v in value):
        for i, child in enumerate(value):
            yield from flatten_json(child, f"{path}[{i}]")
    else:
        yield f"{path} = {json.dumps(value)}"


def run(argv, cwd):
    proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return proc


def bench_golden(binary, args):
    """stdout, stamp-free log and flattened BENCH_*.json of one bench run
    (in a scratch directory, since benches write into their cwd)."""
    with tempfile.TemporaryDirectory() as scratch:
        proc = run([binary] + args, scratch)
        command = " ".join([os.path.basename(binary)] + args)
        sections = ["# command: " + command, "# stdout", proc.stdout.rstrip()]
        log = strip_log_stamps(proc.stderr).rstrip()
        if log:
            sections += ["# log (file:line stamps removed)", log]
        for path in sorted(glob.glob(os.path.join(scratch, "BENCH_*.json"))):
            with open(path) as f:
                data = json.load(f)
            sections.append("# " + os.path.basename(path))
            sections.extend(flatten_json(data))
    return "\n".join(sections) + "\n"


def fleet_golden(binary):
    """The sim-time sections of one bench_fleet run's BENCH summary."""
    with tempfile.TemporaryDirectory() as scratch:
        run([binary] + FLEET_ARGS, scratch)
        with open(os.path.join(scratch, "BENCH_fleet.json")) as f:
            summary = json.load(f)["summary"]
    out = ["# command: " + " ".join([os.path.basename(binary)] + FLEET_ARGS)]
    for section in FLEET_SIM_SECTIONS:
        out.extend(flatten_json(summary[section], section))
    return "\n".join(out) + "\n"


def perfbench_golden(workload):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
            workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = run(argv, ROOT)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    out = ["# command: perfbench/run.py " + " ".join(argv[2:])]
    for line in lines[:-1]:
        m = PERF_LINE.match(line)
        if m and m.group(4) != "host" and m.group(1) not in PERF_HOST_PACED:
            out.append(f"{m.group(1)} = {m.group(2)} {m.group(3)}")
    for key in ("correct", "attempted", "failed"):
        out.append(f"{key} = {json.dumps(result[key])}")
    return "\n".join(out) + "\n"


def generate(build_dir, out_dir, jobs):
    bench_dir = os.path.join(build_dir, "bench")
    tasks = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        # perfbench builds itself on first use: run its workloads in one
        # task so they never race on the build.
        tasks["perfbench"] = pool.submit(
            lambda: {f"perfbench_{w}": perfbench_golden(w)
                     for w in PERFBENCH_WORKLOADS})
        for name, args in CHAOS_RUNS.items():
            tasks[name] = pool.submit(
                bench_golden, os.path.join(bench_dir, "bench_chaos"), args)
        tasks["bench_fleet"] = pool.submit(
            fleet_golden, os.path.join(bench_dir, "bench_fleet"))
        for name in PAPER_BENCHES:
            tasks[name] = pool.submit(
                bench_golden, os.path.join(bench_dir, name), ["--quick"])
        files = {}
        for name, future in tasks.items():
            result = future.result()
            if isinstance(result, dict):
                files.update(result)
            else:
                files[name] = result
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(out_dir, name + ".txt"), "w") as f:
            f.write(text)
    return sorted(files)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--update", action="store_true")
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build"))
    parser.add_argument("--jobs", type=int,
                        default=max(1, min(3, os.cpu_count() or 1)))
    args = parser.parse_args()
    build_dir = os.path.abspath(args.build_dir)

    if args.update:
        names = generate(build_dir, GOLDEN_DIR, args.jobs)
        for stale in glob.glob(os.path.join(GOLDEN_DIR, "*.txt")):
            if os.path.basename(stale)[:-4] not in names:
                os.remove(stale)
        print(f"golden: wrote {len(names)} files to {GOLDEN_DIR}")
        return 0

    with tempfile.TemporaryDirectory() as fresh:
        names = generate(build_dir, fresh, args.jobs)
        committed = sorted(os.path.basename(p)[:-4] for p in
                           glob.glob(os.path.join(GOLDEN_DIR, "*.txt")))
        differ = sorted(set(names) ^ set(committed))
        for name in differ:
            print(f"golden: {name}.txt exists on one side only")
        for name in sorted(set(names) & set(committed)):
            with open(os.path.join(GOLDEN_DIR, name + ".txt")) as f:
                want = f.read().splitlines(keepends=True)
            with open(os.path.join(fresh, name + ".txt")) as f:
                got = f.read().splitlines(keepends=True)
            if want != got:
                differ.append(name)
                sys.stdout.writelines(difflib.unified_diff(
                    want, got, f"golden/{name}.txt", f"fresh/{name}.txt"))
    if differ:
        print(f"golden: {len(differ)} file(s) differ: {', '.join(differ)}")
        return 1
    print(f"golden: {len(names)} files match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
