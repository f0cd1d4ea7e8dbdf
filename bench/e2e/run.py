#!/usr/bin/env python3
"""Builds and runs the Aquila end-to-end benchmark (see README.md).

Run from the repository root:

  python3 bench/e2e/run.py --workload kv-update-nvme --seed 1 --seconds 10 --trace 0
  python3 bench/e2e/run.py --self-check

The first call configures and builds the benchmark binary under .bench_build/e2e
(CMake, Release) from the sources in ./src. The last line of standard output
is the binary's JSON result. --self-check runs every workload for a fixed
number of rounds and asserts that every check passes, no operation fails, and
the single-client kv-update-nvme counters repeat exactly across two runs with
the same seed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(os.getcwd(), ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "aquila_e2e")
WORKLOADS = ["kv-update-nvme", "read-private-pmem", "bfs-fits-pmem"]
# Fixed round counts for the self-check: short, but every workload evicts
# (except the fits-in-cache control) and kv-update-nvme syncs.
SELF_CHECK_ROUNDS = {"kv-update-nvme": 12, "read-private-pmem": 4, "bfs-fits-pmem": 2}


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("Aquila sources not found at %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "aquila_e2e", "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail("build failed: %s (log: %s)" % (" ".join(cmd), log_path))


def run_binary(extra, capture):
    cmd = [BINARY] + extra
    if not capture:
        return subprocess.call(cmd)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("benchmark binary exited with %d: %s" % (proc.returncode, " ".join(cmd)))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counters = {}
    for line in lines:
        if line.startswith("counters: "):
            counters = json.loads(line[len("counters: "):])
    return result, counters


def self_check():
    seed = 7
    for workload in WORKLOADS:
        args = ["--workload", workload, "--seed", str(seed), "--setups", "1",
                "--rounds", str(SELF_CHECK_ROUNDS[workload])]
        result, counters = run_binary(args + ["--trace", "0"], capture=True)
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            fail("self-check %s: %s" % (workload, result))
        traced, _ = run_binary(args + ["--trace", "1"], capture=True)
        if not traced["correct"] or traced["failed"] != 0:
            fail("self-check %s (traced): %s" % (workload, traced))
        if workload == "kv-update-nvme":
            # One client thread and a fixed op count: the runtime's behaviour
            # is deterministic, so its counters must repeat exactly.
            _, again = run_binary(args + ["--trace", "0"], capture=True)
            if again != counters:
                fail("self-check %s: counters differ between same-seed runs: %s vs %s"
                     % (workload, counters, again))
            if counters["writeback_pages"] == 0 or counters["device_writes"] == 0:
                fail("self-check %s: no writeback observed: %s" % (workload, counters))
        if workload == "bfs-fits-pmem" and (counters["major_faults"] != 0
                                            or counters["device_reads"] != 0):
            fail("self-check %s: timed phase touched the device: %s" % (workload, counters))
        print("self-check %s: ok (%d ops, counters %s)"
              % (workload, result["attempted"], counters))
    print("self-check: all workloads ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_check:
        self_check()
        return 0
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(os.getcwd(), ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        extra += ["--spans-out",
                  os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return run_binary(extra, capture=False)


if __name__ == "__main__":
    sys.exit(main())
