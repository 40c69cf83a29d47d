#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload knn_disk --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Configures and builds perfbench/ (CMake, Release) under .bench_build/ at the
root of the checkout, runs one workload in its own process with a private
work directory for index and WAL files, removes that directory, and relays
the program's report. The last line of standard output is the JSON result;
it is printed only when its metric names and units are the ones
BENCHMARK.json declares for the mode. Build output goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "--target", target,
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run(
            [binary, os.path.join(WORK, "selftest")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    expected = declared_metrics(args.trace == 1)
    binary = build("perfbench")
    workdir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    try:
        os.makedirs(workdir, exist_ok=True)
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    sys.stdout.flush()
    if proc.returncode != 0:
        print(lines[-1])
        fail("run failed with exit code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, AttributeError):
        fail("the last line is not a result: %r" % lines[-1])
    if reported != expected:
        fail("reported metrics %s differ from BENCHMARK.json's %s"
             % (sorted(reported.items()), sorted(expected.items())))
    print(lines[-1])


if __name__ == "__main__":
    main()
