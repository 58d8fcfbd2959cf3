#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload glsc-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first call builds the library and the
benchmark from source into .perfbench/build (CMake, Release); later calls
rebuild incrementally. Every call then runs the benchmark's own unit tests,
runs the workload, checks that the metrics it printed are exactly the ones
BENCHMARK.json names for the mode (with the same units) and relays its
output. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero when
the checkout cannot be built, a test or output check fails, or the workload
does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
STATE = os.path.join(ROOT, ".perfbench")
BUILD = os.path.join(STATE, "build")
WORKLOADS = ("glsc-scan", "sz-serve", "glsc-encode")
# A workload runs for about --seconds plus set-up and, when traced, its
# replays; the timeout allows a fixed set-up share plus twice that.
SETUP_ALLOWANCE_S = 60


def run_timeout(seconds):
    return SETUP_ALLOWANCE_S + 2.0 * seconds


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(STATE, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "glsc_perfbench", "perfbench_test"])
    for cmd in steps:
        if run_logged(cmd, log, 900) != 0:
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            fail("build failed: " + " ".join(cmd), 3)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from the root of a repository checkout "
             "(no CMakeLists.txt and src/ here)", 2)
    trace = args.trace == "1"
    expected = expected_metrics(trace)
    build()

    if run_logged([os.path.join(BUILD, "perfbench_test")],
                  os.path.join(STATE, "test.log"), 60) != 0:
        with open(os.path.join(STATE, "test.log")) as f:
            sys.stderr.write(f.read())
        fail("benchmark unit tests failed", 4)

    cmd = [os.path.join(BUILD, "glsc_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--model", os.path.join(HERE, "model", "e2e_glsc.glsc"),
           "--workdir", os.path.join(STATE, "work-%d" % os.getpid())]
    timeout = run_timeout(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % timeout, 6)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("workload printed no result (exit %d)" % proc.returncode, 5)
    if proc.returncode == 0:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                 "units %s" % (
                     sorted(set(expected) - set(got)),
                     sorted(set(got) - set(expected)),
                     sorted(k for k in got if k in expected and
                            got[k] != expected[k])), 5)
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
