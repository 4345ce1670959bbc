#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first call configures and builds
the benchmark package (perfbench/CMakeLists.txt: the compiler libraries,
the real tccd daemon and the perfbench driver) in $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild incrementally.
Each run works in a scratch directory under the build directory, which is
removed afterwards.  A traced run (--trace 1) also leaves a Chrome trace
in <build>/traces/<workload>.json.

The last line of standard output is the driver's JSON result.  Before it
is passed on, its metric names are checked against BENCHMARK.json: the
end_to_end list for --trace 0, the per_layer list for --trace 1.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("suite", "tccd_hot")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_root, targets):
    cmake_dir = os.path.join(build_root, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", cmake_dir, "--parallel", "4",
                  "--target"] + targets)
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return cmake_dir


def expected_metrics(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")

    if args.selftest:
        cmake_dir = build(build_root, ["perfbench_selftest"])
        work = os.path.join(build_root, "selftest")
        os.makedirs(work, exist_ok=True)
        done = subprocess.run(
            [os.path.join(cmake_dir, "perfbench_selftest"), work])
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(done.returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cmake_dir = build(build_root, ["perfbench", "tccd"])
    run_dir = os.path.join(build_root, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command = [os.path.join(cmake_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--run-dir", run_dir]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, args.workload + ".json")]
    # The driver and the daemons it starts share one process group, so
    # nothing outlives the run, even when the driver times out or dies.
    driver = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    timed_out = False
    try:
        stdout, _ = driver.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        try:
            os.killpg(driver.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if timed_out:
            driver.communicate()
        shutil.rmtree(run_dir, ignore_errors=True)
    if timed_out:
        fail("the benchmark driver timed out")
    if driver.returncode != 0:
        fail("the benchmark driver exited with %d" % driver.returncode)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("the benchmark driver printed no result")
    want = expected_metrics(args.trace)
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(want):
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
