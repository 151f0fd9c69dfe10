#!/usr/bin/env python3
"""ccsmine wall-clock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run builds perfbench/
(its own CMake project, which compiles the repository's libraries and the
ccsmined daemon from this checkout) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later runs reuse the build. Each run
generates its inputs from --seed, measures for --seconds, checks every
answer, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a traced run (see BENCHMARK.json and report.py). Two lines
before it carry the build and machine stamp ("stamp: {...}") and the
latency detail with sample counts and tail percentiles ("detail: {...}").

Workloads: deep_ibm, wide_ibm (the engine in process), daemon_mix,
stream_window (a spawned ccsmined over its Unix socket).
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import report  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build(out_dir):
    """Configures (once) and builds the harness and ccsmined. Returns
    whether anything had to be configured, or raises on failure."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(os.path.join(out_dir, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = os.path.exists(os.path.join(out_dir, "CMakeCache.txt"))
        steps = []
        if not configured:
            steps.append(["cmake", "-S", HERE, "-B", out_dir])
        steps.append(["cmake", "--build", out_dir, "-j", str(jobs()),
                      "--target", "perfbench_harness", "ccsmined"])
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                raise RuntimeError("build failed: " + " ".join(step))
    return not configured


def stamp(out_dir):
    """What the numbers depend on besides the code: build type, the flags
    the kernels were compiled with, the machine's width and ISA."""
    cache = {}
    with open(os.path.join(out_dir, "CMakeCache.txt")) as text:
        for line in text:
            match = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if match:
                cache[match.group(1)] = match.group(2)
    flags = ""
    flags_make = os.path.join(out_dir, "ccsmine", "src", "core", "CMakeFiles",
                              "ccs_core.dir", "flags.make")
    with open(flags_make) as text:
        for line in text:
            if line.startswith("CXX_FLAGS"):
                flags = line.split("=", 1)[1].strip()
    march = re.findall(r"-march=\S+", flags)
    cpu_flags = set()
    with open("/proc/cpuinfo") as text:
        for line in text:
            if line.startswith("flags"):
                cpu_flags.update(line.split(":", 1)[1].split())
                break
    return {
        "cmake_build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "cxx_flags": flags,
        "march": march[-1] if march else "none",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_popcnt": "popcnt" in cpu_flags,
        "cpu_avx2": "avx2" in cpu_flags,
    }


def stop_group(pgid):
    """Kills what is left of the harness's process group (normally
    nothing: the harness stops its ccsmined itself) and waits until the
    group is empty."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_harness(out_dir, args, limit_s):
    """Runs the harness in its own process group, so that a timeout also
    takes down the ccsmined it spawned. Returns its parsed last line."""
    run_name = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    work = os.path.join(out_dir, "work", run_name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [os.path.join(out_dir, "perfbench_harness"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--threads", str(jobs()),
               "--daemon", os.path.join(out_dir, "ccsmine", "src", "service",
                                        "ccsmined"),
               "--work", work]
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError("harness exceeded %d s" % limit_s)
    finally:
        stop_group(child.pid)
    sys.stderr.write(stderr)
    if child.returncode != 0:
        raise RuntimeError("harness exited with %d" % child.returncode)
    raw = json.loads(stdout.strip().splitlines()[-1])
    spans = raw["notes"].get("trace_file")
    if spans:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.copy(os.path.join(work, spans),
                    os.path.join(traces, "%s-%d.spans.json" % (args.workload,
                                                               args.seed)))
    shutil.rmtree(work, ignore_errors=True)
    return raw


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(report.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        return 0 if ok else 1
    if args.workload is None or args.seconds < 1:
        parser.error("--workload and a positive --seconds are required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("no ccsmine source tree at %s\n" % ROOT)
        return 2

    started = time.monotonic()
    out_dir = build_dir()
    try:
        built = build(out_dir)
        budget = (BUILD_TIMEOUT_S if built else RUN_LIMIT_S) - (
            time.monotonic() - started)
        raw = run_harness(out_dir, args, max(30, budget))
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError) as error:
        sys.stderr.write("perfbench: %s\n" % error)
        return 1
    print("stamp: " + json.dumps(stamp(out_dir), sort_keys=True))
    print("detail: " + json.dumps(report.latency_detail(raw), sort_keys=True))
    print(json.dumps(report.result(args.workload, raw, args.trace == 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
