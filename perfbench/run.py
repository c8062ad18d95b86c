#!/usr/bin/env python3
"""Builds and runs one workload of the pipeline benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library, ugs_serve, ugs_router and the ugs_perfbench benchmark binary
(Release) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls only rebuild what changed. ugs_perfbench's standard output
is passed through, so the last line is the JSON result. Every process the run starts is stopped
and reaped before this script exits.
"""

import argparse
import ctypes
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("offline-sparsify", "offline-query", "serve-miss")
RUN_LIMIT_S = 170  # Time a run may take after the build.


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary dir."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                      "ugs_perfbench", "ugs_serve", "ugs_router"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return cmake_dir


def become_subreaper():
    """Orphaned grandchildren (daemons of a crashed ugs_perfbench) reparent to us."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isdir("tools")):
        fail("run from the repository root: the program's sources are missing")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bin_dir = build(build_dir)

    work_dir = os.path.join(build_dir, "run", f"{args.workload}-{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    become_subreaper()
    command = [os.path.join(bin_dir, "ugs_perfbench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--bin-dir={os.path.join(bin_dir, 'ugs')}",
               f"--work-dir={work_dir}"]
    sys.stdout.flush()
    bench = subprocess.Popen(command, start_new_session=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    code = None
    while code is None:
        try:
            code = bench.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded its time limit", file=sys.stderr)
            code = 3
    reap_group(bench.pid)
    sys.exit(code)


if __name__ == "__main__":
    main()
