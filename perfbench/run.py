#!/usr/bin/env python3
"""Build and run the lkmm-herd benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload scale-lkmm|diy-mine|serve-mixed \
        --seed N --seconds S --trace 0|1

Builds lkmm-perfbench and lkmm-serve from the repository's sources
(RelWithDebInfo, the repository's default, into $CARGO_TARGET_DIR
or .bench_build), then runs one
measurement.  Build output goes to stderr; the measuring binary
prints progress and, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics.  Traced runs
(--trace 1) leave a Chrome trace-event file under
<build dir>/traces/.  A wrong verdict exits non-zero with no result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("scale-lkmm", "diy-mine", "serve-mixed")
HERE = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, jobs):
    """Configure (once) and build the two binaries; True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, timeout=600)
        if rc != 0:
            return False
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "-j", str(jobs),
         "--target", "lkmm-perfbench", "lkmm-serve"],
        stdout=sys.stderr, timeout=900)
    return rc == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("run from the repository root: src/ not found")
        return 2

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    jobs = max(1, min(4, os.cpu_count() or 1))
    if not build(build_dir, jobs):
        log("build failed")
        return 2

    work_dir = os.path.join(build_dir, "runs",
                            f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(build_dir, "lkmm-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--serve-bin", os.path.join(build_dir, "lkmm-serve")]
    sys.stdout.flush()
    # Its own session, so a timeout also takes down the lkmm-serve
    # daemon and workers it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        log("measurement timed out")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        rc = 124
    trace = os.path.join(work_dir, f"trace-{args.workload}.json")
    if rc == 0 and os.path.exists(trace):
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        dest = os.path.join(traces,
                            f"{args.workload}-seed{args.seed}.json")
        shutil.move(trace, dest)
        log(f"trace written to {dest}")
    shutil.rmtree(work_dir, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
