#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR when set, else .bench_build, relative
to the repository root. Build output goes to stderr; stdout ends with the
benchmark's one-line JSON result. Exits non-zero, printing no result, when
the build or the run fails. See perfbench/README.md.
"""
import argparse
import fcntl
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve_hot", "fleet_mixed", "design_sweep", "tile_sim")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("need --seed >= 0 and 0 < --seconds <= 120")
    return args


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run(command, deadline, stdout):
    """Runs @command to completion; on timeout kills its whole process
    group (cmake's compilers included) and waits for it."""
    with subprocess.Popen(command, stdout=stdout, text=True,
                          start_new_session=True) as process:
        try:
            out, _ = process.communicate(
                timeout=max(deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise
    if process.returncode != 0:
        raise subprocess.CalledProcessError(process.returncode, command)
    return out


def build(out_dir):
    """Configures and builds the perfbench binary; returns its path."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    # Serialize concurrent invocations sharing one build tree.
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            deadline, sys.stderr)
        run(["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
            deadline, sys.stderr)
    return os.path.join(out_dir, "perfbench")


def main():
    args = parse_args()
    try:
        binary = build(build_dir())
        out = run([binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)],
                  time.monotonic() + RUN_TIMEOUT_S, subprocess.PIPE)
    except (OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if not lines:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
