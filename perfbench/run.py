#!/usr/bin/env python3
"""Build the dynriver benchmark from this checkout's sources and run it.

    python3 perfbench/run.py --workload fleet_live --seed 1 --seconds 15 --trace 0

Configures and builds perfbench/ (which pulls in the library sources from
the directory above it) into .bench_build/, then runs one workload. All
build output goes to stderr; the benchmark's stdout is passed through, and
its last line is the JSON result. Scratch inputs go to .bench_work/ (removed
when the run ends) and trace files to .bench_out/, both under the checkout.

Extra flag: --smoke runs the seconds-long input sizes the benchmark's own
test (perfbench/test_perfbench.py) uses.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("fleet_live", "tcp_ingest", "archive_backfill", "species_survey")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configure and build; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def git_describe():
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    text = done.stdout.strip()
    return text if done.returncode == 0 and text else "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".bench_work"),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--git-describe", git_describe()]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
