#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload pa_synth|cp_synth|fleet_sessions \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the driver from source into
perfbench/build (the first run compiles the library; later runs only check
that the build is current), times the workload's set-up, runs the closed
loop, and prints the driver's report. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics, set-up time included;
with --trace 1 they are the per-layer metrics of a traced run.

Exits non-zero without a result line when the build or the driver fails,
and with the driver's status (1) when an output check failed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = BENCH_DIR / "build"
DRIVER = BUILD_DIR / "perfbench_driver"
WORKLOADS = ("pa_synth", "cp_synth", "fleet_sessions")

# Set-up is timed as whole driver launches (--setup-only): process start,
# problem construction, pool start and, for the fleet, admission of the
# first sessions. The median of all launches is reported; half of them run
# before the measured loop and half after it, so a passing change in the
# host's load touches only some of the samples.
SETUP_REPEATS = 20
SETUP_TIMEOUT_S = 60
# Time a run may take beyond its measured passes (one, or two when traced:
# the traced pass and its untraced replay): the job in flight at the
# deadline and the output checks.
CHECK_ALLOWANCE_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    every file the benchmark builds from."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return "git:" + done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if BUILD_DIR in path.parents or not path.is_file():
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def time_setup(args, work_dir):
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [str(DRIVER), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--work-dir", str(work_dir), "--setup-only"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            fail("set-up run failed")
        samples.append(elapsed)
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    work_dir = BUILD_DIR / f"work-{os.getpid()}"
    timeout = (2 if args.trace else 1) * args.seconds + CHECK_ALLOWANCE_S
    setup_samples = []
    try:
        if args.trace == 0:
            setup_samples += time_setup(args, work_dir)
        try:
            done = subprocess.run(
                [str(DRIVER), "--workload", args.workload, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(args.trace), "--work-dir", str(work_dir),
                 "--source-id", source_id()],
                stdout=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"driver did not finish within {timeout} s")
        if args.trace == 0 and done.returncode == 0:
            setup_samples += time_setup(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        fail(f"driver exited {done.returncode} without a result line")
    for line in lines[:-1]:
        print(line)
    if setup_samples:
        setup_s = statistics.median(setup_samples)
        report["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                             **report["metrics"]}
    print(json.dumps(report), flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
