#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (which compiles the afpga
library from src/) into .bench_build/perfbench, runs one workload and
prints its output; the last line of standard output is the result JSON.
Build output goes to standard error. --selftest builds everything and runs
the benchmark's own tests. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("compile_adder24", "served_styles", "sim_stream")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def pinned_threads():
    """Pool size for every thread pool: nproc, capped at 4."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, 4))


def build(root, build_dir, targets):
    if not (root / "src" / "afpga.hpp").is_file():
        fail(f"no afpga sources under {root / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed", 1)
    cmd = ["cmake", "--build", str(build_dir), "-j", str(pinned_threads())]
    for t in targets:
        cmd += ["--target", t]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)


def commit_of(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--selftest", action="store_true",
                    help="build everything and run the benchmark's own tests")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    env = dict(os.environ, AFPGA_THREADS=str(pinned_threads()))

    if args.selftest:
        build(root, build_dir, [])
        sys.exit(subprocess.run(["ctest", "--output-on-failure"], cwd=build_dir,
                                env=env).returncode)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build(root, build_dir, ["perfbench"])
    rel = build_dir.relative_to(root)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--commit", commit_of(root),
           # Relative to the root, so the Unix socket path stays short.
           "--socket", str(rel / f"{tag}.sock")]
    if args.trace == "1":
        cmd += ["--trace-file", str(rel / f"trace-{tag}.json")]
    try:
        run = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"{args.workload} exited with code {run.returncode}", 1)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(run.stdout)
        fail("no result line in the benchmark output", 1)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
