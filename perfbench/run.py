#!/usr/bin/env python3
"""Builds and runs the rdfopt serving benchmark (perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload lubm-hot-repeat --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds an optimized copy of the library and
the benchmark under $CARGO_TARGET_DIR (default .bench_build); later runs
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the sources or the build are missing or broken.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# The benchmark itself must finish well inside a run's 180 s limit.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the library and benchmark sources: provenance that also
    works in checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for directory in (ROOT / "src", HERE):
        for path in sorted(directory.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            fail(f"cannot run {step[0]}: {error}")
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    binary = build_dir / "serving_bench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--small", action="store_true",
                        help="one university per dataset (self-test scale)")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"rdfopt sources not found under {ROOT / 'src'}")
    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--git-sha", git_sha(),
               "--source-sha", source_digest()]
    if args.small:
        command.append("--small")
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
