#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload vgg16_pynq --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the repository root); the first run configures and compiles it, later
runs only check that it is up to date. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. A traced run (--trace 1)
also writes its spans as Chrome trace-event JSON next to the build.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build(build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE.parent / ".bench_build"))
    build_root = target.resolve()
    try:
        binary = build(build_root / "perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_file = build_root / f"trace-{args.workload}-{args.seed}.json"
        cmd += ["--trace-out", str(trace_file)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
