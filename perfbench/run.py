#!/usr/bin/env python3
"""Runs one workload of the swope benchmark and prints its metrics.

Usage (from the repository root):

  python3 perfbench/run.py --workload entropy_explore --seed 1 \
      --seconds 15 --trace 0
  python3 perfbench/run.py --self-test

The harness is built from source with CMake into $CARGO_TARGET_DIR
(default .bench_build), in a build directory of this checkout's own, on
first use. Each run then generates the workload's inputs for the seed
(cached under .perfbench_data, keyed on the harness binary, so inputs
and truths written by another build are never reused), and runs the
closed loop in a fresh process. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The metrics are
the end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("entropy_explore", "mi_select", "ingest_refresh")
# Input generation and one run must each finish well inside the 180 s a
# run may take.
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def digest(data, length=16):
    return hashlib.sha256(data).hexdigest()[:length]


def build():
    """Configures (once) and builds the harness; returns its path."""
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    # A CMake cache pins the sources it was configured for, so checkouts
    # sharing one target directory each get their own build directory.
    build_dir = build_root / f"perfbench-{digest(str(ROOT).encode())}"
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_harness",
         "-j", jobs], stdout=sys.stderr)
    if result.returncode != 0:
        fail("build failed")
    return build_dir / "perfbench_harness"


def data_dir_for(binary):
    """Returns the cache directory of this harness build's inputs and
    truths, and removes those of other builds."""
    cache = ROOT / ".perfbench_data"
    data_dir = cache / digest(binary.read_bytes())
    if cache.is_dir():
        for entry in cache.iterdir():
            if entry != data_dir:
                if entry.is_dir():
                    shutil.rmtree(entry)
                else:
                    entry.unlink()
    data_dir.mkdir(parents=True, exist_ok=True)
    return str(data_dir)


def harness(binary, args, timeout):
    """Runs the harness to completion; returns its stdout."""
    try:
        result = subprocess.run([str(binary)] + args, cwd=ROOT, timeout=timeout,
                                stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"harness {args[0]} exceeded {timeout} s")
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail(f"harness {args[0]} exited with {result.returncode}")
    return result.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own logic and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    data_dir = data_dir_for(binary)
    if args.self_test:
        sys.stdout.write(harness(binary, ["selftest", "--data-dir", data_dir],
                                 RUN_TIMEOUT_S))
        return

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--data-dir", data_dir]
    harness(binary, ["gen"] + common, GEN_TIMEOUT_S)
    output = harness(binary, ["run"] + common + ["--trace", str(args.trace)],
                     RUN_TIMEOUT_S)
    lines = output.rstrip("\n").split("\n")
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(output)
        fail("harness printed no result")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
