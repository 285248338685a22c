#!/usr/bin/env python3
"""Build and run the PhoneBit host-time benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the engine library from the repository's sources plus the
benchmark binary) under .bench_build/perfbench, then runs one workload. The
binary prints the result JSON as the last line of stdout; build output goes
to stderr. Exits non-zero without a result when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

BUILD_ROOT = ".bench_build"


def build(here, build_dir):
    """Configures and builds the perfbench target; returns the binary."""
    cmd = ["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def fresh_work_dir(work_dir, binary):
    """Drops cached artifacts compiled by an older build of the binary."""
    stamp = os.path.join(work_dir, "binary.mtime")
    mtime = str(os.stat(binary).st_mtime_ns)
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == mtime:
                return
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    with open(stamp, "w") as f:
        f.write(mtime)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--exec-workers", default=None,
                   help="serve_mix request workers (default min(4, nproc))")
    a = p.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    try:
        binary = build(here, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work")
    fresh_work_dir(work_dir, binary)

    cmd = [binary, "--workload", a.workload, "--seed", a.seed,
           "--seconds", a.seconds, "--trace", a.trace, "--work-dir", work_dir]
    if a.exec_workers is not None:
        cmd += ["--exec-workers", a.exec_workers]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
