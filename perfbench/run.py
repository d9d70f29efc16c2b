#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload scale_plan|eco_replan|daemon_mix \
        --seed N --seconds S --trace 0|1

The program is configured with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset, and rebuilt incrementally on every call; build
output goes to standard error.  Its own standard output is
passed through: its last line is the JSON result.  Exits non-zero,
without a result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the program; returns its path."""
    if not any(os.path.exists(os.path.join(build_dir, name))
               for name in ("build.ninja", "Makefile")):
        command = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    work = os.path.relpath(os.path.join(build_dir, "work"), ROOT)
    traces = os.path.relpath(os.path.join(build_dir, "traces"), ROOT)
    # Relative paths from the repository root keep the daemon's Unix
    # socket path short however deep the checkout sits.
    return subprocess.run([binary, *sys.argv[1:], "--work-dir", work,
                           "--out-dir", traces], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
