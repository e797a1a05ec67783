#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload detailed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --regen

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs the perfbench binary with the same
arguments. Build output goes to stderr; the binary's last stdout line
is the result JSON. Exits nonzero when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 2
    sys.stdout.flush()
    args = sys.argv[1:]
    if not any(a == "--goldens" for a in args):
        args += ["--goldens", os.path.join(HERE, "goldens.txt")]
    return subprocess.run([os.path.join(build, "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
