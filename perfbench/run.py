#!/usr/bin/env python3
"""Build and run the DR-tree end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
the library and the benchmark from source into .bench_build/perfbench
(Release); later calls only rebuild what changed.  Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.  The
exit status is the benchmark's own: 0 when every output check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Compile jobs: few, to stay small on a shared machine.
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "backends.h")):
        fail("no DR-tree sources under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main(argv):
    if argv == ["--self-test"]:
        return subprocess.run([build("perfbench_selftest")]).returncode
    binary = build("perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
