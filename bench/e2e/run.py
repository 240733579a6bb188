#!/usr/bin/env python3
"""Builds symple_e2e from source, then runs it with this script's arguments.

    python3 bench/e2e/run.py --workload twitter-t1 --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/e2e at the root of the checkout. Build output
goes to standard error, so the benchmark's JSON result stays the last line of
standard output. Exits non-zero without a result when the build fails, e.g.
when ../../src is not there.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    build = os.path.join(root, ".bench_build", "e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", here, "-B", build],
                ["cmake", "--build", build, "-j", jobs, "--target", "symple_e2e"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    binary = os.path.join(build, "symple_e2e")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
