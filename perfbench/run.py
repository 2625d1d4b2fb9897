#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The program and the benchmark are
built together with CMake (Release) under .bench_build/ at the root;
rebuilding an up-to-date tree is a no-op. Build output goes to stderr,
so the benchmark's last stdout line stays its JSON result. Exits
non-zero without a result when the program's sources are missing or
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            sys.stderr.write(f"perfbench: {need} not found under {ROOT}; "
                             "nothing to build\n")
            sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.stderr.write("perfbench: build failed: " + " ".join(cmd) + "\n")
            sys.exit(2)
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    sys.stdout.flush()
    r = subprocess.run([binary] + sys.argv[1:])
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
