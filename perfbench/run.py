#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The arguments go through unchanged to the
benchmark executable (perfbench/main.ml), whose last line of standard
output is the JSON result. dune's shared cache is disabled so that the
build reads and writes only inside the checkout. A failed build exits
with the build's code and prints no result.
"""

import os
import subprocess
import sys

TARGET = "perfbench/main.exe"
EXE = os.path.join("_build", "default", TARGET)


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + TARGET],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
