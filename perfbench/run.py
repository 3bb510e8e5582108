#!/usr/bin/env python3
"""Repository benchmark: build, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/bench.exe and the w2cd
daemon with dune, then hands over to bench.exe, whose last line of
output is the JSON result. SIGINT and SIGTERM are passed on to it; it
stops every process it started and removes its socket directories
before exiting. See perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("perfbench: run from the root of a softpipe checkout "
              "(no dune-project, lib/ or bin/ here)", file=sys.stderr)
        return 2
    # dune's shared cache lives in the home directory; the build stays
    # inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/w2cd.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    child = subprocess.Popen([BENCH] + argv)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
