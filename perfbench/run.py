#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload af_mix_500 --seed 42 --seconds 10 --trace 0

The arguments go to perfbench/main.exe unchanged (see perfbench/README.md).
The build uses dune from PATH; its output goes to stderr, so standard output
carries only the benchmark's report, whose last line is the JSON result.
Exits with 2, printing no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep the build
    # self-contained.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", root, "./perfbench/main.exe"],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    out = os.path.join(root, "perfbench", "out")
    return subprocess.run([exe, "--out", out] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
