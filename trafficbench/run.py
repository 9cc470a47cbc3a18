#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run one workload.

    python3 trafficbench/run.py --workload hot-read --seed 1 --seconds 10 --trace 0

Run it from the root of the repository.  The last line of standard output
is the benchmark's JSON result; build output goes to standard error.  Exits
non-zero, without a result, when the repository's sources are not there.
"""

import glob
import os
import shutil
import subprocess
import sys

BENCH = os.path.join("_build", "default", "trafficbench", "bench.exe")
SOURCES = ["dune-project", "lib", "bin", os.path.join("trafficbench", "dune")]


def find_dune(env):
    dune = shutil.which("dune")
    if dune:
        return dune
    for cand in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
        bindir = os.path.dirname(cand)
        env["PATH"] = bindir + os.pathsep + env.get("PATH", "")
        env.setdefault("OPAM_SWITCH_PREFIX", os.path.dirname(bindir))
        return cand
    return None


def main():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        print("trafficbench: run from the repository root; missing " + ", ".join(missing),
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    # Build products stay in the checkout: no shared dune cache.
    env["DUNE_CACHE"] = "disabled"
    dune = find_dune(env)
    if dune is None:
        print("trafficbench: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "./bin/lbt.exe", "./trafficbench/bench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("trafficbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([BENCH] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
