#!/usr/bin/env python3
"""Build the e2ebench binary from source and run one workload.

    python3 e2ebench/run.py --workload flow_sweep|serve_eco|serve_query \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
e2ebench/ (which compiles ../src in Release mode) into .bench_build/e2ebench;
later runs only re-check the build. Build output goes to
.bench_build/e2ebench/build.log. The binary's standard output is passed
through: its last line is the result JSON. Exits with the binary's code, or
3 when the build fails (then no result is printed).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
LOG = os.path.join(BUILD, "build.log")


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench",
                  "-j", jobs])
    with open(LOG, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                # A half-configured tree would make the next run skip the
                # configure step; start clean next time.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                return False
    return True


def main():
    if not build():
        sys.stderr.write("e2ebench: build failed; see %s\n" % LOG)
        with open(LOG) as log:
            sys.stderr.write("".join(log.readlines()[-20:]))
        return 3
    args = sys.argv[1:]
    flags = dict(zip(args[::2], args[1::2]))
    work = os.path.join(ROOT, ".bench_build", "e2ebench-work", str(os.getpid()))
    extra = ["--work-dir", work]
    if flags.get("--trace") == "1":
        spans = os.path.join(ROOT, ".bench_build", "e2ebench-spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-%s.jsonl" % (flags.get("--workload"), flags.get("--seed"))
        extra += ["--spans-out", os.path.join(spans, name)]
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    try:
        rc = subprocess.run([os.path.join(BUILD, "e2ebench")] + args + extra,
                            cwd=ROOT).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
