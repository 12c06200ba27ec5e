#!/usr/bin/env python3
"""Show that each e2ebench output check can fail.

    python3 e2ebench/faults.py [--seconds 2]

Runs every workload once as is, untraced and traced (which must pass),
then once per named fault (`e2ebench --break NAME`), each of which feeds
one check a wrong input; every faulty run must report "correct": false
and exit 1.

  flow-signoff-options  flow_sweep: the from-scratch STA uses the typical
                        methodology's sign-off options for every flow
  replay-skip-route     flow_sweep, traced: the replayed flow skips routing
  work-counter          flow_sweep: one work counter of the second pass is
                        off by one
  mirror-skip-edit      serve_eco: the benchmark's own netlist copy skips
                        one edit
  eco-undo-inverse      serve_eco: the expected inverse of the first edit
                        is the edit itself, not the pre-edit value
  eco-replay-reply      serve_eco, traced: one replayed timing reply of
                        the second traced pass gains a byte
  query-outside-flow    serve_query: the outside reference flow implements
                        mac8 where the server loaded mac16
  query-pass-reply      serve_query: one reply of the second pass gains a
                        byte
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, ".bench_build", "e2ebench", "e2ebench")
WORK = os.path.join(ROOT, ".bench_build", "e2ebench-work", "faults")

# (workload, trace, fault)
CASES = [
    ("flow_sweep", 0, None),
    ("serve_eco", 0, None),
    ("serve_query", 0, None),
    ("flow_sweep", 1, None),
    ("serve_eco", 1, None),
    ("serve_query", 1, None),
    ("flow_sweep", 0, "flow-signoff-options"),
    ("flow_sweep", 1, "replay-skip-route"),
    ("flow_sweep", 0, "work-counter"),
    ("serve_eco", 0, "mirror-skip-edit"),
    ("serve_eco", 0, "eco-undo-inverse"),
    ("serve_eco", 1, "eco-replay-reply"),
    ("serve_query", 0, "query-outside-flow"),
    ("serve_query", 0, "query-pass-reply"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", default="2")
    a = ap.parse_args()
    # Build (or re-check the build) through the benchmark's own entry point.
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", "serve_query", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=ROOT,
                   stdout=subprocess.DEVNULL, check=True)
    bad = 0
    for workload, trace, fault in CASES:
        cmd = [BINARY, "--workload", workload, "--seed", "1", "--seconds",
               a.seconds, "--trace", str(trace), "--work-dir", WORK]
        if fault:
            cmd += ["--break", fault]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        correct = json.loads(out.stdout.strip().splitlines()[-1])["correct"]
        expected = fault is None
        good = correct == expected and (out.returncode == 0) == expected
        bad += not good
        print("%-4s %-12s trace=%d %-22s correct=%s exit=%d" %
              ("ok" if good else "FAIL", workload, trace, fault or "-",
               correct, out.returncode), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
