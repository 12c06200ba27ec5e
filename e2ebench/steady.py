#!/usr/bin/env python3
"""Repeat one workload N times and print each metric's median and quartiles.

    python3 e2ebench/steady.py --workload serve_eco [--runs 10] [--seed0 1]
        [--seconds 35] [--trace 0]

Run i uses seed seed0 + i. For every metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the quartile
spread as a share of the median; this is how the bounds in BENCHMARK.json
were set. It also repeats the first seed once more and requires the two
runs' "work" lines (deterministic work counts and QoR) to be identical,
and every run to report the same share of failed operations. Exits 1 if
any run fails, is incorrect, or either requirement does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("steady: %s seed %d exited %d" % (workload, seed,
                                                   out.returncode))
    result = json.loads(lines[-1])
    work = next((l for l in lines if l.startswith("work ")), None)
    return result, work


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    a = ap.parse_args()

    values = {}
    units = {}
    shares = set()
    ok = True
    first_work = None
    for i in range(a.runs):
        seed = a.seed0 + i
        result, work = run_once(a.workload, seed, a.seconds, a.trace)
        ok = ok and result["correct"]
        if i == 0:
            first_work = work
        shares.add((result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("run %2d seed %d: correct=%s attempted=%d failed=%d %s" %
              (i + 1, seed, result["correct"], result["attempted"],
               result["failed"],
               " ".join("%s=%.6g" % (k, m["value"]) for k, m in
                        sorted(result["metrics"].items()))), flush=True)

    _, again = run_once(a.workload, a.seed0, a.seconds, a.trace)
    same_work = again == first_work
    fail_shares = {f / n for f, n in shares}
    print("\n%-30s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                          "spread"))
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else 0.0
        print("%-30s %14.6g %14.6g %14.6g %7.2f%%  %s" %
              (name, med, q1, q3, 100 * spread, units[name]))
    print("\nsame-seed work counts identical: %s" % same_work)
    print("failed share identical across runs: %s (%s)" %
          (len(fail_shares) == 1, sorted(fail_shares)))
    return 0 if ok and same_work and len(fail_shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
