#!/usr/bin/env python3
"""Run one workload several times and summarise every metric.

    python3 perfbench/repeat.py --workload kv-mixed --runs 10 [--first-seed 1]
        [--seconds S] [--trace 0]

Each run uses its own seed (first-seed, first-seed+1, ...); --seconds
defaults to BENCHMARK.json's run_seconds. For every
metric the table gives the median, the quartiles (statistics.quantiles
with n=4), min, max, and the spread: the interquartile distance as a
share of the median, the figure the bounds in BENCHMARK.json are set
against. A metric whose spread reaches its bound is marked "!". The
failed share of attempted ops is printed per run; it must be the same
in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def spec():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def bounds():
    return {m["name"]: m.get("bound") for m in spec().get("end_to_end", [])}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec().get("run_seconds", 10))
    p.add_argument("--trace", choices=("0", "1"), default="0")
    args = p.parse_args()
    values = {}
    units = {}
    shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace]
        t0 = time.time()
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        took = time.time() - t0
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, r.returncode))
            return 1
        res = json.loads(lines[-1])
        share = res["failed"] / res["attempted"]
        shares.append(share)
        print("seed %d: correct=%s attempted=%d failed=%d share=%.6f (%.0f s)"
              % (seed, res["correct"], res["attempted"], res["failed"], share, took), flush=True)
        if not res["correct"]:
            for line in r.stderr.splitlines():
                if line.startswith("check failed"):
                    print("    " + line)
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("    " + " ".join("%s=%.4g" % (name, m["value"]) for name, m in res["metrics"].items()),
              flush=True)
    bound = bounds()
    print("%-36s %-8s %12s %12s %12s %12s %12s %8s %6s"
          % ("metric", "unit", "median", "q1", "q3", "min", "max", "spread", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        b = bound.get(name)
        mark = "!" if b is not None and spread >= b else ""
        print("%-36s %-8s %12.4g %12.4g %12.4g %12.4g %12.4g %8.3f %6s%s"
              % (name, units[name], med, q1, q3, min(vs), max(vs), spread,
                 "" if b is None else b, mark))
    if len(set(shares)) > 1:
        print("failed share differs between runs: %s" % sorted(set(shares)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
