#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs `perfbench/run.py --trace 0` once per seed on every workload, seeds
interleaved across workloads, and prints for each metric the distance
between the first and third quartile of its values as a share of their
median, next to a third of the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --seeds 10 [--first-seed 1] [--workloads a,b]

Run from the root of a checkout. Exits 1 if any spread other than that of
`setup_s` reaches a third of its bound, or if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            took = time.perf_counter() - start
            if r.returncode != 0:
                print(f"{w} seed {seed}: exit {r.returncode}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            ok = ok and res["correct"]
            for m, v in res["metrics"].items():
                values[w][m].append(v["value"])
            print(f"{w:<11} seed {seed:<3} {took:6.1f}s correct={res['correct']} " +
                  " ".join(f"{m}={v['value']:.5g}" for m, v in res["metrics"].items()), flush=True)

    print(f"\n{'workload':<11} {'metric':<12} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for w in workloads:
        for m, bound in bounds.items():
            vs = values[w][m]
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  <-- over"
            if flag and m != "setup_s":
                ok = False
            print(f"{w:<11} {m:<12} {med:>12.5g} {spread:>8.4f} {bound / 3:>8.4f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
