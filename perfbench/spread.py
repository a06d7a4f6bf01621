#!/usr/bin/env python3
"""Measures how steady the benchmark is on one workload.

Usage, from the repository root:

    python3 perfbench/spread.py --workload scale-20k --seeds 1-10

Runs ``run.py`` untraced once per seed for ``run_seconds`` from
``BENCHMARK.json``, then prints for each metric its median, its spread
(inter-quartile range over median, as ``statistics.quantiles(values, n=4)``
gives the quartiles), and its bound from ``BENCHMARK.json``. A spread above
a third of the bound is marked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
        else:
            spread = 0.0
        bound = bounds[name]
        flag = " <-- above bound/3" if spread > bound / 3 else ""
        print(f"{name:40s} median {med:<14.6g} spread {spread:8.4f} bound {bound}{flag}")


if __name__ == "__main__":
    main()
