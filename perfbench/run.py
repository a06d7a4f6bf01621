#!/usr/bin/env python3
"""Runs one benchmark workload and prints its JSON result as the last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload engine-mixed --seed 1 --seconds 10 --trace 0

The runner builds the benchmark package from source (into
``$CARGO_TARGET_DIR``, default ``.bench_build``), then runs the ``workload``
binary (``--trace 0``: end-to-end metrics) or the separate ``trace`` binary
(``--trace 1``: per-layer metrics) with ``JRSND_THREADS=1``, so every
program entry point runs at one worker thread. A traced run replays all three
workloads, one process each, and prints their per-layer metrics merged. It
exits non-zero without a result line when the build or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine-mixed", "montecarlo-fig5a", "scale-20k")
# A run must end within 180 s; the build before it is allowed longer. A
# timed process runs --seconds plus its set-up and checks; a traced run
# starts three processes of about 10 s each.
SETUP_TIMEOUT_S = 45


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = "trace" if args.trace else "workload"
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build from the repository root so its .cargo/config.toml applies, and
    # only the binary this run needs, so a broken trace never stops the
    # timed workloads from building.
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--bin", binary,
        ],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"cargo build failed with code {build.returncode}")

    # A traced run replays every workload, each in its own process, so that
    # every per-layer metric is measured in every traced run; the named
    # workload goes first.
    workloads = [args.workload]
    if args.trace:
        workloads += [w for w in WORKLOADS if w != args.workload]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_binary(binary, target, env, workload, args)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(result["metrics"])
    print(json.dumps(merged))


def run_binary(binary, target, env, workload, args):
    """Runs one workload process at one worker thread; returns its result."""
    command = [
        os.path.join(target, "release", binary),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    timeout = SETUP_TIMEOUT_S
    if args.trace:
        command += ["--spans", os.path.join(target, "perfbench-spans", f"{workload}.tsv")]
    else:
        timeout += args.seconds
    try:
        run = subprocess.run(
            command, cwd=ROOT, env=dict(env, JRSND_THREADS="1"),
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail(f"{binary} {workload} did not finish within {timeout} s")
    if run.returncode != 0:
        fail(f"{binary} {workload} exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"{binary} {workload} printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    return result


if __name__ == "__main__":
    main()
