#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench with the workspace's release profile (fat LTO, one
codegen unit) into $CARGO_TARGET_DIR (default .bench_build), draws the
workload's inputs from the seed in one process, measures them in another
(the program receives only the generated files), and forwards the
measuring process's output: a details line, then the result line
{"correct", "attempted", "failed", "metrics"} last. A traced run
(--trace 1) also leaves its spans in .bench_work/<workload>.spans.jsonl.
Exits non-zero, printing no result, when the build, the input generation
or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["qa-grounded", "chat-tcp", "sweep-small"]

# The measured run stops itself after --seconds plus set-up and checks;
# these bounds only catch a hung process.
GEN_TIMEOUT_S = 300
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(target, "release", "perfbench")

    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        gen = subprocess.run(
            [exe, "gen", "--workload", args.workload, "--seed", str(args.seed), "--dir", work],
            env=env, stdout=sys.stderr, timeout=GEN_TIMEOUT_S,
        )
        if gen.returncode != 0:
            fail("input generation failed")
        command = [exe, "run", "--workload", args.workload, "--dir", work,
                   "--seconds", str(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            command += ["--spans", os.path.join(work_root, f"{args.workload}.spans.jsonl")]
        run = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        fail(f"{expired.cmd[1]} did not finish within {expired.timeout} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("the run printed no result line")
    print(run.stdout, end="")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
