#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

    python3 perfbench/run.py --workload NAME [--seed N|default|held-out]
                             [--seconds S] [--trace 0|1]

Run from the repository root. The benchmark is compiled from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on every
call; an up-to-date build is a no-op. The benchmark binary prints one line
per metric and, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 the spans of the
traced phase are also written, as Chrome trace-event JSON that Perfetto
opens, to <build dir>/traces/<workload>-seed<seed>.json.

Workloads, metrics and bounds are defined in BENCHMARK.json; the default
and held-out seeds in perfbench/seeds.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def resolve_seed(spelling):
    with open(os.path.join(HERE, "seeds.json")) as f:
        seeds = json.load(f)
    named = {"default": seeds["default"], "held-out": seeds["held_out"]}
    if spelling in named:
        return named[spelling]
    return int(spelling)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", default="default")
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()
    try:
        seed = resolve_seed(args.seed)
    except (ValueError, OSError, KeyError) as e:
        print(f"run.py: bad --seed {args.seed!r}: {e}", file=sys.stderr)
        return 2

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    if not build(build_dir):
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "teapot_perfbench"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-file", os.path.join(
            build_dir, "traces", f"{args.workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        # Keep the notes for diagnosis, but never a result line.
        for line in lines:
            if not line.startswith("{"):
                print(line, file=sys.stderr)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("run.py: the benchmark printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
