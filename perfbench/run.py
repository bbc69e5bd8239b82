#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all              # every workload, every metric

Builds perfbench/ (CMake, Release) into .bench_build/ on first use, runs the
perfbench binary from the repository root and passes its output through.
The last line of standard output is the binary's JSON result. Before printing
it, the metric names and units are checked against BENCHMARK.json: the
end_to_end set for --trace 0, the per_layer set for --trace 1. A mismatch,
a failed correctness check or a failed build exits non-zero.

--all runs each workload untraced and traced and prints every end-to-end and
per-layer metric by name and unit.

Seeds: DEFAULT_SEED is the one to develop against; confirm a performance
claim on HELD_OUT_SEED as well (--seed 7919), which no tuning has looked at.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "server" / "server.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step), 2)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def expected_metrics(trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec()[key]}


def run_one(workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, output lines, result)."""
    proc = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def check_names(result, trace):
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metric names differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}", 3)


def single(args):
    build()
    code, lines, result = run_one(args.workload, args.seed, args.seconds,
                                  args.trace)
    if result is None:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"no result line (exit code {code})", code or 1)
    check_names(result, args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(code)


def all_workloads(args):
    build()
    bench = spec()
    kinds = {m["name"]: "end_to_end" for m in bench["end_to_end"]}
    kinds.update({m["name"]: "per_layer" for m in bench["per_layer"]})
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"== {workload} (seed {args.seed}, {args.seconds} s per run)")
        for trace in (0, 1):
            code, lines, result = run_one(workload, args.seed, args.seconds,
                                          trace)
            if result is None or code != 0:
                ok = False
                print("\n".join(lines[-20:]))
                print(f"   FAILED (exit code {code})")
                continue
            check_names(result, trace)
            for name, metric in result["metrics"].items():
                print(f"   {kinds[name]:<10} {name:<28} "
                      f"{metric['value']:>16.6g} {metric['unit']}")
            print(f"   correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"confirm claims on the held-out seed "
                             f"{HELD_OUT_SEED} too)")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.all:
        all_workloads(args)
    elif args.workload:
        single(args)
    else:
        parser.error("give --workload NAME or --all")


if __name__ == "__main__":
    main()
