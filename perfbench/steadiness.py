#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs of the same build.

Runs the command of BENCHMARK.json as two sets, A and B, alternately
run by run (A then B on even rounds, B then A on odd ones), because
blocks of runs taken minutes apart drift. Every run uses its own seed.
For every metric of every workload it prints each set's median and
quartiles, the spread (interquartile distance over the median) and the
shift of B's median from A's (positive in the metric's worse
direction), against the metric's bound. It says "steady" only if every
run is correct, every bounded metric's spread and the size of its shift
(either way, since both sets run the same code) are within the bound,
and the share of failed operations is the same in every run.

Run from the root of the repository:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads crash_detect

A first `cargo build --release --manifest-path perfbench/Cargo.toml`
keeps build time out of the first run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    # values[workload][set][metric] -> list; shares[workload][set] -> list
    values = {w: {s: {} for s in "AB"} for w in workloads}
    shares = {w: {s: [] for s in "AB"} for w in workloads}
    ok = True
    for i in range(args.runs):
        order = "AB" if i % 2 == 0 else "BA"
        for s in order:
            seed = args.seed_base + i + (0 if s == "A" else 500)
            for w in workloads:
                result, wall = run_once(bench["command"], w, seed, seconds, args.trace)
                if not result["correct"]:
                    print(f"  {w} seed {seed}: correct=false", flush=True)
                    ok = False
                if result["attempted"] < 1:
                    print(f"  {w} seed {seed}: no operations attempted", flush=True)
                    ok = False
                shares[w][s].append(result["failed"] / max(result["attempted"], 1))
                for name, m in result["metrics"].items():
                    values[w][s].setdefault(name, []).append(m["value"])
                print(f"run {i} set {s} {w} seed {seed}: {wall:.1f} s, "
                      f"{result['attempted']} ops, {result['failed']} failed", flush=True)

    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<40} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12}"
              f" {'spread':>7} {'shift':>7} {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            stats = {}
            for s in "AB":
                vals = values[w][s].get(name, [])
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("nan")
                stats[s] = (q1, med, q3, spread)
            if len(stats) < 2:
                continue

            a, b = stats["A"][1], stats["B"][1]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            for s in "AB":
                q1, med, q3, spread = stats[s]
                flag = ""
                if bound is not None:
                    if spread > bound:
                        flag, ok = " SPREAD>BOUND", False
                    elif spread > bound / 3:
                        flag = " spread>bound/3"
                shift = f"{worse:+7.3f}" if s == "B" else " " * 7
                if s == "B" and bound is not None and abs(worse) > bound:
                    flag, ok = flag + " SHIFT>BOUND", False
                b_txt = f"{bound:6.3f}" if bound is not None else " " * 6
                print(f"  {name:<40} {s:>3} {q1:12.6g} {med:12.6g} {q3:12.6g}"
                      f" {spread:7.3f} {shift} {b_txt}{flag}")
        fa, fb = shares[w]["A"], shares[w]["B"]
        same = len(set(fa + fb)) == 1
        ok &= same
        print(f"  failed share: A {sorted(set(fa))} B {sorted(set(fb))}"
              f"{'' if same else ' DIFFERS'}")
    print("\nsteady" if ok else "\nNOT steady")


if __name__ == "__main__":
    main()
