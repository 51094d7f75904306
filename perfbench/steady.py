#!/usr/bin/env python3
"""Steadiness mode: run the benchmark in two sets and compare them.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10]

Each of two sets runs every chosen workload `--runs` times for
BENCHMARK.json's `run_seconds`, each run with its own seed (no seed repeats
across sets). For every end-to-end metric and workload it prints each set's
median and IQR (the distance between the first and third quartile of
`statistics.quantiles(values, n=4)`, as a share of the median) and whether
the sets agree within the metric's bound in BENCHMARK.json, as the
benchmark contract has it: every IQR share except `setup_s`'s is within the
bound, and the second set's median is not worse than the first's by more
than the bound. A `setup_s` spread beyond its bound is printed as
"setup spread" without failing the check. Exits 1 when the sets disagree.
Run it from the root of a source checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SETS = 2
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, other, better):
    """How much worse `other` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if other == first else float("inf")
    delta = (other - first) if better == "lower" else (first - other)
    return delta / abs(first)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    results = {}  # (set, workload) -> [result]
    for s in range(SETS):
        for i in range(args.runs):
            seed = 1000 * s + i + 1
            for w in workloads:
                r = run_once(w, seed, seconds)
                results.setdefault((s, w), []).append(r)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: failed={r['failed']}",
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':<22} {'metric':<20} " + " ".join(
        f"{'set' + str(s + 1) + ' median':>16} {'IQR':>7}" for s in range(SETS)) + "  bound  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, verdict = [], "agree"
            first = None
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[(s, w)]]
                med, iqr = spread(values)
                cells.append(f"{med:>16.6g} {iqr:>7.3f}")
                if iqr > bound and name != "setup_s":
                    verdict = "SPREAD"
                elif iqr > bound and verdict == "agree":
                    verdict = "agree (setup spread)"
                if first is None:
                    first = med
                elif worse_by(first, med, m["better"]) > bound:
                    verdict = "DRIFT"
            ok &= verdict.startswith("agree")
            print(f"{w:<22} {name:<20} " + " ".join(cells) + f"  {bound:<5}  {verdict}")
        failed = sum(r["failed"] for s in range(SETS) for r in results[(s, w)])
        print(f"{w:<22} {'failed operations':<20} {failed}")
        ok &= failed == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
