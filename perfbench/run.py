#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the measuring program
(`perfbench/`, its own Cargo package) with `cargo build --release
--offline` into `$CARGO_TARGET_DIR` (default `.bench_build`), runs the
workload in fresh processes, prints a human report on stderr and, as the
last stdout line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1`. A run with failed operations prints
`correct: false` and the metrics it measured. Exits non-zero without a
result line when the sources are missing, the build fails, or a run
without failures lacks a metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON record in the output")


def build():
    """Build the measuring program; return the path of its binary."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=880,
    )
    if done.returncode != 0:
        die("building the measuring program failed")
    return os.path.join(ROOT, target, "release", "perfbench")


def run_step(binary, step, args, work, budget):
    cmd = [binary, step, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", work]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=budget)
    if done.returncode != 0:
        die(f"{step} exited with {done.returncode}")
    return last_json_line(done.stdout)


def report(args, raw, names, bench, layers):
    """Human-readable report on stderr."""
    out = sys.stderr
    metrics = raw["metrics"]
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}", file=out)
    print(f"   attempted={raw['attempted']} failed={len(raw['failures'])} "
          f"error_rate={len(raw['failures']) / max(raw['attempted'], 1):.6f}", file=out)
    for f in raw["failures"][:20]:
        print(f"   FAILED: {f}", file=out)
    e2e = {m["name"] for m in bench["end_to_end"]}
    for name in names:
        m = metrics[name]
        line = f"   {name:<32} {m['value']:>14.6g} {m['unit']:<9} n={m['n']:<6}"
        moves = layers.get("per_layer", {}).get(name)
        if name not in e2e and moves:
            target = moves["moves"]
            tv = metrics.get(target, {}).get("value")
            shown = f"{tv:.6g}" if isinstance(tv, (int, float)) else "-"
            line += f" -> {target} (untraced {shown}) on {', '.join(moves['workloads'])}"
        print(line, file=out)
        if m.get("note"):
            print(f"   {'':<32} {m['note']}", file=out)
    listed = e2e | {m["name"] for m in bench["per_layer"]}
    for name, m in metrics.items():
        if name not in listed:
            print(f"   also measured, not in BENCHMARK.json: {name} {m['value']:.6g} {m['unit']} "
                  f"n={m['n']} ({m['note']})", file=out)
    for name, why in raw.get("unmeasured", {}).items():
        if name in names:
            print(f"   not measured: {name}: {why}", file=out)
    info = raw.get("info", {})
    if info:
        print("   machine: " + ", ".join(f"{k}={v}" for k, v in info.items()), file=out)
        per_shard = info.get("working_set_bytes_per_shard_computed")
        llc = info.get("llc_bytes")
        if per_shard and llc:
            print(f"   working set (computed V*T*4 per shard) {per_shard} B vs LLC {llc} B "
                  f"= {per_shard / llc:.1f}x", file=out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        die("the program's sources (crates/) are not in this checkout")
    with open(bench_path) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        die(f"unknown workload {args.workload!r}")

    binary = build()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        measure_start = time.monotonic()
        if args.workload.startswith("serve_"):
            prepared = run_step(binary, "prepare", args, work, DEADLINE_S)
            with open(os.path.join(work, "prepare.json"), "w") as f:
                json.dump(prepared, f)
        budget = DEADLINE_S - (time.monotonic() - measure_start)
        raw = run_step(binary, "measure", args, work, budget)
    except (subprocess.TimeoutExpired, ValueError) as e:
        die(str(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    failed = len(raw["failures"])
    missing = [m["name"] for m in bench[section] if m["name"] not in raw["metrics"]]
    if missing and not failed:
        die(f"metrics not produced: {', '.join(missing)}")
    if missing:
        # A failed operation (a fit error, say) can stop a workload before
        # it measures everything: report the failure with what was measured.
        print(f"   not produced after a failure: {', '.join(missing)}", file=sys.stderr)
    names = [m["name"] for m in bench[section] if m["name"] in raw["metrics"]]
    report(args, raw, names, bench, layers)
    print(f"   wall {time.monotonic() - start:.1f}s", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {n: {"value": raw["metrics"][n]["value"], "unit": raw["metrics"][n]["unit"]} for n in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
