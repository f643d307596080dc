#!/usr/bin/env python3
"""Steadiness check for the PRIMA benchmark.

Runs each workload N times, each in a fresh process with its own seed,
and prints for every metric the median, the quartiles and the spread
(interquartile range as a share of the median) against the metric's
bound in BENCHMARK.json. With --save the raw values are written to a
file; with --against a saved file, the medians are compared and any
metric whose median got worse by more than its bound is flagged.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --save /tmp/set_a.json
    python3 perfbench/steady.py --runs 10 --seed-base 101 --against /tmp/set_a.json
    python3 perfbench/steady.py --workloads read_cold --runs 5 --trace 1

Exits 1 when a run fails, prints no result, reports incorrect output,
or (without --trace) a spread or a median shift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}, no result")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / med if med else 0.0


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write the raw values to this JSON file")
    ap.add_argument("--against", help="compare medians with a file written by --save")
    args = ap.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    by_name = {m["name"]: m for m in metrics}
    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {m: [] for m in by_name}
        shares = set()
        for i in range(args.runs):
            seed = args.seed_base + i
            res = run_once(spec, workload, seed, args.seconds, args.trace)
            if not res["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                ok = False
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                if name not in by_name:
                    print(f"{workload}: unexpected metric {name}", file=sys.stderr)
                    ok = False
                else:
                    values[name].append(m["value"])
            print(f"  {workload} seed {seed}: attempted {res['attempted']} failed {res['failed']}",
                  file=sys.stderr)
        raw[workload] = values
        print(f"\n{workload}: {args.runs} runs, failed share {sorted(shares)}")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) != args.runs:
                print(f"  {name:34} reported in {len(vals)} of {args.runs} runs")
                ok = False
                continue
            q1, med, q3, s = spread(vals)
            bound = by_name[name].get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and s > bound:
                flag, ok = "  OVER", False
            elif bound is not None and s > bound / 3:
                flag = "  >1/3"
            b = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"  {name:34} {med:14.4f} {q1:14.4f} {q3:14.4f} {s:8.3f} {b}{flag}")
        if len(shares) > 1:
            print(f"  failed share differs between runs: {sorted(shares)}")
            ok = False

    if args.against:
        with open(args.against) as f:
            before = json.load(f)
        print("\nmedian shift against", args.against, "(positive = worse)")
        for workload, values in raw.items():
            for name, vals in values.items():
                old = before.get(workload, {}).get(name)
                if not old or not vals:
                    continue
                m0, m1 = statistics.median(old), statistics.median(vals)
                worse = (m1 - m0) / m0 if m0 else 0.0
                if by_name[name].get("better") == "higher":
                    worse = -worse
                bound = by_name[name].get("bound")
                flag = ""
                if bound is not None and worse > bound:
                    flag, ok = "  WORSE", False
                print(f"  {workload:13} {name:34} {m0:14.4f} -> {m1:14.4f} {worse:+8.3f}{flag}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
