#!/usr/bin/env python3
"""Run-to-run spread of the serving benchmark.

Runs the command in BENCHMARK.json once per seed on each workload and
prints, per metric, the median, the first and third quartiles and the
quartile spread as a share of the median, next to the metric's bound.
A spread above a third of its bound is flagged. Run from the repository
root:

    python3 servebench/spread.py --seeds 10
    python3 servebench/spread.py --workloads qa-shared --seeds 5 --trace 1

The host block of the last run is printed first: compare spreads and
medians only between runs on matching hosts.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    host = next((l[len("host "):] for l in lines if l.startswith("host ")), "{}")
    return json.loads(lines[-1]), json.loads(host), took


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload, one seed each")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for name in names:
        values, host, took = {}, {}, []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res, host, secs = run_once(bench, name, seed, args.trace)
            took.append(secs)
            if not res["correct"]:
                sys.exit(f"{name} seed {seed}: outputs incorrect")
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        print(f"== {name}: {args.seeds} seeds, {statistics.median(took):.1f}s per run (max {max(took):.1f}s)")
        print(f"host {json.dumps(host, sort_keys=True)}")
        print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for k in sorted(values):
            v = values[k]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(k)
            flag = "  over 1/3 bound" if bound and k != "setup_s" and spread > bound / 3 else ""
            b = f"{bound:6.2f}" if bound else "     -"
            print(f"{k:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {b}{flag}")


if __name__ == "__main__":
    main()
