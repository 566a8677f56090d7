#!/usr/bin/env python3
"""Spread mode: repeat one workload N times and summarise every metric.

    python3 perfbench/spread.py --workload serve-t6-script --runs 10
    python3 perfbench/spread.py --workload fullchip-farm --runs 5 --sets 2

Each run is one untraced process of the benchmark command named in
BENCHMARK.json, measuring for its run_seconds, with its own seed (1, 2,
..., N). For every metric the script prints the median, the quartiles, the
quartile spread as a share of the median (IQR/median), and max/min. A gated
end-to-end metric is flagged when its IQR/median exceeds its bound, or
exceeds a third of it (a warning: the bound has too little headroom). With
--sets 2 the whole set of runs is made twice and every gated metric is
flagged whose second median is worse than the first by more than its
bound. host.probe_ms, the benchmark's own fixed
kernel, shows whether a slow run was the host or the program.

Exits 1 if a run fails or a metric is flagged.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+) n=(\d+)$")


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: seed {seed}, exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"run incorrect: seed {seed}: {lines[-1]}")
    values = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        if match and match.group(2) != "null":
            values[match.group(1)] = (float(match.group(2)), match.group(3))
    return values


def summarise(runs):
    """Per metric: (unit, median, q1, q3, iqr/median, max/min)."""
    out = {}
    for name in runs[0]:
        values = [run[name][0] for run in runs if name in run]
        unit = runs[0][name][1]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        rel = (q3 - q1) / abs(med) if med else 0.0
        ratio = max(values) / min(values) if min(values) > 0 else float("nan")
        out[name] = (unit, med, q1, q3, rel, ratio)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}

    medians = []
    flagged = False
    for s in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = i + 1
            runs.append(run_once(bench["command"], args.workload, seed, seconds))
            print(f"set {s + 1} run {i + 1}/{args.runs} seed {seed} done", file=sys.stderr)
        gated = ["host.probe_start_ms", "host.probe_end_ms"] + [n for n in bounds if n in runs[0]]
        print(f"\n{args.workload}: set {s + 1}, per run")
        print(f"{'seed':>6} " + " ".join(f"{n:>20}" for n in gated))
        for i, run in enumerate(runs):
            print(f"{i + 1:>6} " + " ".join(f"{run[n][0]:20.6g}" for n in gated))
        summary = summarise(runs)
        medians.append(summary)
        print(f"\n{args.workload}: set {s + 1}, {args.runs} runs, {seconds} s each")
        print(f"{'metric':32} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'max/min':>8}  flag")
        for name, (unit, med, q1, q3, rel, ratio) in summary.items():
            flag = ""
            if name in bounds:
                bound = bounds[name][0]
                if rel > bound:
                    flag, flagged = f"SPREAD > bound {bound}", True
                elif rel > bound / 3:
                    flag = f"spread > bound/3 ({bound / 3:.3f})"
            print(f"{name:32} {unit:>6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:8.4f} {ratio:8.4f}  {flag}")

    if len(medians) == 2:
        print("\nsecond set against the first:")
        for name, (bound, better) in bounds.items():
            if name not in medians[0]:
                continue
            first, second = medians[0][name][1], medians[1][name][1]
            worse = (second - first) / first if better == "lower" else (first - second) / first
            flag = ""
            if worse > bound:
                flag, flagged = f"WORSE by more than bound {bound}", True
            print(f"{name:32} {first:12.6g} -> {second:12.6g}  worse by {worse:+.4f}  {flag}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
