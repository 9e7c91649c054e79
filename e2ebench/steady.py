#!/usr/bin/env python3
"""Steadiness tool for the end-to-end benchmark.

Runs every workload N times, alternating the workload order between
passes, with seeds first_seed, first_seed + 1, ... For each end-to-end
metric and workload it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json, plus the failed share of
the operations attempted.

    python3 e2ebench/steady.py --runs 10
    python3 e2ebench/steady.py --runs 5 --workloads served --first-seed 11
    python3 e2ebench/steady.py --runs 3 --trace     # per-layer metrics

A spread above a third of its bound is flagged "WIDE", above the bound
"OVER". The stream timings an untraced run prints on stderr only
(ops_per_s, query p50/p99, batch p50) are listed as "ungated", with
whether their spread stays within a tenth. With --trace the per-layer
metrics are summarised the same way (no bounds).
Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(ROOT / "e2ebench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit("%s seed %d failed with status %d" %
                         (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    # The stream timings an untraced run prints on stderr only.
    for line in done.stderr.splitlines():
        if line.startswith("ungated: "):
            for name, value in json.loads(line[len("ungated: "):]).items():
                unit = "ops/s" if name == "ops_per_s" else "us"
                result["metrics"][name] = {"value": value, "unit": unit}
    return result, wall


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save", help="write every run's result to this JSON file")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.first_seed + i
            result, wall = run_once(w, seed, args.seconds, args.trace)
            results[w].append(result)
            sys.stderr.write("%-12s seed %3d  %5.1f s  failed %d/%d\n" %
                             (w, seed, wall, result["failed"], result["attempted"]))
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1))

    print("| workload | metric | unit | median | q1 | q3 | spread | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        runs = results[w]
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "OVER" if spread > bound else ("WIDE" if spread > bound / 3 else "ok")
            elif bound is None and not args.trace:
                flag = "ungated, %s a tenth" % ("within" if spread <= 0.1 else "over")
            print("| %s | %s | %s | %.6g | %.6g | %.6g | %.4f | %s | %s |" %
                  (w, name, first["unit"], median, q1, q3, spread,
                   "" if bound is None else bound, flag))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("| %s | failed share | | %s | | | | | %s |" %
              (w, ", ".join("%.6g" % s for s in sorted(shares)),
               "ok" if len(shares) == 1 else "DIFFERS"))


if __name__ == "__main__":
    main()
