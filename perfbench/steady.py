#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly with different seeds and
print every end-to-end metric's median and quartiles next to its bound.

    python3 perfbench/steady.py                        # 10 runs per workload
    python3 perfbench/steady.py --workloads sphere --runs 5 --first-seed 11

Spread is (q3 - q1) / median with Python's statistics.quantiles(n=4).
A metric is `steady` when its spread is below a third of its bound,
`wide` when below the bound, and `TOO WIDE` otherwise.  The share of
failed operations must be identical in every run of a workload.  Exit
status 1 when a run fails, a check fails, a failure share differs, a
declared metric is missing or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    metrics = bench["end_to_end"]
    bad = False
    for wl in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run(wl, seed, args.seconds)
            results.append(res)
            print(f"{wl} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{m['name']}={res['metrics'][m['name']]['value']:.4g}"
                      for m in metrics if m["name"] in res["metrics"]),
                  flush=True)
        shares = {(r["failed"], r["attempted"]) for r in results}
        ratios = {f / a for f, a in shares}
        if len(ratios) != 1 or not all(r["correct"] for r in results):
            bad = True
            print(f"{wl}: FAILED SHARES DIFFER OR A CHECK FAILED: {sorted(shares)}")
        missing = [m["name"] for m in metrics
                   if any(m["name"] not in r["metrics"] for r in results)]
        extra = sorted(set(results[0]["metrics"]) - {m["name"] for m in metrics})
        if missing or extra:
            bad = True
            print(f"{wl}: metrics missing {missing}, not declared {extra}")
        print(f"{wl}: failed share {sorted(ratios)}")
        print(f"  {'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results
                    if m["name"] in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf") if q3 > q1 else 0.0
            bound = m["bound"]
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "wide"
            else:
                verdict = "TOO WIDE"
                bad = True
            print(f"  {m['name']:38s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound:>6} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
