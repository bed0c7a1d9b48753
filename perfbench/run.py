#!/usr/bin/env python3
"""rtlab benchmark: one workload per run, result as the last stdout line.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 14

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run and writes its spans to
`perfbench/.spans/<workload>-seed<seed>.json`.  `all` runs every workload,
each in its own interpreter, and prints one summary per workload.
"""

import os

# one process, one thread: pin BLAS pools before numpy loads (children
# inherit the environment)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
import warnings

import harness
import tracer

WORKLOADS = ("construct", "search", "sphere", "cli")


SPANS_DIR = os.path.join(harness.HERE, ".spans")


def load_rtlab():
    """Import rtlab from this checkout's src/.  The import is timed apart,
    in fresh interpreters (`harness.import_samples`)."""
    init = os.path.join(harness.SRC, "rtlab", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no rtlab sources at {init}")
    sys.path.insert(0, harness.SRC)
    import rtlab
    import rtlab.cli  # noqa: F401
    if os.path.dirname(os.path.abspath(rtlab.__file__)) != os.path.dirname(init):
        sys.exit(f"perfbench: imported rtlab from {rtlab.__file__}, not {init}")


def make_workload(name):
    if name == "construct":
        from wl_construct import Construct
        return Construct()
    if name == "search":
        from wl_search import Search
        return Search()
    if name == "sphere":
        from wl_sphere import Sphere
        return Sphere()
    from wl_cli import Cli
    return Cli()


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so the pace kernel
    and the work it scales share that CPU's contention."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args):
    pin_to_one_cpu()
    load_rtlab()
    # the partition diameter warning fires on every desk-scale partition
    warnings.filterwarnings("ignore", "estimated max domain diameter")
    os.makedirs(harness.WORK, exist_ok=True)
    try:
        wl = make_workload(args.workload)
        wl.prepare(args.seed)
        pace = harness.Pace()
        generate_s = harness.timed_setup(wl, args.seed, pace)
        trace = tracer.Tracer() if args.trace else None
        # import and cold-start samples on both sides of the rounds, so they
        # span the run rather than one moment of a shared machine
        sample = harness.cold_start_samples if args.trace else harness.import_samples
        samples = sample(pace)
        rounds = harness.run_rounds(wl, wl.rounds_for(args.seconds, args.trace), pace, trace)
        rss = wl.peak_rss_mb()
        samples += sample(pace)
        if args.trace:
            extra = dict(wl.layer_extra(),
                         **{"cli.cold_start_s": (harness.median(samples), "s")})
            metrics = harness.per_layer(wl, rounds, extra)
            write_spans(args, rounds)
        else:
            metrics = harness.end_to_end(rounds, samples, generate_s, rss)
        rep = harness.account(wl, rounds)
    finally:
        shutil.rmtree(harness.WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(harness.WORK))
        except OSError:
            pass                # another run still uses it
    for line in harness.summary_lines(args.workload, rep, metrics, rounds, pace):
        print(line, flush=True)
    result = {
        "correct": rep.correct,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_spans(args, rounds):
    """Spans of every traced round as [id, parent, name, start, end]."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "rounds": [r.spans for r in rounds if r.spans is not None]},
                  fh)


def run_all(args):
    """Every workload in its own interpreter; one summary each."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=14)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
