#!/usr/bin/env python3
"""Steadiness and agreement tool for the repository benchmark.

Run from the repository root.

  python3 perfbench/steady.py run --workload W [--runs N] [--seed S]
      [--seconds T] [--trace 0|1] [--out FILE]
    Runs perfbench/run.py N times (default 10) on seeds S, S+1, ...
    (default 1) and prints, per metric, the median, the quartiles and
    the spread (q3 - q1) / median next to the metric's bound in
    BENCHMARK.json.  Quartiles are statistics.quantiles(values, n=4).
    --out saves every run's result line as JSON for `compare`.

  python3 perfbench/steady.py compare BASE.json NEW.json
    Compares two saved sets of runs of one workload: for every
    end-to-end metric, whether NEW's median is worse than BASE's by
    more than the bound, and whether each set's spread (setup_s
    excepted) stays within the bound.  Exits 1 when any check fails.

  python3 perfbench/steady.py determinism --workload W [--seed S]
    Runs the traced workload twice on one seed; the second run compares
    its per-operation counters with the first (see README.md) and this
    command exits 1 unless both runs report correct and deterministic.

  python3 perfbench/steady.py heldout --workload W [--runs N]
    `run` on the held-out seeds named in benchmark_notes.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def bounds(benchmark):
    return {m["name"]: m for m in benchmark["end_to_end"]}


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns its result line as a dict."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["workload"] = workload
    return result


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of numbers."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def summarize(results, benchmark):
    """Prints one line per metric; returns False when a spread exceeds
    its bound (setup_s excepted)."""
    limits = bounds(benchmark)
    ok = True
    correct = all(r["correct"] for r in results)
    print(f"{len(results)} runs, all correct: {correct}")
    names = list(results[0]["metrics"])
    print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median, q1, q3, rel = spread(values)
        bound = limits.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            if rel > bound and name != "setup_s":
                flag = "  OVER BOUND"
                ok = False
            elif rel > bound / 3:
                flag = "  over a third of the bound"
        bound_text = f"{bound:6.3f}" if bound is not None else "     -"
        print(f"  {name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{rel:8.4f} {bound_text}{flag}")
    return ok and correct


def command_run(args, seeds):
    benchmark = load_benchmark()
    seconds = args.seconds or benchmark["run_seconds"]
    results = []
    for seed in seeds:
        result = run_once(args.workload, seed, seconds, args.trace)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        results.append(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(results, f, indent=1)
    return 0 if summarize(results, benchmark) else 1


def command_compare(args):
    benchmark = load_benchmark()
    limits = bounds(benchmark)
    with open(args.base, encoding="utf-8") as f:
        base = json.load(f)
    with open(args.new, encoding="utf-8") as f:
        new = json.load(f)
    ok = True
    print(f"  {'metric':20} {'base':>12} {'new':>12} {'worse by':>9} "
          f"{'bound':>6}")
    for name, metric in limits.items():
        a = statistics.median(r["metrics"][name]["value"] for r in base)
        b = statistics.median(r["metrics"][name]["value"] for r in new)
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        spreads = [spread([r["metrics"][name]["value"] for r in runs])[3]
                   for runs in (base, new)]
        verdict = "ok"
        if worse > metric["bound"]:
            verdict, ok = "WORSE", False
        elif name != "setup_s" and max(spreads) > metric["bound"]:
            verdict, ok = "SPREAD", False
        print(f"  {name:20} {a:12.6g} {b:12.6g} {worse:9.4f} "
              f"{metric['bound']:6.3f}  {verdict}")
    return 0 if ok else 1


def command_determinism(args):
    benchmark = load_benchmark()
    seconds = args.seconds or benchmark["run_seconds"]
    for attempt in (1, 2):
        result = run_once(args.workload, args.seed, seconds, 1)
        deterministic = result["metrics"]["counters.deterministic"]["value"]
        print(f"traced run {attempt}: correct={result['correct']} "
              f"deterministic={deterministic == 1}")
        if not result["correct"] or deterministic != 1:
            return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "heldout"):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=int, default=0)
        p.add_argument("--trace", type=int, default=0, choices=(0, 1))
        p.add_argument("--out")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p = sub.add_parser("determinism")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0)
    args = parser.parse_args()

    if args.command == "run":
        return command_run(args, range(args.seed, args.seed + args.runs))
    if args.command == "heldout":
        with open(os.path.join(HERE, "benchmark_notes.json"),
                  encoding="utf-8") as f:
            first = json.load(f)["held_out_seed"]
        return command_run(args, range(first, first + args.runs))
    if args.command == "compare":
        return command_compare(args)
    return command_determinism(args)


if __name__ == "__main__":
    sys.exit(main())
