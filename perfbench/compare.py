#!/usr/bin/env python3
"""Steadiness and parent-vs-change comparison for the perfbench results.

    # run one workload K times (seeds 1..K) and report each metric's spread
    python3 perfbench/compare.py steady --workload cold-stream --runs 10 \
        [--seed0 1] [--trace 0] [--out results.json]

    # compare two result sets of the same workload (parent vs change)
    python3 perfbench/compare.py diff PARENT.json CHANGE.json

`steady` prints, per metric, the median and quartiles of the K values
(statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median against the
metric's bound in BENCHMARK.json; the target is a spread below a third of
the bound. setup_s's spread is reported but not held to its bound.

`diff` applies the paired rule: results are paired by position (run i of
the parent with run i of the change, same seed). A gain is claimed only if
the change wins at least nine tenths of the pairs (ties count for neither)
and the medians differ by more than the parent's own quartile distance. A
regression is a change median worse than the parent's by more than the
bound. When the parent's spread is wider than the bound the metric is
unresolved, unless every change run beats every parent run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(trace):
    s = spec()
    return {m["name"]: m for m in s["per_layer" if trace else "end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    last = p.stdout.rstrip("\n").split("\n")[-1] if p.stdout else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"run failed (exit {p.returncode}) for seed {seed}")
    result["seed"] = seed
    result["exit"] = p.returncode
    return result


def cmd_steady(args):
    seconds = args.seconds or spec()["run_seconds"]
    runs = []
    for k in range(args.runs):
        seed = args.seed0 + k
        r = run_once(args.workload, seed, seconds, args.trace)
        runs.append(r)
        print(f"seed {seed}: exit {r['exit']} correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs},
                                             indent=1))
    report_steady(args.workload, runs, metric_specs(args.trace))
    return 0 if all(r["exit"] == 0 for r in runs) else 1


def report_steady(workload, runs, specs):
    print(f"\n{workload}: {len(runs)} runs")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, m in specs.items():
        vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        q1, q2, q3 = quartiles(vals)
        sp = spread(vals)
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "(not held to bound)"
        elif sp <= bound / 3:
            verdict = "steady"
        elif sp <= bound:
            verdict = "within bound, above bound/3"
        else:
            verdict = "TOO NOISY"
        b = f"{bound:.3f}" if bound is not None else "-"
        print(f"{name:34} {q2:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} {b:>6}  {verdict}")


def cmd_diff(args):
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    if parent["workload"] != change["workload"]:
        raise SystemExit("result sets are for different workloads")
    specs = {**metric_specs(False), **metric_specs(True)}
    pr, cr = parent["runs"], change["runs"]
    n = min(len(pr), len(cr))
    print(f"{parent['workload']}: {n} pairs; failed parent={sum(r['failed'] for r in pr)} "
          f"change={sum(r['failed'] for r in cr)}")
    print(f"{'metric':34} {'parent med':>12} {'change med':>12} {'wins':>6} {'delta':>8}  verdict")
    worst = 0
    for name, m in specs.items():
        if name not in pr[0]["metrics"]:
            continue
        p = [r["metrics"][name]["value"] for r in pr[:n]]
        c = [r["metrics"][name]["value"] for r in cr[:n]]
        higher = m["better"] == "higher"
        better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
        wins = sum(1 for a, b in zip(c, p) if better(a, b))
        pq1, pmed, pq3 = quartiles(p)
        cmed = statistics.median(c)
        delta = (cmed - pmed) / abs(pmed) if pmed else 0.0
        worse_by = -delta if higher else delta
        bound = m.get("bound")
        verdict = ""
        if wins >= 0.9 * n and abs(cmed - pmed) > (pq3 - pq1):
            verdict = "gain"
        if bound is not None:
            all_better = all(better(a, b) for a in c for b in p)
            if spread(p) > bound and not all_better:
                verdict = "unresolved (parent spread > bound)"
            elif worse_by > bound:
                verdict = "REGRESSION"
                worst = 1
            elif not verdict:
                verdict = "no regression"
        print(f"{name:34} {pmed:12.6g} {cmed:12.6g} {wins:3d}/{n:<2d} {delta:+8.2%}  {verdict}")
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("steady", help="run one workload K times and report spreads")
    s.add_argument("--workload", required=True)
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seed0", type=int, default=1)
    s.add_argument("--seconds", type=float, default=0, help="default: run_seconds")
    s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s.add_argument("--out")
    d = sub.add_parser("diff", help="paired comparison of two steady --out files")
    d.add_argument("parent")
    d.add_argument("change")
    args = ap.parse_args()
    sys.exit(cmd_steady(args) if args.cmd == "steady" else cmd_diff(args))


if __name__ == "__main__":
    main()
