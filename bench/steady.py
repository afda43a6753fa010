#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs, apart in time.

    python3 bench/steady.py --runs 10 --gap 60           # ~40 min on two cores
    python3 bench/steady.py --traced                     # count repeatability only

Runs the command of BENCHMARK.json on every workload, ``--runs`` seeds per
set, workloads interleaved, then waits ``--gap`` seconds and runs a second
set on fresh seeds.  For each set and end-to-end metric it prints the
median, the quartiles and the spread (quartile distance over median), then
the drift of the second median against the first (positive = worse).  The
suggested bound is three times the larger of the within-set spread and
the set-to-set drift, rounded up to 0.01 and capped at 0.25: the drift
between sets, not back-to-back noise, is what a later comparison meets.
It also compares the share of failed jobs between the sets.  Raw results go
to ``bench/out/steady-<stamp>.json``.

``--traced`` instead runs each workload traced twice on one seed and
reports which per-layer counts differ between the two runs (none should)
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    # exit 1 comes with a result whose jobs did not all pass; report it, do not stop
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(spec: dict, results: dict) -> bool:
    """Print the tables; True when every spread and drift is within bound/3."""
    steady = True
    for w in spec["workloads"]:
        name = w["name"]
        sets = results["sets"]
        print(f"\n{name}")
        shares = [sum(r["failed"] for r in s[name]) / sum(r["attempted"] for r in s[name])
                  for s in sets]
        correct = all(r["correct"] for s in sets for r in s[name])
        print(f"  failed share per set: {shares}; all correct: {correct}")
        steady &= correct and len(set(shares)) == 1
        print(f"  {'metric':12s} {'set':>3s} {'q1':>10s} {'median':>10s} {'q3':>10s} "
              f"{'spread':>7s} {'drift':>7s} {'bound':>6s} {'suggest':>7s}")
        for m in spec["end_to_end"]:
            per_set = [[r["metrics"][m["name"]]["value"] for r in s[name]] for s in sets]
            stats = [quartiles(v) for v in per_set]
            spreads = [(q3 - q1) / med for q1, med, q3 in stats]
            drift = (stats[1][1] - stats[0][1]) / stats[0][1]
            drift = drift if m["better"] == "lower" else -drift
            worst = max(max(spreads) if m["name"] != "setup_s" else 0.0, abs(drift))
            suggest = min(0.25, math.ceil(300 * worst) / 100)
            for k, (q1, med, q3) in enumerate(stats):
                tail = f"{drift:7.3f} {m['bound']:6.2f} {suggest:7.2f}" if k == 1 else ""
                print(f"  {m['name']:12s} {k + 1:3d} {q1:10.4f} {med:10.4f} {q3:10.4f} "
                      f"{spreads[k]:7.3f} {tail}")
            if m["name"] != "setup_s":
                steady &= max(spreads) < m["bound"] / 3
            steady &= drift < m["bound"] / 3
    return steady


def traced(spec: dict, seconds: int) -> bool:
    same = True
    for w in spec["workloads"]:
        a, b = (run_once(spec, w["name"], 1, seconds, 1) for _ in range(2))
        counts = [k for k, v in a["metrics"].items() if v["unit"] in ("count", "ratio")]
        differ = [k for k in counts if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        over = [r["metrics"]["trace.overhead_s"]["value"] for r in (a, b)]
        print(f"{w['name']}: {len(counts)} count metrics, differing: {differ or 'none'}; "
              f"trace overhead {over[0]:.3f} s, {over[1]:.3f} s")
        same &= not differ
    return same


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--gap", type=float, default=60.0, help="seconds between the two sets")
    p.add_argument("--traced", action="store_true", help="check per-layer count repeatability")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    if args.traced:
        return 0 if traced(spec, seconds) else 1
    results = {"seconds": seconds, "sets": []}
    for k in range(2):
        if k:
            time.sleep(args.gap)
        runs: dict = {}
        for i in range(args.runs):
            for w in spec["workloads"]:
                seed = 1000 * (k + 1) + i
                runs.setdefault(w["name"], []).append(run_once(spec, w["name"], seed, seconds, 0))
                print(f"set {k + 1} run {i + 1} {w['name']} done", file=sys.stderr)
        results["sets"].append(runs)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    print(f"raw results: {path}")
    steady = report(spec, results)
    print("\nsteady: every spread and drift under a third of its bound" if steady
          else "\nnot steady: see the rows above")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
