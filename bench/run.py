#!/usr/bin/env python3
"""Benchmark command: one workload, one closed loop, checked outputs.

    python3 bench/run.py --workload zeros-locate --seed 1 --seconds 30 --trace 0

Runs the seeded job list of the workload one job at a time in this process.
Each job is a call to ``bergkern.cli.main`` with its output written to a
temporary directory under ``bench/out/`` (or, for the split witness, a call
to ``bergkern.projector.cs_split_witness``).  After the timed loop every
output is checked against the benchmark's own reference computations
(``oracles.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced second pass
with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import os
import sys

# One thread for BLAS/OpenMP, so the only extra threads are the sweep pool's.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BERGKERN_THREADS", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402

SETUP_REPEATS = 3
ROUCHE_CUTOFF = 400


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def run_split(params: dict, out: str) -> int:
    import numpy as np
    import bergkern.projector
    import bergkern.weights
    weight = bergkern.weights.weight_from_json(params["spec"])
    coeffs = np.array(params["coeffs"])
    res = bergkern.projector.cs_split_witness(weight, lambda z: np.polyval(coeffs, z), params["p"])
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"lhs": res.lhs, "rhs": res.rhs, "holds": res.holds}, fh)
    return 0


def run_job(job, out: str):
    """Exit code of the job, or the exception text when it raised."""
    import bergkern.cli
    try:
        if job.argv is not None:
            return bergkern.cli.main([*job.argv, "--out", out])
        return run_split(job.split, out)
    except Exception as exc:  # a crashing job is a failed job, never a crashed run
        return f"{type(exc).__name__}: {exc}"


def run_loop(jobs, outdir: str, tag: str, recorder=None):
    """Closed loop over the jobs; returns (per-job seconds, exit codes, loop wall seconds)."""
    times, exits = [], []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if recorder is not None:
            recorder.job = i
        t0 = time.perf_counter()
        rc = run_job(job, os.path.join(outdir, f"{tag}{i}.out"))
        times.append(time.perf_counter() - t0)
        exits.append(rc)
    return times, exits, time.perf_counter() - start


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the CLI.

    ``bergkern.cli`` loads the package, whose ``__init__`` imports every
    layer, so this is the same cold start for every workload.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bergkern.cli"], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# checking outputs
# ---------------------------------------------------------------------------

def read_csv(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        comment = fh.readline()
        rows = list(csv.DictReader(fh))
    return comment, rows


def check_job(job, path: str) -> list:
    import oracles
    e = job.expect
    kind = job.kind
    if kind.startswith("find-zeros"):
        with open(path, "r", encoding="utf-8") as fh:
            out = json.load(fh)
        return oracles.check_find_zeros(out, e["spec"], e["rho"], e["locate"])
    if kind == "sweep":
        from workloads import SWEEP_X_VALUES
        _, rows = read_csv(path)
        return oracles.check_sweep(rows, e["A"], SWEEP_X_VALUES, e["rho"])
    if kind == "lp-probe":
        _, rows = read_csv(path)
        return oracles.check_lp_probe([(r["p"], r["function"], r["ratio"]) for r in rows], e["N"])
    if kind == "schur":
        comment, rows = read_csv(path)
        header = dict(item.split("=", 1) for item in comment.lstrip("# ").strip().split("; ")
                      if "=" in item)
        return oracles.check_schur(header, [(r["radius"], r["ratio"]) for r in rows],
                                   e["spec"], e["sequence"], e["eps"], e["N"])
    with open(path, "r", encoding="utf-8") as fh:
        out = json.load(fh)
    if kind == "coeff-check":
        return oracles.check_coeff(out, e["spec"], e["N"], e["factor"])
    if kind == "rouche":
        return oracles.check_rouche(out, e["spec"], ROUCHE_CUTOFF, e["factor"])
    if kind == "split":
        return oracles.check_split(out)
    raise ValueError(f"no check for job kind {kind!r}")


def check_all(jobs, exits, outdir: str, tag: str):
    """Returns (per-job pass flags, problems).

    A job passes when it exited 0 and its output passed every check.
    """
    passed, problems = [], []
    for i, (job, rc) in enumerate(zip(jobs, exits)):
        what = f"job {i} {job.kind} {job.argv or job.split}"
        if rc != 0:
            bad = [f"exit {rc}"]
        else:
            try:
                bad = check_job(job, os.path.join(outdir, f"{tag}{i}.out"))
            except Exception as exc:  # malformed output or an undecided oracle: the job is wrong
                bad = [f"check could not run: {type(exc).__name__}: {exc}"]
        passed.append(not bad)
        problems.extend(f"{what}: {b}" for b in bad)
    return passed, problems


# ---------------------------------------------------------------------------

def tail_rank(n: int) -> int:
    """0-based rank of the highest order statistic with ten jobs beyond it."""
    return max(0, n - 11)


def end_to_end(times, wall, setup_s, rss_mb) -> dict:
    """The end-to-end metrics over the times of the jobs that passed."""
    ordered = sorted(times)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "jobs_per_s": {"value": len(times) / wall, "unit": "1/s"},
        "job_p50_s": {"value": statistics.median(times), "unit": "s"},
        "job_tail_s": {"value": ordered[tail_rank(len(ordered))], "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bergkern", "cli.py")):
        print(f"bench: no bergkern sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bergkern.cli  # noqa: F401  (fail before any work when the package is broken)
    from spans import Recorder

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_s = None if args.trace else measure_setup()
        jobs = workloads.build(args.workload, args.seed, args.seconds, workdir)
        warm = {}
        for job in jobs:
            warm.setdefault(job.kind, job)
        for i, job in enumerate(warm.values()):
            run_job(job, os.path.join(workdir, f"warm{i}.out"))

        times, exits, wall = run_loop(jobs, workdir, "job")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = len(jobs)
        passed, problems = check_all(jobs, exits, workdir, "job")
        if not args.trace:
            # failed jobs are left out of the timings: a job that stops early is not fast
            ok_times = [t for t, ok in zip(times, passed) if ok]
            metrics = end_to_end(ok_times, wall, setup_s, rss_mb) if ok_times else {}
        else:
            recorder = Recorder()
            uninstall = recorder.install()
            try:
                t_times, t_exits, t_wall = run_loop(jobs, workdir, "traced", recorder)
            finally:
                uninstall()
            attempted += len(jobs)
            t_passed, t_problems = check_all(jobs, t_exits, workdir, "traced")
            for i in range(len(jobs)):
                a, b = (os.path.join(workdir, f"{t}{i}.out") for t in ("job", "traced"))
                if passed[i] and t_passed[i] and not _same_bytes(a, b):
                    t_passed[i] = False
                    t_problems.append(f"job {i} {jobs[i].kind}: traced output differs")
            passed += t_passed
            problems += t_problems
            layer = recorder.layer_metrics()
            layer["trace.overhead_s"] = t_wall - wall
            with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
                names = json.load(fh)["per_layer"]
            metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in names}
            recorder.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a job fails on a nonzero exit, an exception or a failed check; none may fail
    failed = passed.count(False)
    correct = failed == 0
    for p in problems[:30]:
        print(f"bench: {p}", file=sys.stderr)
    n = len(times)
    print(f"workload {args.workload} seed {args.seed}: {n} jobs in {wall:.2f} s; "
          f"tail = p{100.0 * (tail_rank(n) + 1) / n:.1f} (job {tail_rank(n) + 1} of {n})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


if __name__ == "__main__":
    sys.exit(main())
