#!/usr/bin/env python3
"""Run every input a seed can pick once, and check it.

    python3 bench/inputs_check.py

The workloads draw their parameters from the finite lattices in
``workloads.py``.  A benchmark run may not have a job that fails on some
seeds only, so this enumerates every job any round of any seed can hold
(each lattice point with each scheduled cost parameter) and runs the
output checks on all of them.  Prints each failure and exits 1 if there is
one.  Takes about ten minutes on two cores.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run  # sets the thread pins before numpy loads
import workloads as W


def lattice_jobs(workload: str, builder: W.Builder) -> list:
    if workload == "zeros-locate":
        jobs = [W.locate_job(*W._step(a, x)) for a, x in W.LOCATE_REAL + W.LOCATE_PAIR]
        return jobs + [W.locate_job(*builder.point_mass(k)) for k in W.POINT_MASSES]
    if workload == "count-sweep":
        jobs = [W.sweep_job(a, rho) for a in [1] + W.SWEEP_A for rho in (0.95, 0.99)]
        jobs += [W.count_job("find-zeros:smoothed", *builder.smoothed(*p)) for p in W.MOLLIFY]
        return jobs + [W.count_job("find-zeros:constant", *W._const(v)) for v in W.CONSTANTS]
    jobs = []
    for a in W.DIAG_A:
        for x in W.DIAG_X:
            weight = W._step(a, x)
            jobs += [W.lp_job(weight, n) for n in W.LP_N[2:]]
            jobs += [W.schur_job(weight, seq, eps) for seq in ("diff", "ones") for eps in W.SCHUR_EPS]
            for scaled in (False, True):
                jobs += [W.coeff_job(weight, n, scaled) for n in (100, 300, 500)]
                jobs += [W.rouche_job(weight, eps, scaled) for eps in W.ROUCHE_EPS]
            jobs += [W.split_job(weight, p, f) for p in W.SPLIT_P for f in W.SPLIT_CUBICS]
    for v in W.CONSTANTS:
        jobs += [W.lp_job(W._const(v), n) for n in W.LP_N[:2]]
        jobs += [W.schur_job(W._const(v), "diff", eps) for eps in W.SCHUR_EPS]
    return jobs


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    sys.path.insert(0, run.SRC)
    os.makedirs(run.OUT, exist_ok=True)
    workdir = os.path.join(run.OUT, f"inputs-{os.getpid()}")
    os.makedirs(workdir)
    bad = 0
    try:
        for workload in sorted(W.ROUNDS):
            jobs = lattice_jobs(workload, W.Builder(0, workdir))
            _, exits, wall = run.run_loop(jobs, workdir, workload)
            passed, problems = run.check_all(jobs, exits, workdir, workload)
            failed = passed.count(False)
            for line in problems:
                print(f"{workload}: {line}")
            print(f"{workload}: {len(jobs)} inputs, {failed} failed, {wall:.1f} s")
            bad += failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
