"""Seeded job lists for the three workloads.

A run is a whole number of rounds.  Every round of a workload has the same
make-up: the same job kinds in the same numbers, with the parameters that
set a job's cost (truncation N, sequence, exponent, contour radius) on a
fixed schedule.  The seed picks the rest (plateau heights and radii,
constants, point masses, epsilons, test functions) from the finite
lattices below, and it shuffles the order of jobs inside a round.
``inputs_check.py`` runs every job a seed can pick once, so every lattice
point is known to certify and pass its checks.  So runs with different seeds do different but
equally expensive work, and runs with the same seed and length do the same
work.

The number of rounds depends on the run length alone: enough rounds to
fill ``seconds`` at the nominal round cost below, and never fewer than
give 40 jobs, so the tail percentile has ten jobs beyond it.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import oracles

CONSTANTS = (0.25, 0.4, 0.5, 0.8, 1.25, 2.0, 2.5, 4.0)
LOCATE_REAL = [(a, x) for a in range(12, 31) for x in (0.25, 0.28, 0.31, 0.34)]
LOCATE_PAIR = [(a, x) for a in range(12, 31) for x in (0.6, 0.65, 0.7, 0.75, 0.8)]
POINT_MASSES = [float(f"{1.5 * (100.0 / 1.5) ** (i / 23):.4g}") for i in range(24)]
SWEEP_A = list(range(2, 35))
SWEEP_X = "0.05:0.95:0.05"
SWEEP_X_VALUES = [round(0.05 * i, 2) for i in range(1, 20)]
MOLLIFY = [(a, x, w) for a in range(12, 31, 2)
           for x in (0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75)
           for w in (0.02, 0.03, 0.04)]
DIAG_A = (2, 4, 7, 11, 16, 22, 30)
DIAG_X = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
LP_N = (20, 30, 40, 50, 60)
SCHUR_EPS = (-0.9, -0.7, -0.5, -0.3, -0.1)
ROUCHE_EPS = (0.005, 0.0075, 0.01, 0.015, 0.02, 0.03)
SPLIT_P = (1.5, 2.0, 3.0)
# cubic test functions f of the split witness, highest power first
SPLIT_CUBICS = ([1.0, -0.5j, 0.25, 1.0], [0.3 + 0.7j, -0.8, 0.1 - 0.4j, 0.6j],
                [-0.9 + 0.2j, 0.5 - 0.5j, 0.75, -0.3 + 0.9j], [0.05, 0.4 + 0.4j, -0.6j, 1.0 - 1.0j])

# seconds one round took on 2 cores when the benchmark was written
NOMINAL_ROUND_S = {"zeros-locate": 8.6, "count-sweep": 2.1, "diagnostics": 3.6}
MIN_JOBS = 40


@dataclass
class Job:
    kind: str
    argv: list | None = None            # CLI arguments, without --out
    split: dict | None = None           # cs_split_witness parameters
    expect: dict = field(default_factory=dict)


def _step(a, x):
    return ["--step", f"{a:g},{x:g}"], oracles.plateau_spec(float(a), float(x))


def _const(v):
    return ["--weight", f"constant:{v:g}"], {"type": "constant", "value": float(v)}


def locate_job(args: list, spec: dict) -> Job:
    kind = "find-zeros:point-mass" if spec["type"] == "dirac" else "find-zeros:plateau"
    return Job(kind, ["find-zeros", *args, "--rho", "0.99"],
               expect={"spec": spec, "rho": 0.99, "locate": True})


def count_job(kind: str, args: list, spec: dict) -> Job:
    return Job(kind, ["find-zeros", *args, "--rho", "0.99", "--no-locate"],
               expect={"spec": spec, "rho": 0.99, "locate": False})


def sweep_job(a: int, rho: float) -> Job:
    return Job("sweep", ["sweep", "--A", f"{a}:{a}:1", "--x", SWEEP_X, "--rho", f"{rho:g}"],
               expect={"A": float(a), "rho": rho})


def lp_job(weight, n: int) -> Job:
    return Job("lp-probe", ["lp-probe", *weight[0], "-N", str(n), "--radial", "100",
                            "--p", "1.5,2,3,4"], expect={"N": n})


def schur_job(weight, sequence: str, eps: float) -> Job:
    args, spec = weight
    return Job("schur", ["schur", *args, "--sequence", sequence, "--eps", f"{eps:g}"],
               expect={"spec": spec, "sequence": sequence, "eps": eps, "N": 400})


def coeff_job(weight, n: int, scaled: bool) -> Job:
    args, spec = weight
    return Job("coeff-check", ["coeff-check", *args, "-N", str(n),
                               *(["--scaled-units"] if scaled else [])],
               expect={"spec": spec, "N": n, "factor": 2 * math.pi if scaled else 1.0})


def rouche_job(weight, eps: float | None, scaled: bool) -> Job:
    args, spec = weight
    return Job("rouche", ["rouche", *args, *(["--eps", f"{eps:g}"] if eps else []),
                          *(["--scaled-units"] if scaled else [])],
               expect={"spec": spec, "factor": 2 * math.pi if scaled else 1.0})


def split_job(weight, p: float, coeffs: list) -> Job:
    return Job("split", split={"spec": weight[1], "p": p, "coeffs": coeffs})


class Builder:
    """Makes the jobs of one run and the weight files they read."""

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self._files: dict = {}

    def weight_file(self, spec: dict) -> list:
        """CLI arguments naming a weight file that holds spec."""
        key = json.dumps(spec)
        if key not in self._files:
            path = os.path.join(self.workdir, f"weight-{len(self._files)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(key)
            self._files[key] = path
        return ["--weight", self._files[key]]

    def point_mass(self, k: float):
        spec = {"type": "dirac", "mass": k}
        return self.weight_file(spec), spec

    def smoothed(self, a: int, x: float, width: float):
        from bergkern.weights import StepWeight, weight_to_json
        from bergkern.zeros import mollify_weight
        spec = weight_to_json(mollify_weight(StepWeight.from_plateau(a, x), width))
        return self.weight_file(spec), spec

    def plateau(self):
        return _step(self.rng.choice(DIAG_A), self.rng.choice(DIAG_X))

    def locate_round(self, r: int) -> list:
        rng = self.rng
        weights = [_step(a, x) for a, x in rng.sample(LOCATE_REAL, 4) + rng.sample(LOCATE_PAIR, 3)]
        weights += [self.point_mass(k) for k in rng.sample(POINT_MASSES, 3)]
        return [locate_job(*w) for w in weights]

    def sweep_round(self, r: int) -> list:
        rng = self.rng
        rhos = [0.95 if r % 2 == 0 else 0.99, 0.95, 0.95, 0.95, 0.99, 0.99]
        jobs = [sweep_job(a, rho) for a, rho in zip([1] + rng.sample(SWEEP_A, 5), rhos)]
        jobs += [count_job("find-zeros:smoothed", *self.smoothed(*p)) for p in rng.sample(MOLLIFY, 5)]
        jobs += [count_job("find-zeros:constant", *_const(v)) for v in rng.sample(CONSTANTS, 2)]
        return jobs

    def diagnostics_round(self, r: int) -> list:
        # Order statistics fall inside blocks of like jobs: below the five
        # split witnesses (about 0.27 s) sit five shorter jobs, so the median
        # is the second-lowest witness of a round; above them sit the plateau
        # lp-probes at N = 40, 50, 60, so job_tail_s is one at N = 50 when a run has seven rounds.
        rng = self.rng
        jobs = [lp_job(self.plateau(), n) for n in LP_N[2:]]
        jobs.append(lp_job(_const(rng.choice(CONSTANTS)), LP_N[r % 2]))
        schur = ((("diff", self.plateau()), ("ones", self.plateau())) if r % 2 == 0 else
                 (("diff", _const(rng.choice(CONSTANTS))), ("diff", self.plateau())))
        jobs += [schur_job(weight, sequence, rng.choice(SCHUR_EPS)) for sequence, weight in schur]
        jobs.append(coeff_job(self.plateau(), (100, 300, 500)[r % 3], r % 2 == 1))
        jobs.append(rouche_job(self.plateau(), rng.choice(ROUCHE_EPS), r % 2 == 0))
        for i in range(5):
            jobs.append(split_job(self.plateau(), SPLIT_P[(r + i) % len(SPLIT_P)],
                                  rng.choice(SPLIT_CUBICS)))
        return jobs


ROUNDS = {"zeros-locate": Builder.locate_round, "count-sweep": Builder.sweep_round,
          "diagnostics": Builder.diagnostics_round}


def build(workload: str, seed: int, seconds: float, workdir: str) -> list:
    """The run's job list: whole rounds, each shuffled."""
    builder = Builder(seed, workdir)
    make = ROUNDS[workload]
    first = make(builder, 0)
    rounds = max(math.ceil(MIN_JOBS / len(first)),
                 round(seconds / NOMINAL_ROUND_S[workload]), 1)
    jobs = []
    for r in range(rounds):
        batch = first if r == 0 else make(builder, r)
        builder.rng.shuffle(batch)
        jobs.extend(batch)
    return jobs
