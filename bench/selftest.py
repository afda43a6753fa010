#!/usr/bin/env python3
"""Show that every output check rejects a perturbed output.

    python3 bench/selftest.py

Runs one real job of each kind, confirms its check passes, then feeds the
check altered copies of the output (a zero moved by 1e-3, a count off by
one, a ratio off by 1e-6, ...) and confirms each is rejected.  Prints one
line per case and exits 1 if a check passes a perturbed output or fails a
real one.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import sys

import run  # sets the thread pins before numpy loads
import workloads as W


def _json(fn):
    def edit(text):
        out = json.loads(text)
        fn(out)
        return json.dumps(out)
    return edit


def _row(match: dict, column, fn):
    """Edit one CSV cell: the first data row whose cells include match."""
    def edit(text):
        comment, body = text.split("\n", 1)
        rows = list(csv.reader(io.StringIO(body)))
        header = rows[0]
        for cells in rows[1:]:
            if all(cells[header.index(k)] == v for k, v in match.items()):
                cells[header.index(column)] = fn(cells[header.index(column)])
                buf = io.StringIO()
                csv.writer(buf, lineterminator="\n").writerows(rows)
                return comment + "\n" + buf.getvalue()
        raise ValueError(f"no row matches {match!r}")
    return edit


def _comment(old, new):
    def edit(text):
        assert old in text.split("\n")[0]
        return text.replace(old, new, 1)
    return edit


def _move_zero(out):
    out["located_zeros"][0]["re"] += 1e-3


def _scale(key, factor):
    def fn(out):
        out[key] *= factor
    return fn


def _bump(key, delta):
    def fn(out):
        out[key] += delta
    return fn


def _drop_zero(out):
    out["located_zeros"].pop()


def cases(builder):
    plateau = W._step(18, 0.25)
    pair = W._step(20, 0.7)
    return [
        (W.locate_job(*plateau), [
            ("zero moved by 1e-3", _json(_move_zero)),
            ("count off by one", _json(_bump("zero_count", 1))),
            ("tail bound halved", _json(_scale("tail_bound", 0.5))),
        ]),
        (W.locate_job(*pair), [
            ("one of the pair dropped", _json(_drop_zero)),
            ("zero moved by 1e-3", _json(_move_zero)),
        ]),
        (W.locate_job(*builder.point_mass(10.0)), [
            ("zero moved by 1e-3", _json(_move_zero)),
        ]),
        (W.count_job("find-zeros:smoothed", *builder.smoothed(18, 0.3, 0.03)), [
            ("count off by one", _json(_bump("zero_count", -1))),
        ]),
        (W.count_job("find-zeros:constant", *W._const(2.0)), [
            ("count off by one", _json(_bump("zero_count", 1))),
        ]),
        (W.sweep_job(18, 0.99), [
            ("cell count off by one", _row({"x": "0.5"}, "zero_count", lambda c: str(int(c) + 1))),
        ]),
        (W.sweep_job(1, 0.95), [
            ("A=1 cell counts a zero", _row({"x": "0.3"}, "zero_count", lambda c: "1")),
        ]),
        (W.lp_job(plateau, 40), [
            ("z^3 ratio off by 1e-6", _row({"function": "z^3"}, "ratio", lambda c: repr(float(c) * (1 + 1e-6)))),
            ("conj(z)^2 ratio 1e-6", _row({"function": "conj(z)^2"}, "ratio", lambda c: "1e-06")),
            ("p=2 ratio above 1", _row({"p": "2", "function": "bump(0.3,0.1)"}, "ratio", lambda c: "1.01")),
        ]),
        (W.schur_job(plateau, "diff", -0.5), [
            ("ratio off by 1e-6", _row({"radius": "0.5"}, "ratio", lambda c: repr(float(c) * (1 + 1e-6)))),
            ("sup|beta| changed", _comment("sup|beta|=", "sup|beta|=1")),
        ]),
        (W.schur_job(plateau, "ones", -0.25), [
            ("ratio above the bound", _row({"radius": "0.9"}, "ratio", lambda c: "100.0")),
        ]),
        (W.coeff_job(plateau, 300, False), [
            ("first-difference limit off by 1e-6", _json(_scale("first_difference_limit", 1 + 1e-6))),
            ("last first difference off by 1e-6", _json(_scale("last_first_difference", 1 + 1e-6))),
            ("alpha_1 - alpha_0 off by 1e-6", _json(_bump("telescoped_value", 1e-6))),
        ]),
        (W.rouche_job(plateau, 0.01, True), [
            ("linear root off by 1e-6", _json(_bump("linear_root", 1e-6))),
            ("min_L off by 1e-6", _json(_scale("min_L", 1 + 1e-6))),
        ]),
        (W.split_job(plateau, 2.0, [1.0, 0.5j, -0.25, 1.0]), [
            ("lhs above rhs", _json(lambda out: out.update(lhs=out["rhs"] * 1.01))),
        ]),
    ]


def main() -> int:
    sys.path.insert(0, run.SRC)
    os.makedirs(run.OUT, exist_ok=True)
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    bad = 0
    try:
        for i, (job, perturbations) in enumerate(cases(W.Builder(0, workdir))):
            path = os.path.join(workdir, f"case{i}.out")
            rc = run.run_job(job, path)
            problems = [f"exit {rc}"] if rc != 0 else run.check_job(job, path)
            print(f"{job.kind:24s} {'real output':36s} {'passes' if not problems else problems}")
            bad += bool(problems)
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            for name, edit in perturbations:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(edit(text))
                problems = run.check_job(job, path)
                print(f"{job.kind:24s} {name:36s} {'rejected' if problems else 'PASSED'}")
                bad += not problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("all perturbations rejected" if not bad else f"{bad} case(s) wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
