"""Span recorder for the traced run.

``install`` wraps a fixed list of public bergkern functions wherever a
bergkern module binds them (the defining module and every module that
imported the name), so calls made through any of those names are timed.
Each call records one span: name, start, end, parent span, job and thread,
plus counts taken from its arguments or result.  Spans stay in memory and
are written out when the run ends.  Timed runs never install the wrappers.

Spans on the threads of the program's ``sweep`` pool have no parent: the
pool does not carry the caller's span across threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


def _n_max_terms(args, kwargs, result):
    n_max = kwargs.get("n_max", args[1] if len(args) > 1 else None)
    return {"terms": int(n_max) + 1}


def _eval_terms(args, kwargs, result):
    return {"terms": int(result.n_used) + 1}


def _report_counts(args, kwargs, result):
    return {"samples": int(result.contour_samples), "located": len(result.located_zeros)}


# (defining module, function, counts taken from the call)
TARGETS = (
    ("weights", "alphas_closed_form", _n_max_terms),
    ("kernel", "eval_diagonal", _eval_terms),
    ("kernel", "diagonal_poly", None),
    ("zeros", "count_zeros_winding", _report_counts),
    ("zeros", "sweep_step_weights", None),
    ("zeros", "second_difference_bound", None),
    ("projector", "build_projector", None),
    ("projector", "project", None),
    ("projector", "monomial_inner", None),
    ("projector", "lp_norm", None),
    ("projector", "cs_split_witness", None),
    ("regularity", "schur_integral", None),
    ("cli", "main", None),
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    thread: int
    counts: dict = field(default_factory=dict)


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            self.spans.append(Span(sid, name, start, end, parent, self.job,
                                   threading.get_ident(), counts))
            return result
        return traced

    def install(self):
        """Wrap every target in every loaded bergkern module; returns an undo callable."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bergkern" or n.startswith("bergkern."))]
        for mod_name, fn_name, counter in TARGETS:
            original = getattr(sys.modules[f"bergkern.{mod_name}"], fn_name)
            traced = self.wrap(f"{mod_name}.{fn_name}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        undo.append((mod, attr, original))

        def uninstall():
            for mod, attr, original in undo:
                setattr(mod, attr, original)
        return uninstall

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    def layer_metrics(self) -> dict:
        """calls, busy_s, self_s and terms of every target, plus derived counts.

        ``busy_s`` sums span durations; ``self_s`` is busy time less the time
        of child spans; ``terms`` sums the series terms a call counted.
        """
        child_time: dict = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        metrics: dict = {}
        for mod_name, fn_name, _ in TARGETS:
            metrics.update({f"{mod_name}.{fn_name}.calls": 0, f"{mod_name}.{fn_name}.terms": 0,
                            f"{mod_name}.{fn_name}.busy_s": 0.0, f"{mod_name}.{fn_name}.self_s": 0.0})
        for s in self.spans:
            metrics[f"{s.name}.calls"] += 1
            metrics[f"{s.name}.terms"] += s.counts.get("terms", 0)
            metrics[f"{s.name}.busy_s"] += s.end - s.start
            metrics[f"{s.name}.self_s"] += (s.end - s.start) - child_time.get(s.sid, 0.0)

        by_id = {s.sid: s for s in self.spans}

        def under_winding(s):
            p = s.parent
            while p is not None:
                if by_id[p].name == "zeros.count_zeros_winding":
                    return True
                p = by_id[p].parent
            return False

        reports = [s for s in self.spans if s.name == "zeros.count_zeros_winding"]
        located = sum(s.counts["located"] for s in reports)
        newton = sum(1 for s in self.spans if s.name == "kernel.eval_diagonal" and under_winding(s))
        metrics["zeros.contour_samples"] = sum(s.counts["samples"] for s in reports)
        metrics["zeros.newton_evals_per_zero"] = newton / located if located else 0.0
        metrics["trace.spans"] = len(self.spans)
        return metrics
