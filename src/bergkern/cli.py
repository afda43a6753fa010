"""Command-line front end.

Scalar results are emitted as JSON, grids as CSV with a leading comment
line naming the units; every coefficient-valued output is in true units
(alpha_n = 1/(2*pi*int_0^1 r^(2n+1) lam(r) dr)) unless --scaled-units
multiplies the display by 2*pi.  Exit codes: 0 success, 1 computational
failure (uncertified or out-of-tolerance result), 2 usage error.
Randomized families are seeded, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .kernel import MAX_TERMS, KernelSeries, ToleranceError, kernel_eval
from .regularity import (CoefficientSequence, decompose_b, necessary_check, schur_bound_check,
                         sufficient_check)
from .weights import (ConstantWeight, StepWeight, WeightError, QuadratureError, load_weight,
                      moment_table)
from .zeros import (auto_rouche_epsilon, count_zeros_winding, dirac_zero_threshold,
                    inflation_check, rouche_certificate, second_difference_bound,
                    sweep_step_weights)

TRUE_UNITS = "true: alpha_n = 1/(2*pi*int_0^1 r^(2n+1) lam(r) dr)"
SCALED_UNITS = "scaled: true-unit coefficients multiplied by 2*pi for display"


def parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from None


def parse_range(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}") from None
    if step <= 0:
        raise argparse.ArgumentTypeError("range step must be positive")
    if stop < start:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: stop is below start")
    return np.arange(start, stop + 0.5 * step, step)


def _add_weight_args(p: argparse.ArgumentParser):
    p.add_argument("--weight", help="weight JSON file, or 'constant1' / 'constant:V'")
    p.add_argument("--step", help="shorthand for a plateau weight: A,x "
                                  "(value A on [0,x], 1 outside)")


def resolve_weight(args, parser: argparse.ArgumentParser):
    if getattr(args, "step", None):
        try:
            a_str, x_str = args.step.split(",")
            return StepWeight.from_plateau(float(a_str), float(x_str))
        except (ValueError, WeightError) as exc:
            parser.error(f"--step: {exc}")
    name = getattr(args, "weight", None)
    if not name:
        parser.error("one of --weight/--step is required")
    if name == "constant1":
        return ConstantWeight(1.0)
    if name.startswith("constant:"):
        try:
            return ConstantWeight(float(name.split(":", 1)[1]))
        except (ValueError, WeightError) as exc:
            parser.error(f"--weight: {exc}")
    try:
        return load_weight(name)
    except (OSError, ValueError, WeightError) as exc:
        parser.error(f"--weight: {exc}")


def emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit_csv(comment: str, header: list, rows: list, out: str | None) -> None:
    buf = io.StringIO()
    buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_kernel_eval(args, parser) -> int:
    weight = resolve_weight(args, parser)
    series = KernelSeries(weight)
    try:
        result = kernel_eval(series, args.z, args.w, tol=args.tol)
    except ToleranceError as exc:
        emit_json({"error": str(exc), "achieved_bound": exc.achieved,
                   "units": TRUE_UNITS}, args.out)
        return 1
    emit_json({"value_re": result.value.real, "value_im": result.value.imag,
               "err_bound": result.err_bound, "N_used": result.n_used,
               "units": TRUE_UNITS}, args.out)
    return 0


def _cmd_moments(args, parser) -> int:
    weight = resolve_weight(args, parser)
    if args.n_terms > MAX_TERMS:
        raise ValueError(f"-N {args.n_terms} exceeds MAX_TERMS = {MAX_TERMS}")
    try:
        table = moment_table(weight, args.n_terms, tol=args.tol, method=args.method)
    except QuadratureError as exc:
        print(f"error at index {exc.index}: {exc}", file=sys.stderr)
        return 1
    rows = [[e.n, repr(e.mu), repr(e.alpha), e.method, repr(e.err)] for e in table.entries]
    emit_csv(f"moments of {weight.label()}; mu_n = 2*pi*int_0^1 r^(2n+1) lam(r) dr; "
             f"alpha_n = 1/mu_n; units {TRUE_UNITS}",
             ["n", "mu", "alpha", "method", "err"], rows, args.out)
    return 0


def _cmd_find_zeros(args, parser) -> int:
    weight = resolve_weight(args, parser)
    report = count_zeros_winding(KernelSeries(weight), args.rho,
                                 n_terms=args.n_terms, locate=not args.no_locate)
    emit_json({
        "weight": report.weight_label, "rho": report.rho, "rho_used": report.rho_used,
        "zero_count": report.zero_count, "certified": report.certified,
        "n_terms": report.n_terms, "min_contour_modulus": report.min_contour_modulus,
        "tail_bound": report.tail, "contour_samples": report.contour_samples,
        "located_zeros": [{"re": z.location.real, "im": z.location.imag,
                           "residual": z.residual, "iterations": z.iterations}
                          for z in report.located_zeros],
        "diagnostics": report.diagnostics, "units": TRUE_UNITS,
    }, args.out)
    return 0 if report.certified else 1


def _cmd_rouche(args, parser) -> int:
    weight = resolve_weight(args, parser)
    series = KernelSeries(weight)
    factor = 2.0 * math.pi if args.scaled_units else 1.0
    units = SCALED_UNITS if args.scaled_units else TRUE_UNITS
    payload = {"units": units, "weight": weight.label()}
    if args.eps is None:
        best, table = auto_rouche_epsilon(series, n_cutoff=args.n_cutoff)
        payload["auto_eps_best"] = best
        payload["auto_eps_table"] = [
            {"eps": e, "holds": c.holds, "min_L": c.min_l * factor,
             "S_bound": c.s_bound * factor} for e, c in table]
        cert = table[-1][1] if best is None else dict(table)[best]
    else:
        cert = rouche_certificate(series, args.eps, n_cutoff=args.n_cutoff)
    payload.update({
        "epsilon": cert.epsilon, "ring_radius": cert.ring_radius,
        "linear_root": cert.linear_root,
        "min_L": cert.min_l * factor, "S_bound": cert.s_bound * factor,
        "holds": cert.holds,
        "second_differences_all_negative": cert.second_differences.all_negative,
        "sign_certified_exact": cert.second_differences.sign_certified,
        "telescoped_value": cert.second_differences.telescoped_value * factor,
    })
    emit_json(payload, args.out)
    return 0


def _cmd_sweep(args, parser) -> int:
    cells = sweep_step_weights(args.A, args.x, rho=args.rho)
    rows = [[f"{c.plateau:.10g}", f"{c.split:.10g}", f"{c.rho:.10g}",
             "" if c.zero_count is None else c.zero_count,
             c.certified, c.note] for c in cells]
    emit_csv(f"plateau-weight zero counts; units {TRUE_UNITS}",
             ["A", "x", "rho", "zero_count", "certified", "note"], rows, args.out)
    return 0 if all(c.certified for c in cells) else 1


def _cmd_dirac(args, parser) -> int:
    try:
        result = dirac_zero_threshold(args.k)
    except ValueError as exc:
        parser.error(str(exc))
    emit_json({"mass": result.mass, "threshold": result.threshold,
               "has_zero_in_disc": result.has_zero_in_disc,
               "zero_location": result.zero_location, "units": TRUE_UNITS}, args.out)
    return 0


def _cmd_inflate_check(args, parser) -> int:
    weight = resolve_weight(args, parser)
    try:
        chk = inflation_check(weight, args.z, args.t, tol=args.tol)
    except QuadratureError as exc:
        emit_json({"error": str(exc), "units": TRUE_UNITS}, args.out)
        return 1
    emit_json({"lhs_re": chk.lhs.real, "lhs_im": chk.lhs.imag,
               "rhs_re": chk.rhs.real, "rhs_im": chk.rhs.imag,
               "abs_diff": chk.abs_diff, "agree": chk.agree,
               "m_used": chk.m_used, "units": TRUE_UNITS}, args.out)
    return 0 if chk.agree else 1


def _sequence_for(args, weight) -> CoefficientSequence:
    seq = CoefficientSequence.from_weight(weight, args.n_terms)
    if args.sequence == "alpha":
        return seq
    if args.sequence == "ones":
        return CoefficientSequence(betas=np.ones(args.n_terms + 1), source="ones")
    # default: the bounded object the squared-kernel lemma applies to
    return CoefficientSequence(betas=decompose_b(seq).b, source="diff", weight=weight)


def _cmd_schur(args, parser) -> int:
    weight = resolve_weight(args, parser)
    seq = _sequence_for(args, weight)
    report = schur_bound_check(seq, args.eps, args.grid)
    rows = [[f"{r:.10g}", repr(v)] for r, v in zip(report.z_grid, report.ratios)]
    emit_csv(
        f"I(eps,z)/(1-|z|^2)^eps over radius grid; eps={args.eps}; sequence={seq.source}; "
        f"sup|beta|={report.sup_beta!r}; empirical_C={report.empirical_c!r}; "
        f"theoretical_C={report.theoretical_c!r}; passes={report.passes}; units {TRUE_UNITS}",
        ["radius", "ratio"], rows, args.out)
    return 0 if report.passes else 1


def _cmd_coeff_check(args, parser) -> int:
    weight = resolve_weight(args, parser)
    factor = 2.0 * math.pi if args.scaled_units else 1.0
    units = SCALED_UNITS if args.scaled_units else TRUE_UNITS
    seq = CoefficientSequence.from_weight(weight, args.n_terms)
    nec = necessary_check(seq)
    suf = sufficient_check(seq)
    dec = decompose_b(seq)
    series = KernelSeries(weight)
    sd = second_difference_bound(series, min(args.n_terms, 500) if args.n_terms >= 2 else 2)
    a = series.alphas(args.n_terms)
    payload = {
        "weight": weight.label(), "n_max": args.n_terms, "units": units,
        "limsup_estimate": nec.limsup_estimate * factor,
        "finite_trend": nec.finite_trend,
        "sup_diff": suf.sup_diff * factor,
        "bounded_verdict": suf.bounded_verdict,
        "window_low": None if suf.window_low is None else suf.window_low * factor,
        "window_high": None if suf.window_high is None else suf.window_high * factor,
        "within_window": suf.within_window,
        "sup_b": dec.sup_abs * factor,
        "reconstructs": dec.reconstructs,
        "second_difference_all_negative": sd.all_negative,
        "sign_certified_exact": sd.sign_certified,
        "telescoped_value": sd.telescoped_value * factor,
        "s_bound": sd.s_bound * factor,
        "first_difference_limit": sd.first_difference_limit * factor,
        "last_first_difference": float(a[-1] - a[-2]) * factor,
        "note": "necessary/sufficient checks are finite-range witnesses, not proofs",
    }
    emit_json(payload, args.out)
    return 0


def _cmd_lp_probe(args, parser) -> int:
    from .projector import default_family, function_from_spec, lp_probe
    weight = resolve_weight(args, parser)
    family = None
    if args.functions:
        try:
            with open(args.functions, "r", encoding="utf-8") as fh:
                specs = json.load(fh)
            if not isinstance(specs, list):
                raise ValueError("expected a JSON list of test-function specs")
            family = [(name, fn) for fn, name in map(function_from_spec, specs)]
        except (OSError, ValueError) as exc:
            parser.error(f"--functions: {exc}")
    else:
        family = default_family(args.n_terms, seed=args.seed)
    p_values = [float(p) for p in args.p.split(",")]
    results = lp_probe(weight, p_values, n_max=args.n_terms,
                       radial_per_segment=args.radial, angular=args.angular, family=family)
    rows = []
    for res in results:
        for name, ratio in res.rows:
            rows.append([f"{res.p:.10g}", name, "" if ratio is None else repr(ratio)])
        rows.append([f"{res.p:.10g}", "MAX", repr(res.max_ratio)])
    emit_csv(
        f"||Pf||_p / ||f||_p over the test family; weight={weight.label()}; N={args.n_terms}; "
        f"lower-bound witness of boundedness, not an operator norm; units {TRUE_UNITS}",
        ["p", "function", "ratio"], rows, args.out)
    return 0


def _cmd_repro_all(args, parser) -> int:
    from .acceptance import run_all
    only = set(args.only.split(",")) if args.only else None
    results = run_all(only=only, perturb=args.perturb)
    for r in results:
        print(r.line())
    passed = sum(1 for r in results if r.passed)
    print(f"SUMMARY: {passed}/{len(results)} criteria passed")
    if args.out:
        emit_json({"criteria": [{"id": r.cid, "name": r.name, "passed": r.passed,
                                 "detail": r.detail} for r in results],
                   "units": TRUE_UNITS}, args.out)
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergkern",
        description="Weighted kernels on the unit disc: moments, zero certificates, "
                    "Schur-test diagnostics, discretized projections.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel-eval", help="evaluate the kernel at (z, w)")
    _add_weight_args(p)
    p.add_argument("--z", type=parse_complex, required=True)
    p.add_argument("--w", type=parse_complex, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kernel_eval)

    p = sub.add_parser("moments", help="moment table mu_n, alpha_n as CSV")
    _add_weight_args(p)
    p.add_argument("-N", "--n-terms", type=int, default=20)
    p.add_argument("--method", choices=("auto", "quadrature"), default="auto")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="relative tolerance for the quadrature path")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("find-zeros", help="certified zero count inside |t| < rho")
    _add_weight_args(p)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--n-terms", type=int, default=None)
    p.add_argument("--no-locate", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_find_zeros)

    p = sub.add_parser("rouche", help="zero-existence certificate on |t| = 1-eps")
    _add_weight_args(p)
    p.add_argument("--eps", type=float, default=None,
                   help="ring parameter; omitted = auto-search a log grid in [0.001, 0.03]")
    p.add_argument("--n-cutoff", type=int, default=400)
    p.add_argument("--scaled-units", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rouche)

    p = sub.add_parser("sweep", help="zero counts over a plateau-weight grid")
    p.add_argument("--A", type=parse_range, required=True, metavar="start:stop:step")
    p.add_argument("--x", type=parse_range, required=True, metavar="start:stop:step")
    p.add_argument("--rho", type=float, default=0.95)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("dirac", help="zero threshold for the point-mass weight")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dirac)

    p = sub.add_parser("inflate-check", help="sliced 2-D kernel vs weighted kernel")
    _add_weight_args(p)
    p.add_argument("--z", type=parse_complex, required=True)
    p.add_argument("--t", type=parse_complex, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_inflate_check)

    p = sub.add_parser("schur", help="Schur ratio grid against the closed-form constant")
    _add_weight_args(p)
    p.add_argument("--sequence", choices=("diff", "alpha", "ones"), default="diff",
                   help="diff = first differences of the weight's coefficients (default)")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--grid", type=parse_range, default=parse_range("0:0.99:0.01"),
                   metavar="start:stop:step")
    p.add_argument("-N", "--n-terms", type=int, default=400)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("coeff-check", help="coefficient-level regularity diagnostics")
    _add_weight_args(p)
    p.add_argument("-N", "--n-terms", type=int, default=500)
    p.add_argument("--scaled-units", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_coeff_check)

    p = sub.add_parser("lp-probe", help="L^p ratio probe of the discrete projection")
    _add_weight_args(p)
    p.add_argument("--p", default="1.5,2,3,4", help="comma-separated exponents")
    p.add_argument("-N", "--n-terms", type=int, default=60)
    p.add_argument("--radial", type=int, default=200)
    p.add_argument("--angular", type=int, default=None)
    p.add_argument("--functions", help="JSON file with a list of test-function specs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lp_probe)

    p = sub.add_parser("repro-all", help="run every acceptance criterion")
    p.add_argument("--only", help="comma-separated criterion ids")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="sensitivity row: multiply alpha_0 by (1+PCT)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_repro_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, parser)
    except SystemExit as exc:          # parser.error inside a subcommand
        return int(exc.code or 0)
    except (ToleranceError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:          # input the computation rejects (WeightError too)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
