"""Command-line front end.

Scalar results are emitted as JSON, grids as CSV with a leading comment
line naming the units; every coefficient-valued output is in true units
(alpha_n = 1/(2*pi*int_0^1 r^(2n+1) lam(r) dr)) unless --scaled-units
multiplies the display by 2*pi.  Randomized families are seeded, so
identical invocations produce byte-identical output.  Exit codes: 0
success, 1 computational failure (an out-of-tolerance result, or an
uncertified count, which prints null or an empty field), 2 usage error.

Commands raise on failure, and ``main`` alone turns a failure into output:
one line ``error: <message>`` on stderr, nothing on stdout beyond lines
already printed and nothing in ``--out``, which fails before any work if it
is a directory or in a missing one.  ToleranceError and QuadratureError
exit 1; ValueError (WeightError too) and OSError exit 2.  argparse reports
its own parse errors.  Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .kernel import MAX_TERMS, ToleranceError, kernel_eval
from .regularity import coefficient_conditions, schur_bound_check
from .weights import ConstantWeight, QuadratureError, StepWeight, load_weight, moment_table
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


MAX_RANGE_POINTS = 100_000     # points of one start:stop:step range, and cells of a sweep


def parse_range(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}") from None
    if not 0.0 < step < math.inf:
        raise argparse.ArgumentTypeError("range step must be positive and finite")
    if stop < start:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: stop is below start")
    if not (stop - start) / step < MAX_RANGE_POINTS:    # also catches inf and nan
        raise argparse.ArgumentTypeError(f"range {text!r} is not finite or has more than "
                                         f"MAX_RANGE_POINTS = {MAX_RANGE_POINTS} points")
    return np.arange(start, stop + 0.5 * step, step)


def resolve_weight(args):
    """The weight named by --step or --weight; bad input raises ValueError naming the flag."""
    if not (args.step or args.weight):
        raise ValueError("one of --weight/--step is required")
    try:
        if args.step:
            a_str, x_str = args.step.split(",")
            return StepWeight.from_plateau(float(a_str), float(x_str))
        if args.weight == "constant1":
            return ConstantWeight(1.0)
        if args.weight.startswith("constant:"):
            return ConstantWeight(float(args.weight.split(":", 1)[1]))
        return load_weight(args.weight)
    except (OSError, ValueError) as exc:    # WeightError is a ValueError
        raise ValueError(f"{'--step' if args.step else '--weight'}: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def emit_csv(comment: str, header: list, rows: list, out: str | None) -> None:
    buf = io.StringIO()
    buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_kernel_eval(args) -> int:
    weight = resolve_weight(args)
    result = kernel_eval(weight, args.z, args.w, tol=args.tol)
    emit_json({"value_re": result.value.real, "value_im": result.value.imag,
               "err_bound": result.err_bound, "N_used": result.n_used,
               "units": TRUE_UNITS}, args.out)
    return 0


def _cmd_moments(args) -> int:
    weight = resolve_weight(args)
    if args.n_terms > MAX_TERMS:
        raise ValueError(f"-N {args.n_terms} exceeds MAX_TERMS = {MAX_TERMS}")
    table = moment_table(weight, args.n_terms, tol=args.tol, method=args.method)
    rows = [[n, repr(mu), repr(alpha), table.method, repr(err)] for n, (mu, alpha, err)
            in enumerate(zip(table.mus.tolist(), table.alphas.tolist(), table.errs.tolist()))]
    emit_csv(f"moments of {weight.label()}; mu_n = 2*pi*int_0^1 r^(2n+1) lam(r) dr; "
             f"alpha_n = 1/mu_n; units {TRUE_UNITS}",
             ["n", "mu", "alpha", "method", "err"], rows, args.out)
    return 0


def _cmd_find_zeros(args) -> int:
    weight = resolve_weight(args)
    report = count_zeros_winding(weight, args.rho,
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


def _cmd_rouche(args) -> int:
    weight = resolve_weight(args)
    factor = 2.0 * math.pi if args.scaled_units else 1.0
    units = SCALED_UNITS if args.scaled_units else TRUE_UNITS
    payload = {"units": units, "weight": weight.label()}
    if args.eps is None:
        best, table = auto_rouche_epsilon(weight, n_cutoff=args.n_cutoff)
        payload["auto_eps_best"] = best
        payload["auto_eps_table"] = [
            {"eps": e, "holds": c.holds, "min_L": c.min_l * factor,
             "S_bound": c.s_bound * factor} for e, c in table]
        cert = table[-1][1] if best is None else dict(table)[best]
    else:
        cert = rouche_certificate(weight, args.eps, n_cutoff=args.n_cutoff)
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


def _cmd_sweep(args) -> int:
    if len(args.A) * len(args.x) > MAX_RANGE_POINTS:
        raise ValueError(f"sweep grid of {len(args.A)} x {len(args.x)} cells exceeds "
                         f"MAX_RANGE_POINTS = {MAX_RANGE_POINTS}")
    cells = sweep_step_weights(args.A, args.x, rho=args.rho)
    rows = [[f"{c.plateau:.10g}", f"{c.split:.10g}", f"{c.rho:.10g}",
             "" if c.zero_count is None else c.zero_count,
             c.certified, c.note] for c in cells]
    emit_csv(f"plateau-weight zero counts; units {TRUE_UNITS}",
             ["A", "x", "rho", "zero_count", "certified", "note"], rows, args.out)
    return 0 if all(c.certified for c in cells) else 1


def _cmd_dirac(args) -> int:
    result = dirac_zero_threshold(args.k)
    emit_json({"mass": result.mass, "threshold": result.threshold,
               "has_zero_in_disc": result.has_zero_in_disc,
               "zero_location": result.zero_location, "units": TRUE_UNITS}, args.out)
    return 0


def _cmd_inflate_check(args) -> int:
    weight = resolve_weight(args)
    chk = inflation_check(weight, args.z, args.t, tol=args.tol)
    emit_json({"lhs_re": chk.lhs.real, "lhs_im": chk.lhs.imag,
               "rhs_re": chk.rhs.real, "rhs_im": chk.rhs.imag,
               "abs_diff": chk.abs_diff, "agree": chk.agree,
               "m_used": chk.m_used, "units": TRUE_UNITS}, args.out)
    return 0 if chk.agree else 1


def _sequence_for(args, weight):
    """(name printed as sequence=, beta_0..beta_N) for ``schur --sequence``."""
    if not 2 <= args.n_terms <= MAX_TERMS:
        raise ValueError(f"-N {args.n_terms} is outside [2, MAX_TERMS = {MAX_TERMS}]")
    if args.sequence == "ones":
        return "ones", np.ones(args.n_terms + 1)
    alphas = weight.alphas(args.n_terms)
    if args.sequence == "alpha":
        return "weight", alphas
    # default: the bounded object the squared-kernel lemma applies to
    return "diff", np.diff(alphas, prepend=0.0)


def _cmd_schur(args) -> int:
    weight = resolve_weight(args)
    name, betas = _sequence_for(args, weight)
    report = schur_bound_check(betas, args.eps, args.grid)
    rows = [[f"{r:.10g}", repr(v)] for r, v in zip(report.z_grid, report.ratios)]
    emit_csv(
        f"I(eps,z)/(1-|z|^2)^eps over radius grid; eps={args.eps}; sequence={name}; "
        f"sup|beta|={report.sup_beta!r}; empirical_C={report.empirical_c!r}; "
        f"theoretical_C={report.theoretical_c!r}; passes={report.passes}; units {TRUE_UNITS}",
        ["radius", "ratio"], rows, args.out)
    return 0 if report.passes else 1


COEFF_NOTE = ("finite_trend and bounded_verdict are proven for all n from the weight's outer "
              "tail: limsup alpha_n/n = lim (alpha_{n+1} - alpha_n) = first_difference_limit; "
              "limsup_estimate, sup_diff, sup_b and within_window cover only n <= n_max")


def _cmd_coeff_check(args) -> int:
    weight = resolve_weight(args)
    factor = 2.0 * math.pi if args.scaled_units else 1.0
    units = SCALED_UNITS if args.scaled_units else TRUE_UNITS
    cc = coefficient_conditions(weight, args.n_terms)
    sd = second_difference_bound(weight, args.n_terms)
    payload = {
        "weight": weight.label(), "n_max": args.n_terms, "units": units,
        "limsup_estimate": cc.limsup_estimate * factor,
        "finite_trend": True,     # every weight's constructor proves both (coefficient_conditions)
        "sup_diff": cc.sup_diff * factor,
        "bounded_verdict": True,
        "window_low": None if cc.window_low is None else cc.window_low * factor,
        "window_high": None if cc.window_high is None else cc.window_high * factor,
        "within_window": cc.within_window,
        "sup_b": cc.sup_b * factor,
        "second_difference_all_negative": sd.all_negative,
        "sign_certified_exact": sd.sign_certified,
        "telescoped_value": sd.telescoped_value * factor,
        "s_bound": sd.s_bound * factor,
        "first_difference_limit": sd.first_difference_limit * factor,
        "last_first_difference": cc.last_first_difference * factor,
        "note": COEFF_NOTE,
    }
    emit_json(payload, args.out)
    return 0


def _cmd_lp_probe(args) -> int:
    from .projector import default_family, function_from_spec, lp_probe
    weight = resolve_weight(args)
    if args.functions:
        try:
            with open(args.functions, "r", encoding="utf-8") as fh:
                specs = json.load(fh)
            if not isinstance(specs, list):
                raise ValueError("expected a JSON list of test-function specs")
            family = [(name, fn) for fn, name in map(function_from_spec, specs)]
        except (OSError, ValueError) as exc:
            raise ValueError(f"--functions: {exc}") from None
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


def _cmd_repro_all(args) -> int:
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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing keeps no state in the parser, and every default is immutable or a
    string that ``type`` converts afresh on each parse, so repeated ``main``
    calls in one process are independent.
    """
    parser = argparse.ArgumentParser(
        prog="bergkern",
        description="Weighted kernels on the unit disc: moments, zero certificates, "
                    "Schur-test diagnostics, discretized projections.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, weight=True):
        p = sub.add_parser(name, help=summary)
        if weight:
            p.add_argument("--weight", help="weight JSON file, or 'constant1' / 'constant:V'")
            p.add_argument("--step", help="shorthand for a plateau weight: A,x "
                                          "(value A on [0,x], 1 outside)")
        p.add_argument("--out")
        p.set_defaults(func=func)
        return p

    p = command("kernel-eval", _cmd_kernel_eval, "evaluate the kernel at (z, w)")
    p.add_argument("--z", type=parse_complex, required=True)
    p.add_argument("--w", type=parse_complex, required=True)
    p.add_argument("--tol", type=float, default=1e-10)

    p = command("moments", _cmd_moments, "moment table mu_n, alpha_n as CSV")
    p.add_argument("-N", "--n-terms", type=int, default=20)
    p.add_argument("--method", choices=("auto", "quadrature"), default="auto")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="relative tolerance for the quadrature path")

    p = command("find-zeros", _cmd_find_zeros, "certified zero count inside |t| < rho")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--n-terms", type=int, default=None)
    p.add_argument("--no-locate", action="store_true")

    p = command("rouche", _cmd_rouche, "zero-existence certificate on |t| = 1-eps")
    p.add_argument("--eps", type=float, default=None,
                   help="ring parameter; omitted = auto-search a log grid in [0.001, 0.03]")
    p.add_argument("--n-cutoff", type=int, default=400)
    p.add_argument("--scaled-units", action="store_true")

    p = command("sweep", _cmd_sweep, "zero counts over a plateau-weight grid", weight=False)
    p.add_argument("--A", type=parse_range, required=True, metavar="start:stop:step")
    p.add_argument("--x", type=parse_range, required=True, metavar="start:stop:step")
    p.add_argument("--rho", type=float, default=0.95)

    p = command("dirac", _cmd_dirac, "zero threshold for the point-mass weight", weight=False)
    p.add_argument("--k", type=float, required=True)

    p = command("inflate-check", _cmd_inflate_check, "sliced 2-D kernel vs weighted kernel")
    p.add_argument("--z", type=parse_complex, required=True)
    p.add_argument("--t", type=parse_complex, required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    p = command("schur", _cmd_schur, "Schur ratio grid against the closed-form constant")
    p.add_argument("--sequence", choices=("diff", "alpha", "ones"), default="diff",
                   help="diff = first differences of the weight's coefficients (default)")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--grid", type=parse_range, default="0:0.99:0.01",
                   metavar="start:stop:step")
    p.add_argument("-N", "--n-terms", type=int, default=400)

    p = command("coeff-check", _cmd_coeff_check, "coefficient-level regularity diagnostics")
    p.add_argument("-N", "--n-terms", type=int, default=500)
    p.add_argument("--scaled-units", action="store_true")

    p = command("lp-probe", _cmd_lp_probe, "L^p ratio probe of the discrete projection")
    p.add_argument("--p", default="1.5,2,3,4", help="comma-separated exponents")
    p.add_argument("-N", "--n-terms", type=int, default=60)
    p.add_argument("--radial", type=int, default=200)
    p.add_argument("--angular", type=int, default=None)
    p.add_argument("--functions", help="JSON file with a list of test-function specs")
    p.add_argument("--seed", type=int, default=0)

    p = command("repro-all", _cmd_repro_all, "run every acceptance criterion", weight=False)
    p.add_argument("--only", help="comma-separated criterion ids")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="sensitivity row: multiply alpha_0 by (1+PCT)")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")):
            open(args.out, "w").close()     # raises open()'s OSError before any work is done
        return args.func(args)
    except SystemExit as exc:          # argparse: parse errors, --help, --version
        return int(exc.code or 0)
    except (ToleranceError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
