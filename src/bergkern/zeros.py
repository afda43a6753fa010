"""Zero certification for kernels of radial weights comparable to 1.

The diagonal kernel F(t) = sum_n alpha_n t^n never vanishes for the
constant weight (closed form 1/(pi*(1-t)^2)), but suitable plateaus do
produce zeros.  Two independent mechanisms are implemented:

* a certificate built from the split
      (1-t)^2 F(t) = L(t) + S(t),
  L(t) = alpha_0 + (alpha_1 - 2 alpha_0) t affine, S the series of second
  differences.  If min |L| on the circle |t| = 1-eps beats a certified
  bound on sum |alpha_k - 2 alpha_{k-1} + alpha_{k-2}| and the root of L
  is inside the circle, the full kernel inherits a zero (Rouche), because
  (1-t)^2 is zero-free in the disc;

* an argument-principle counter: the winding number of the truncated
  polynomial (1-t)^2 P_N(t) along |t| = rho counts the zeros of F inside,
  certified whenever a proven lower bound on the contour modulus exceeds
  the series tail bound times (1+rho)^2.  One FFT pair of the polynomial
  and its derivative on the contour gives the winding, that bound (the
  samples, a second-order Taylor bound between them and the FFT's
  rounding) and the contour moments from which the counted zeros are
  located, before a Newton polish; no companion roots.

The counter is also the engine behind parameter sweeps, the smooth
(mollified) plateau check, and the point-mass threshold cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import kernel
from .kernel import (ToleranceError, diagonal_poly, eval_diagonal, kernel_eval, tail_bound,
                     terms_for_tolerance)
from .weights import SampledWeight, StepWeight, WeightError, radial_integral

_U = 0.5 * np.finfo(float).eps               # unit roundoff
_TINY = float(np.finfo(float).smallest_subnormal)


# ---------------------------------------------------------------------------
# second differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecondDifferenceSummary:
    n_cutoff: int
    partial_sum: float           # sum_{k=2..n_cutoff} |alpha_k - 2 alpha_{k-1} + alpha_{k-2}|
    telescoped_value: float      # (alpha_1-alpha_0) - (alpha_N - alpha_{N-1})
    remainder_bound: float       # certified bound on the k > n_cutoff tail
    s_bound: float               # certified upper bound on the full series sum
    all_negative: bool
    sign_certified: bool         # True when every sign up to n_cutoff is proven from the weight data
    first_difference_limit: float  # lim_k (alpha_k - alpha_{k-1}) = 1/(pi * outer value)
    alpha_0: float               # alpha_0 and alpha_1 of the same coefficients, which give
    alpha_1: float               # the affine part of the Rouche split


def _gamma(m):      # Higham's gamma_m = m u / (1 - m u), the relative error of m roundings
    return m * _U / (1.0 - m * _U)


def _second_difference_signs(v_out: float, terms, n_cutoff: int):
    """Signs of d2_k = alpha_k - 2 alpha_{k-1} + alpha_{k-2}, k = 2..n_cutoff, and which are proven.

    With g_n = sum c_i q_i^(n+1) (``outer_tail_terms``), Q = max q_i and
    h_n = sum c_i (q_i/Q)^(n+1) / (v_out + g_n), alpha_n pi = (n+1)/(v_out + g_n) gives
    pi d2_k = -(Q^(k-1)/v_out) D_k, D_k = (k+1) Q^2 h_k - 2k Q h_{k-1} + (k-1) h_{k-2}: the
    linear part, whose second differences cancel, drops out and nothing underflows.
    D_k carries a running error bound (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3): c_i, q_i within one rounding, q_i/Q gamma_3, the powers
    (q_i/Q)^(n+1) gamma_(4n+3) and Q^(n+1) gamma_(2n+1) (cumulative products), and one
    subnormal spacing per product that may underflow.  It is first order in gammas below
    2e-10, so a sign counts as proven where |D_k| exceeds twice it.  Without terms every
    d2_k is exactly 0.
    """
    if not terms:
        return np.zeros(n_cutoff - 1), np.ones(n_cutoff - 1, dtype=bool)
    c, q = (np.array(col) for col in zip(*terms))
    top, n = float(q.max()), np.arange(n_cutoff + 1.0)
    with np.errstate(all="ignore"):     # an inf or nan bound leaves its sign unproven
        powers = np.cumprod(np.tile(q / top, (n_cutoff + 1, 1)), axis=0)    # (q_i/Q)^(n+1)
        qpow = np.cumprod(np.full(n_cutoff + 1, top))                         # Q^(n+1)
        tail = powers @ c
        e_tail = (_gamma(4.0 * n + len(c) + 5.0) * (powers @ np.abs(c))
                  + len(c) * (n + 2.0) * _TINY * (1.0 + np.abs(c).max()))
        den = v_out + qpow * tail
        e_den = (qpow * e_tail + _gamma(2.0 * n + 4.0) * qpow * np.abs(tail) + _U * np.abs(den)
                 + (n + 2.0) * _TINY * (1.0 + np.abs(tail)))
        h = tail / den
        e_h = np.where(den > e_den, (e_tail + np.abs(h) * e_den) / (den - e_den), np.inf) \
            + _U * np.abs(h) + _TINY
        k = n[2:]
        parts = ((k + 1.0) * (top * top) * h[2:], 2.0 * k * top * h[1:-1], (k - 1.0) * h[:-2])
        bound = (_gamma(7) * sum(np.abs(t) for t in parts) + (k + 1.0) * (top * top) * e_h[2:]
                 + 2.0 * k * top * e_h[1:-1] + (k - 1.0) * e_h[:-2] + 3.0 * _TINY)
        d = parts[0] - parts[1] + parts[2]
        # b_i^2 or Q^2 below 2^-500 may be subnormal, where relative bounds fail
        return -np.sign(d), (np.abs(d) > 2.0 * bound) & (q.min() >= 2.0 ** -500)


def second_difference_bound(weight, n_cutoff: int, alphas=None) -> SecondDifferenceSummary:
    """Certified bound on sum_{k>=2} |alpha_k - 2 alpha_{k-1} + alpha_{k-2}|.

    The remainder past n_cutoff is bounded without any sign assumption:
    with v_out the weight's outer value, second differences of the linear
    part (n+1)/(pi*v_out) of alpha_n vanish, so with delta_n the rest,
        sum_{k>N} |d2_k| <= 4 * sum_{m>=N-1} |delta_m| <= 4 * weight.delta_tail(N-1).

    When the second differences are all <= 0, the partial sum telescopes to
    (alpha_1-alpha_0) - (alpha_N-alpha_{N-1}), which is also the more accurate
    value to report.  For weights with ``outer_tail_terms`` (constants and
    steps) every sign up to n_cutoff is proven from the float weight data
    (``_second_difference_signs``), and that decides ``all_negative`` and the
    telescoping.  Otherwise, or if some sign stays undecided, the float signs
    decide and ``sign_certified`` is False.

    Explicit ``alphas`` (alpha_0..alpha_M, M >= n_cutoff) replace the weight's
    own coefficients.  They are not the weight's, so no sign is proven, and the
    remainder scales from C = alpha_bound to max(alpha_bound, max alpha_n*pi/(n+1)).
    """
    if n_cutoff < 2:
        raise ValueError(f"need n_cutoff >= 2, got {n_cutoff}")
    c = weight.alpha_bound
    if alphas is None:
        a, terms = weight.alphas(n_cutoff), weight.outer_tail_terms()
    else:
        given = np.asarray(alphas, dtype=float)
        if len(given) < n_cutoff + 1:
            raise ValueError(f"{len(given)} explicit coefficients do not reach alpha_{n_cutoff}")
        c = max(c, float(np.max(given * math.pi / (np.arange(len(given)) + 1.0))))
        a, terms = given[:n_cutoff + 1], None
    d2 = a[2:] - 2.0 * a[1:-1] + a[:-2]
    telescoped = (a[1] - a[0]) - (a[n_cutoff] - a[n_cutoff - 1])

    v_out = weight.v_out
    signs, proven = (d2, False) if terms is None else _second_difference_signs(v_out, terms, n_cutoff)
    sign_certified = bool(np.all(proven))
    if not sign_certified:      # float signs, where d2 below rounding noise counts as negative
        signs = np.where(d2 < 16.0 * np.finfo(float).eps * float(a[-1]), -1.0, 1.0)
    all_negative, telescoping_valid = bool(np.all(signs < 0)), bool(np.all(signs <= 0))
    # the bound is linear in C, which explicit coefficients may raise above alpha_bound
    remainder = 4.0 * weight.delta_tail(n_cutoff - 1) * (c / weight.alpha_bound)

    # one-signed (in the <= 0 sense) second differences telescope exactly,
    # which also sidesteps the roundoff noise of the term-by-term |.| sum
    abs_sum = float(np.sum(np.abs(d2)))
    partial = float(telescoped) if telescoping_valid else abs_sum
    return SecondDifferenceSummary(
        n_cutoff=n_cutoff, partial_sum=abs_sum, telescoped_value=float(telescoped),
        remainder_bound=float(remainder), s_bound=partial + float(remainder),
        all_negative=all_negative, sign_certified=sign_certified,
        first_difference_limit=1.0 / (math.pi * v_out), alpha_0=float(a[0]), alpha_1=float(a[1]))


# ---------------------------------------------------------------------------
# Rouche certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoucheCertificate:
    epsilon: float
    ring_radius: float
    linear_root: Optional[float]     # root of the affine part, None if it is constant
    min_l: float                     # min |L| on |t| = ring_radius (exact two-branch formula)
    s_bound: float                   # certified bound on sum of |second differences|
    holds: bool                      # min_l > s_bound and |linear_root| < ring_radius
    second_differences: SecondDifferenceSummary


def min_affine_modulus_on_circle(a0: float, slope: float, radius: float) -> float:
    """min over |t| = radius of |a0 + slope*t| for a0 > 0.

    The image of the circle is a circle of radius |slope|*radius centred at
    a0, so the minimum is |a0 - |slope|*radius|: one branch when the affine
    root is inside the ring, the other when outside.
    """
    return abs(a0 - abs(slope) * radius)


def _rouche(epsilon: float, sd: SecondDifferenceSummary) -> RoucheCertificate:
    ring = 1.0 - epsilon
    a0 = sd.alpha_0
    slope = sd.alpha_1 - 2.0 * a0
    root = -a0 / slope if slope != 0.0 else None
    min_l = a0 if slope == 0.0 else min_affine_modulus_on_circle(a0, slope, ring)
    root_inside = root is not None and abs(root) < ring
    return RoucheCertificate(
        epsilon=epsilon, ring_radius=ring, linear_root=root,
        min_l=float(min_l), s_bound=sd.s_bound,
        holds=bool(root_inside and min_l > sd.s_bound),
        second_differences=sd)


def rouche_certificate(weight, epsilon: float, n_cutoff: int = 400,
                       alphas=None) -> RoucheCertificate:
    """Zero-existence certificate on the ring |t| = 1 - epsilon.

    holds=True certifies a zero of the kernel with both arguments in the
    disc; holds=False is inconclusive (never a disproof).  Explicit
    ``alphas`` replace the weight's coefficients (see
    ``second_difference_bound``).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    return _rouche(epsilon, second_difference_bound(weight, n_cutoff, alphas))


ROUCHE_EPS_GRID = tuple(np.geomspace(1e-3, 0.03, 12).tolist())   # searched by auto_rouche_epsilon


def auto_rouche_epsilon(weight, n_cutoff: int = 400):
    """Largest epsilon of ROUCHE_EPS_GRID for which the certificate holds.

    Returns (best_epsilon_or_None, list of (epsilon, certificate)); the
    admissible range is reported rather than guessed.  The second-difference
    bound does not depend on epsilon, so every certificate shares one.
    """
    sd = second_difference_bound(weight, n_cutoff)
    table = [(e, _rouche(e, sd)) for e in ROUCHE_EPS_GRID]
    passing = [e for e, cert in table if cert.holds]
    return (max(passing) if passing else None), table


# ---------------------------------------------------------------------------
# argument-principle counter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocatedZero:
    location: complex
    residual: float          # |F| at the zero plus the truncation tail bound
    iterations: int          # Newton steps taken from the start


@dataclass(frozen=True)
class ZeroReport:
    weight_label: str
    rho: float                        # requested contour radius
    rho_used: Optional[float]         # radius actually certified (after perturbation)
    zero_count: Optional[int]         # zeros of F in |t| < rho_used, with multiplicity
    located_zeros: tuple
    certified: bool                   # if False, every Optional field is None, no zeros
    n_terms: Optional[int]
    min_contour_modulus: Optional[float]  # proven lower bound of |(1-t)^2 P_N| on |t| = rho_used
    tail: Optional[float]
    contour_samples: Optional[int]    # FFT size m of the contour
    diagnostics: str = ""             # uncertified: why the last contour attempt failed


# Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.), Thm 24.2: a
# power-of-two FFT has normwise relative error lg(m) eta/(1 - lg(m) eta), where
# eta = u + gamma_4 (sqrt(2) + u) for twiddle factors accurate to u.
_FFT_ETA = _U + 4.0 * _U / (1.0 - 4.0 * _U) * (math.sqrt(2.0) + _U)
MAX_CONTOUR_SAMPLES = 1 << 20     # a contour needing more passes through a zero
NEWTON_MAX_ITER = 60              # Newton steps from one start before it is dropped
RESIDUAL_FACTOR = 1e-9            # a located zero's |F| + tail, relative to alpha_0


def _contour(coeffs: np.ndarray, rho: float, margin: float):
    """Winding number and a proven lower bound of |p| on |t| = rho, p = `coeffs`.

    With s_k = c_k rho^k and h = 2 pi/m, two inverse FFTs give v_j = p(t_j) and
    d_j = t_j p'(t_j), |d_j| = |dp/dtheta|, at t_j = rho e^(i j h).  Since
    M2 = sum k^2 |s_k| bounds |d^2p/dtheta^2|, |p| >= min_j(|v_j| - (h/2)|d_j|) -
    (h^2/8) M2 on the circle; if every |v_j| > h|d_j| + (h^2/2) M2, each arc stays in
    a disc about v_j that misses 0, so the principal phase steps sum to 2 pi times
    the winding.  v and d carry the FFT's per-sample rounding (with its sqrt(m)) and
    that of s_k.  m, first the power of two >= max(4096, deg+1), doubles up to
    MAX_CONTOUR_SAMPLES while the sampled minimum clears `margin` but the bound does
    not.  Returns (values, dvalues, winding, bound, m); bound > 0 proves the winding.
    """
    k = np.arange(len(coeffs))
    scaled = coeffs * rho ** k
    sizes = (np.abs(scaled), np.abs(scaled * k))
    m2 = float(np.sum(k * sizes[1])) * (1.0 + (len(k) + 4) * _U)
    norms = [(math.sqrt(float(np.sum(a * a))), float(np.sum(a))) for a in sizes]
    m = 1 << max(12, (len(k) - 1).bit_length())
    while True:
        values = np.fft.ifft(scaled, m, norm="forward")
        dvalues = np.fft.ifft(scaled * k, m, norm="forward")
        h, lg = 2.0 * math.pi / m, math.log2(m)
        fft_rel = lg * _FFT_ETA / (1.0 - lg * _FFT_ETA) * math.sqrt(m)
        err_v, err_d = (fft_rel * l2 + 6.0 * _U * l1 for l2, l1 in norms)
        mods = np.abs(values)
        dmods = np.abs(dvalues) + err_d
        bound = float(np.min(mods - err_v - 0.5 * h * dmods)) - 0.125 * h * h * m2
        if not np.all(mods - 2.0 * err_v > h * dmods + 0.5 * h * h * m2):
            bound = min(bound, 0.0)
        if bound > margin or float(mods.min()) <= margin or 2 * m > MAX_CONTOUR_SAMPLES:
            break
        m *= 2
    steps = np.angle(np.roll(values, -1) * np.conj(values))
    winding = int(round(float(np.sum(steps)) / (2.0 * math.pi)))
    return values, dvalues, winding, bound, m


def _newton_refine(weight, start: complex, residual_target: float):
    t = complex(start)
    for it in range(1, NEWTON_MAX_ITER + 1):
        if abs(t) >= 0.999:
            return None
        fv = eval_diagonal(weight, t, tol=min(residual_target * 1e-3, 1e-13))
        total = abs(fv.value) + fv.err_bound
        if total <= residual_target:
            return LocatedZero(location=t, residual=total, iterations=it - 1)
        a = weight.alphas(max(fv.n_used, 1))      # F' needs alpha_1 even where F used alpha_0 alone
        deriv_coeffs = (a[1:] * np.arange(1, len(a))).astype(complex)
        deriv = np.polynomial.polynomial.polyval(t, deriv_coeffs)
        if deriv == 0:
            return None
        t = t - fv.value / deriv
    return None


def _locate_zeros(weight, values: np.ndarray, dvalues: np.ndarray, rho: float,
                  count: int, residual_target: float):
    """Zeros of F in |t| < rho from the contour samples of the certified polynomial p.

    With `values` = p and `dvalues` = t p' on m uniform points of |t| = rho, the
    trapezoid means of (t/rho)^k t p'/p are the scaled power sums of the `count`
    zeros of p inside; their Hankel pencil's eigenvalues are those zeros (Delves &
    Lyness 1967).  The sums are real, so the starts with Im >= 0 are
    Newton-polished against the certified series and the non-real ones mirrored.
    """
    g = dvalues / values
    hankel = np.fft.ifft(g).real[np.add.outer(np.arange(count), np.arange(count + 1))]
    try:
        starts = rho * np.linalg.eigvals(np.linalg.solve(hankel[:, :-1], hankel[:, 1:]))
    except np.linalg.LinAlgError:      # singular H0: no starts, the shortfall is noted
        starts = np.empty(0, dtype=complex)
    found = []
    for start in starts[starts.imag >= 0.0]:
        hit = _newton_refine(weight, complex(start), residual_target)
        if hit is None or abs(hit.location) >= rho:
            continue
        loc = hit.location
        if abs(loc.imag) <= 1e-10 * (1.0 + abs(loc)):
            loc = complex(loc.real, 0.0)
        if all(abs(loc - other.location) >= 1e-7 for other in found):
            found += [replace(hit, location=z)
                      for z in ((loc,) if loc.imag == 0.0 else (loc, loc.conjugate()))]
    found.sort(key=lambda z: (z.location.real, z.location.imag))
    return tuple(found)


def count_zeros_winding(weight, rho: float, n_terms: Optional[int] = None, *,
                        locate: bool = True) -> ZeroReport:
    """Certified zero count of F in |t| < rho via the argument principle.

    The winding of the degree-(N+2) polynomial (1-t)^2 P_N is computed on
    the contour; certification requires the proven lower bound of its modulus
    there to exceed tail_bound(rho, N) * (1+rho)^2, in which case Rouche
    transfers the count to (1-t)^2 F and hence to F ((1-t)^2 is zero-free in
    the disc; nothing is subtracted since rho < 1).  A sampled minimum below
    that margin deepens the truncation.  If the contour passes too near a
    zero, rho is nudged by multiples of 1e-3 before giving up; the report is
    then uncertified and claims no count (see ``ZeroReport``), and its
    diagnostics say why the last attempt failed.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    if n_terms is not None and n_terms < 0:
        raise ValueError(f"n_terms must be >= 0, got {n_terms}")
    if n_terms is not None and n_terms > kernel.MAX_TERMS:
        raise ValueError(f"n_terms {n_terms} exceeds MAX_TERMS = {kernel.MAX_TERMS}")
    label = weight.label()
    alpha0 = float(weight.alphas(0)[0])
    for offset in (0.0, 1e-3, -1e-3, 2e-3, -2e-3):
        rho_try = rho + offset
        if not 0.0 < rho_try < 1.0:
            continue
        try:
            n = n_terms if n_terms is not None else terms_for_tolerance(
                weight.alpha_bound, rho_try, 1e-4 * alpha0)
        except ToleranceError as exc:
            last_note = f"truncation selection failed at rho={rho_try}: {exc}"
            continue
        n = max(n, 8)
        while True:
            tail = tail_bound(weight.alpha_bound, rho_try, n)
            margin = tail * (1.0 + rho_try) ** 2
            values, dvalues, winding, bound, samples = _contour(
                diagonal_poly(weight, n), rho_try, margin)
            if bound > margin:
                zeros = () if not locate or winding == 0 else _locate_zeros(
                    weight, values, dvalues, rho_try, winding, RESIDUAL_FACTOR * alpha0)
                notes = [f"contour perturbed to rho={rho_try}"] if offset else []
                if locate and len(zeros) != winding:
                    notes.append(f"located {len(zeros)} of {winding} certified zeros")
                return ZeroReport(weight_label=label, rho=rho, rho_used=rho_try,
                                  zero_count=winding, located_zeros=zeros, certified=True,
                                  n_terms=n, min_contour_modulus=bound, tail=tail,
                                  contour_samples=samples, diagnostics="; ".join(notes))
            sampled = float(np.abs(values).min())
            if sampled > margin:
                last_note = (f"contour at rho={rho_try} came within {sampled:.3e} "
                             f"of a zero ({samples} samples)")
                break
            if n >= kernel.MAX_TERMS:
                last_note = (f"tail {tail:.3e} never cleared contour minimum {sampled:.3e} "
                             f"at rho={rho_try} within {kernel.MAX_TERMS} terms")
                break
            n = min(2 * n, kernel.MAX_TERMS)
    return ZeroReport(weight_label=label, rho=rho, rho_used=None, zero_count=None,
                      located_zeros=(), certified=False, n_terms=None, min_contour_modulus=None,
                      tail=None, contour_samples=None, diagnostics=last_note)


# ---------------------------------------------------------------------------
# parameter sweep over plateau weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    plateau: float               # inner value A
    split: float                 # plateau radius x
    rho: float
    zero_count: Optional[int]
    certified: bool
    note: str = ""


def _sweep_one(a: float, x: float, rho: float) -> SweepCell:
    try:
        report = count_zeros_winding(StepWeight.from_plateau(a, x), rho, locate=False)
        return SweepCell(plateau=a, split=x, rho=rho, zero_count=report.zero_count,
                         certified=report.certified, note=report.diagnostics)
    except WeightError as exc:  # a cell the constructor rejects is recorded in-row
        return SweepCell(plateau=a, split=x, rho=rho, zero_count=None,
                         certified=False, note=f"{type(exc).__name__}: {exc}")


def sweep_step_weights(plateau_values, split_values, rho: float = 0.95):
    """Zero counts over a grid of plateau weights (value A on [0,x], 1 outside),
    in (A, x) row order."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    return [_sweep_one(float(a), float(x), rho) for a in plateau_values for x in split_values]


# ---------------------------------------------------------------------------
# mollified plateaus
# ---------------------------------------------------------------------------

def _smooth_transition(s):
    """C-infinity monotone ramp from 0 at s<=0 to 1 at s>=1."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        b = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return a / (a + b)


TRANSITION_SAMPLES = 81     # samples across each smoothed jump


def mollify_weight(step, width: float) -> SampledWeight:
    """Smooth a piecewise-constant weight across its jumps.

    Each interior jump at r_i is replaced by a C-infinity ramp on
    [r_i - width, r_i + width]; outside these zones the weight is
    unchanged, and since the ramp stays between the neighbouring segment
    values the comparability constant is preserved.  The result is
    returned as a densely sampled weight (piecewise-linear through the
    samples).
    """
    if not isinstance(step, StepWeight):
        raise WeightError(f"not a piecewise-constant weight: {step!r}")
    if width <= 0:
        raise ValueError("width must be positive")
    interior = [b for b in step.breakpoints if b < 1.0]
    if not interior:
        v = step.values[0]
        return SampledWeight(radii=(0.0, 0.5), values=(v, v))
    edges = [0.0, *interior, 1.0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if 2.0 * width >= hi - lo:
            raise ValueError(
                f"width {width} too large: transition zones of neighbouring jumps "
                f"(or the domain ends) would overlap on ({lo}, {hi})")
    radii = [0.0]
    values = [step.values[0]]
    for i, b in enumerate(interior):
        v_left, v_right = step.values[i], step.values[i + 1]
        rr = np.linspace(b - width, b + width, TRANSITION_SAMPLES)
        vv = v_left + (v_right - v_left) * _smooth_transition((rr - (b - width)) / (2.0 * width))
        radii.extend(rr.tolist())
        values.extend(vv.tolist())
    last = interior[-1] + width
    radii.append(min(0.5 * (last + 1.0), 1.0 - 1e-9))
    values.append(step.values[-1])
    return SampledWeight(radii=tuple(radii), values=tuple(values))


# ---------------------------------------------------------------------------
# point mass at the origin
# ---------------------------------------------------------------------------

DIRAC_THRESHOLD = math.pi / 3.0


@dataclass(frozen=True)
class DiracZeroResult:
    mass: float
    threshold: float
    has_zero_in_disc: bool
    zero_location: Optional[float]    # real root of F_k, wherever it lies (None for k=0)


def dirac_kernel_value(mass: float, t):
    """Diagonal kernel for the weight 1 + mass*delta_0:
    F_k(t) = 1/(pi+k) - 1/pi + 1/(pi*(1-t)^2)."""
    t = np.asarray(t)
    return 1.0 / (math.pi + mass) - 1.0 / math.pi + 1.0 / (math.pi * (1.0 - t) ** 2)


def dirac_zero_threshold(mass: float) -> DiracZeroResult:
    """Closed-form zero analysis for the point-mass weight.

    Solving F_k(t) = 0 gives (1-t)^2 = 1 + pi/k, whose disc-side root is
    t = 1 - sqrt(1 + pi/k); it lies inside the unit disc exactly when
    k > pi/3 (at k = pi/3 the root sits on the boundary at t = -1).
    """
    if not 0.0 <= mass < math.inf:     # also rejects nan
        raise ValueError(f"mass must be finite and >= 0, got {mass}")
    if mass == 0.0:
        return DiracZeroResult(mass=0.0, threshold=DIRAC_THRESHOLD,
                               has_zero_in_disc=False, zero_location=None)
    loc = 1.0 - math.sqrt(1.0 + math.pi / mass)
    return DiracZeroResult(mass=mass, threshold=DIRAC_THRESHOLD,
                           has_zero_in_disc=mass > DIRAC_THRESHOLD, zero_location=loc)


# ---------------------------------------------------------------------------
# inflation identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InflationCheck:
    lhs: complex      # sliced two-dimensional kernel, from first principles
    rhs: complex      # (1/pi) * one-dimensional weighted kernel
    abs_diff: float
    agree: bool
    m_used: int


@lru_cache(maxsize=4096)
def reinhardt_monomial_norm(weight, m: int) -> float:
    """Squared norm of z^m on the domain {z in D, |w|^2 < lam(z)}.

    Integrating the fibre first gives
        pi * int_D |z|^(2m) lam(z) dA(z),
    a radial integral evaluated by ``weights.radial_integral`` (relative
    tolerance 1e-12).  That is the integrator the moment cross-check uses
    too; the identity check below stays independent, because its other side
    comes from the closed-form coefficient series, not from quadrature.
    """
    return math.pi * 2.0 * math.pi * radial_integral(weight, 2 * m + 1)[0]


def inflation_check(weight, z: complex, t: complex, tol: float = 1e-8) -> InflationCheck:
    """Compare the sliced kernel of the inflated domain with the weighted kernel.

    The left side is assembled from the monomial norms of the
    two-dimensional domain restricted to the zero fibre (only j=0 terms
    survive at w = s = 0); the right side is the certified series
    evaluation divided by pi.  Both sides should agree to tol.
    """
    if abs(z) >= 1.0 or abs(t) >= 1.0:
        raise ValueError("z and t must lie inside the unit disc")
    q = complex(z) * np.conj(complex(t))
    c = weight.alpha_bound
    try:    # each series gets tol/100; a failure names the tol given
        # terms are bounded by (c/pi^2)(m+1)|q|^m, so reuse the series tail rule
        m_used = terms_for_tolerance(c / math.pi, abs(q), tol * 1e-2) if q != 0 else 0
        lhs = complex(sum(q ** m / reinhardt_monomial_norm(weight, m)
                          for m in range(m_used + 1)))
        rhs = kernel_eval(weight, complex(z), complex(t), tol=tol * 1e-2).value / math.pi
    except ToleranceError as exc:
        raise ToleranceError(f"tol {tol:.3e} (tol/100 for each series) not reached: {exc}") from None
    diff = abs(lhs - rhs)
    return InflationCheck(lhs=lhs, rhs=rhs, abs_diff=diff, agree=diff <= tol, m_used=m_used)
