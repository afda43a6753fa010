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
from .kernel import KernelSeries, diagonal_poly, eval_diagonal, kernel_eval, terms_for_tolerance
from .weights import (ConstantWeight, SampledWeight, StepWeight, as_step, radial_integral,
                      step_alpha_pi_fraction)

_polyval = np.polynomial.polynomial.polyval


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
    sign_certified: bool         # True when every sign up to n_cutoff was checked exactly
    first_difference_limit: float  # lim_k (alpha_k - alpha_{k-1}) = 1/(pi * outer value)


def _second_difference_signs_exact(weight, n_cutoff: int):
    """Exact rational sign check for piecewise-constant weights.

    In float64 the late second differences cancel to roundoff noise of
    arbitrary sign; the step moments are rational multiples of 1/pi, so the
    signs are decidable exactly.  Returns (all strictly negative, all <= 0).
    """
    a = [step_alpha_pi_fraction(weight, n) for n in range(n_cutoff + 1)]
    d2 = [a[k] - 2 * a[k - 1] + a[k - 2] for k in range(2, n_cutoff + 1)]
    return all(d < 0 for d in d2), all(d <= 0 for d in d2)


def second_difference_bound(series: KernelSeries, n_cutoff: int) -> SecondDifferenceSummary:
    """Certified bound on sum_{k>=2} |alpha_k - 2 alpha_{k-1} + alpha_{k-2}|.

    The remainder past n_cutoff is bounded without any sign assumption:
    with v_out the weight's outer value, delta_n = alpha_n - (n+1)/(pi*v_out)
    decays geometrically (see the weight's ``outer_tail``) and second
    differences of the linear part vanish, so
        sum_{k>N} |d2_k| <= 4 * sum_{m>=N-1} |delta_m|,
    an arithmetico-geometric series summed in closed form.

    When the computed range is one-signed (negative), the partial sum
    telescopes to (alpha_1-alpha_0) - (alpha_N-alpha_{N-1}), which is also
    the more accurate value to report.  The exact sign check runs only on
    the weight's own coefficients, never on a series given explicit ones.
    """
    if n_cutoff < 2:
        raise ValueError(f"need n_cutoff >= 2, got {n_cutoff}")
    a = series.alphas(n_cutoff)
    d2 = a[2:] - 2.0 * a[1:-1] + a[:-2]
    telescoped = (a[1] - a[0]) - (a[n_cutoff] - a[n_cutoff - 1])

    noise = 16.0 * np.finfo(float).eps * float(a[-1])
    negative_float = bool(np.all(d2 < noise))
    sign_certified = False
    all_negative = telescoping_valid = negative_float
    if (negative_float and not series.explicit
            and isinstance(series.weight, (ConstantWeight, StepWeight))):
        all_negative, telescoping_valid = _second_difference_signs_exact(
            as_step(series.weight), min(n_cutoff, 600))
        sign_certified = n_cutoff <= 600    # past 600 the signs are float-only

    v_out, big_g, q = series.weight.outer_tail()
    c = series.tail_constant
    if q > 0.0 and big_g > 0.0:
        # 4*K*sum_{m>=N-1}(m+1)q^(m+1) with K = C*G/(pi*v_out)
        n = n_cutoff
        remainder = 4.0 * (c * big_g / (math.pi * v_out)) \
            * q ** n * (n - (n - 1) * q) / (1.0 - q) ** 2
    else:
        remainder = 0.0

    # one-signed (in the <= 0 sense) second differences telescope exactly,
    # which also sidesteps the roundoff noise of the term-by-term |.| sum
    partial = float(telescoped) if telescoping_valid else float(np.sum(np.abs(d2)))
    return SecondDifferenceSummary(
        n_cutoff=n_cutoff,
        partial_sum=float(np.sum(np.abs(d2))),
        telescoped_value=float(telescoped),
        remainder_bound=float(remainder),
        s_bound=partial + float(remainder),
        all_negative=all_negative,
        sign_certified=sign_certified,
        first_difference_limit=series.scale / (math.pi * v_out),
    )


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


def rouche_certificate(series: KernelSeries, epsilon: float, n_cutoff: int = 400) -> RoucheCertificate:
    """Zero-existence certificate on the ring |t| = 1 - epsilon.

    holds=True certifies a zero of the kernel with both arguments in the
    disc; holds=False is inconclusive (never a disproof).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    ring = 1.0 - epsilon
    a0, a1 = series.alpha(0), series.alpha(1)
    slope = a1 - 2.0 * a0
    root = -a0 / slope if slope != 0.0 else None
    min_l = a0 if slope == 0.0 else min_affine_modulus_on_circle(a0, slope, ring)
    sd = second_difference_bound(series, n_cutoff)
    root_inside = root is not None and abs(root) < ring
    return RoucheCertificate(
        epsilon=epsilon, ring_radius=ring, linear_root=root,
        min_l=float(min_l), s_bound=sd.s_bound,
        holds=bool(root_inside and min_l > sd.s_bound),
        second_differences=sd)


def auto_rouche_epsilon(series: KernelSeries, eps_grid=None, n_cutoff: int = 400):
    """Largest epsilon on a log grid for which the certificate holds.

    Returns (best_epsilon_or_None, list of (epsilon, certificate)); the
    admissible range is reported rather than guessed.
    """
    if eps_grid is None:
        eps_grid = np.geomspace(1e-3, 0.03, 12)
    table = [(float(e), rouche_certificate(series, float(e), n_cutoff)) for e in eps_grid]
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
    rho_used: float                   # radius actually certified (after perturbation)
    zero_count: int                   # zeros of F in |t| < rho_used, with multiplicity
    located_zeros: tuple
    certified: bool
    n_terms: int
    min_contour_modulus: float        # proven lower bound of |(1-t)^2 P_N| on |t| = rho_used
    tail: float
    contour_samples: int              # FFT size m of the contour
    diagnostics: str = ""


# Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.), Thm 24.2: a
# power-of-two FFT has normwise relative error lg(m) eta/(1 - lg(m) eta), where
# eta = u + gamma_4 (sqrt(2) + u) for twiddle factors accurate to u.
_U = 0.5 * np.finfo(float).eps
_FFT_ETA = _U + 4.0 * _U / (1.0 - 4.0 * _U) * (math.sqrt(2.0) + _U)
MAX_CONTOUR_SAMPLES = 1 << 20     # a contour needing more passes through a zero


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


def _newton_refine(series: KernelSeries, start: complex, residual_target: float,
                   max_iter: int = 60):
    t = complex(start)
    for it in range(1, max_iter + 1):
        if abs(t) >= 0.999:
            return None
        fv = eval_diagonal(series, t, tol=min(residual_target * 1e-3, 1e-13))
        total = abs(fv.value) + fv.err_bound
        if total <= residual_target:
            return LocatedZero(location=t, residual=total, iterations=it - 1)
        a = series.alphas(fv.n_used)
        deriv = _polyval(t, (a[1:] * np.arange(1, fv.n_used + 1)).astype(complex))
        if deriv == 0:
            return None
        t = t - fv.value / deriv
    return None


def _locate_zeros(series: KernelSeries, values: np.ndarray, dvalues: np.ndarray, rho: float,
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
        hit = _newton_refine(series, complex(start), residual_target)
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


def count_zeros_winding(series: KernelSeries, rho: float, n_terms: Optional[int] = None, *,
                        locate: bool = True, residual_factor: float = 1e-9) -> ZeroReport:
    """Certified zero count of F in |t| < rho via the argument principle.

    The winding of the degree-(N+2) polynomial (1-t)^2 P_N is computed on
    the contour; certification requires the proven lower bound of its modulus
    there to exceed tail_bound(rho, N) * (1+rho)^2, in which case Rouche
    transfers the count to (1-t)^2 F and hence to F ((1-t)^2 is zero-free in
    the disc; nothing is subtracted since rho < 1).  A sampled minimum below
    that margin deepens the truncation.  If the contour passes too near a
    zero, rho is nudged by multiples of 1e-3 before giving up and returning
    an uncertified report.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    if n_terms is not None and n_terms > kernel.MAX_TERMS:
        raise ValueError(f"n_terms {n_terms} exceeds MAX_TERMS = {kernel.MAX_TERMS}")
    label = series.weight.label()
    best_diag = ""
    best = None
    for offset in (0.0, 1e-3, -1e-3, 2e-3, -2e-3):
        rho_try = rho + offset
        if not 0.0 < rho_try < 1.0:
            continue
        target = 1e-4 * series.alpha(0)
        try:
            n = n_terms if n_terms is not None else terms_for_tolerance(
                series.tail_constant, rho_try, target)
        except Exception as exc:
            best_diag = f"truncation selection failed at rho={rho_try}: {exc}"
            continue
        n = max(n, 8)
        while True:
            tail = series.tail_bound(rho_try, n)
            margin = tail * (1.0 + rho_try) ** 2
            values, dvalues, winding, bound, samples = _contour(
                diagonal_poly(series, n), rho_try, margin)
            if bound > margin:
                zeros = () if not locate or winding == 0 else _locate_zeros(
                    series, values, dvalues, rho_try, winding, residual_factor * series.alpha(0))
                notes = [f"contour perturbed to rho={rho_try}"] if offset else []
                if locate and len(zeros) != winding:
                    notes.append(f"located {len(zeros)} of {winding} certified zeros")
                return ZeroReport(weight_label=label, rho=rho, rho_used=rho_try,
                                  zero_count=winding, located_zeros=zeros, certified=True,
                                  n_terms=n, min_contour_modulus=bound, tail=tail,
                                  contour_samples=samples, diagnostics="; ".join(notes))
            sampled = float(np.abs(values).min())
            if sampled > margin:
                best_diag = (f"contour at rho={rho_try} came within {sampled:.3e} "
                             f"of a zero ({samples} samples)")
                break
            if best is None or bound > best[0]:
                best = (max(bound, 0.0), winding, n, tail, samples, rho_try)
            if n >= kernel.MAX_TERMS:
                best_diag = (f"tail {tail:.3e} never cleared contour minimum {sampled:.3e} "
                             f"at rho={rho_try} within {kernel.MAX_TERMS} terms")
                break
            n = min(2 * n, kernel.MAX_TERMS)
    min_mod, winding, n, tail, samples, rho_used = best or (0.0, 0, 0, math.inf, 0, rho)
    return ZeroReport(weight_label=label, rho=rho, rho_used=rho_used, zero_count=winding,
                      located_zeros=(), certified=False, n_terms=n,
                      min_contour_modulus=min_mod, tail=tail, contour_samples=samples,
                      diagnostics=best_diag or ("certification margin not met" if best
                                                else "no contour attempt succeeded"))


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
        series = KernelSeries(StepWeight.from_plateau(a, x))
        report = count_zeros_winding(series, rho, locate=False)
        return SweepCell(plateau=a, split=x, rho=rho, zero_count=report.zero_count,
                         certified=report.certified, note=report.diagnostics)
    except Exception as exc:  # record in-row, never abort the sweep
        return SweepCell(plateau=a, split=x, rho=rho, zero_count=None,
                         certified=False, note=f"{type(exc).__name__}: {exc}")


def sweep_step_weights(plateau_values, split_values, rho: float = 0.95):
    """Zero counts over a grid of plateau weights (value A on [0,x], 1 outside),
    in (A, x) row order."""
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


def mollify_weight(step, width: float, transition_samples: int = 81) -> SampledWeight:
    """Smooth a piecewise-constant weight across its jumps.

    Each interior jump at r_i is replaced by a C-infinity ramp on
    [r_i - width, r_i + width]; outside these zones the weight is
    unchanged, and since the ramp stays between the neighbouring segment
    values the comparability constant is preserved.  The result is
    returned as a densely sampled weight (piecewise-linear through the
    samples).
    """
    w = as_step(step)
    if width <= 0:
        raise ValueError("width must be positive")
    interior = [b for b in w.breakpoints if b < 1.0]
    if not interior:
        v = w.values[0]
        return SampledWeight(radii=(0.0, 0.5), values=(v, v))
    edges = [0.0, *interior, 1.0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if 2.0 * width >= hi - lo:
            raise ValueError(
                f"width {width} too large: transition zones of neighbouring jumps "
                f"(or the domain ends) would overlap on ({lo}, {hi})")
    radii = [0.0]
    values = [w.values[0]]
    for i, b in enumerate(interior):
        v_left, v_right = w.values[i], w.values[i + 1]
        rr = np.linspace(b - width, b + width, transition_samples)
        vv = v_left + (v_right - v_left) * _smooth_transition((rr - (b - width)) / (2.0 * width))
        radii.extend(rr.tolist())
        values.extend(vv.tolist())
    last = interior[-1] + width
    radii.append(min(0.5 * (last + 1.0), 1.0 - 1e-9))
    values.append(w.values[-1])
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
    if mass < 0:
        raise ValueError(f"mass must be >= 0, got {mass}")
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
def reinhardt_monomial_norm(weight, m: int, j: int) -> float:
    """Squared norm of z^m w^j on the domain {z in D, |w|^2 < lam(z)}.

    Integrating the fibre first gives
        (pi/(j+1)) * int_D |z|^(2m) lam(z)^(j+1) dA(z),
    a radial integral evaluated by ``weights.radial_integral`` (relative
    tolerance 1e-12).  That is the integrator the moment cross-check uses
    too; the identity check below stays independent, because its other side
    comes from the closed-form coefficient series, not from quadrature.
    """
    return (math.pi / (j + 1)) * 2.0 * math.pi * radial_integral(weight, 2 * m + 1, j + 1)[0]


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
    # terms are bounded by (c/pi^2)(m+1)|q|^m, so reuse the series tail rule
    m_used = terms_for_tolerance(c / math.pi, abs(q), tol * 1e-2) if q != 0 else 0
    lhs = complex(sum(q ** m / reinhardt_monomial_norm(weight, m, 0)
                      for m in range(m_used + 1)))
    series = KernelSeries(weight)
    rhs = kernel_eval(series, complex(z), complex(t), tol=tol * 1e-2).value / math.pi
    diff = abs(lhs - rhs)
    return InflationCheck(lhs=lhs, rhs=rhs, abs_diff=diff, agree=diff <= tol, m_used=m_used)
