"""Coefficient conditions and Schur-test diagnostics for L^p boundedness.

For an integral operator on the disc with kernel sum_n beta_n (z*conj(w))^n
two coefficient conditions matter:

* necessary: limsup |beta_n|/n finite,
* sufficient: the difference sequence beta_n - beta_{n-1} bounded.

For the kernel of a radial weight both are proven from the weight's
delta-tail: alpha_n = (n+1)/(pi v_out) + delta_n with v_out > 0 and
sum |delta_n| finite (``weight.delta_tail``), so delta_n -> 0 and
limsup alpha_n/n = lim (alpha_{n+1} - alpha_n) = 1/(pi v_out).
``coefficient_conditions`` reports that proof next to finite-range maxima
over the computed coefficients.

The quantitative engine is the weighted integral

    I(eps, z) = int_D |sum beta_n (z*conj(w))^n|^2 (1-|w|^2)^eps dA(w),

which monomial orthogonality reduces to the Beta-function series
sum |beta_n|^2 |z|^(2n) * pi * B(n+1, eps+1).  For bounded sequences it is
dominated by pi*(1/(eps+1) - 1/eps) * (1-|z|^2)^eps, the closed-form
constant checked by ``schur_bound_check``.  A polar quadrature of the
defining integral (trapezoid in angle, Gauss-Jacobi in r^2) is kept as an
independent route (``schur_integral_quadrature``).  The Schur routines
take a real 1-D array beta_0..beta_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class CoefficientConditions:
    """The coefficient conditions for a weight's kernel, in true units."""
    limsup_estimate: float        # max alpha_n/n over the last half of n = 1..N
    sup_diff: float               # max |alpha_n - alpha_{n-1}| over n = 1..N
    sup_b: float                  # the same with b_0 = alpha_0 included
    last_first_difference: float  # alpha_N - alpha_{N-1}
    window_low: Optional[float]   # comparability window of the first differences,
    window_high: Optional[float]  # None for a weight without a comparability constant
    within_window: Optional[bool]  # every computed first difference lies in the window


def coefficient_conditions(weight, n_max: int) -> CoefficientConditions:
    """Both coefficient conditions of the weight's kernel, from one ``weight.alphas(n_max)``.

    Both conditions hold for all n: every weight's constructor requires positive
    values (so v_out > 0) and a last breakpoint or sample radius before 1 below 1
    (so delta_n decays geometrically), which gives limsup alpha_n/n =
    lim (alpha_{n+1} - alpha_n) = 1/(pi v_out) (module docstring).  The fields are
    maxima over the computed range.  For a weight comparable to 1 each factor of
    the moment ratio is squeezed by C, giving
        1/(C^3 pi) <= alpha_{n+1} - alpha_n <= C^3/pi,
    which ``within_window`` checks on n < n_max; there is no window for a point
    mass, which has no C, nor where C^3 overflows.
    """
    if n_max < 10:
        raise ValueError(f"need n_max >= 10 computed coefficients, got {n_max}")
    a = weight.alphas(n_max)
    ratios = a[1:] / np.arange(1, n_max + 1, dtype=float)
    diffs = np.diff(a)
    sup_diff = float(np.max(np.abs(diffs)))
    lo = hi = inside = None
    c = weight.comparability_constant
    try:
        c3 = None if c is None else c ** 3      # Python floats raise on overflow
    except OverflowError:
        c3 = None
    if c3 is not None:
        lo, hi = 1.0 / (c3 * math.pi), c3 / math.pi
        inside = bool(np.all((diffs >= lo * (1 - 1e-12)) & (diffs <= hi * (1 + 1e-12))))
    return CoefficientConditions(
        limsup_estimate=float(np.max(ratios[len(ratios) // 2:])), sup_diff=sup_diff,
        sup_b=max(abs(float(a[0])), sup_diff), last_first_difference=float(diffs[-1]),
        window_low=lo, window_high=hi, within_window=inside)


# ---------------------------------------------------------------------------
# Schur integral
# ---------------------------------------------------------------------------

def log_beta(a: float, b: float) -> float:
    """log B(a,b) via log-Gamma (no overflow for large first argument)."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _check_epsilon(epsilon: float):
    if not -1.0 < epsilon < 0.0:
        raise ValueError(
            f"epsilon must lie in (-1,0): the integral diverges for eps <= -1 and the "
            f"bound argument changes for eps >= 0 (got {epsilon})")


@dataclass(frozen=True)
class SchurIntegral:
    value: float        # partial Beta-function series over the stored coefficients
    tail: float         # certified bound on the remainder if the sequence continues
                        # with |beta_n| <= sup of the stored entries

    @property
    def upper(self) -> float:
        return self.value + self.tail


SCHUR_BLOCK_TERMS = 1 << 20     # entries of one block of the (radii x n) series: caps its memory


def _schur_integrals(betas: np.ndarray, epsilon: float, radii) -> list:
    """``SchurIntegral`` at each radius, every value from one (radii x n) Beta series.

    Each row of the term array is summed on its own, so a value is bit for bit
    the one its radius gives alone.  Rows go in blocks of SCHUR_BLOCK_TERMS entries.
    """
    for r in radii:
        if not 0.0 <= r < 1.0:
            raise ValueError(f"need |z| < 1, got {r}")
    n = np.arange(len(betas))
    beta = np.exp(np.array([log_beta(k + 1.0, epsilon + 1.0) for k in range(len(betas))]))
    weights = np.abs(betas) ** 2
    values = np.empty(len(radii))
    rows = max(1, SCHUR_BLOCK_TERMS // max(1, len(betas)))
    for lo in range(0, len(radii), rows):
        block = np.array(radii[lo:lo + rows], dtype=float)[:, None]
        values[lo:lo + rows] = np.sum(weights * block ** (2 * n) * math.pi * beta, axis=1)
    # remainder past the stored range: |beta_n| <= sup |beta|, B(n+1, eps+1) <= 1/(eps+1)
    sup2 = float(np.max(np.abs(betas), initial=0.0)) ** 2
    return [SchurIntegral(value=float(v), tail=0.0 if r == 0.0 else sup2 * math.pi / (epsilon + 1.0)
                          * r ** (2 * len(betas)) / (1.0 - r ** 2))
            for r, v in zip(radii, values)]


def schur_integral(betas, epsilon: float, z_radius: float) -> SchurIntegral:
    """I(eps, z) by the orthogonality reduction.

    int_D |w|^(2n) (1-|w|^2)^eps dA = pi * B(n+1, eps+1), so
    I = sum_n |beta_n|^2 |z|^(2n) pi B(n+1, eps+1).  The remainder past the
    stored range is bounded geometrically using B(n+1, eps+1) <= B(1, eps+1)
    = 1/(eps+1) and |beta_n| <= sup |beta|.
    """
    _check_epsilon(epsilon)
    return _schur_integrals(np.asarray(betas, dtype=float), epsilon, (z_radius,))[0]


def _jacobi_gauss(m: int, epsilon: float):
    """m-point Gauss rule (nodes, weights) for int_0^1 (1-u)^eps f(u) du, by Golub-Welsch on the
    Jacobi matrix of (1-x)^eps on [-1, 1] (diagonal -eps^2/(s(s+2)), off-diagonal
    2k(k+eps)/(s sqrt(s^2-1)), s = 2k + eps), then u = (1+x)/2."""
    k = np.arange(m, dtype=float)
    s = 2.0 * k + epsilon
    off = 2.0 * k[1:] * (k[1:] + epsilon) / (s[1:] * np.sqrt((s[1:] + 1.0) * (s[1:] - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(-epsilon * epsilon / (s * (s + 2.0)))
                                    + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (1.0 + nodes), vectors[0] ** 2 / (epsilon + 1.0)


SCHUR_MAX_NODES = 2048     # radial Gauss-Jacobi nodes: caps the m x m eigenproblem


def schur_integral_quadrature(betas, epsilon: float, z_radius: float) -> float:
    """Direct polar quadrature of the defining integral (independent route).

    The angular mean A of |sum beta_n (z*conj(w))^n|^2 is exact by the trapezoid rule
    on max(64, n_max+1) angles, one FFT per radius.  With u = r^2 the radial integral
    int_0^1 (1-u)^eps pi A du takes a Gauss-Jacobi rule of ceil(12/sqrt(1-|z|^2)) nodes,
    since A behaves like 1/(1 - |z|^2 u), but of no more than ceil((n_max+2)/2), which is
    exact for A, a polynomial of degree n_max in u.  More than SCHUR_MAX_NODES: ValueError.
    """
    _check_epsilon(epsilon)
    if not 0.0 <= z_radius < 1.0:
        raise ValueError(f"need |z| < 1, got {z_radius}")
    betas = np.asarray(betas, dtype=float)
    n = np.arange(len(betas))
    m = min((len(betas) + 2) // 2, math.ceil(12.0 / math.sqrt((1.0 - z_radius) * (1.0 + z_radius))))
    if m > SCHUR_MAX_NODES:
        raise ValueError(f"|z| = {z_radius} needs a {m}-node radial rule, more than "
                         f"SCHUR_MAX_NODES = {SCHUR_MAX_NODES}")
    u, weights = _jacobi_gauss(m, epsilon)
    means = [np.mean(np.abs(np.fft.fft(betas * z_radius ** n * np.exp(0.5 * n * math.log(x)),
                                       max(64, len(betas)))) ** 2) for x in u]
    return math.pi * float(weights @ means)


@dataclass(frozen=True)
class SchurReport:
    epsilon: float
    z_grid: tuple
    ratios: tuple              # (value + tail) / (1-r^2)^eps per grid radius
    empirical_c: float
    theoretical_c: float       # pi*(1/(eps+1) - 1/eps), valid for sup|beta| <= 1
    sup_beta: float
    passes: bool               # empirical_c <= sup^2 * theoretical_c * (1 + 1e-6)


def schur_theoretical_constant(epsilon: float) -> float:
    _check_epsilon(epsilon)
    return math.pi * (1.0 / (epsilon + 1.0) - 1.0 / epsilon)


def schur_bound_check(betas, epsilon: float, grid) -> SchurReport:
    """Empirical sup of I(eps,z)/(1-|z|^2)^eps over a radius grid vs the
    closed-form constant (after normalizing by sup |beta|^2)."""
    theoretical = schur_theoretical_constant(epsilon)
    betas = np.asarray(betas, dtype=float)
    radii = tuple(float(r) for r in grid)
    ratios = [s.upper / (1.0 - r ** 2) ** epsilon
              for r, s in zip(radii, _schur_integrals(betas, epsilon, radii))]
    empirical = max(ratios)
    sup = float(np.max(np.abs(betas)))
    return SchurReport(epsilon=epsilon, z_grid=radii, ratios=tuple(ratios),
                       empirical_c=float(empirical), theoretical_c=theoretical,
                       sup_beta=sup,
                       passes=bool(empirical <= sup ** 2 * theoretical * (1.0 + 1e-6)))
