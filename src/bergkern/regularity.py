"""Coefficient conditions and Schur-test diagnostics for L^p boundedness.

For an integral operator on the disc with kernel sum_n beta_n (z*conj(w))^n
two computable conditions are probed:

* necessary: limsup |beta_n|/n finite,
* sufficient: the difference sequence beta_n - beta_{n-1} bounded.

Both are finite-range witnesses with an explicit trend heuristic, flagged
as such -- they observe, they do not prove.

The quantitative engine is the weighted integral

    I(eps, z) = int_D |sum beta_n (z*conj(w))^n|^2 (1-|w|^2)^eps dA(w),

which monomial orthogonality reduces to the Beta-function series
sum |beta_n|^2 |z|^(2n) * pi * B(n+1, eps+1).  For bounded sequences it is
dominated by pi*(1/(eps+1) - 1/eps) * (1-|z|^2)^eps, the closed-form
constant checked by ``schur_bound_check``.  A direct two-dimensional polar
quadrature of the defining integral is kept alongside as an independent
route (``schur_integral_quadrature``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class CoefficientSequence:
    betas: np.ndarray
    source: str = "user"
    weight: object = None      # set when derived from a weight's kernel coefficients

    def __post_init__(self):
        arr = np.asarray(self.betas, dtype=complex)
        if arr.ndim != 1 or len(arr) < 3:
            raise ValueError("need a one-dimensional sequence with at least 3 entries")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sequence entries must be finite")
        object.__setattr__(self, "betas", arr)

    @classmethod
    def from_weight(cls, weight, n_max: int) -> "CoefficientSequence":
        return cls(betas=weight.alphas(n_max), source="weight", weight=weight)

    @property
    def n_max(self) -> int:
        return len(self.betas) - 1

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.betas)))


def _tail_is_flat(window: np.ndarray) -> bool:
    """Trend heuristic on the tail window of a nonnegative sequence.

    Flat means non-increasing, or: the least-squares slope projects to
    under 5% growth of the window's median across the window, and no entry
    exceeds twice that median.  Linearly growing tails fail, bounded noisy
    tails pass.
    """
    if len(window) < 4:
        return True
    if np.all(np.diff(window) <= 1e-12 * max(window.max(), 1.0)):
        return True
    med = float(np.median(window))
    idx = np.arange(len(window), dtype=float)
    slope = float(np.polyfit(idx, window, 1)[0])
    projected_growth = slope * len(window)
    return projected_growth <= 0.05 * max(med, 1e-300) and window.max() <= 2.0 * med


@dataclass(frozen=True)
class NecessaryCheck:
    limsup_estimate: float
    finite_trend: bool
    note: str = "finite-range witness, not a proof"


def necessary_check(seq: CoefficientSequence) -> NecessaryCheck:
    """Witness for limsup |beta_n|/n < infinity.

    Reports the max of |beta_n|/n over the last half of the computed range
    and whether that tail looks flat (see _tail_is_flat).
    """
    if seq.n_max < 10:
        raise ValueError("need at least 10 computed coefficients")
    n = np.arange(1, seq.n_max + 1, dtype=float)
    ratios = np.abs(seq.betas[1:]) / n
    window = ratios[len(ratios) // 2:]
    return NecessaryCheck(limsup_estimate=float(window.max()),
                          finite_trend=_tail_is_flat(window))


@dataclass(frozen=True)
class DifferenceDecomposition:
    b: np.ndarray             # b_n = beta_n - beta_{n-1}, beta_{-1} = 0
    sup_abs: float


def decompose_b(seq: CoefficientSequence) -> DifferenceDecomposition:
    b = np.diff(seq.betas, prepend=0.0 + 0.0j)
    return DifferenceDecomposition(b=b, sup_abs=float(np.max(np.abs(b))))


@dataclass(frozen=True)
class SufficientCheck:
    sup_diff: float
    bounded_verdict: bool
    # filled for weight-derived sequences: the first differences must land in
    # [1/(C^3 pi), C^3/pi] by the comparability chain
    window_low: Optional[float] = None
    window_high: Optional[float] = None
    within_window: Optional[bool] = None
    note: str = "finite-range witness, not a proof"


def sufficient_check(seq: CoefficientSequence) -> SufficientCheck:
    """Witness for boundedness of the difference sequence.

    For sequences coming from a weight comparable to 1 the differences are
    additionally checked against the comparability window: each factor of
    the moment ratio is squeezed by C, giving
        1/(C^3 pi) <= alpha_{n+1} - alpha_n <= C^3/pi.
    """
    if seq.n_max < 10:
        raise ValueError("need at least 10 computed coefficients")
    diffs = np.abs(np.diff(seq.betas))
    window = diffs[len(diffs) // 2:]
    sup_diff = float(diffs.max())
    verdict = _tail_is_flat(window)
    if seq.weight is not None and hasattr(seq.weight, "comparability_constant"):
        c3 = seq.weight.comparability_constant ** 3
        lo, hi = 1.0 / (c3 * math.pi), c3 / math.pi
        real_diffs = np.real(np.diff(seq.betas))
        inside = bool(np.all((real_diffs >= lo * (1 - 1e-12)) & (real_diffs <= hi * (1 + 1e-12))))
        return SufficientCheck(sup_diff=sup_diff, bounded_verdict=verdict,
                               window_low=lo, window_high=hi, within_window=inside)
    return SufficientCheck(sup_diff=sup_diff, bounded_verdict=verdict)


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


@lru_cache(maxsize=8)
def _beta_factors(length: int, epsilon: float) -> np.ndarray:
    """B(n+1, eps+1) for n = 0..length-1, read-only and cached per (length, eps)."""
    beta = np.exp(np.array([log_beta(k + 1.0, epsilon + 1.0) for k in range(length)]))
    beta.flags.writeable = False
    return beta


def schur_integral(seq: CoefficientSequence, epsilon: float, z_radius: float) -> SchurIntegral:
    """I(eps, z) by the orthogonality reduction.

    int_D |w|^(2n) (1-|w|^2)^eps dA = pi * B(n+1, eps+1), so
    I = sum_n |beta_n|^2 |z|^(2n) pi B(n+1, eps+1).  The remainder past the
    stored range is bounded geometrically using B(n+1, eps+1) <= B(1, eps+1)
    = 1/(eps+1) and |beta_n| <= sup |beta|.
    """
    _check_epsilon(epsilon)
    if not 0.0 <= z_radius < 1.0:
        raise ValueError(f"need |z| < 1, got {z_radius}")
    n = np.arange(len(seq.betas))
    terms = np.abs(seq.betas) ** 2 * z_radius ** (2 * n) * math.pi \
        * _beta_factors(len(seq.betas), epsilon)
    value = float(np.sum(terms))
    if z_radius == 0.0:
        tail = 0.0
    else:
        sup2 = seq.sup_abs() ** 2
        tail = sup2 * math.pi / (epsilon + 1.0) \
            * z_radius ** (2 * (seq.n_max + 1)) / (1.0 - z_radius ** 2)
    return SchurIntegral(value=value, tail=tail)


SCHUR_QUAD_TOL = 1e-11     # absolute and relative tolerance of the radial quadrature


def schur_integral_quadrature(seq: CoefficientSequence, epsilon: float, z_radius: float) -> float:
    """Direct polar quadrature of the defining integral (independent route).

    The angular integral of |sum beta_n (z*conj(w))^n|^2 is a trigonometric
    polynomial of degree n_max, integrated exactly by the trapezoid rule;
    the radial factor (1-r^2)^eps is handled by an algebraic-endpoint
    weighted adaptive rule after substituting u = r^2.
    """
    from scipy.integrate import quad    # imported here: nothing else needs scipy at start-up
    _check_epsilon(epsilon)
    n_max = seq.n_max
    m = max(64, n_max + 1)
    thetas = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    phase = np.exp(-1j * thetas)
    betas = seq.betas
    uniform = bool(np.all(betas == betas[0]))

    def angular_mean(radius: float) -> float:
        q = z_radius * radius * phase
        if uniform:
            safe = np.where(np.abs(q - 1.0) > 1e-14, q, 0.0)
            s = betas[0] * (1.0 - safe ** (n_max + 1)) / (1.0 - safe)
        else:
            s = np.zeros_like(q)
            for c in betas[::-1]:
                s = s * q + c
        return float(np.mean(np.abs(s) ** 2))

    val, err = quad(lambda u: math.pi * angular_mean(math.sqrt(u)), 0.0, 1.0,
                    weight="alg", wvar=(0.0, epsilon),
                    epsabs=SCHUR_QUAD_TOL, epsrel=SCHUR_QUAD_TOL, limit=300)
    return val


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


def schur_bound_check(seq: CoefficientSequence, epsilon: float, grid) -> SchurReport:
    """Empirical sup of I(eps,z)/(1-|z|^2)^eps over a radius grid vs the
    closed-form constant (after normalizing by sup |beta|^2)."""
    theoretical = schur_theoretical_constant(epsilon)
    radii = tuple(float(r) for r in grid)
    ratios = [schur_integral(seq, epsilon, r).upper / (1.0 - r ** 2) ** epsilon for r in radii]
    empirical = max(ratios)
    sup = seq.sup_abs()
    return SchurReport(epsilon=epsilon, z_grid=radii, ratios=tuple(ratios),
                       empirical_c=float(empirical), theoretical_c=theoretical,
                       sup_beta=sup,
                       passes=bool(empirical <= sup ** 2 * theoretical * (1.0 + 1e-6)))
