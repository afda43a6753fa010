"""Kernel series evaluation with certified truncation error.

For a radial weight the kernel is K(z,w) = sum_n alpha_n (z*conj(w))^n,
a power series in the single variable t = z*conj(w).  We work with the
one-variable function F(t) = sum_n alpha_n t^n throughout and expose

* a closed-form tail majorant from the comparability sandwich
  alpha_n <= C*(n+1)/pi,
* point evaluation with the truncation order chosen so the tail bound
  meets the requested tolerance,
* the polynomial (1-t)^2 * (partial sum), whose interior coefficients are
  the second differences of the alpha sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import alphas_closed_form

MAX_TERMS = 400_000     # coefficient budget of every truncation and coefficient request


class ToleranceError(RuntimeError):
    """Requested truncation tolerance unreachable within the term budget."""

    def __init__(self, message, achieved=None, n_used=None, value=None):
        super().__init__(message)
        self.achieved = achieved
        self.n_used = n_used
        self.value = value


def tail_bound(c: float, rho: float, n: int) -> float:
    """Majorant of |sum_{k>n} alpha_k t^k| on |t| <= rho.

    Uses alpha_k <= c*(k+1)/pi and the exact arithmetico-geometric tail
    sum_{k>n} (k+1) rho^k = rho^(n+1) * ((n+2) - (n+1) rho) / (1-rho)^2.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"tail bound needs rho in [0,1), got {rho}")
    if rho == 0.0:
        return 0.0
    return (c / math.pi) * rho ** (n + 1) * ((n + 2) - (n + 1) * rho) / (1.0 - rho) ** 2


def terms_for_tolerance(c: float, rho: float, tol: float) -> int:
    """Smallest n <= MAX_TERMS with tail_bound(c, rho, n) <= tol (monotone in n)."""
    if rho == 0.0:
        return 0
    if tail_bound(c, rho, MAX_TERMS) > tol:
        raise ToleranceError(
            f"tail bound {tail_bound(c, rho, MAX_TERMS):.3e} at {MAX_TERMS} terms exceeds tol {tol:.3e}",
            achieved=tail_bound(c, rho, MAX_TERMS), n_used=MAX_TERMS)
    lo, hi = 0, 1
    while tail_bound(c, rho, hi) > tol:
        lo, hi = hi, min(2 * hi, MAX_TERMS)
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_bound(c, rho, mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


class KernelSeries:
    """Coefficient cache for one weight, grown on demand.

    The cache starts empty; ``alphas(n)`` extends it, for n up to MAX_TERMS,
    and never mutates existing entries.

    Given explicit ``coeffs`` (alpha_0..alpha_M before ``scale``), the series
    holds exactly those M+1 terms and ``explicit`` is True: they are not the
    weight's own coefficients, so no exact fact about the weight applies.
    """

    def __init__(self, weight, scale: float = 1.0, coeffs=None):
        if scale <= 0:
            raise ValueError("scale factor must be positive")
        self.weight = weight
        self.scale = scale
        self._given = None if coeffs is None else np.asarray(coeffs, dtype=float)
        self._alphas = np.empty(0) if coeffs is None else scale * self._given
        # Effective constant for the tail majorant: sup alpha_n*pi/(n+1).
        self.tail_constant = scale * weight.alpha_bound
        if self.explicit:
            self.tail_constant = max(self.tail_constant, float(np.max(
                self._alphas * math.pi / (np.arange(len(self._alphas)) + 1.0))))

    @property
    def explicit(self) -> bool:
        """True when the coefficients were given rather than taken from the weight."""
        return self._given is not None

    def alphas(self, n_max: int) -> np.ndarray:
        """Coefficients alpha_0..alpha_n_max (extending the cache if needed)."""
        if n_max >= len(self._alphas):
            if self.explicit:
                raise ValueError(f"series with {len(self._alphas)} explicit coefficients "
                                 f"has no alpha_{n_max}")
            if n_max > MAX_TERMS:
                raise ValueError(f"coefficient index {n_max} exceeds MAX_TERMS = {MAX_TERMS}")
            self._alphas = self.scale * alphas_closed_form(
                self.weight, max(n_max, 2 * len(self._alphas)))
        return self._alphas[: n_max + 1]

    def alpha(self, n: int) -> float:
        return float(self.alphas(n)[n])

    def tail_bound(self, rho: float, n: int) -> float:
        return tail_bound(self.tail_constant, rho, n)

    def scaled(self, factor: float) -> "KernelSeries":
        """Series with all coefficients multiplied by factor > 0 (used by the
        scale-invariance checks; zero sets and verdicts must not move)."""
        return KernelSeries(self.weight, scale=self.scale * factor, coeffs=self._given)


@dataclass(frozen=True)
class KernelValue:
    value: complex
    err_bound: float
    n_used: int


def eval_diagonal(series: KernelSeries, t: complex, tol: float = 1e-12) -> KernelValue:
    """F(t) = sum alpha_n t^n with certified truncation error <= tol."""
    rho = abs(t)
    if rho >= 1.0:
        raise ValueError(f"|t| must be < 1, got {rho}")
    n = terms_for_tolerance(series.tail_constant, rho, tol)
    coeffs = series.alphas(n)
    val = complex(np.polynomial.polynomial.polyval(complex(t), coeffs.astype(complex)))
    return KernelValue(value=val, err_bound=series.tail_bound(rho, n), n_used=n)


def kernel_eval(series: KernelSeries, z: complex, w: complex, tol: float = 1e-12) -> KernelValue:
    """Two-point kernel value K(z,w) = F(z*conj(w)) with certified error."""
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise ValueError("z and w must lie inside the unit disc")
    return eval_diagonal(series, z * np.conj(w), tol=tol)


def diagonal_poly(series: KernelSeries, n: int) -> np.ndarray:
    """Coefficients (ascending) of (1-t)^2 * sum_{k<=n} alpha_k t^k.

    Degree n+2.  Coefficient 0 is alpha_0, coefficient 1 is
    alpha_1 - 2*alpha_0, coefficients 2..n are the second differences
    alpha_k - 2*alpha_{k-1} + alpha_{k-2}, and the top two are the
    truncation boundary terms -2*alpha_n + alpha_{n-1} and alpha_n.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    a = series.alphas(n)
    out = np.empty(n + 3, dtype=float)
    out[0] = a[0]
    out[1] = a[1] - 2.0 * a[0]
    out[2:n + 1] = a[2:] - 2.0 * a[1:-1] + a[:-2]
    out[n + 1] = -2.0 * a[n] + a[n - 1]
    out[n + 2] = a[n]
    return out
