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

Every routine takes the weight itself: coefficients come from
``weight.alphas(n)`` and the tail constant C from ``weight.alpha_bound``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .weights import MAX_TERMS


class ToleranceError(RuntimeError):
    """Requested truncation tolerance unreachable within the term budget."""


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
    if not tol > 0.0:   # also rejects nan
        raise ValueError("tol must be positive")
    if rho == 0.0:
        return 0
    achieved = tail_bound(c, rho, MAX_TERMS)
    if achieved > tol:
        raise ToleranceError(f"tail bound {achieved:.3e} at {MAX_TERMS} terms exceeds tol {tol:.3e}")
    return bisect.bisect_left(range(MAX_TERMS + 1), True, key=lambda n: tail_bound(c, rho, n) <= tol)


@dataclass(frozen=True)
class KernelValue:
    value: complex
    err_bound: float
    n_used: int


def eval_diagonal(weight, t: complex, tol: float = 1e-12) -> KernelValue:
    """F(t) = sum alpha_n t^n of the weight with certified truncation error <= tol."""
    rho = abs(t)
    if rho >= 1.0:
        raise ValueError(f"|t| must be < 1, got {rho}")
    n = terms_for_tolerance(weight.alpha_bound, rho, tol)
    coeffs = weight.alphas(n)
    val = complex(np.polynomial.polynomial.polyval(complex(t), coeffs.astype(complex)))
    return KernelValue(value=val, err_bound=tail_bound(weight.alpha_bound, rho, n), n_used=n)


def kernel_eval(weight, z: complex, w: complex, tol: float = 1e-12) -> KernelValue:
    """Two-point kernel value K(z,w) = F(z*conj(w)) with certified error."""
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise ValueError("z and w must lie inside the unit disc")
    return eval_diagonal(weight, z * np.conj(w), tol=tol)


def diagonal_poly(weight, n: int) -> np.ndarray:
    """Coefficients (ascending) of (1-t)^2 * sum_{k<=n} alpha_k t^k.

    Degree n+2.  Coefficient 0 is alpha_0, coefficient 1 is
    alpha_1 - 2*alpha_0, coefficients 2..n are the second differences
    alpha_k - 2*alpha_{k-1} + alpha_{k-2}, and the top two are the
    truncation boundary terms -2*alpha_n + alpha_{n-1} and alpha_n.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    a = weight.alphas(n)
    out = np.empty(n + 3, dtype=float)
    out[0] = a[0]
    out[1] = a[1] - 2.0 * a[0]
    out[2:n + 1] = a[2:] - 2.0 * a[1:-1] + a[:-2]
    out[n + 1] = -2.0 * a[n] + a[n - 1]
    out[n + 2] = a[n]
    return out
