"""Kernel series evaluation with certified truncation error.

For a radial weight the kernel is K(z,w) = sum_n alpha_n (z*conj(w))^n,
a power series in the single variable t = z*conj(w).  We work with the
one-variable function F(t) = sum_n alpha_n t^n throughout and expose

* the smallest truncation order at which a given tail majorant meets a tolerance,
* point evaluation truncated there for the weight's own ``series_tail(rho, n)``,
* the polynomial (1-t)^2 * (partial sum), whose interior coefficients are
  the second differences of the alpha sequence.

Every routine takes the weight itself: coefficients come from
``weight.alphas(n)`` and the tail majorant from ``weight.series_tail``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .weights import MAX_TERMS


class ToleranceError(RuntimeError):
    """Requested truncation tolerance unreachable within the term budget."""


def terms_for_tolerance(tail, rho: float, tol: float) -> int:
    """Smallest n <= MAX_TERMS with tail(rho, n) <= tol, for a tail majorant decreasing in n."""
    if not tol > 0.0:   # also rejects nan
        raise ValueError("tol must be positive")
    achieved = tail(rho, MAX_TERMS)
    if achieved > tol:
        raise ToleranceError(f"tail bound {achieved:.3e} at {MAX_TERMS} terms exceeds tol {tol:.3e}")
    return bisect.bisect_left(range(MAX_TERMS + 1), True, key=lambda n: tail(rho, n) <= tol)


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
    n = terms_for_tolerance(weight.series_tail, rho, tol)
    coeffs = weight.alphas(n)
    val = complex(np.polynomial.polynomial.polyval(complex(t), coeffs.astype(complex)))
    return KernelValue(value=val, err_bound=weight.series_tail(rho, n), n_used=n)


def _check_in_disc(names: str, *points) -> None:
    """Raise ValueError unless every point lies inside the unit disc (a NaN does not)."""
    if not all(abs(p) < 1.0 for p in points):
        got = ", ".join(map(str, points))
        raise ValueError(f"{names} must lie inside the unit disc, got {got}")


def kernel_eval(weight, z: complex, w: complex, tol: float = 1e-12) -> KernelValue:
    """Two-point kernel value K(z,w) = F(z*conj(w)) with certified error."""
    _check_in_disc("z and w", z, w)
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
