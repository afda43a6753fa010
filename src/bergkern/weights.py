"""Radial weights on the unit disc and their moment sequences.

A radial weight lam(r) on [0,1) acts on the disc through lam(z) = lam(|z|).
Everything downstream is driven by the moments

    mu_n = 2*pi * int_0^1 r^(2n+1) lam(r) dr        (squared norm of z^n)

and the reciprocal coefficients alpha_n = 1/mu_n.  All values are kept in
"true" units: no hidden 2*pi rescaling anywhere.  For a weight comparable
to 1 with constant C (1/C <= lam <= C) the moments are sandwiched,

    pi/(C*(n+1)) <= mu_n <= C*pi/(n+1),

which is the source of every tail bound in the package.

Supported weight shapes:

* ``StepWeight(segments)`` -- piecewise constant, breakpoints ending at 1
* ``ConstantWeight(value)`` -- the one-segment ``StepWeight``: it adds only
  its own label and JSON form, and every closed form is the step's
* ``SampledWeight(radii, values)`` -- piecewise linear through samples,
  constant extrapolation outside the sampled range
* ``DiracAugmentedWeight(mass)`` -- Lebesgue weight 1 plus a point mass at
  the origin; a singular measure, so it has no quadrature path and only
  the n=0 moment is modified.

Every shape is constant (= ``v_out``) on an outer annulus [r_hat, 1), and
``alphas_closed_form`` applies one formula to all of them, for n up to
``MAX_TERMS``,

    alpha_n = (n+1)/(pi*(v_out + g_n)),   g_n = (2n+2) int_0^1 r^(2n+1) (lam - v_out) dr.

Each shape carries its own closed forms, so nothing downstream dispatches
on the type:

* ``outer_g(n_max)`` -- g_0..g_n_max, vectorised over n: one ``exp`` per step
  jump (none for a constant), one blocked (intervals x n) ``exp``/``expm1`` pass
  for a sampled weight, and mass/pi at n = 0 for the point mass;
* ``series_tail(rho, n)`` -- the majorant of |sum_{k>n} alpha_k t^k| on |t| <= rho behind
  every certified truncation, from ``alpha_bound`` = sup alpha_n*pi/(n+1) (the comparability
  constant, read once per weight; 1 for the point mass, which has none);
* ``v_out``; ``delta_tail(n)`` -- a proven bound on sum_{m>=n} |alpha_m - (m+1)/(pi*v_out)|;
* ``second_difference_signs(n)`` -- the signs of alpha_k - 2 alpha_{k-1} + alpha_{k-2},
  k = 2..n, and which of them are proven, or None where the shape has no proof:
  a step proves them from its jumps with a running rounding-error bound (all 0
  for a constant), the point mass exactly; sampled weights prove none;
* ``to_json()`` -- the definition-file object read by ``weight_from_json``.

The constructors reject a value whose reciprocal overflows (C would be
infinite) and an outer value whose pi-multiple overflows (it divides alpha_n).

The one numerical route is ``radial_integral``: int_0^1 r^power lam dr for
every requested power at once, by Gauss panels that end at the breakpoints.
It backs the quadrature cross-check of the moments and the monomial norms
of the inflated domain (``zeros.reinhardt_monomial_norm``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

TWO_PI = 2.0 * math.pi
MAX_TERMS = 400_000     # coefficient budget of every truncation and coefficient request
OUTER_BLOCK = 1 << 16   # entries of one block of a sampled weight's (intervals x n) terms
_U = 0.5 * np.finfo(float).eps               # unit roundoff
_TINY = float(np.finfo(float).smallest_subnormal)


class WeightError(ValueError):
    """Invalid weight definition."""


class QuadratureError(RuntimeError):
    """A quadrature error estimate missed its tolerance; the message names the moment index."""


# ---------------------------------------------------------------------------
# weight variants
# ---------------------------------------------------------------------------

def _frozen_arrays(*columns):
    arrays = tuple(np.array(c) for c in columns)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _check_representable(values: tuple, name: str, outer_name: str):
    """Raise WeightError unless 1/v is finite for every value and pi*v_out for the last."""
    for v in values:
        if 1.0 / v == math.inf:
            raise WeightError(f"{name} {v!r} is too small: its reciprocal overflows")
    if math.pi * values[-1] == math.inf:
        raise WeightError(f"{outer_name} {values[-1]!r} is too large: pi times it overflows")


def _gamma(m):      # Higham's gamma_m = m u / (1 - m u), the relative error of m roundings
    return m * _U / (1.0 - m * _U)


def _normal_powers(exponents: np.ndarray, base):
    # how many leading exponents p keep base^p above 2^-1022; the rest, far inside the
    # |c|*O(u) error of a term c*base^p, are left at 0 (exp is ~100x slower on them)
    return np.searchsorted(exponents, -708.0 / np.log(base), side="right")


class _Weight:
    def alphas(self, n_max: int) -> np.ndarray:
        return alphas_closed_form(self, n_max)

    @property
    def v_out(self) -> float:
        return self.values[-1]

    @property
    def comparability_constant(self) -> float:
        return max(max(self.values), 1.0 / min(self.values))

    @cached_property
    def alpha_bound(self) -> float:
        # the moment sandwich of a function comparable to 1 gives alpha_n <= C*(n+1)/pi
        return self.comparability_constant

    def series_tail(self, rho: float, n: int) -> float:
        """Majorant of |sum_{k>n} alpha_k t^k| on |t| <= rho: alpha_k <= C(k+1)/pi, C = alpha_bound,
        summed exactly, sum_{k>n} (k+1) rho^k = rho^(n+1) ((n+2) - (n+1) rho)/(1-rho)^2."""
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"tail bound needs rho in [0,1), got {rho}")
        if rho == 0.0:
            return 0.0
        c = self.alpha_bound / math.pi
        return c * rho ** (n + 1) * ((n + 2) - (n + 1) * rho) / (1.0 - rho) ** 2

    def second_difference_signs(self, n_cutoff: int):     # None: no proof for this shape
        return None

    def delta_tail(self, n: int) -> float:
        """Proven bound on sum_{m>=n} |delta_m|: delta_m = -alpha_m g_m/v_out with alpha_m <=
        C(m+1)/pi and |g_m| <= G*q^(m+1) (``_geometric_bound``), summed in closed form."""
        big_g, q = self._geometric_bound
        if not (q > 0.0 and big_g > 0.0):
            return 0.0
        return (self.alpha_bound * big_g / (math.pi * self.v_out)) \
            * q ** (n + 1) * ((n + 1) - n * q) / (1.0 - q) ** 2


@dataclass(frozen=True)
class StepWeight(_Weight):
    """Piecewise-constant weight: value ``values[i]`` on (breakpoints[i-1], breakpoints[i]].

    The last breakpoint must be 1 (the value *at* r=1 is irrelevant, the
    closing breakpoint is just a representation convention).  Summation by
    parts turns (n+1)*mu_n/pi = sum_i v_i (b_i^p - b_{i-1}^p), p = 2n+2,
    b_{-1} = 0, into v_out + g_n with g_n = sum_i (v_i - v_{i+1}) b_i^p over
    the nonzero jumps.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) != len(vals) or not bps:
            raise WeightError("breakpoints and values must be equal-length and non-empty")
        if any(not (v > 0 and math.isfinite(v)) for v in vals):
            raise WeightError("all segment values must be strictly positive")
        # written so that a NaN fails them: every comparison with NaN is false
        if not (all(b1 < b2 for b1, b2 in zip(bps, bps[1:])) and bps[0] > 0):
            raise WeightError("breakpoints must be strictly increasing and positive")
        if bps[-1] != 1.0:
            raise WeightError("last breakpoint must be 1")
        _check_representable(vals, "segment value", "outer segment value")
        # evaluate's lookup tables, built once; not fields, so eq and hash ignore them
        object.__setattr__(self, "_arrays", _frozen_arrays(bps, vals))

    @classmethod
    def from_plateau(cls, inner_value: float, split: float) -> "StepWeight":
        """Two-segment weight: ``inner_value`` on [0, split], 1 beyond."""
        if not (0.0 < split < 1.0):
            raise WeightError(f"split must lie in (0,1), got {split}")
        return cls(breakpoints=(split, 1.0), values=(inner_value, 1.0))

    def evaluate(self, r):
        bps, vals = self._arrays
        idx = np.searchsorted(bps, np.asarray(r, dtype=float), side="left")
        return vals[np.clip(idx, 0, len(vals) - 1)]

    def label(self) -> str:
        segs = ",".join(f"({b:g},{v:g})" for b, v in zip(self.breakpoints, self.values))
        return f"step[{segs}]"

    def _jumps(self):
        return [(v1 - v2, b) for b, v1, v2
                in zip(self.breakpoints, self.values, self.values[1:]) if v1 != v2]

    def outer_g(self, n_max: int) -> np.ndarray:
        # exp(p*ln b) is within about (p*|ln b| + 2)u of b^p and p*|ln b|*b^p <= 1/e,
        # so each term is within |c|*O(u) absolutely, as with pow, for every p
        p = np.arange(2.0, 2.0 * n_max + 3.0, 2.0)
        g = np.zeros_like(p)
        for c, b in self._jumps():
            m = _normal_powers(p, b)
            g[:m] += c * np.exp(p[:m] * math.log(b))
        return g

    @cached_property
    def _geometric_bound(self):     # G the jumps' total size, q the last interior breakpoint squared
        q = self.breakpoints[-2] ** 2 if len(self.breakpoints) > 1 else 0.0
        return sum(abs(c) for c, _ in self._jumps()), q

    def second_difference_signs(self, n_cutoff: int):
        """(signs, proven) of d2_k = alpha_k - 2 alpha_{k-1} + alpha_{k-2}, k = 2..n_cutoff.

        With (c_i, q_i) = (v_i - v_{i+1}, b_i^2) per jump, g_n = sum c_i q_i^(n+1), Q = max q_i,
        h_n = sum c_i (q_i/Q)^(n+1) / (v_out + g_n) and alpha_n pi = (n+1)/(v_out + g_n),
        pi d2_k = -(Q^(k-1)/v_out) D_k, D_k = (k+1) Q^2 h_k - 2k Q h_{k-1} + (k-1) h_{k-2}: the
        linear part, whose second differences cancel, drops out and nothing underflows.
        D_k carries a running error bound (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., ch. 3): c_i, q_i within one rounding, q_i/Q gamma_3, the powers
        (q_i/Q)^(n+1) gamma_(4n+3) and Q^(n+1) gamma_(2n+1) (cumulative products), and one
        subnormal spacing per product that may underflow.  It is first order in gammas below
        2e-10, so a sign counts as proven where |D_k| exceeds twice it.  Without jumps every
        d2_k is exactly 0.
        """
        terms, v_out = tuple((c, b * b) for c, b in self._jumps()), self.v_out
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

    def to_json(self) -> dict:
        segments = [[b, v] for b, v in zip(self.breakpoints, self.values)]
        return {"type": "step", "segments": segments}


class ConstantWeight(StepWeight):
    """lam = value on [0, 1): the one-segment step, so every closed form is the step's."""

    def __init__(self, value: float = 1.0):
        if not (value > 0 and math.isfinite(value)):
            raise WeightError(f"constant weight must be positive, got {value}")
        _check_representable((value,), "constant weight", "constant weight")
        super().__init__(breakpoints=(1.0,), values=(value,))

    @property
    def value(self) -> float:
        return self.values[0]

    def label(self) -> str:
        return f"constant({self.value:g})"

    def to_json(self) -> dict:
        return {"type": "constant", "value": self.value}


@dataclass(frozen=True)
class SampledWeight(_Weight):
    """Piecewise-linear interpolation through (radii[i], values[i]).

    Constant extrapolation below the first and above the last sample; the
    comparability constant comes from the sample extrema, which bound the
    interpolant as well.  Integration by parts of f = lam - v_out (0 past
    the last knot), with q = 2n+3 and s_j the slope on [r_j, r_{j+1}], gives

        g_n = -int_0^1 r^q f'(r) dr / q = sum_j s_j r_{j+1}^q expm1(-q ln(r_{j+1}/r_j)) / q,

    each term a cancellation-free -(r_{j+1}^q - r_j^q).  ``outer_g`` sums them in one array
    pass over the sloped intervals and n, in blocks of about OUTER_BLOCK entries, interval after
    interval.  f vanishes from r_f, the first knot whose value and all later ones are v_out, so
    |g_n| <= G r_f^(2n+2) with G = max_i |v_i - v_out| (``_geometric_bound``).
    """

    radii: tuple
    values: tuple

    def __post_init__(self):
        rr = tuple(float(r) for r in self.radii)
        vv = tuple(float(v) for v in self.values)
        object.__setattr__(self, "radii", rr)
        object.__setattr__(self, "values", vv)
        if len(rr) != len(vv) or len(rr) < 2:
            raise WeightError("need at least two samples")
        # written so that a NaN fails them: every comparison with NaN is false
        if not all(r1 < r2 for r1, r2 in zip(rr, rr[1:])):
            raise WeightError("sample radii must be strictly increasing")
        if not (rr[0] >= 0.0 and rr[-1] < 1.0):
            raise WeightError("sample radii must lie in [0,1)")
        if any(not (v > 0 and math.isfinite(v)) for v in vv):
            raise WeightError("sample values must be strictly positive")
        _check_representable(vv, "sample value", "last sample value")
        object.__setattr__(self, "_arrays", _frozen_arrays(rr, vv))

    @property
    def breakpoints(self):
        return tuple(r for r in self.radii if r > 0.0) + (1.0,)

    def evaluate(self, r):
        return np.interp(np.asarray(r, dtype=float), *self._arrays)

    def label(self) -> str:
        return f"sampled[{len(self.radii)} pts, r<={self.radii[-1]:g}]"

    def outer_g(self, n_max: int) -> np.ndarray:
        rr, vv = self._arrays
        s = np.diff(vv) / np.diff(rr)
        a, b, s = [col[s != 0.0] for col in (rr[:-1], rr[1:], s)]     # flat intervals add nothing
        with np.errstate(divide="ignore", over="ignore"):
            log_ratio = np.log1p((b - a) / a)[:, None]      # ln(b/a), no cancellation; inf at a = 0
        # no exponent past _normal_powers' cutoff t at the largest b is used: 2n+3 <= t, n < t/2
        top = min(n_max + 1, int(-708.0 / np.log(b[-1])) // 2) if len(b) else 0
        q, g = np.arange(3.0, 2.0 * top + 2.0, 2.0), np.zeros(n_max + 1)
        m, log_b = _normal_powers(q, b), np.log(b)[:, None]     # m nondecreasing, as b is
        lo = first = 0
        while first < len(m):   # columns lo..hi-1 of each interval whose m exceeds lo; hi <= that m
            hi = min(m[first], lo + max(1, OUTER_BLOCK // (len(m) - first)))
            qb = q[lo:hi]
            terms = s[first:, None] * np.exp(qb * log_b[first:]) * np.expm1(qb * -log_ratio[first:])
            # numpy adds the rows in order over two or more columns, but a lone column pairwise
            g[lo:hi] = terms.sum(axis=0) if hi - lo > 1 else terms.cumsum(axis=0)[-1]
            lo, first = hi, np.searchsorted(m, hi, side="right")
        g[:len(q)] /= q
        return g

    @cached_property
    def _geometric_bound(self):     # G and r_f^2 of the class docstring
        flat = np.max(np.flatnonzero(self._arrays[1] != self.v_out) + 1, initial=0)
        return max(abs(v - self.v_out) for v in self.values), self.radii[flat] ** 2

    def to_json(self) -> dict:
        return {"type": "sampled", "radii": list(self.radii), "values": list(self.values)}


@dataclass(frozen=True)
class DiracAugmentedWeight(_Weight):
    """Lebesgue weight 1 plus ``mass`` times a point mass at the origin.

    Not a function, so there is no comparability constant and no
    quadrature path; the point mass only enters the n=0 monomial norm.
    """

    mass: float
    v_out = 1.0                     # class attributes, not fields
    comparability_constant = None
    alpha_bound = 1.0   # the mass only lowers alpha_0 below 1/pi; every other alpha_n is (n+1)/pi

    def __post_init__(self):
        if not (self.mass >= 0 and math.isfinite(self.mass)):
            raise WeightError(f"point mass must be >= 0, got {self.mass}")

    def label(self) -> str:
        return f"dirac(1+{self.mass:g}*delta0)"

    def outer_g(self, n_max: int) -> np.ndarray:
        return np.concatenate([[self.mass / math.pi], np.zeros(n_max)])     # mu_0 = pi + mass

    def delta_tail(self, n: int) -> float:     # delta_0 = 1/(pi+k) - 1/pi, delta_m = 0 for m >= 1
        g = self.mass / math.pi                 # |delta_0| = g_0/(pi*(1+g_0)), g_0 = k/pi
        return g / (math.pi * (1.0 + g)) if n <= 0 else 0.0

    def second_difference_signs(self, n_cutoff: int):
        # alpha_0 = 1/(pi+k), alpha_n = (n+1)/pi for n >= 1: d2_2 = 1/(pi+k) - 1/pi, later d2_k = 0
        signs = np.zeros(n_cutoff - 1)
        signs[0] = -1.0 if self.mass > 0.0 else 0.0
        return signs, np.ones(n_cutoff - 1, dtype=bool)

    def to_json(self) -> dict:
        return {"type": "dirac", "mass": self.mass}


RadialWeight = Union[StepWeight, SampledWeight, DiracAugmentedWeight]


# ---------------------------------------------------------------------------
# moment table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MomentTable:
    """mu_n, alpha_n and err_n for n = 0..n_max, as read-only arrays."""
    weight: RadialWeight
    mus: np.ndarray
    alphas: np.ndarray
    errs: np.ndarray     # nominal relative error, not a proven bound: a fixed 5e-16 for the
                         # closed form, radial_integral's estimate for quadrature
    method: str          # "closed_form" | "quadrature"

    def sandwich_holds(self) -> bool:
        """(n+1)/(C*pi) <= alpha_n <= C*(n+1)/pi for every n."""
        c = self.weight.comparability_constant
        n1 = np.arange(1, len(self.alphas) + 1, dtype=float)
        lo = n1 / (c * math.pi) * (1 - 10 * self.errs)
        hi = c * n1 / math.pi * (1 + 10 * self.errs)
        return bool(np.all((lo <= self.alphas) & (self.alphas <= hi)))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _leggauss(deg: int):
    """Gauss-Legendre nodes and weights of degree ``deg``; numpy.polynomial loads on first use."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(deg)


QUAD_BLOCK = 1 << 20    # entries of one block of the (powers x nodes) term matrix: caps its memory


def radial_integral(weight, power, tol: float = 1e-12):
    """int_0^1 r^power lam dr = (1/2) int_0^1 s^e lam(sqrt s) ds, s = r^2, e = (power-1)/2, for
    one power or an array of them, by Gauss-Legendre panels in one blocked matrix product.

    Panels end at the breakpoints and at t = 1 - s = 2^-j, j <= 40, grading to r = 1.  They lie
    in s (ends b^2) where s < 1/2 and in t (ends (1-b)(1+b), s^e = exp(e log1p(-t))) where
    t <= 1/2, so every node keeps its relative accuracy.  The relative error estimate is the
    gap between the 24- and 48-node rules plus 8u kappa, kappa Q = sum w_i f_i (1 + |e log s_i|)
    + sum_b b^(2e) |lam(b+) - lam(b-)| v_b / 2 over the 48-node terms (f = s^e lam/2) and the
    breakpoints: Q's condition number under relative errors in each term, in each log s_i and
    in each panel end v_b, which moves the jump there.  An allowance, not a proven bound, that
    the suite checks against 50-digit moments.  Returns (value, estimate), arrays for an array of
    powers; an estimate above ``tol`` raises QuadratureError naming the first such index n.
    """
    if isinstance(weight, DiracAugmentedWeight):
        raise WeightError("point-mass weights have no quadrature path; use the closed form")
    if not tol > 0:
        raise ValueError("tol must be positive")
    bps = np.array([b for b in weight.breakpoints if 0.0 < b < 1.0])
    ends_s, ends_t = bps * bps, (1.0 - bps) * (1.0 + bps)
    jumps = 0.5 * np.abs(weight.evaluate(np.nextafter(bps, 2.0)) - weight.evaluate(bps))
    # a row per node and per breakpoint, at its log s: the 24-node w f, the 48-node w f, and
    # kappa Q's two parts, w f plus the breakpoint terms, and w f |log s| (times e below)
    logs, rows = [2.0 * np.log(bps)], [np.outer(jumps * np.minimum(ends_s, ends_t), [0, 0, 1, 0])]
    halves = ((lambda v: v, np.log, {0.5, *ends_s[ends_s < 0.5]}),        # panels in s <= 1/2
              (lambda v: 1.0 - v, lambda v: np.log1p(-v),                  # panels in t <= 1/2
               {*ends_t[ends_t < 0.5], *(2.0 ** -j for j in range(1, 41))}))
    for to_s, log_s, ends in halves:
        ends = np.array(sorted({0.0, *ends}))
        half = 0.5 * np.diff(ends)[:, None]
        for k, fine in ((24, 0), (48, 1)):
            x, w = _leggauss(k)
            v = (ends[:-1, None] + half * (1.0 + x)).ravel()
            wf = (half * w).ravel() * (0.5 * weight.evaluate(np.sqrt(to_s(v))))
            logs.append(log_s(v))
            rows.append(np.column_stack([wf * (1 - fine), wf * fine, wf * fine,
                                         -wf * logs[-1] * fine]))
    logs, rows = np.concatenate(logs), np.concatenate(rows)
    powers = np.atleast_1d(np.asarray(power))
    exponents = 0.5 * (powers - 1.0)
    sums = np.empty((len(exponents), 4))
    block = max(1, QUAD_BLOCK // len(logs))
    for lo in range(0, len(exponents), block):
        sums[lo:lo + block] = np.exp(np.outer(exponents[lo:lo + block], logs)) @ rows
    coarse, val, kappa, log_part = sums.T
    rel = (np.abs(val - coarse) + 8.0 * _U * (kappa + np.abs(exponents) * log_part)) / val
    missed = np.flatnonzero(~(rel <= tol))
    if len(missed):
        i = missed[0]
        raise QuadratureError(f"quadrature error estimate {rel[i]:.2e} misses tol {tol:.2e} "
                              f"at moment index {(int(powers[i]) - 1) // 2}")
    return (float(val[0]), float(rel[0])) if np.ndim(power) == 0 else (val, rel)


def moment_quadrature(weight, n: int, tol: float = 1e-12):
    """Numerical moment mu_n = 2*pi*int_0^1 r^(2n+1) lam(r) dr.

    Returns (mu, alpha, relative error estimate); see ``radial_integral``.
    """
    if n < 0:
        raise ValueError(f"moment index must be >= 0, got {n}")
    val, err = radial_integral(weight, 2 * n + 1, tol=tol)
    mu = TWO_PI * val
    return mu, 1.0 / mu, err


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------

def moment_table(weight, n_max: int, tol: float = 1e-12, method: str = "auto") -> MomentTable:
    """Moments and coefficients for n = 0..n_max.

    method="auto" uses the exact closed form (every supported shape has
    one, and mu_n = 1/alpha_n); method="quadrature" forces the numerical
    path, which exists for cross-checking and for weight shapes without a
    closed form.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if method != "quadrature":
        alphas = alphas_closed_form(weight, n_max)
        return MomentTable(weight, *_frozen_arrays(1.0 / alphas, alphas, np.full(n_max + 1, 5e-16)),
                           method="closed_form")
    vals, errs = radial_integral(weight, 2 * np.arange(n_max + 1) + 1, tol=tol)
    mus = TWO_PI * vals
    return MomentTable(weight, *_frozen_arrays(mus, 1.0 / mus, errs), method="quadrature")


def alphas_closed_form(weight, n_max: int) -> np.ndarray:
    """alpha_n = (n+1)/(pi*(v_out + g_n)) for n = 0..n_max, g_n from the weight's ``outer_g``."""
    if n_max > MAX_TERMS:
        raise ValueError(f"coefficient index {n_max} exceeds MAX_TERMS = {MAX_TERMS}")
    return np.arange(1.0, n_max + 2.0) / (math.pi * (weight.v_out + weight.outer_g(n_max)))


# ---------------------------------------------------------------------------
# JSON definition files
# ---------------------------------------------------------------------------

def weight_to_json(weight) -> dict:
    return weight.to_json()


def _field(obj: dict, name: str, convert, *default):
    """``convert(obj[name])``; a missing or malformed field raises WeightError naming it."""
    if name not in obj and not default:
        raise WeightError(f"{obj['type']} weight JSON needs a {name!r} field")
    try:
        return convert(obj.get(name, *default))
    except (KeyError, IndexError, TypeError, OverflowError) as exc:
        raise WeightError(
            f"malformed {name!r} field in {obj['type']} weight JSON ({exc})") from None


def _floats(items) -> tuple:
    return tuple(float(x) for x in items)


def weight_from_json(obj: dict):
    try:
        kind = obj["type"]
    except (KeyError, TypeError):
        raise WeightError("weight JSON must be an object with a 'type' field") from None
    if kind == "constant":
        return ConstantWeight(_field(obj, "value", float, 1.0))
    if kind == "step":
        return StepWeight(*_field(obj, "segments", lambda segs: (
            _floats(s[0] for s in segs), _floats(s[1] for s in segs))))
    if kind == "sampled":
        return SampledWeight(_field(obj, "radii", _floats), _field(obj, "values", _floats))
    if kind == "dirac":
        return DiracAugmentedWeight(_field(obj, "mass", float))
    raise WeightError(f"unknown weight type {kind!r}")


def load_weight(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return weight_from_json(json.load(fh))
