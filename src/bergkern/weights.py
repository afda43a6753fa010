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

* ``ConstantWeight(value)``
* ``StepWeight(segments)`` -- piecewise constant, breakpoints ending at 1
* ``SampledWeight(radii, values)`` -- piecewise linear through samples,
  constant extrapolation outside the sampled range
* ``DiracAugmentedWeight(mass)`` -- Lebesgue weight 1 plus a point mass at
  the origin; a singular measure, so it has no quadrature path and only
  the n=0 moment is modified.

Each shape carries its own closed form, so nothing downstream dispatches
on the type:

* ``alphas(n_max)`` -- alpha_0..alpha_n_max, vectorised over n;
* ``alpha_bound`` -- sup alpha_n*pi/(n+1), the constant of every tail
  majorant (the comparability constant; 1 for the point mass);
* ``outer_tail()`` -- (v_out, G, q) with alpha_n = (n+1)/(pi*(v_out + g_n))
  and |g_n| <= G*q^(n+1): every shape is constant (= v_out) on an outer
  annulus [r_hat, 1), so g_n is geometrically small (q = r_hat^2);
* ``to_json()`` -- the definition-file object read by ``weight_from_json``.

The one numerical route is ``radial_integral``: int_0^1 r^power lam^exponent
dr by QUADPACK with the weight's breakpoints as break points.  It backs the
quadrature cross-check of the moments and the monomial norms of the
inflated domain (``zeros.reinhardt_monomial_norm``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

TWO_PI = 2.0 * math.pi


class WeightError(ValueError):
    """Invalid weight definition."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the best value, its relative error estimate and the moment
    index, so callers can decide whether the partial result is still usable.
    """

    def __init__(self, message, value=None, err=None, index=None):
        super().__init__(message)
        self.value = value
        self.err = err
        self.index = index


# ---------------------------------------------------------------------------
# weight variants
# ---------------------------------------------------------------------------

def _indices(n_max: int) -> np.ndarray:
    return np.arange(n_max + 1, dtype=float)


class _FunctionWeight:
    """A weight that is a function comparable to 1."""

    @property
    def alpha_bound(self) -> float:
        # the moment sandwich gives alpha_n <= C*(n+1)/pi
        return self.comparability_constant


@dataclass(frozen=True)
class ConstantWeight(_FunctionWeight):
    value: float = 1.0

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise WeightError(f"constant weight must be positive, got {self.value}")

    @property
    def comparability_constant(self) -> float:
        return max(self.value, 1.0 / self.value)

    @property
    def breakpoints(self):
        return (1.0,)

    def evaluate(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.value)

    def label(self) -> str:
        return f"constant({self.value:g})"

    def alphas(self, n_max: int) -> np.ndarray:
        return (_indices(n_max) + 1.0) / (math.pi * self.value)

    def outer_tail(self):
        return self.value, 0.0, 0.0

    def to_json(self) -> dict:
        return {"type": "constant", "value": self.value}


@dataclass(frozen=True)
class StepWeight(_FunctionWeight):
    """Piecewise-constant weight: value ``values[i]`` on (breakpoints[i-1], breakpoints[i]].

    The last breakpoint must be 1 (the value *at* r=1 is irrelevant, the
    closing breakpoint is just a representation convention).
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
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])) or bps[0] <= 0:
            raise WeightError("breakpoints must be strictly increasing and positive")
        if bps[-1] != 1.0:
            raise WeightError("last breakpoint must be 1")

    @classmethod
    def from_plateau(cls, inner_value: float, split: float, outer_value: float = 1.0) -> "StepWeight":
        """Two-segment weight: ``inner_value`` on [0, split], ``outer_value`` beyond."""
        if not (0.0 < split < 1.0):
            raise WeightError(f"split must lie in (0,1), got {split}")
        return cls(breakpoints=(split, 1.0), values=(inner_value, outer_value))

    @property
    def comparability_constant(self) -> float:
        return max(max(self.values), 1.0 / min(self.values))

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        idx = np.searchsorted(np.array(self.breakpoints), r, side="left")
        idx = np.clip(idx, 0, len(self.values) - 1)
        return np.array(self.values)[idx]

    def label(self) -> str:
        segs = ",".join(f"({b:g},{v:g})" for b, v in zip(self.breakpoints, self.values))
        return f"step[{segs}]"

    def alphas(self, n_max: int) -> np.ndarray:
        """mu_n = (pi/(n+1)) * sum_i v_i * (r_i^(2n+2) - r_{i-1}^(2n+2)),  r_{-1} = 0."""
        # at least two exponents: numpy squares a lone exponent 2 (x*x), which rounds
        # differently from its power loop, and alphas(0) must equal alphas(n)[0]
        ns = _indices(max(n_max, 1))
        bps = np.array(self.breakpoints)[:, None]
        vals = np.array(self.values)[:, None]
        prev = np.concatenate([[0.0], self.breakpoints[:-1]])[:, None]
        powers = 2.0 * ns + 2.0
        mus = math.pi / (ns + 1.0) * np.sum(vals * (bps ** powers - prev ** powers), axis=0)
        return 1.0 / mus[: n_max + 1]

    def outer_tail(self):
        if len(self.values) == 1:
            return self.values[0], 0.0, 0.0
        jumps = sum(abs(v1 - v2) for v1, v2 in zip(self.values, self.values[1:]))
        return self.values[-1], jumps, self.breakpoints[-2] ** 2

    def to_json(self) -> dict:
        segments = [[b, v] for b, v in zip(self.breakpoints, self.values)]
        return {"type": "step", "segments": segments}


@dataclass(frozen=True)
class SampledWeight(_FunctionWeight):
    """Piecewise-linear interpolation through (radii[i], values[i]).

    Constant extrapolation below the first and above the last sample; the
    comparability constant comes from the sample extrema, which bound the
    interpolant as well.
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
        if any(r2 <= r1 for r1, r2 in zip(rr, rr[1:])):
            raise WeightError("sample radii must be strictly increasing")
        if rr[0] < 0.0 or rr[-1] >= 1.0:
            raise WeightError("sample radii must lie in [0,1)")
        if any(not (v > 0 and math.isfinite(v)) for v in vv):
            raise WeightError("sample values must be strictly positive")

    @property
    def comparability_constant(self) -> float:
        return max(max(self.values), 1.0 / min(self.values))

    @property
    def breakpoints(self):
        return tuple(r for r in self.radii if r > 0.0) + (1.0,)

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        return np.interp(r, self.radii, self.values)

    def label(self) -> str:
        return f"sampled[{len(self.radii)} pts, r<={self.radii[-1]:g}]"

    def alphas(self, n_max: int) -> np.ndarray:
        """Exact moments of the interpolant, one knot interval at a time.

        On [a, b] lam(r) = c0 + c1*r, so with p = 2n+2, q = 2n+3
        int_a^b r^(2n+1) lam dr = c0*(b^p - a^p)/p + c1*(b^q - a^q)/q,
        plus the flat pieces [0, r_0] and [r_last, 1].  Each step is
        vectorised over n; memory stays O(n_max) whatever the knot count.
        """
        ns = _indices(n_max)
        p, q = 2.0 * ns + 2.0, 2.0 * ns + 3.0
        rr, vv = self.radii, self.values
        a_p, a_q = rr[0] ** p, rr[0] ** q
        below = vv[0] * a_p / p
        inner = np.zeros_like(ns)
        for a, b, va, vb in zip(rr, rr[1:], vv, vv[1:]):
            c1 = (vb - va) / (b - a)
            c0 = va - c1 * a
            b_p, b_q = b ** p, b ** q
            inner += c0 * (b_p - a_p) / p + c1 * (b_q - a_q) / q
            a_p, a_q = b_p, b_q
        above = vv[-1] * (1.0 - a_p) / p
        return 1.0 / (TWO_PI * (below + inner + above))

    def outer_tail(self):
        v_out = self.values[-1]
        return v_out, v_out + max(self.values), self.radii[-1] ** 2

    def to_json(self) -> dict:
        return {"type": "sampled", "radii": list(self.radii), "values": list(self.values)}


@dataclass(frozen=True)
class DiracAugmentedWeight:
    """Lebesgue weight 1 plus ``mass`` times a point mass at the origin.

    Not a function, so there is no comparability constant and no
    quadrature path; the point mass only enters the n=0 monomial norm.
    """

    mass: float

    def __post_init__(self):
        if not (self.mass >= 0 and math.isfinite(self.mass)):
            raise WeightError(f"point mass must be >= 0, got {self.mass}")

    def label(self) -> str:
        return f"dirac(1+{self.mass:g}*delta0)"

    @property
    def alpha_bound(self) -> float:
        # the mass only lowers alpha_0 below 1/pi; every other alpha_n is (n+1)/pi
        return 1.0

    def alphas(self, n_max: int) -> np.ndarray:
        al = (_indices(n_max) + 1.0) / math.pi
        al[0] = 1.0 / (math.pi + self.mass)
        return al

    def outer_tail(self):
        # alpha_n exact (n+1)/pi for n>=1; only g_0 = mass/pi is nonzero, and
        # G*q = mass/pi meets it while G*q^(n+1) for n >= 1 is negligible.
        return 1.0, self.mass * 2.0 ** 200 / math.pi, 2.0 ** -200

    def to_json(self) -> dict:
        return {"type": "dirac", "mass": self.mass}


RadialWeight = Union[ConstantWeight, StepWeight, SampledWeight, DiracAugmentedWeight]


def as_step(weight) -> StepWeight:
    """View a constant weight as a one-segment step (identity on steps)."""
    if isinstance(weight, StepWeight):
        return weight
    if isinstance(weight, ConstantWeight):
        return StepWeight(breakpoints=(1.0,), values=(weight.value,))
    raise WeightError(f"not a piecewise-constant weight: {weight!r}")


# ---------------------------------------------------------------------------
# moment table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentEntry:
    n: int
    mu: float
    alpha: float
    method: str          # "closed_form" | "quadrature"
    err: float           # relative error bound on the computed moment


@dataclass(frozen=True)
class MomentTable:
    weight: RadialWeight
    entries: tuple

    @property
    def alphas(self) -> np.ndarray:
        return np.array([e.alpha for e in self.entries], dtype=float)

    @property
    def mus(self) -> np.ndarray:
        return np.array([e.mu for e in self.entries], dtype=float)

    def sandwich_holds(self) -> bool:
        """(n+1)/(C*pi) <= alpha_n <= C*(n+1)/pi for every entry."""
        c = self.weight.comparability_constant
        for e in self.entries:
            lo = (e.n + 1) / (c * math.pi) * (1 - 10 * e.err)
            hi = c * (e.n + 1) / math.pi * (1 + 10 * e.err)
            if not (lo <= e.alpha <= hi):
                return False
        return True


# ---------------------------------------------------------------------------
# exact rationals
# ---------------------------------------------------------------------------

def step_alpha_pi_fraction(weight, n: int) -> Fraction:
    """alpha_n * pi as an exact rational, for steps with rational data.

    The step moments are rational multiples of pi, so signs of coefficient
    combinations (first/second differences) can be certified exactly even
    where float64 cancels to roundoff noise.
    """
    if n < 0:
        raise ValueError(f"moment index must be >= 0, got {n}")
    w = as_step(weight)
    acc = Fraction(0)
    prev = Fraction(0)
    for b, v in zip(w.breakpoints, w.values):
        fb = Fraction(b).limit_denominator(10**12)
        acc += Fraction(v).limit_denominator(10**12) * (fb ** (2 * n + 2) - prev ** (2 * n + 2))
        prev = fb
    return (n + 1) / acc  # alpha_n * pi = (n+1) / (acc)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

QUAD_LIMIT = 400    # subintervals quad may use; raised so each breakpoint interval can split once


def radial_integral(weight, power: int, exponent: int = 1, tol: float = 1e-12):
    """int_0^1 r^power lam(r)^exponent dr by QUADPACK's QAGP (``scipy.integrate.quad``).

    The weight's interior breakpoints / sample knots are passed as break
    points, so no subinterval straddles a kink or jump.  Returns (value,
    relative error estimate).  quad accepts no relative tolerance below 50
    machine epsilons, so it is asked for at least that.  When its estimate
    misses ``tol``, raises QuadratureError carrying the best value, that
    estimate and the index n of the monomial r^(2n+1).
    """
    from scipy.integrate import quad    # imported here: nothing else needs scipy at start-up
    if isinstance(weight, DiracAugmentedWeight):
        raise WeightError("point-mass weights have no quadrature path; use the closed form")
    if not tol > 0:
        raise ValueError("tol must be positive")
    pts = [b for b in weight.breakpoints if 0.0 < b < 1.0]

    def integrand(r):
        return r ** power * float(weight.evaluate(r)) ** exponent

    val, err = quad(integrand, 0.0, 1.0, points=pts or None, epsabs=0.0,
                    epsrel=max(tol, 50.0 * np.finfo(float).eps),
                    limit=max(QUAD_LIMIT, 2 * len(pts) + 2), full_output=1)[:2]
    rel = err / abs(val)
    if not rel <= tol:
        raise QuadratureError(f"quadrature error estimate {rel:.2e} misses tol {tol:.2e}",
                              value=val, err=rel, index=(power - 1) // 2)
    return val, rel


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
        return MomentTable(weight=weight, entries=tuple(
            MomentEntry(n, 1.0 / alpha, alpha, "closed_form", 5e-16)
            for n, alpha in enumerate(alphas_closed_form(weight, n_max).tolist())))
    entries = []
    for n in range(n_max + 1):
        mu, alpha, err = moment_quadrature(weight, n, tol=tol)
        entries.append(MomentEntry(n, mu, alpha, "quadrature", err))
    return MomentTable(weight=weight, entries=tuple(entries))


def alphas_closed_form(weight, n_max: int) -> np.ndarray:
    """alpha_0..alpha_n_max from the weight's own closed form."""
    return weight.alphas(n_max)


# ---------------------------------------------------------------------------
# JSON definition files
# ---------------------------------------------------------------------------

def weight_to_json(weight) -> dict:
    return weight.to_json()


def weight_from_json(obj: dict):
    try:
        kind = obj["type"]
    except (KeyError, TypeError):
        raise WeightError("weight JSON must be an object with a 'type' field") from None
    if kind == "constant":
        return ConstantWeight(value=float(obj.get("value", 1.0)))
    if kind == "step":
        segs = obj["segments"]
        return StepWeight(breakpoints=tuple(s[0] for s in segs), values=tuple(s[1] for s in segs))
    if kind == "sampled":
        return SampledWeight(radii=tuple(obj["radii"]), values=tuple(obj["values"]))
    if kind == "dirac":
        return DiracAugmentedWeight(mass=float(obj["mass"]))
    raise WeightError(f"unknown weight type {kind!r}")


def load_weight(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return weight_from_json(json.load(fh))
