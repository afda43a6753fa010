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
  jump (none for a constant), one ``exp``/``expm1`` pair per sloped interval
  of a sampled weight, and mass/pi at n = 0 for the point mass;
* ``alpha_bound`` -- sup alpha_n*pi/(n+1), the constant of every tail
  majorant (the comparability constant; 1 for the point mass, which has none);
* ``v_out``; ``delta_tail(n)`` -- a proven bound on sum_{m>=n} |alpha_m - (m+1)/(pi*v_out)|;
* ``outer_tail_terms()`` -- the pairs (c_i, q_i) with g_n = sum c_i q_i^(n+1)
  exactly, each float within one rounding of its exact value: none for
  the constant, (v_i - v_{i+1}, b_i^2) over the nonzero jumps of a step;
  None for sampled and point-mass shapes, whose g_n is no such sum;
* ``to_json()`` -- the definition-file object read by ``weight_from_json``.

The constructors reject a value whose reciprocal overflows (C would be
infinite) and an outer value whose pi-multiple overflows (it divides alpha_n).

The one numerical route is ``radial_integral``: int_0^1 r^power lam dr by
QUADPACK with the weight's breakpoints as break points.  It backs the
quadrature cross-check of the moments and the monomial norms of the
inflated domain (``zeros.reinhardt_monomial_norm``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

TWO_PI = 2.0 * math.pi
MAX_TERMS = 400_000     # coefficient budget of every truncation and coefficient request


class WeightError(ValueError):
    """Invalid weight definition."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature missed the requested tolerance; the message names the moment index."""


# ---------------------------------------------------------------------------
# weight variants
# ---------------------------------------------------------------------------

def _indices(n_max: int) -> np.ndarray:
    return np.arange(n_max + 1, dtype=float)


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

    @property
    def alpha_bound(self) -> float:
        # the moment sandwich of a function comparable to 1 gives alpha_n <= C*(n+1)/pi
        return self.comparability_constant

    def outer_tail_terms(self):     # None: g_n is no finite geometric sum
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
        p = 2.0 * _indices(n_max) + 2.0
        g = np.zeros_like(p)
        for c, b in self._jumps():
            m = _normal_powers(p, b)
            g[:m] += c * np.exp(p[:m] * math.log(b))
        return g

    @property
    def _geometric_bound(self):     # G the jumps' total size, q the last interior breakpoint squared
        q = self.breakpoints[-2] ** 2 if len(self.breakpoints) > 1 else 0.0
        return sum(abs(c) for c, _ in self._jumps()), q

    def outer_tail_terms(self):
        return tuple((c, b * b) for c, b in self._jumps())

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

    each term a cancellation-free -(r_{j+1}^q - r_j^q).
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
        q = 2.0 * _indices(n_max) + 3.0
        g = np.zeros_like(q)
        rr, vv = self._arrays
        a, b = rr[:-1], rr[1:]
        with np.errstate(divide="ignore", over="ignore"):
            log_ratio = np.log1p((b - a) / a)       # ln(b/a) without cancellation; inf at a = 0
        for s, log_b, lr, m in zip(np.diff(vv) / (b - a), np.log(b), log_ratio, _normal_powers(q, b)):
            if s != 0.0:
                g[:m] += s * np.exp(q[:m] * log_b) * np.expm1(q[:m] * -lr)
        return g / q

    @property
    def _geometric_bound(self):     # |lam - v_out| <= G = max_i |v_i - v_out| on [0, r_last]
        return max(abs(v - self.v_out) for v in self.values), self.radii[-1] ** 2

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
    errs: np.ndarray     # nominal relative error: a fixed 5e-16 for the closed form (not
                         # a proven bound), quad's error estimate for quadrature
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

QUAD_LIMIT = 400    # subintervals quad may use; raised so each breakpoint interval can split once


def radial_integral(weight, power: int, tol: float = 1e-12):
    """int_0^1 r^power lam(r) dr by QUADPACK's QAGP (``scipy.integrate.quad``).

    The weight's interior breakpoints / sample knots are passed as break
    points, so no subinterval straddles a kink or jump.  Returns (value,
    relative error estimate).  quad accepts no relative tolerance below 50
    machine epsilons, so it is asked for at least that.  When its estimate
    misses ``tol``, raises QuadratureError naming that estimate and the
    index n of the monomial r^(2n+1).
    """
    from scipy.integrate import quad    # imported here: nothing else needs scipy at start-up
    if isinstance(weight, DiracAugmentedWeight):
        raise WeightError("point-mass weights have no quadrature path; use the closed form")
    if not tol > 0:
        raise ValueError("tol must be positive")
    pts = [b for b in weight.breakpoints if 0.0 < b < 1.0]

    def integrand(r):
        return r ** power * float(weight.evaluate(r))

    val, err = quad(integrand, 0.0, 1.0, points=pts or None, epsabs=0.0,
                    epsrel=max(tol, 50.0 * np.finfo(float).eps),
                    limit=max(QUAD_LIMIT, 2 * len(pts) + 2), full_output=1)[:2]
    rel = err / abs(val)
    if not rel <= tol:
        raise QuadratureError(f"quadrature error estimate {rel:.2e} misses tol {tol:.2e} "
                              f"at moment index {(power - 1) // 2}")
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
        alphas = alphas_closed_form(weight, n_max)
        return MomentTable(weight, *_frozen_arrays(1.0 / alphas, alphas, np.full(n_max + 1, 5e-16)),
                           method="closed_form")
    rows = [moment_quadrature(weight, n, tol=tol) for n in range(n_max + 1)]
    return MomentTable(weight, *_frozen_arrays(*zip(*rows)), method="quadrature")


def alphas_closed_form(weight, n_max: int) -> np.ndarray:
    """alpha_n = (n+1)/(pi*(v_out + g_n)) for n = 0..n_max, g_n from the weight's ``outer_g``."""
    if n_max > MAX_TERMS:
        raise ValueError(f"coefficient index {n_max} exceeds MAX_TERMS = {MAX_TERMS}")
    return (_indices(n_max) + 1.0) / (math.pi * (weight.v_out + weight.outer_g(n_max)))


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
