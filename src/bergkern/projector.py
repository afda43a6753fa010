"""Discretized weighted projection onto holomorphic functions.

For a radial weight the projection of f onto span{1, z, ..., z^N} is

    Pf(z) = sum_{n<=N} alpha_n z^n <f, w^n>_lam,

so on a polar tensor grid (Gauss nodes in radius per weight segment,
uniform angles) the discrete projector inherits exact monomial
orthogonality: the angular trapezoid rule integrates trigonometric
polynomials of degree < M exactly, and M >= 4N+4 keeps every product
monomial in range.  Truncation error is governed by the kernel tail
bound, not by the grid.  That trapezoid rule is a DFT: <f, w^n>_lam is one
FFT along theta and a contraction against (lam w_r r dtheta) r^n, and Pf
is one inverse FFT of c_n r^n placed at frequencies 0..N.

Also here: L^p norms on the grid, a lower-bound probe of the projection's
L^p operator norm over a family of test functions, and the split-operator
witness ||Tf||_p^(2p) <= ||S1|f|||_p^p * ||S2|f|||_p^p for the factored
kernel (geometric part times difference part).  Both factors depend on
z*conj(w) = r r' e^(i(theta-phi)) and theta-phi stays on the uniform grid,
so T, S1 and S2 are angular convolutions: FFTs along theta, a sum over r'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .kernel import KernelSeries
from .weights import DiracAugmentedWeight

_leggauss = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)

MAX_GRID_POINTS = 1 << 21   # caps R*M, and (nodes per segment)^2: each Gauss rule's matrix


@dataclass(frozen=True)
class DiscreteProjector:
    weight: object
    n_max: int
    radii: np.ndarray            # (R,)
    radial_weights: np.ndarray   # (R,) quadrature weights for int ... dr
    lam: np.ndarray              # (R,) weight values at the radii
    thetas: np.ndarray           # (M,)
    alphas: np.ndarray           # (n_max+1,)

    @cached_property
    def grid(self) -> np.ndarray:
        """Complex grid points, shape (R, M)."""
        return self.radii[:, None] * np.exp(1j * self.thetas[None, :])

    @cached_property
    def weighted_area(self) -> np.ndarray:
        """lam dA weights on the grid: lam * w_r * r * dtheta, shape (R, M)."""
        dtheta = 2.0 * math.pi / len(self.thetas)
        area = (self.radial_weights * self.radii)[:, None] * np.full(len(self.thetas), dtheta)
        return area * self.lam[:, None]

    @cached_property
    def radial_powers(self) -> np.ndarray:
        """r^n for n = 0..n_max, shape (R, n_max+1)."""
        return self.radii[:, None] ** np.arange(self.n_max + 1)


def build_projector(weight, n_max: int, radial_per_segment: int = 200,
                    angular: int | None = None) -> DiscreteProjector:
    """Assemble the polar tensor grid and moment coefficients.

    Weight breakpoints are Gauss segment boundaries so every radial
    integrand is smooth per segment; the angular count defaults to 4N+8.
    """
    if isinstance(weight, DiracAugmentedWeight):
        raise ValueError("the discrete projector needs a function weight")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    edges = sorted({0.0, 1.0, *(b for b in weight.breakpoints if 0.0 < b < 1.0)})
    n_seg = len(edges) - 1
    per = radial_per_segment if n_seg <= 6 else max(8, (radial_per_segment * 6) // n_seg)
    m = angular if angular is not None else 4 * n_max + 8
    if m < 4 * n_max + 4:
        raise ValueError(f"need at least {4 * n_max + 4} angular nodes for exact "
                         f"monomial orthogonality at degree {n_max}, got {m}")
    if n_seg * per * m > MAX_GRID_POINTS or per * per > MAX_GRID_POINTS:
        raise ValueError(f"{n_seg}x{per} radial by {m} angular nodes exceed the grid limit "
                         f"({MAX_GRID_POINTS} points, {math.isqrt(MAX_GRID_POINTS)} per segment)")
    nodes, wts = _leggauss(per)
    radii, radial_weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        radii.append(mid + half * nodes)
        radial_weights.append(half * wts)
    radii = np.concatenate(radii)
    radial_weights = np.concatenate(radial_weights)
    thetas = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    series = KernelSeries(weight)
    return DiscreteProjector(weight=weight, n_max=n_max, radii=radii,
                             radial_weights=radial_weights,
                             lam=weight.evaluate(radii), thetas=thetas,
                             alphas=series.alphas(n_max).copy())


def inner_product(proj: DiscreteProjector, f: np.ndarray, g: np.ndarray) -> complex:
    """Discrete <f, g>_lam = sum w * f * conj(g)."""
    return complex(np.sum(proj.weighted_area * f * np.conj(g)))


def monomial_inner(proj: DiscreteProjector, f: np.ndarray) -> np.ndarray:
    """<f, w^n>_lam for n = 0..n_max: an FFT along theta, then the radial sum."""
    spectrum = np.fft.fft(f, axis=1)[:, :proj.n_max + 1]
    radial = proj.weighted_area[:, :1] * proj.radial_powers
    return np.sum(radial * spectrum, axis=0)


@dataclass(frozen=True)
class ProjectedFunction:
    coeffs: np.ndarray    # c_n = alpha_n * <f, w^n>_lam
    values: np.ndarray    # resampled on the projector grid


def project(proj: DiscreteProjector, f: np.ndarray) -> ProjectedFunction:
    """Apply the truncated projection to grid samples of f."""
    f = np.asarray(f, dtype=complex)
    if f.shape != proj.grid.shape:
        raise ValueError(f"samples must live on the projector grid {proj.grid.shape}, "
                         f"got {f.shape}")
    coeffs = proj.alphas * monomial_inner(proj, f)
    spectrum = np.zeros_like(f)
    spectrum[:, :proj.n_max + 1] = coeffs * proj.radial_powers
    values = np.fft.ifft(spectrum, axis=1) * len(proj.thetas)
    return ProjectedFunction(coeffs=coeffs, values=values)


def lp_norm(proj: DiscreteProjector, f: np.ndarray, p: float) -> float:
    """(int |f|^p lam dA)^(1/p) on the grid."""
    if not 1.0 < p < math.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")
    return float(np.sum(proj.weighted_area * np.abs(f) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# test-function families
# ---------------------------------------------------------------------------

def function_from_spec(spec: dict):
    """Callable (complex points -> values) from a JSON-style description.

    Supported: {"type":"monomial","m":3,"conjugate":false},
    {"type":"radial_power","s":0.5}  for (1-|z|^2)^s,
    {"type":"bump","center":0.3,"width":0.1} for exp(-((|z|-c)/w)^2).
    """
    if not isinstance(spec, dict):
        raise ValueError(f"test-function spec must be an object, got {spec!r}")

    def number(key, default=None):
        try:
            value = float(spec.get(key, default))
        except (TypeError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"test-function spec {spec!r} needs a finite number {key!r}")
        return value

    kind = spec.get("type")
    if kind == "monomial":
        m = int(number("m", 0))
        conj = bool(spec.get("conjugate", False))
        if conj:
            return (lambda z: np.conj(z) ** m), f"conj(z)^{m}"
        return (lambda z: np.asarray(z, dtype=complex) ** m), f"z^{m}"
    if kind == "radial_power":
        s = number("s")
        return (lambda z: (1.0 - np.abs(z) ** 2) ** s), f"(1-|z|^2)^{s:g}"
    if kind == "bump":
        c, w = number("center"), number("width")
        return (lambda z: np.exp(-(((np.abs(z) - c) / w) ** 2))), f"bump({c:g},{w:g})"
    raise ValueError(f"unknown test-function spec {spec!r}")


def default_family(n_max: int, seed: int = 0):
    """(name, callable) pairs: monomials and conjugates up to n_max, radial
    powers, radial bumps, and seeded random trig-poly x radial-profile
    products."""
    specs = []
    for m in (0, 1, 2, 3, 5, 8, 13, 21, 34):
        if m > n_max:
            continue
        specs.append({"type": "monomial", "m": m})
        if m >= 1:
            specs.append({"type": "monomial", "m": m, "conjugate": True})
    specs.extend({"type": "radial_power", "s": s} for s in (0.25, 0.5, 1.0))
    specs.extend({"type": "bump", "center": c, "width": w} for c, w in ((0.3, 0.1), (0.7, 0.1)))
    family = [(name, fn) for fn, name in map(function_from_spec, specs)]
    rng = np.random.default_rng(seed)
    for i in range(3):
        k_max = 6
        c = rng.standard_normal(2 * k_max + 1) + 1j * rng.standard_normal(2 * k_max + 1)
        d = rng.standard_normal(4)

        def fn(z, c=c, d=d, k_max=k_max):
            r, u = np.abs(z), np.exp(1j * np.angle(z))
            trig = np.polyval(c[::-1], u) * u ** -k_max      # sum_k c_k e^(i(k-k_max)theta)
            radial = sum(dj * r ** j for j, dj in enumerate(d))
            return trig * radial

        family.append((f"random_{i}", fn))
    return family


@dataclass(frozen=True)
class ProbeResult:
    weight_label: str
    p: float
    n_max: int
    max_ratio: float
    rows: tuple              # (function name, ratio) pairs; skipped functions carry None


def lp_probe(weight, p_values, n_max: int = 40, radial_per_segment: int = 200,
             angular: int | None = None, family=None, seed: int = 0):
    """Lower-bound probe of ||P||_{L^p(lam)}: max over the family of
    ||Pf||_p / ||f||_p.  A witness of boundedness only -- no claim of
    computing the true operator norm."""
    proj = build_projector(weight, n_max, radial_per_segment, angular)
    fam = family if family is not None else default_family(n_max, seed)
    grid = proj.grid
    moduli = []
    for name, fn in fam:
        samples = np.broadcast_to(np.asarray(fn(grid), dtype=complex), grid.shape)
        moduli.append((name, np.abs(samples), np.abs(project(proj, samples).values)))
    results = []
    label = weight.label()
    for p in p_values:
        rows = []
        for name, abs_f, abs_pf in moduli:
            denom = lp_norm(proj, abs_f, p)
            rows.append((name, lp_norm(proj, abs_pf, p) / denom if denom != 0.0 else None))
        best = max([0.0] + [ratio for _, ratio in rows if ratio is not None])
        results.append(ProbeResult(weight_label=label, p=float(p), n_max=n_max,
                                   max_ratio=best, rows=tuple(rows)))
    return results


# ---------------------------------------------------------------------------
# split-operator witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitWitness:
    lhs: float     # ||Tf||_p^(2p)
    rhs: float     # ||S1|f|||_p^p * ||S2|f|||_p^p
    holds: bool


def cs_split_witness(weight, f, p: float, n_trunc: int = 12,
                     radial: int = 32, angular: int = 48) -> SplitWitness:
    """Numerical check of ||Tf||_p^(2p) <= ||S1|f|||_p^p ||S2|f|||_p^p.

    The kernel factors as (sum (z*conj(w))^n) * (sum b_n (z*conj(w))^n)
    with b the first differences of the weight's coefficients; S1, S2 are
    the squared-modulus operators of the factors applied to |f|, and the
    inequality is two Cauchy-Schwarz steps, valid on any positive grid.
    All integrals here are unweighted (plain dA) and truncated at n_trunc.
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")
    nodes, wts = _leggauss(radial)
    r = 0.5 * (nodes + 1.0)
    thetas = np.linspace(0.0, 2.0 * math.pi, angular, endpoint=False)
    area = (0.5 * wts * r * (2.0 * math.pi / angular))[:, None]     # (R, 1)

    b = np.diff(KernelSeries(weight).alphas(n_trunc), prepend=0.0)
    pts = r[:, None] * np.exp(1j * thetas[None, :])
    fv = np.broadcast_to(np.asarray(f(pts), dtype=complex), pts.shape)

    # both factors at t = r_i r_j e^(i theta_d), shape (R, R, M)
    t = (r[:, None] * r[None, :])[:, :, None] * np.exp(1j * thetas)
    k1 = (1.0 - t ** (n_trunc + 1)) / (1.0 - t)
    k2 = np.zeros_like(t)
    for c in b[::-1]:
        k2 = k2 * t + c

    def convolve(kernel, g):
        # sum_j sum_l kernel[i, j, k - l] g[j, l]: a product of DFTs along theta
        spectrum = np.einsum("ijm,jm->im", np.fft.fft(kernel, axis=2),
                             np.fft.fft(area * g, axis=1))
        return np.fft.ifft(spectrum, axis=1)

    abs_f = np.abs(fv)
    tf = convolve(k1 * k2, fv)
    s1 = np.real(convolve(np.abs(k1) ** 2, abs_f))
    s2 = np.real(convolve(np.abs(k2) ** 2, abs_f))

    lhs = float(np.sum(area * np.abs(tf) ** p) ** 2)
    rhs = float(np.sum(area * s1 ** p) * np.sum(area * s2 ** p))
    return SplitWitness(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs * (1.0 + 1e-12)))
