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
kernel (geometric part times difference part).  Both factors are
polynomials in t = z*conj(w) = r r' e^(i(theta-phi)), and theta-phi stays on
the uniform grid, so T, S1 and S2 are angular convolutions whose kernels are
sums of (r r')^k e^(id(theta-phi)).  Their DFTs along theta are read off the
coefficients in closed form, frequency d folded to d mod M, and the sum over
r' factors through the powers r^k: no kernel is ever sampled.

The probe's test functions are `TestFunction`s: a radial profile rho(r)
times a finite sum of angular modes a_k e^(ik theta).  P maps
rho(r) e^(ik theta) to a multiple of z^k, which is 0 unless 0 <= k <= N,
and the M-point grid sees mode k at frequency k mod M.  So the probe takes
a whole block of the family in a few array passes: the profiles stack into
an F x R array, the folded modes into an F x M spectrum whose inverse FFT
is the angular factors, and one contraction of the profiles against r^n,
for the n that some member has, gives every c_n.  ||f||_p is a radial norm
times an angular norm, and ||Pf||_p a radial norm whenever at most one c_n
is nonzero (|Pf| = |c_n| r^n).  Only functions with two or more surviving
modes -- the seeded random trig x radial products -- are synthesized on
the grid, as the sum of c_n r^n e^(in theta) over the surviving n alone;
log |Pf|^2 is taken once and exponentiated once per p.  Every norm is its
maximum times a sum of powers of modulus/maximum <= 1, so no p in (1, inf)
overflows or underflows (at p = 1e308 a ratio is max|Pf| / max|f| on the
grid), and blocks keep the memory O(R M) for a family of any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .weights import MAX_TERMS, DiracAugmentedWeight, _leggauss


MAX_GRID_POINTS = 1 << 21   # caps R*M, and (nodes per segment)^2: each Gauss rule's matrix


class GridError(ValueError):
    """A grid that ``build_projector`` refuses; ``params`` names the arguments at fault."""

    def __init__(self, params: tuple, message: str):
        super().__init__(message)
        self.params = params


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
    def radial_area(self) -> np.ndarray:
        """lam dA at each grid point of a radius: lam * w_r * r * dtheta, shape (R,)."""
        dtheta = 2.0 * math.pi / len(self.thetas)
        return self.radial_weights * self.radii * dtheta * self.lam

    @cached_property
    def radial_powers(self) -> np.ndarray:
        """r^n for n = 0..n_max, shape (R, n_max+1)."""
        return self.radii[:, None] ** np.arange(self.n_max + 1)

    @cached_property
    def weighted_powers(self) -> np.ndarray:
        """lam w_r r dtheta r^n, shape (R, n_max+1): the radial half of <f, w^n>_lam."""
        return self.radial_area[:, None] * self.radial_powers


def build_projector(weight, n_max: int, radial_per_segment: int = 200,
                    angular: int | None = None) -> DiscreteProjector:
    """Assemble the polar tensor grid and moment coefficients.

    Weight breakpoints are Gauss segment boundaries so every radial
    integrand is smooth per segment; the angular count defaults to 4N+8.
    """
    if isinstance(weight, DiracAugmentedWeight):
        raise ValueError("the discrete projector needs a function weight")
    if n_max < 0:
        raise GridError(("n_max",), "n_max must be >= 0")
    edges = sorted({0.0, 1.0, *(b for b in weight.breakpoints if 0.0 < b < 1.0)})
    n_seg = len(edges) - 1
    per = radial_per_segment if n_seg <= 6 else max(8, (radial_per_segment * 6) // n_seg)
    m = angular if angular is not None else 4 * n_max + 8
    if m < 4 * n_max + 4:
        raise GridError(("angular",), f"need at least {4 * n_max + 4} angular nodes for exact "
                                      f"monomial orthogonality at degree {n_max}, got {m}")
    if n_seg * per * m > MAX_GRID_POINTS or per * per > MAX_GRID_POINTS:
        raise GridError(("radial_per_segment", "angular"),
                        f"{n_seg}x{per} radial by {m} angular nodes exceed the grid limit "
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
    return DiscreteProjector(weight=weight, n_max=n_max, radii=radii,
                             radial_weights=radial_weights,
                             lam=weight.evaluate(radii), thetas=thetas,
                             alphas=weight.alphas(n_max))


def inner_product(proj: DiscreteProjector, f: np.ndarray, g: np.ndarray) -> complex:
    """Discrete <f, g>_lam = sum w * f * conj(g)."""
    return complex(np.sum(proj.radial_area[:, None] * f * np.conj(g)))


def _synthesize(proj: DiscreteProjector, coeffs: np.ndarray) -> np.ndarray:
    """sum_n c_n z^n on the grid: one inverse FFT of c_n r^n at frequencies 0..N."""
    spectrum = np.zeros((len(proj.radii), len(proj.thetas)), dtype=complex)
    spectrum[:, :proj.n_max + 1] = coeffs * proj.radial_powers
    return np.fft.ifft(spectrum, axis=1) * len(proj.thetas)


def monomial_inner(proj: DiscreteProjector, f: np.ndarray) -> np.ndarray:
    """<f, w^n>_lam for n = 0..n_max: an FFT along theta, then the radial sum."""
    return np.sum(proj.weighted_powers * np.fft.fft(f, axis=1)[:, :proj.n_max + 1], axis=0)


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
    return ProjectedFunction(coeffs=coeffs, values=_synthesize(proj, coeffs))


def _check_exponent(p: float) -> float:
    if not 1.0 < p < math.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")
    return p


def lp_norm(proj: DiscreteProjector, f: np.ndarray, p: float) -> float:
    """(int |f|^p lam dA)^(1/p) on the grid, as max|f| (int (|f|/max|f|)^p lam dA)^(1/p)
    so that no power overflows or underflows."""
    _check_exponent(p)
    abs_f = np.abs(f)
    top = float(np.max(abs_f, initial=0.0))
    if top == 0.0 or not math.isfinite(top):
        return top
    return top * float(np.sum((abs_f / top) ** p, axis=1) @ proj.radial_area) ** (1.0 / p)


# ---------------------------------------------------------------------------
# test-function families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """f(r e^(i theta)) = radial(r) * sum_k a_k e^(i k theta).

    radial maps an array of radii to values; modes holds (k, a_k) pairs
    with integer k.  Called on complex points, f(z) evaluates the same
    product at r = |z| and e^(i theta) = z/|z| (1 at z = 0).
    """
    __test__ = False     # a library class, not a pytest test class

    radial: Callable
    modes: tuple

    def angular(self, u) -> np.ndarray:
        """sum_k a_k u^k at points u = e^(i theta) of the unit circle."""
        u = np.asarray(u, dtype=complex)
        return sum((a * u ** k for k, a in self.modes), np.zeros(u.shape, dtype=complex))

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        return self.radial(r) * self.angular(np.divide(z, r, out=np.ones_like(z), where=r > 0))


def function_from_spec(spec: dict):
    """(TestFunction, name) from a JSON-style description.

    Supported: {"type":"monomial","m":3,"conjugate":false} for z^m or
    conj(z)^m, with m an integer in [0, MAX_TERMS] (default 0) and
    conjugate a boolean (default false);
    {"type":"radial_power","s":0.5}  for (1-|z|^2)^s;
    {"type":"bump","center":0.3,"width":0.1} for exp(-((|z|-c)/w)^2), w > 0.
    s, center and width are finite numbers.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"test-function spec must be an object, got {spec!r}")

    def number(key):
        value = spec.get(key)
        try:
            ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and math.isfinite(value))
        except OverflowError:           # an integer beyond the float range
            ok = False
        if not ok:
            raise ValueError(f"test-function spec {spec!r} needs a finite number {key!r}")
        return float(value)

    kind = spec.get("type")
    if kind == "monomial":
        m = spec.get("m", 0)
        if isinstance(m, float) and m.is_integer():
            m = int(m)
        if isinstance(m, bool) or not isinstance(m, int) or not 0 <= m <= MAX_TERMS:
            raise ValueError(f"test-function spec {spec!r} needs an integer 'm' "
                             f"in [0, MAX_TERMS = {MAX_TERMS}]")
        conj = spec.get("conjugate", False)
        if not isinstance(conj, bool):
            raise ValueError(f"test-function spec {spec!r} needs a boolean 'conjugate'")
        fn = TestFunction(lambda r: r ** m, ((-m if conj else m, 1.0),))
        return fn, (f"conj(z)^{m}" if conj else f"z^{m}")
    if kind == "radial_power":
        s = number("s")
        return TestFunction(lambda r: (1.0 - r ** 2) ** s, ((0, 1.0),)), f"(1-|z|^2)^{s:g}"
    if kind == "bump":
        c, w = number("center"), number("width")
        if not w > 0.0:
            raise ValueError(f"test-function spec {spec!r} needs a positive 'width'")
        return (TestFunction(lambda r: np.exp(-(((r - c) / w) ** 2)), ((0, 1.0),)),
                f"bump({c:g},{w:g})")
    raise ValueError(f"unknown test-function spec {spec!r}")


def default_family(n_max: int, seed: int = 0):
    """(name, TestFunction) pairs: monomials and conjugates up to n_max, radial
    powers, radial bumps, and seeded random trig-poly x radial-profile
    products sum_{|k|<=6} c_k e^(ik theta) * sum_{j<4} d_j r^j."""
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
        radial = lambda r, d=d: sum(dj * r ** j for j, dj in enumerate(d))
        modes = tuple((k - k_max, complex(ck)) for k, ck in enumerate(c))
        family.append((f"random_{i}", TestFunction(radial, modes)))
    return family


@dataclass(frozen=True)
class ProbeResult:
    weight_label: str
    p: float
    n_max: int
    max_ratio: float
    rows: tuple              # (function name, ratio) pairs; skipped functions carry None


def _check_family(family) -> list:
    for entry in family:
        try:
            _, fn = entry
        except (TypeError, ValueError):
            fn = None
        if not isinstance(fn, TestFunction):
            raise ValueError(f"family entry {entry!r} is not a (name, TestFunction) pair")
    return list(family)


def _log_scaled(moduli: np.ndarray) -> tuple:
    """(top, log(moduli / top)) along the last axis; log 0 is -inf."""
    top = moduli.max(axis=-1, keepdims=True)
    return top[..., 0], np.log(moduli / top)


def _power_sums(log_scaled: np.ndarray, ps: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights_k exp(p log_scaled_k) for each p, shape (P, ...); no term exceeds weights_k."""
    return np.exp(ps.reshape(-1, *(1,) * log_scaled.ndim) * log_scaled) @ weights


def _probe_block(proj: DiscreteProjector, fns: list, ps: np.ndarray) -> np.ndarray:
    """||Pf||_p / ||f||_p for each p and each of the test functions fns, shape (P, len(fns)),
    nan where f is 0 on the grid.

    Each norm is its modulus's maximum times (sum of (modulus / maximum)^p)^(1/p), the powers
    taken as exp(p log(modulus / maximum)) <= 1, so no p overflows or underflows.  ||f||_p is
    a radial norm of the profile times an angular norm of the modes, and the modes folded to
    their grid frequencies k mod M are the angular factor's DFT.  One contraction of the
    profiles against r^n, for the frequencies n <= N that some member has, gives every c_n.
    A member with at most one nonzero c_n has |Pf| = |c_n| r^n; each other member gets
    |Pf|^2 on the grid, its log once, and one exp pass per p, all in three reused grid arrays.
    """
    m, area, radii = len(proj.thetas), proj.radial_area, proj.radii
    ones = np.ones(len(radii))                          # a profile may return a scalar
    rho = np.array([fn.radial(radii) * ones for fn in fns])
    spectrum = np.zeros((len(fns), m), dtype=complex)
    np.add.at(spectrum, (np.array([i for i, fn in enumerate(fns) for _ in fn.modes], dtype=int),
                         np.array([k % m for fn in fns for k, _ in fn.modes], dtype=int)),
              np.array([a for fn in fns for _, a in fn.modes], dtype=complex))
    rho_top, rho_log = _log_scaled(np.abs(rho))
    tau_top, tau_log = _log_scaled(np.abs(np.fft.ifft(spectrum, axis=1)) * m)
    f_sums = _power_sums(rho_log, ps, area) * _power_sums(tau_log, ps, np.ones(m))

    cols = np.flatnonzero(spectrum[:, :proj.n_max + 1].any(axis=0))
    powers = radii[:, None] ** cols
    coeffs = proj.alphas[cols] * m * spectrum[:, cols] * (rho @ (area[:, None] * powers))
    nonzero = coeffs != 0.0
    # at most one nonzero c_n: |Pf| = |c_n| r^n on every angle, largest at the outermost radius
    degree = np.max(np.where(nonzero, cols, 0), axis=1, initial=0)
    pf_top = np.max(np.abs(coeffs), axis=1, initial=0.0) * radii.max() ** degree
    pf_sums = m * _power_sums(degree[:, None] * np.log(radii / radii.max()), ps, area)
    multi = np.flatnonzero(nonzero.sum(axis=1) > 1)
    if len(multi):                                      # grid arrays every such member reuses
        pf = np.empty((len(radii), m), dtype=complex)
        log_q, buf = np.empty((2, len(radii), m))
    for i in multi:                                     # Pf = sum of c_n r^n e^(i n theta)
        keep = nonzero[i]
        c = coeffs[i, keep]
        scale = np.abs(c).max()
        np.matmul((c / scale) * powers[:, keep], np.exp(1j * np.outer(cols[keep], proj.thetas)),
                  out=pf)
        np.square(pf.real, out=log_q)
        log_q += np.square(pf.imag, out=buf)
        np.log(log_q, out=log_q)
        top = log_q.max()
        log_q -= top
        pf_top[i] = scale * math.exp(0.5 * top)
        for j, p in enumerate(ps):
            np.multiply(log_q, 0.5 * p, out=buf)
            pf_sums[j, i] = np.exp(buf, out=buf).sum(axis=1) @ area
    f_top = rho_top * tau_top
    ratios = pf_top / f_top * (pf_sums / f_sums) ** (1.0 / ps[:, None])
    return np.where(f_top > 0.0, ratios, np.nan)


def lp_probe(weight, p_values, n_max: int = 40, radial_per_segment: int = 200,
             angular: int | None = None, family=None):
    """Lower-bound probe of ||P||_{L^p(lam)}: max over the family of
    ||Pf||_p / ||f||_p.  A witness of boundedness only -- no claim of
    computing the true operator norm.  family is a list of
    (name, TestFunction) pairs, default_family(n_max) by default; a
    function that is 0 on the grid gets the ratio None."""
    p_values = [_check_exponent(p) for p in p_values]
    fam = _check_family(family if family is not None else default_family(n_max))
    proj = build_projector(weight, n_max, radial_per_segment, angular)
    ps = np.asarray(p_values, dtype=float)
    r, m = len(proj.radii), len(proj.thetas)
    # members per block: its (P, block, R) and (P, block, M) arrays hold at most two grids
    block = max(1, 2 * r * m // (len(ps) * (r + m)))
    ratios = np.empty((len(ps), len(fam)))
    # log 0 and p log(x) for large p are -inf, which exp takes to 0; 0/0 marks f = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, len(fam), block):
            ratios[:, lo:lo + block] = _probe_block(proj, [fn for _, fn in fam[lo:lo + block]], ps)
    results = []
    label = weight.label()
    for p, row in zip(p_values, ratios.tolist()):
        rows = tuple((name, None if math.isnan(ratio) else ratio)
                     for (name, _), ratio in zip(fam, row))
        best = max([0.0] + [ratio for _, ratio in rows if ratio is not None])
        results.append(ProbeResult(weight_label=label, p=float(p), n_max=n_max,
                                   max_ratio=best, rows=rows))
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

    Each kernel is sum_{n,n'} u_n v_n' t^n conj(t)^n' (u = v = 1 for S1,
    u = v = b for S2, and the product series with v = 1 for T), so its
    angular DFT is a (2N+1) x M table of coefficients at power n + n' and
    frequency (n - n') mod M.  A convolution costs two FFTs and two products
    with the R x (2N+1) powers r^k; no R x R x M kernel array is built.
    """
    _check_exponent(p)
    nodes, wts = _leggauss(radial)
    r = 0.5 * (nodes + 1.0)
    thetas = np.linspace(0.0, 2.0 * math.pi, angular, endpoint=False)
    area = (0.5 * wts * r * (2.0 * math.pi / angular))[:, None]     # (R, 1)

    ones, b = np.ones(n_trunc + 1), np.diff(weight.alphas(n_trunc), prepend=0.0)
    pts = r[:, None] * np.exp(1j * thetas[None, :])
    fv = np.broadcast_to(np.asarray(f(pts), dtype=complex), pts.shape)
    powers = r[:, None] ** np.arange(2 * n_trunc + 1)                # (R, 2N+1)

    def convolve(u, v, g):
        # sum_j sum_l kernel[i, j, k - l] g[j, l], the kernel's DFT read off its coefficients
        n, n2 = np.ogrid[:len(u), :len(v)]
        table = np.zeros((powers.shape[1], angular))
        np.add.at(table, (n + n2, (n - n2) % angular), np.outer(u, v))
        spectrum = powers @ (table * (powers.T @ np.fft.fft(area * g, axis=1)))
        return np.fft.ifft(spectrum, axis=1) * angular

    abs_f = np.abs(fv)
    tf = convolve(np.convolve(ones, b), [1.0], fv)
    s1 = np.real(convolve(ones, ones, abs_f))
    s2 = np.real(convolve(b, b, abs_f))

    lhs = float(np.sum(area * np.abs(tf) ** p) ** 2)
    rhs = float(np.sum(area * s1 ** p) * np.sum(area * s2 ** p))
    return SplitWitness(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs * (1.0 + 1e-12)))
