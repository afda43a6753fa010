"""Independent reference computations and output checks.

Nothing here imports bergkern.  Every expected value is recomputed from the
weight data with the benchmark's own formulas:

* moments: for a radial weight that equals v_out near the boundary,
      (n+1) * mu_n / pi = v_out + g_n,   |g_n| <= G * q^(n+1),
  so alpha_n = (n+1) / (pi * (v_out + g_n)).  g_n is summed in closed form
  for steps and by Gauss-Legendre quadrature on each sloped knot interval
  for sampled weights;
* the diagonal kernel is split as
      F(t) = 1/(pi*v_out*(1-t)^2) + sum_n delta_n t^n,
      delta_n = alpha_n - (n+1)/(pi*v_out),
  where the correction series converges geometrically (ratio q) however
  close |t| is to 1, with an explicit tail bound;
* zero counts come from a winding number of (1-t)^2 F on the circle whose
  sampling is certified by a Lipschitz bound between samples;
* alpha_0, alpha_1 and the affine root of step weights are exact fractions.

Each ``check_*`` function takes a job's parsed output and returns a list of
problems (empty when the output is right).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import betaln

U = np.finfo(float).eps
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


class OracleUndecided(RuntimeError):
    """The reference computation could not reach a certified answer."""


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

class RefWeight:
    """A radial weight given by the JSON spec the CLI accepts."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.kind = spec["type"]
        if self.kind == "constant":
            v = float(spec["value"])
            self.v_out, self.lam_min, self.big_g, self.q = v, v, 0.0, 0.0
            self.comparability = max(v, 1.0 / v)
            self.steps = [(1.0, v)]
        elif self.kind == "step":
            self.steps = [(float(b), float(v)) for b, v in spec["segments"]]
            vals = [v for _, v in self.steps]
            self.v_out, self.lam_min = vals[-1], min(vals)
            self.big_g = sum(abs(a - b) for a, b in zip(vals, vals[1:]))
            self.q = self.steps[-2][0] ** 2 if len(self.steps) > 1 else 0.0
            self.comparability = max(max(vals), 1.0 / min(vals))
        elif self.kind == "sampled":
            self.radii = np.array(spec["radii"], dtype=float)
            self.values = np.array(spec["values"], dtype=float)
            self.v_out, self.lam_min = float(self.values[-1]), float(self.values.min())
            self.big_g = float(np.max(np.abs(self.values - self.v_out)))
            self.q = float(self.radii[-1]) ** 2
            self.comparability = max(float(self.values.max()), 1.0 / self.lam_min)
        elif self.kind == "dirac":
            self.mass = float(spec["mass"])
            self.v_out, self.lam_min, self.big_g, self.q = 1.0, 1.0, self.mass / math.pi, 0.0
            self.comparability = 1.0
        else:
            raise ValueError(f"unknown weight type {self.kind!r}")

    def g(self, n_max: int) -> np.ndarray:
        """g_n for n = 0..n_max, with (n+1)*mu_n/pi = v_out + g_n."""
        n = np.arange(n_max + 1, dtype=float)
        p = 2.0 * n + 2.0
        if self.kind == "constant":
            return np.zeros(n_max + 1)
        if self.kind == "dirac":
            out = np.zeros(n_max + 1)
            out[0] = self.mass / math.pi
            return out
        if self.kind == "step":
            # sum_i v_i (b_i^p - b_{i-1}^p) - v_out = sum_{i<last} (v_i - v_{i+1}) b_i^p
            out = np.zeros(n_max + 1)
            for (b, v), (_, v_next) in zip(self.steps, self.steps[1:]):
                out += (v - v_next) * b ** p
            return out
        # sampled: (2n+2) * int_0^R r^(2n+1) (lam(r) - v_out) dr
        rr, dv = self.radii, self.values - self.v_out
        out = dv[0] * rr[0] ** p
        for a, b, da, db in zip(rr[:-1], rr[1:], dv[:-1], dv[1:]):
            if da == db:
                if da != 0.0:
                    out = out + da * (b ** p - a ** p)
                continue
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            r = mid + half * _GL_NODES
            lam = da + (db - da) * (r - a) / (b - a)
            out = out + p * half * np.sum(_GL_WEIGHTS * lam * r[None, :] ** (p[:, None] - 1.0), axis=1)
        return out

    def alphas(self, n_max: int) -> np.ndarray:
        n = np.arange(n_max + 1, dtype=float)
        return (n + 1.0) / (math.pi * (self.v_out + self.g(n_max)))

    def alpha_pi_exact(self, n: int) -> Fraction:
        """pi * alpha_n as an exact fraction of the (binary) weight data."""
        if self.kind not in ("constant", "step"):
            raise ValueError("exact coefficients need a piecewise-constant weight")
        acc, prev = Fraction(0), Fraction(0)
        for b, v in self.steps:
            fb = Fraction(b)
            acc += Fraction(v) * (fb ** (2 * n + 2) - prev ** (2 * n + 2))
            prev = fb
        return Fraction(n + 1) / acc


# ---------------------------------------------------------------------------
# the diagonal kernel
# ---------------------------------------------------------------------------

class RefKernel:
    """F(t) = m0/(1-t)^2 + sum_{n<=M} delta_n t^n + R(t), |R| <= tail on |t| <= 1."""

    def __init__(self, weight: RefWeight, tail_target: float = 1e-18, max_terms: int = 20000):
        self.weight = weight
        self.m0 = 1.0 / (math.pi * weight.v_out)
        if weight.kind == "dirac":
            big_m, tail = 0, 0.0
        elif weight.big_g == 0.0:
            big_m, tail = 0, 0.0
        else:
            k = weight.big_g / (math.pi * weight.v_out * weight.lam_min)
            q = weight.q
            big_m = 1
            while True:
                # sum_{n>M} (n+1) q^(n+1) = q^(M+2) ((M+2) - (M+1) q) / (1-q)^2
                tail = k * q ** (big_m + 2) * ((big_m + 2) - (big_m + 1) * q) / (1.0 - q) ** 2
                if tail <= tail_target or big_m >= max_terms:
                    break
                big_m = min(2 * big_m, max_terms)
        self.tail = tail
        n = np.arange(big_m + 1, dtype=float)
        g = weight.g(big_m)
        self.delta = -(n + 1.0) * g / (math.pi * weight.v_out * (weight.v_out + g))
        # (1-t)^2 F(t) = m0 + (1-t)^2 * sum delta_n t^n, a polynomial up to the tail
        self.g_coeffs = np.convolve([1.0, -2.0, 1.0], self.delta)
        self.g_coeffs[0] += self.m0

    def value(self, t: complex):
        """(F(t), error bound) for |t| < 1."""
        t = complex(t)
        corr = complex(np.polynomial.polynomial.polyval(t, self.delta.astype(complex)))
        main = self.m0 / (1.0 - t) ** 2
        size = abs(main) + float(np.sum(np.abs(self.delta) * abs(t) ** np.arange(len(self.delta))))
        err = self.tail + 8.0 * (len(self.delta) + 2) * U * size
        return main + corr, err

    def winding(self, rho: float, start: int = 4096, limit: int = 1 << 18) -> int:
        """Number of zeros of F in |t| < rho, certified between samples."""
        c = self.g_coeffs
        k = np.arange(len(c), dtype=float)
        lip = float(np.sum(k[1:] * np.abs(c[1:]) * rho ** (k[1:] - 1.0)))
        rnd = 8.0 * (len(c) + 2) * U * float(np.sum(np.abs(c) * rho ** k))
        outside = 4.0 * self.tail        # |(1-t)^2 R(t)| on the circle
        samples = start
        while samples <= limit:
            theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
            vals = np.polynomial.polynomial.polyval(rho * np.exp(1j * theta), c.astype(complex))
            gap = 2.0 * math.pi * rho / samples
            if float(np.min(np.abs(vals))) - rnd > gap * lip + outside:
                steps = np.angle(np.roll(vals, -1) / vals)
                return int(round(float(np.sum(steps)) / (2.0 * math.pi)))
            samples *= 2
        raise OracleUndecided(f"winding on |t|={rho} undecided with {limit} samples")


_KERNELS: dict = {}
_COUNTS: dict = {}


def ref_kernel(spec: dict) -> RefKernel:
    key = repr(spec)
    if key not in _KERNELS:
        _KERNELS[key] = RefKernel(RefWeight(spec))
    return _KERNELS[key]


def ref_count(spec: dict, rho: float) -> int:
    key = (repr(spec), rho)
    if key not in _COUNTS:
        _COUNTS[key] = ref_kernel(spec).winding(rho)
    return _COUNTS[key]


def plateau_spec(a: float, x: float) -> dict:
    return {"type": "step", "segments": [[x, a], [1.0, 1.0]]}


def tail_majorant(c: float, rho: float, n: int) -> float:
    """sup_{|t|<=rho} |sum_{k>n} alpha_k t^k| for alpha_k <= c (k+1)/pi."""
    return (c / math.pi) * rho ** (n + 1) * ((n + 2) - (n + 1) * rho) / (1.0 - rho) ** 2


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_find_zeros(out: dict, spec: dict, rho: float, locate: bool) -> list:
    bad = []
    if out.get("certified") is not True:
        return ["count not certified"]
    rho_used = float(out["rho_used"])
    if out["rho"] != rho or abs(rho_used - rho) > 2.0000001e-3:
        bad.append(f"contour radius {rho_used} is not within 2e-3 of {rho}")
    weight = RefWeight(spec)
    tail = tail_majorant(weight.comparability, rho_used, int(out["n_terms"]))
    if _rel(out["tail_bound"], tail) > 1e-9:
        bad.append(f"tail bound {out['tail_bound']!r} != {tail!r}")
    if not out["min_contour_modulus"] > tail * (1.0 + rho_used) ** 2:
        bad.append("contour minimum does not clear the tail margin")
    count = ref_count(spec, rho_used)
    if out["zero_count"] != count:
        bad.append(f"zero_count {out['zero_count']} != winding recount {count}")
    zeros = out["located_zeros"]
    if not locate:
        if zeros:
            bad.append("zeros located although locating was off")
        return bad
    if len(zeros) != out["zero_count"]:
        bad.append(f"{len(zeros)} zeros located for a count of {out['zero_count']}")
    kern = ref_kernel(spec)
    for z in zeros:
        loc = complex(z["re"], z["im"])
        if abs(loc) >= rho_used:
            bad.append(f"zero {loc} outside |t| < {rho_used}")
        if spec["type"] == "dirac":
            exact = 1.0 - math.sqrt(1.0 + math.pi / float(spec["mass"]))
            if abs(loc - exact) > 1e-6:
                bad.append(f"zero {loc} != closed form {exact}")
        val, err = kern.value(loc)
        if abs(val) - err > z["residual"]:
            bad.append(f"|F({loc})| >= {abs(val) - err:.3e} exceeds the residual {z['residual']:.3e}")
    return bad


def check_sweep(rows: list, a: float, x_values: list, rho: float) -> list:
    bad = []
    if len(rows) != len(x_values):
        return [f"{len(rows)} rows for {len(x_values)} cells"]
    for row, x in zip(rows, x_values):
        ra, rx, rr = float(row["A"]), float(row["x"]), float(row["rho"])
        if abs(ra - a) > 1e-9 or abs(rx - x) > 1e-9 or rr != rho:
            bad.append(f"cell ({ra},{rx},{rr}) is not ({a},{x},{rho})")
            continue
        if row["certified"] != "True":
            bad.append(f"cell ({a},{x}) not certified: {row['note']}")
            continue
        used = rho
        if row["note"].startswith("contour perturbed to rho="):
            used = float(row["note"].split("=", 1)[1])
        count = 0 if a == 1.0 else ref_count(plateau_spec(a, rx), used)
        if row["zero_count"] != str(count):
            bad.append(f"cell ({a},{x}) counts {row['zero_count']}, recount {count}")
    return bad


def check_lp_probe(rows: list, n_max: int) -> list:
    bad = []
    seen = set()
    by_p: dict = {}
    for p, name, ratio in rows:
        by_p.setdefault(p, []).append((name, ratio))
    for p, entries in by_p.items():
        ratios = []
        for name, ratio in entries:
            if name == "MAX":
                continue
            if ratio == "":
                continue
            r = float(ratio)
            ratios.append(r)
            if name.startswith("z^") and int(name[2:]) <= n_max:
                seen.add(name)
                if abs(r - 1.0) > 1e-9:
                    bad.append(f"p={p} {name}: ratio {r!r} != 1")
            if name.startswith("conj(z)^") and r > 1e-9:
                bad.append(f"p={p} {name}: ratio {r!r} > 1e-9")
            if float(p) == 2.0 and r > 1.0 + 1e-9:
                bad.append(f"p=2 {name}: ratio {r!r} > 1")
        maxes = [float(r) for name, r in entries if name == "MAX"]
        if maxes != [max(ratios)]:
            bad.append(f"p={p}: MAX row {maxes} != {max(ratios)!r}")
    want = {f"z^{m}" for m in (0, 1, 2, 3, 5, 8, 13, 21, 34) if m <= n_max}
    if seen != want:
        bad.append(f"monomial rows {sorted(seen)} != {sorted(want)}")
    return bad


def schur_betas(spec: dict, sequence: str, n_max: int) -> np.ndarray:
    if sequence == "ones":
        return np.ones(n_max + 1)
    alphas = RefWeight(spec).alphas(n_max)
    return np.diff(alphas, prepend=0.0)


def check_schur(header: dict, rows: list, spec: dict, sequence: str, eps: float, n_max: int) -> list:
    bad = []
    betas = schur_betas(spec, sequence, n_max)
    sup = float(np.max(np.abs(betas)))
    if _rel(float(header["sup|beta|"]), sup) > 1e-12:
        bad.append(f"sup|beta| {header['sup|beta|']} != {sup!r}")
    bound = sup ** 2 * math.pi * (1.0 / (eps + 1.0) - 1.0 / eps)
    n = np.arange(n_max + 1, dtype=float)
    log_b = betaln(n + 1.0, eps + 1.0)
    for radius, ratio in rows:
        r, got = float(radius), float(ratio)
        value = float(np.sum(betas ** 2 * r ** (2.0 * n) * math.pi * np.exp(log_b)))
        tail = 0.0 if r == 0.0 else \
            sup ** 2 * math.pi / (eps + 1.0) * r ** (2 * (n_max + 1)) / (1.0 - r ** 2)
        want = (value + tail) / (1.0 - r ** 2) ** eps
        if _rel(got, want) > 1e-9:
            bad.append(f"r={radius}: ratio {got!r} != Beta series {want!r}")
        if not got < bound:
            bad.append(f"r={radius}: ratio {got!r} not under sup^2*pi*(1/(eps+1)-1/eps) = {bound!r}")
    return bad


def check_coeff(out: dict, spec: dict, n_max: int, factor: float) -> list:
    """coeff-check with -N <= 500, so the telescoped sum ends at n_max."""
    bad = []
    w = RefWeight(spec)
    if _rel(out["first_difference_limit"], factor / (math.pi * w.v_out)) > 1e-12:
        bad.append(f"first-difference limit {out['first_difference_limit']!r} != 1/(pi*v_out)")
    last = float(w.alpha_pi_exact(n_max) - w.alpha_pi_exact(n_max - 1)) / math.pi
    if _rel(out["last_first_difference"], factor * last) > 1e-9:
        bad.append(f"last first difference {out['last_first_difference']!r} != {factor * last!r}")
    # (alpha_1 - alpha_0) - (alpha_N - alpha_{N-1}) + (alpha_N - alpha_{N-1})
    a10 = (out["telescoped_value"] + out["last_first_difference"]) / factor
    exact = float(w.alpha_pi_exact(1) - w.alpha_pi_exact(0)) / math.pi
    if _rel(a10, exact) > 1e-9:
        bad.append(f"alpha_1 - alpha_0 = {a10!r} != {exact!r}")
    alphas = w.alphas(n_max)
    sup_b = float(np.max(np.abs(np.diff(alphas, prepend=0.0))))
    if _rel(out["sup_b"], factor * sup_b) > 1e-9:
        bad.append(f"sup_b {out['sup_b']!r} != {factor * sup_b!r}")
    ratios = alphas[1:] / np.arange(1, n_max + 1)
    limsup = float(np.max(ratios[len(ratios) // 2:]))
    if _rel(out["limsup_estimate"], factor * limsup) > 1e-9:
        bad.append(f"limsup estimate {out['limsup_estimate']!r} != {factor * limsup!r}")
    return bad


def check_rouche(out: dict, spec: dict, n_cutoff: int, factor: float) -> list:
    bad = []
    w = RefWeight(spec)
    a0, a1 = w.alpha_pi_exact(0), w.alpha_pi_exact(1)
    slope = a1 - 2 * a0
    root = -a0 / slope
    if out["linear_root"] is None or _rel(out["linear_root"], float(root)) > 1e-12:
        bad.append(f"linear root {out['linear_root']!r} != {float(root)!r}")
    ring = Fraction(out["ring_radius"])
    if _rel(out["ring_radius"], 1.0 - out["epsilon"]) > 1e-15:
        bad.append("ring radius is not 1 - epsilon")
    min_l = abs(a0 - abs(slope) * ring)
    scale = float(a0 + abs(slope) * ring) / math.pi
    if abs(out["min_L"] - factor * float(min_l) / math.pi) > 1e-13 * factor * scale:
        bad.append(f"min_L {out['min_L']!r} != |alpha_0 - |alpha_1 - 2 alpha_0| rho| "
                   f"= {factor * float(min_l) / math.pi!r}")
    tele = float((a1 - a0) - (w.alpha_pi_exact(n_cutoff) - w.alpha_pi_exact(n_cutoff - 1))) / math.pi
    top = float(w.alpha_pi_exact(n_cutoff)) / math.pi
    if abs(out["telescoped_value"] - factor * tele) > 1e-12 * factor * top:
        bad.append(f"telescoped value {out['telescoped_value']!r} != {factor * tele!r}")
    holds = abs(float(root)) < out["ring_radius"] and out["min_L"] > out["S_bound"]
    if out["holds"] != holds:
        bad.append(f"holds={out['holds']} but root and min_L > S_bound say {holds}")
    return bad


def check_split(result: dict) -> list:
    if not (result["lhs"] > 0.0 and result["lhs"] <= result["rhs"] and result["holds"]):
        return [f"split witness fails: lhs {result['lhs']!r} rhs {result['rhs']!r} "
                f"holds {result['holds']}"]
    return []
