import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergkern import (ConstantWeight, DiracAugmentedWeight, StepWeight,
                      auto_rouche_epsilon, diagonal_poly, count_zeros_winding, dirac_kernel_value,
                      dirac_zero_threshold, inflation_check, mollify_weight,
                      reinhardt_monomial_norm, rouche_certificate, second_difference_bound,
                      tail_bound, WeightError, kernel, sweep_step_weights, zeros)
from bergkern.zeros import min_affine_modulus_on_circle
from rational_oracle import second_difference_signs, step_alpha_pi_fraction

PI = math.pi
_polyval = np.polynomial.polynomial.polyval

# dense-sampling/bisection oracle for the plateau kernel's one zero
STEP_ZERO = -0.476874666838925


# --------------------------------------------------------------------------
# second differences
# --------------------------------------------------------------------------

def test_second_difference_plateau(step18):
    sd = second_difference_bound(step18, 400)
    assert sd.all_negative and sd.sign_certified
    # telescoped limit: (alpha_1 - alpha_0) - 1/pi = 391/(1001*pi)
    exact = float(Fraction(391, 1001)) / PI
    assert abs(sd.s_bound - exact) <= 1e-12
    assert abs(sd.telescoped_value - exact) <= 1e-12
    assert sd.remainder_bound <= 1e-30
    assert sd.first_difference_limit == pytest.approx(1.0 / PI, rel=1e-14)


def test_second_difference_telescoping_identity(step18):
    n = 123
    a = step18.alphas(n)
    sd = second_difference_bound(step18, n)
    assert sd.telescoped_value == pytest.approx(
        (a[1] - a[0]) - (a[n] - a[n - 1]), abs=1e-15)


def test_second_difference_constant_is_zero(const1):
    sd = second_difference_bound(const1, 200)
    assert sd.s_bound <= 1e-13
    assert sd.remainder_bound == 0.0


def test_second_difference_brute_force_oracle(step18):
    # exact-rational |.| summation to k=450 (remainder ~16^-450) must agree
    # with the certified bound; exact arithmetic sidesteps float noise
    a = [step_alpha_pi_fraction(step18, n) for n in range(451)]
    brute = float(sum(abs(a[k] - 2 * a[k - 1] + a[k - 2]) for k in range(2, 451))) / PI
    sd = second_difference_bound(step18, 400)
    assert sd.s_bound == pytest.approx(brute, abs=1e-12)


def test_exact_sign_claim_covers_the_whole_cutoff(step18):
    # the signs are proven from the float data up to any cutoff, MAX_TERMS included
    for n_cutoff in (400, 1000, kernel.MAX_TERMS):
        sd = second_difference_bound(step18, n_cutoff)
        assert sd.sign_certified and sd.all_negative


def test_mixed_sign_plateau_is_certified_not_negative():
    sd = second_difference_bound(StepWeight.from_plateau(11.0, 0.95), 400)
    assert sd.sign_certified and not sd.all_negative
    assert sd.s_bound == pytest.approx(sd.partial_sum + sd.remainder_bound, rel=1e-15)


def test_equal_valued_steps_are_certified_flat():
    weight = StepWeight(breakpoints=(0.3, 0.6, 1.0), values=(2.0, 2.0, 2.0))
    assert weight.outer_tail_terms() == ()
    sd = second_difference_bound(weight, 300)
    assert sd.sign_certified and not sd.all_negative
    # every d2 is exactly 0, so the partial sum telescopes to (alpha_1-alpha_0) - (alpha_N-alpha_{N-1})
    assert sd.s_bound == sd.telescoped_value and abs(sd.s_bound) <= 1e-13
    signs, proven = zeros._second_difference_signs(2.0, (), 300)
    assert proven.all() and not signs.any()


def test_weights_without_geometric_terms_are_not_sign_certified(step18):
    for weight in (mollify_weight(step18, 1e-3), DiracAugmentedWeight(10.0)):
        assert weight.outer_tail_terms() is None
        assert not second_difference_bound(weight, 200).sign_certified


_DYADIC_SPLITS = st.lists(st.integers(1, 63), min_size=1, max_size=2, unique=True)


@settings(max_examples=25, deadline=None)
@given(splits=_DYADIC_SPLITS, values=st.lists(st.integers(1, 64), min_size=3, max_size=3))
def test_proven_signs_match_the_exact_oracle(splits, values):
    # two- and three-step weights with dyadic data: breakpoints j/64, values j/8
    bps = tuple(sorted(j / 64.0 for j in splits)) + (1.0,)
    weight = StepWeight(breakpoints=bps, values=tuple(v / 8.0 for v in values[:len(bps)]))
    signs, proven = zeros._second_difference_signs(
        weight.values[-1], weight.outer_tail_terms(), 400)
    exact = np.array(second_difference_signs(weight, 400))
    assert np.array_equal(signs[proven], exact[proven])
    sd = second_difference_bound(weight, 400)
    assert sd.sign_certified == bool(proven.all())
    if sd.sign_certified:
        assert sd.all_negative == bool(np.all(exact < 0))


@pytest.mark.parametrize("a, k", [(2.0, 10), (2.0, 40), (0.5, 10), (0.5, 20), (18.0, 20)])
def test_signs_at_a_sign_change_are_never_wrong(a, k):
    # bisect the plateau radius x to where d2_k changes sign: there d2_k sinks below the
    # float error of its terms, so float signs are wrong on some nearby x, proven ones never
    def sign_at(x):
        w = StepWeight.from_plateau(a, x)
        return zeros._second_difference_signs(1.0, w.outer_tail_terms(), k)[0][-1]

    lo, hi = 0.05, 0.99
    s_lo = sign_at(lo)
    assert sign_at(hi) != s_lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if sign_at(mid) == s_lo else (lo, mid)
    x = np.nextafter(lo, 0.0, dtype=float)
    for _ in range(24):
        weight = StepWeight.from_plateau(a, float(x))
        signs, proven = zeros._second_difference_signs(1.0, weight.outer_tail_terms(), k)
        exact = np.array(second_difference_signs(weight, k))
        assert np.array_equal(signs[proven], exact[proven]), x
        x = np.nextafter(x, 1.0)


def test_explicit_coefficients_are_never_sign_certified(step18):
    # the plateau's own coefficients, but given explicitly: the exact check is
    # about the weight, so it must not vouch for them
    a = step18.alphas(400)
    sd = second_difference_bound(step18, 400, alphas=a)
    assert sd.all_negative and not sd.sign_certified
    assert not rouche_certificate(step18, 0.01, alphas=a).second_differences.sign_certified


def test_second_difference_rejects_tiny_cutoff(step18):
    with pytest.raises(ValueError):
        second_difference_bound(step18, 1)


# --------------------------------------------------------------------------
# certificate
# --------------------------------------------------------------------------

def test_certificate_holds_at_small_eps(step18):
    cert = rouche_certificate(step18, 0.01)
    assert cert.holds
    assert cert.linear_root == pytest.approx(-91.0 / 170.0, abs=1e-15)
    assert cert.min_l == pytest.approx(0.1310974583, abs=1e-9)
    assert cert.s_bound == pytest.approx(0.1243348307, abs=1e-9)
    assert cert.ring_radius == 0.99


def test_certificate_fails_at_larger_eps(step18):
    cert = rouche_certificate(step18, 0.05)
    assert not cert.holds
    assert cert.min_l == pytest.approx(0.1195649523, abs=1e-9)
    assert cert.min_l < cert.s_bound


def test_certificate_constant_weight_inconclusive(const1):
    cert = rouche_certificate(const1, 0.01)
    assert cert.linear_root is None
    assert not cert.holds
    assert cert.s_bound <= 1e-13


def test_certificate_rejects_bad_eps(step18):
    with pytest.raises(ValueError):
        rouche_certificate(step18, 0.0)
    with pytest.raises(ValueError):
        rouche_certificate(step18, 1.0)


def test_min_affine_modulus_formula_branch(step18):
    # min|L| = (alpha_1 - 3 alpha_0) - eps(alpha_1 - 2 alpha_0) while the
    # affine root stays inside the ring
    a0, a1 = step18.alphas(1)
    for eps in (0.005, 0.01, 0.05, 0.2):
        cert = rouche_certificate(step18, eps)
        if abs(cert.linear_root) < cert.ring_radius:
            expected = (a1 - 3 * a0) - eps * (a1 - 2 * a0)
            assert cert.min_l == pytest.approx(expected, rel=1e-13)


def test_min_affine_modulus_vs_dense_sampling():
    rng = np.random.default_rng(17)
    th = np.linspace(0, 2 * PI, 200001)
    for _ in range(20):
        a0 = rng.uniform(0.05, 2.0)
        slope = rng.uniform(-3.0, 3.0)
        radius = rng.uniform(0.1, 0.99)
        sampled = float(np.min(np.abs(a0 + slope * radius * np.exp(1j * th))))
        analytic = min_affine_modulus_on_circle(a0, slope, radius)
        assert analytic <= sampled + 1e-12
        assert sampled - analytic <= 1e-6 * max(1.0, abs(slope) * radius)


def test_auto_eps_search(step18):
    best, table = auto_rouche_epsilon(step18)
    assert best is not None and 0.001 <= best <= 0.03
    assert all(cert.holds for eps, cert in table if eps <= best)
    # 0.05 fails, so the best passing value stays below it
    assert best < 0.05


def test_auto_eps_search_shares_one_bound(step18, monkeypatch):
    bounds, fetches = [], []
    original_bound, original_alphas = zeros.second_difference_bound, StepWeight.alphas

    def counting_bound(*args, **kwargs):
        bounds.append(args)
        return original_bound(*args, **kwargs)

    def counting_alphas(self, n_max):
        fetches.append(n_max)
        return original_alphas(self, n_max)

    monkeypatch.setattr(zeros, "second_difference_bound", counting_bound)
    monkeypatch.setattr(StepWeight, "alphas", counting_alphas)
    best, table = auto_rouche_epsilon(step18, n_cutoff=300)
    assert len(bounds) == 1 and fetches == [300]
    # each certificate of the search is the one rouche_certificate gives alone
    bounds.clear()
    fetches.clear()
    for eps, cert in table:
        assert rouche_certificate(step18, eps, n_cutoff=300) == cert
    assert len(bounds) == len(table) and fetches == [300] * len(table)


# --------------------------------------------------------------------------
# winding counter
# --------------------------------------------------------------------------

class _BrokenBound(StepWeight):
    @property
    def alpha_bound(self):
        raise TypeError("alpha_bound is broken")


def test_truncation_selection_propagates_programming_errors():
    # only a ToleranceError means that no truncation reaches the target
    with pytest.raises(TypeError, match="alpha_bound is broken"):
        count_zeros_winding(_BrokenBound.from_plateau(18.0, 0.25), 0.9)


def test_winding_counts_across_radii(step18):
    # the one zero sits near -0.477: outside |t|<0.3, inside |t|<0.7
    rep_small = count_zeros_winding(step18, 0.3)
    assert rep_small.certified and rep_small.zero_count == 0
    rep_large = count_zeros_winding(step18, 0.7)
    assert rep_large.certified and rep_large.zero_count == 1
    assert len(rep_large.located_zeros) == 1
    zero = rep_large.located_zeros[0]
    assert zero.location.imag == 0.0          # real zero reported once
    assert abs(zero.location - STEP_ZERO) <= 1e-12
    assert zero.residual <= 1e-9 * step18.alphas(0)[0]


@pytest.mark.parametrize("weight", [
    StepWeight.from_plateau(18.0, 0.25), StepWeight.from_plateau(12.0, 0.6),
    StepWeight.from_plateau(25.0, 0.8), DiracAugmentedWeight(1.5),
    DiracAugmentedWeight(10.0), DiracAugmentedWeight(100.0)], ids=lambda w: w.label())
def test_locates_every_counted_zero(weight):
    rep = count_zeros_winding(weight, 0.99)
    assert rep.certified and rep.zero_count >= 1
    assert len(rep.located_zeros) == rep.zero_count
    assert rep.diagnostics == ""


def test_located_plateau_zero_matches_oracle(step18):
    (zero,) = count_zeros_winding(step18, 0.99).located_zeros
    assert zero.location.imag == 0.0
    assert abs(zero.location.real - STEP_ZERO) <= 1e-12


@pytest.mark.parametrize("mass", [1.5, 10.0, 100.0])
def test_located_point_mass_zero_matches_closed_form(mass):
    (zero,) = count_zeros_winding(DiracAugmentedWeight(mass), 0.99).located_zeros
    assert abs(zero.location - (1.0 - math.sqrt(1.0 + PI / mass))) <= 1e-12


def test_located_conjugate_pair_is_exact():
    lower, upper = count_zeros_winding(
        StepWeight.from_plateau(12.0, 0.6), 0.99).located_zeros
    assert upper.location.imag > 0.0
    assert upper.location == lower.location.conjugate()
    assert upper.residual == lower.residual


def test_newton_refine_counts_steps_not_evaluations():
    mass = 10.0
    weight = DiracAugmentedWeight(mass)
    exact = 1.0 - math.sqrt(1.0 + PI / mass)
    target = 1e-9 * weight.alphas(0)[0]
    assert zeros._newton_refine(weight, exact, target).iterations == 0
    assert zeros._newton_refine(weight, exact + 1e-3, target).iterations >= 1


def test_locate_shortfall_is_reported(step18, monkeypatch):
    monkeypatch.setattr(zeros, "_newton_refine", lambda *args, **kwargs: None)
    rep = count_zeros_winding(step18, 0.7)
    assert rep.certified and rep.zero_count == 1
    assert rep.located_zeros == ()
    assert rep.diagnostics == "located 0 of 1 certified zeros"


def test_singular_hankel_matrix_locates_nothing(step18, monkeypatch):
    # with every derivative sample 0 the contour moments vanish: the Hankel matrix is singular
    contour = zeros._contour

    def flat_derivative(*args):
        values, dvalues, winding, bound, m = contour(*args)
        return values, np.zeros_like(dvalues), winding, bound, m

    monkeypatch.setattr(zeros, "_contour", flat_derivative)
    rep = count_zeros_winding(step18, 0.7)
    assert rep.certified and rep.zero_count == 1
    assert rep.located_zeros == ()
    assert rep.diagnostics == "located 0 of 1 certified zeros"


def test_huge_point_mass_zero_is_located():
    # the zero sits so near t = 0 that F there needs alpha_0 alone; Newton's F' still
    # takes alpha_1
    mass = 1e50
    rep = count_zeros_winding(DiracAugmentedWeight(mass), 0.99)
    assert rep.certified and rep.zero_count == 1 and rep.diagnostics == ""
    (zero,) = rep.located_zeros
    exact = -(PI / mass) / (1.0 + math.sqrt(1.0 + PI / mass))
    assert abs(zero.location - exact) <= 1e-12 * abs(exact)


def _recorded_evaluations(monkeypatch, polynomial=None):
    """Record the points where Newton evaluates F; with ``polynomial``, F is that
    polynomial exactly, and the returned stand-in weight has it as coefficients."""
    seen = []
    evaluate = zeros.eval_diagonal

    def recording(weight, t, tol):
        seen.append(t)
        if polynomial is None:
            return evaluate(weight, t, tol=tol)
        return kernel.KernelValue(value=complex(_polyval(t, polynomial)), err_bound=0.0,
                                  n_used=len(polynomial) - 1)

    monkeypatch.setattr(zeros, "eval_diagonal", recording)

    class Coefficients:
        def alphas(self, n):
            return np.array(polynomial[:n + 1], dtype=float)

    return seen, Coefficients()


def test_newton_drops_a_start_that_leaves_the_disc(monkeypatch):
    # F = 1/(pi(1-t)^2) has no zero, and Newton's t -> (3t-1)/2 runs off to -infinity
    seen, _ = _recorded_evaluations(monkeypatch)
    assert zeros._newton_refine(ConstantWeight(1.0), 0.5, 1e-9) is None
    assert 1 < len(seen) < zeros.NEWTON_MAX_ITER
    assert all(abs(t) < 0.999 for t in seen)


def test_newton_drops_a_start_with_zero_derivative(monkeypatch):
    # F = 1 + t^2 at t = 0: F' = 0 and F = 1
    seen, weight = _recorded_evaluations(monkeypatch, [1.0, 0.0, 1.0])
    assert zeros._newton_refine(weight, 0.0, 1e-9) is None
    assert seen == [0.0]


def test_newton_drops_a_start_after_its_step_budget(monkeypatch):
    # F = 2 - 4t + 8t^3: Newton cycles exactly between 0 and 0.5
    seen, weight = _recorded_evaluations(monkeypatch, [2.0, -4.0, 0.0, 8.0])
    assert zeros._newton_refine(weight, 0.0, 1e-9) is None
    assert seen == [0.0, 0.5] * (zeros.NEWTON_MAX_ITER // 2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(min_value=0.1, max_value=40.0), st.floats(min_value=0.05, max_value=0.95))
def test_plateau_located_count_equals_certified_count(a, x):
    weight = StepWeight.from_plateau(a, x)
    rep = count_zeros_winding(weight, 0.99)
    assert rep.certified
    assert len(rep.located_zeros) == rep.zero_count
    assert all(z.residual <= 1e-9 * weight.alphas(0)[0] for z in rep.located_zeros)


def test_brute_force_minimum_on_small_disc(step18):
    # |F| stays above a positive floor on |t| <= 0.3 (grid + certified tail)
    coeffs = step18.alphas(200).astype(complex)
    rr = np.linspace(0, 0.3, 151)
    th = np.linspace(0, PI, 301)
    pts = (rr[:, None] * np.exp(1j * th[None, :])).ravel()
    floor = float(np.min(np.abs(_polyval(pts, coeffs)))) - tail_bound(step18.alpha_bound, 0.3, 200)
    assert floor > 0.03


def test_winding_constant_weight_no_zeros(const1):
    rep = count_zeros_winding(const1, 0.9)
    assert rep.certified and rep.zero_count == 0
    assert rep.located_zeros == ()


def test_winding_certification_margin(step18):
    rep = count_zeros_winding(step18, 0.7)
    assert rep.min_contour_modulus > rep.tail * (1 + 0.7) ** 2


def test_winding_stability_under_radius_perturbation(step18):
    base = count_zeros_winding(step18, 0.7, locate=False)
    for d in (1e-3, -1e-3):
        rep = count_zeros_winding(step18, 0.7 + d, locate=False)
        assert rep.zero_count == base.zero_count


def test_certificate_implies_winding_count(step18):
    cert = rouche_certificate(step18, 0.01)
    assert cert.holds
    rep = count_zeros_winding(step18, cert.ring_radius, locate=False)
    assert rep.certified and rep.zero_count >= 1


def test_scale_invariance_of_verdicts():
    # f*lam has coefficients alpha_n/f, so zeros and verdicts stay put; its
    # comparability constant, and with it N and the Newton start, change
    for factor in (2.0 ** -7, 2.0 ** 7):
        scaled = StepWeight((0.25, 1.0), (18.0 * factor, factor))
        assert rouche_certificate(scaled, 0.01).holds
        assert not rouche_certificate(scaled, 0.05).holds
        rep = count_zeros_winding(scaled, 0.7)
        assert rep.certified and rep.zero_count == 1
        assert abs(rep.located_zeros[0].location - STEP_ZERO) <= 1e-10


def test_winding_contour_through_zero_still_resolves(step18):
    # contour radius equal (to float precision) to the zero's modulus: either
    # the truncation's zero lands strictly inside with a valid margin, or the
    # counter perturbs rho; both must yield a certified, stable answer
    rep = count_zeros_winding(step18, 0.476874666838925, locate=False)
    assert rep.certified
    assert rep.zero_count in (0, 1)
    inside = count_zeros_winding(step18, 0.479, locate=False)
    outside = count_zeros_winding(step18, 0.474, locate=False)
    assert (inside.zero_count, outside.zero_count) == (1, 0)


def test_winding_grows_truncation_past_spurious_zeros(const1):
    # at n_terms=30 the truncation's own zeros sit near |t| = (1/32)^(1/31);
    # the counter must deepen the truncation until the contour clears them
    rep = count_zeros_winding(const1, 0.894, n_terms=30, locate=False)
    assert rep.certified and rep.zero_count == 0
    assert rep.n_terms > 30


UNPROVEN_FIELDS = ("rho_used", "zero_count", "n_terms", "min_contour_modulus", "tail",
                   "contour_samples")


@pytest.mark.parametrize("max_terms, rho, n_terms, note", [
    (50, 0.99, None,
     r"truncation selection failed at rho=0\.988: tail bound \S+ at 50 terms exceeds tol \S+"),
    (16, 0.9, 8, r"tail \S+ never cleared contour minimum \S+ at rho=0\.898 within 16 terms"),
], ids=["truncation-selection-failed", "tail-never-cleared"])
def test_uncertified_report_claims_no_count(step18, monkeypatch, max_terms, rho, n_terms, note):
    # every contour attempt fails, so the report carries no figure and names the last failure
    monkeypatch.setattr(kernel, "MAX_TERMS", max_terms)
    rep = count_zeros_winding(step18, rho, n_terms)
    assert not rep.certified and rep.located_zeros == ()
    assert [getattr(rep, f) for f in UNPROVEN_FIELDS] == [None] * 6
    assert re.fullmatch(note, rep.diagnostics)


def test_winding_rejects_bad_radius(step18):
    with pytest.raises(ValueError):
        count_zeros_winding(step18, 1.0)


def test_near_constant_plateau_has_no_zeros():
    rep = count_zeros_winding(StepWeight.from_plateau(1.0 + 1e-6, 0.25), 0.95, locate=False)
    assert rep.certified and rep.zero_count == 0


# --------------------------------------------------------------------------
# contour lower bound
# --------------------------------------------------------------------------

def _fine_contour(weight, rep, factor):
    """|p| minimum and winding of the certified polynomial on `factor` x more points."""
    coeffs = diagonal_poly(weight, rep.n_terms)
    scaled = coeffs * rep.rho_used ** np.arange(len(coeffs))
    values = np.fft.ifft(scaled, factor * rep.contour_samples, norm="forward")
    steps = np.angle(np.roll(values, -1) * np.conj(values))
    return float(np.min(np.abs(values))), int(round(float(np.sum(steps)) / (2.0 * PI)))


def test_contour_bound_below_dense_minimum_on_tight_plateau():
    # --step 11,0.95 at rho 0.99: 2^20 FFT points reach 7.7544e-3, below the
    # 8.27e-3 that sampling the contour alone reported
    weight = StepWeight.from_plateau(11.0, 0.95)
    rep = count_zeros_winding(weight, 0.99, locate=False)
    assert rep.certified and rep.zero_count == 2
    dense_min, dense_winding = _fine_contour(weight, rep, (1 << 20) // rep.contour_samples)
    assert rep.min_contour_modulus <= dense_min <= 7.7544e-3
    assert dense_winding == rep.zero_count
    assert rep.min_contour_modulus > rep.tail * (1.0 + rep.rho_used) ** 2


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(min_value=0.3, max_value=35.0), st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=0.5, max_value=0.99), st.booleans())
def test_contour_bound_below_finer_minimum(a, x, rho, smooth):
    weight = StepWeight.from_plateau(a, x)
    if smooth:
        weight = mollify_weight(weight, 0.02)
    rep = count_zeros_winding(weight, rho, locate=False)
    assert rep.certified
    fine_min, fine_winding = _fine_contour(weight, rep, 16)
    assert 0.0 < rep.min_contour_modulus <= fine_min
    assert fine_winding == rep.zero_count


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.floats(min_value=0.3, max_value=0.99), st.floats(min_value=0.0, max_value=PI),
       st.lists(st.complex_numbers(max_magnitude=3.0), max_size=6))
def test_contour_through_a_zero_is_never_certified(rho, phi, others):
    # conjugate zeros on |t| = rho (a double real one at phi = 0 or pi)
    on_circle = rho * complex(math.cos(phi), math.sin(phi))
    coeffs = np.polynomial.polynomial.polyfromroots([on_circle, on_circle.conjugate(), *others])
    assert zeros._contour(coeffs, rho, 0.0)[3] <= 0.0


def test_contour_away_from_zeros_counts_them():
    coeffs = np.polynomial.polynomial.polyfromroots([0.5, -0.2 + 0.3j, 0.9j, 1.5])
    values, dvalues, winding, bound, samples = zeros._contour(coeffs, 0.7, 0.0)
    assert (winding, samples) == (2, 4096)
    assert 0.0 < bound <= float(np.min(np.abs(values)))
    assert np.allclose(values, np.polynomial.polynomial.polyval(
        0.7 * np.exp(2j * PI * np.arange(samples) / samples), coeffs), rtol=0, atol=1e-13)


def test_n_terms_beyond_max_terms_rejected(step18):
    with pytest.raises(ValueError, match="MAX_TERMS"):
        count_zeros_winding(step18, 0.9, n_terms=10 ** 9)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def test_sweep_counts_and_order():
    cells = sweep_step_weights([1.0, 18.0], [0.25, 0.5], rho=0.9)
    assert [(c.plateau, c.split) for c in cells] == [(1.0, 0.25), (1.0, 0.5),
                                                     (18.0, 0.25), (18.0, 0.5)]
    lookup = {(c.plateau, c.split): c for c in cells}
    assert lookup[(1.0, 0.25)].zero_count == 0
    assert lookup[(18.0, 0.25)].zero_count == 1
    assert all(c.certified for c in cells)


def test_sweep_records_failures_in_row():
    cells = sweep_step_weights([-3.0, 2.0], [0.25], rho=0.5)
    bad = next(c for c in cells if c.plateau == -3.0)
    assert bad.zero_count is None and not bad.certified and bad.note
    good = next(c for c in cells if c.plateau == 2.0)
    assert good.zero_count is not None


def test_sweep_propagates_errors_other_than_weight_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("counter bug")

    monkeypatch.setattr(zeros, "count_zeros_winding", broken)
    with pytest.raises(RuntimeError, match="counter bug"):
        sweep_step_weights([2.0], [0.5])


# --------------------------------------------------------------------------
# mollification
# --------------------------------------------------------------------------

def test_mollify_matches_step_outside_transitions(step18):
    smooth = mollify_weight(step18, 1e-2)
    assert smooth.evaluate(0.1) == pytest.approx(18.0, rel=1e-12)
    assert smooth.evaluate(0.24 - 2e-2) == pytest.approx(18.0, rel=1e-12)
    assert smooth.evaluate(0.5) == pytest.approx(1.0, rel=1e-12)
    assert smooth.comparability_constant == 18.0


def test_mollify_moment_convergence(step18):
    mu_step = 1.0 / step18.alphas(0)[0]
    gaps = []
    for width in (1e-3, 1e-4, 1e-5):
        mu = 1.0 / mollify_weight(step18, width).alphas(0)[0]
        gaps.append(abs(mu - mu_step))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-4 * mu_step


def test_mollify_width_guard(step18):
    with pytest.raises(ValueError):
        mollify_weight(step18, 0.3)       # would cross the plateau edge
    with pytest.raises(ValueError):
        mollify_weight(step18, 0.0)


def test_mollify_degenerate_constant():
    smooth = mollify_weight(ConstantWeight(2.0), 1e-3)
    assert np.all(np.asarray(smooth.values) == 2.0)


def test_mollified_kernel_keeps_zero(step18):
    smooth = mollify_weight(step18, 1e-3)
    rep = count_zeros_winding(smooth, 0.7)
    assert rep.certified and rep.zero_count == 1
    assert abs(rep.located_zeros[0].location - STEP_ZERO) <= 1e-2


# --------------------------------------------------------------------------
# point mass at the origin
# --------------------------------------------------------------------------

def test_dirac_threshold_cases():
    assert not dirac_zero_threshold(0.0).has_zero_in_disc
    assert not dirac_zero_threshold(1.0).has_zero_in_disc
    assert not dirac_zero_threshold(1.04).has_zero_in_disc
    assert dirac_zero_threshold(1.05).has_zero_in_disc
    assert dirac_zero_threshold(2.0).has_zero_in_disc
    assert dirac_zero_threshold(10.0).has_zero_in_disc


def test_dirac_boundary_case_at_threshold():
    result = dirac_zero_threshold(PI / 3.0)
    assert not result.has_zero_in_disc            # zero on the boundary, not interior
    assert result.zero_location == pytest.approx(-1.0, abs=1e-12)


def test_dirac_k10_location_and_kernel_value():
    result = dirac_zero_threshold(10.0)
    expected = 1.0 - math.sqrt(1.0 + PI / 10.0)
    assert result.zero_location == pytest.approx(expected, abs=1e-14)
    assert abs(dirac_kernel_value(10.0, result.zero_location)) <= 1e-15


def test_dirac_dense_sampling_oracle():
    # sign change on (-1, 1) appears exactly when the mass exceeds pi/3
    tt = np.linspace(-0.999999, 0.999, 500001)
    for k, expect in ((1.0, False), (1.05, True), (10.0, True)):
        vals = dirac_kernel_value(k, tt)
        assert bool(np.any(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)) == expect


def test_dirac_rejects_negative_mass():
    with pytest.raises(ValueError):
        dirac_zero_threshold(-1.0)


def test_dirac_series_winding_cross_check():
    # independent route: run the argument-principle counter on the series
    rep = count_zeros_winding(DiracAugmentedWeight(10.0), 0.5)
    assert rep.certified and rep.zero_count == 1
    expected = 1.0 - math.sqrt(1.0 + PI / 10.0)
    assert abs(rep.located_zeros[0].location - expected) <= 1e-12
    rep_none = count_zeros_winding(DiracAugmentedWeight(1.0), 0.9, locate=False)
    assert rep_none.certified and rep_none.zero_count == 0


# --------------------------------------------------------------------------
# inflation identity
# --------------------------------------------------------------------------

def test_inflation_at_origin_exact(step18):
    chk = inflation_check(step18, 0.0, 0.0)
    assert chk.lhs == pytest.approx((16.0 / (33.0 * PI)) / PI, rel=1e-10)
    assert chk.agree


def test_inflation_plateau_midpoint(step18):
    chk = inflation_check(step18, 0.5, 0.5, tol=1e-8)
    assert chk.agree and chk.abs_diff <= 1e-8


def test_inflation_constant_closed_form(const1):
    z, t = 0.3, -0.2j
    chk = inflation_check(const1, z, t, tol=1e-8)
    closed = 1.0 / (PI ** 2 * (1.0 - z * np.conj(t)) ** 2)
    assert abs(chk.lhs - closed) <= 1e-9
    assert chk.agree


def test_reinhardt_norm_constant_weight_exact():
    # ||z^m||^2 = pi * 2pi/(2m+2) for the unit weight
    got = reinhardt_monomial_norm(ConstantWeight(1.0), 2)
    assert got == pytest.approx(PI * 2.0 * PI / 6.0, rel=1e-11)


def test_inflation_rejects_outside_disc(step18):
    with pytest.raises(ValueError):
        inflation_check(step18, 1.1, 0.0)


def test_inflation_rejects_point_mass():
    with pytest.raises(WeightError, match="point-mass"):
        inflation_check(DiracAugmentedWeight(1.0), 0.3, 0.2)
