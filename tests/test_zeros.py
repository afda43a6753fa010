import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergkern import (ConstantWeight, DiracAugmentedWeight, KernelSeries, StepWeight,
                      auto_rouche_epsilon, diagonal_poly, count_zeros_winding, dirac_kernel_value,
                      dirac_zero_threshold, inflation_check, mollify_weight,
                      reinhardt_monomial_norm, rouche_certificate, second_difference_bound,
                      WeightError, sweep_step_weights, zeros)
from bergkern.zeros import min_affine_modulus_on_circle

PI = math.pi
_polyval = np.polynomial.polynomial.polyval

# dense-sampling/bisection oracle for the plateau kernel's one zero
STEP_ZERO = -0.476874666838925


# --------------------------------------------------------------------------
# second differences
# --------------------------------------------------------------------------

def test_second_difference_plateau(step18_series):
    sd = second_difference_bound(step18_series, 400)
    assert sd.all_negative and sd.sign_certified
    # telescoped limit: (alpha_1 - alpha_0) - 1/pi = 391/(1001*pi)
    exact = float(Fraction(391, 1001)) / PI
    assert abs(sd.s_bound - exact) <= 1e-12
    assert abs(sd.telescoped_value - exact) <= 1e-12
    assert sd.remainder_bound <= 1e-30
    assert sd.first_difference_limit == pytest.approx(1.0 / PI, rel=1e-14)


def test_second_difference_telescoping_identity(step18_series):
    n = 123
    a = step18_series.alphas(n)
    sd = second_difference_bound(step18_series, n)
    assert sd.telescoped_value == pytest.approx(
        (a[1] - a[0]) - (a[n] - a[n - 1]), abs=1e-15)


def test_second_difference_constant_is_zero(const1_series):
    sd = second_difference_bound(const1_series, 200)
    assert sd.s_bound <= 1e-13
    assert sd.remainder_bound == 0.0


def test_second_difference_brute_force_oracle(step18, step18_series):
    # exact-rational |.| summation to k=450 (remainder ~16^-450) must agree
    # with the certified bound; exact arithmetic sidesteps float noise
    from bergkern.weights import step_alpha_pi_fraction
    a = [step_alpha_pi_fraction(step18, n) for n in range(451)]
    brute = float(sum(abs(a[k] - 2 * a[k - 1] + a[k - 2]) for k in range(2, 451))) / PI
    sd = second_difference_bound(step18_series, 400)
    assert sd.s_bound == pytest.approx(brute, abs=1e-12)


def test_exact_sign_claim_covers_the_whole_cutoff(step18_series):
    assert second_difference_bound(step18_series, 400).sign_certified
    # exact signs are checked only up to n = 600; past it the claim is dropped
    assert not second_difference_bound(step18_series, 1000).sign_certified


def test_explicit_coefficients_are_never_sign_certified(step18_series):
    # the plateau's own coefficients, but given explicitly: the exact check is
    # about the weight, so it must not vouch for them
    series = KernelSeries(step18_series.weight, coeffs=step18_series.alphas(400))
    sd = second_difference_bound(series, 400)
    assert sd.all_negative and not sd.sign_certified
    assert not rouche_certificate(series, 0.01).second_differences.sign_certified


def test_second_difference_rejects_tiny_cutoff(step18_series):
    with pytest.raises(ValueError):
        second_difference_bound(step18_series, 1)


# --------------------------------------------------------------------------
# certificate
# --------------------------------------------------------------------------

def test_certificate_holds_at_small_eps(step18_series):
    cert = rouche_certificate(step18_series, 0.01)
    assert cert.holds
    assert cert.linear_root == pytest.approx(-91.0 / 170.0, abs=1e-15)
    assert cert.min_l == pytest.approx(0.1310974583, abs=1e-9)
    assert cert.s_bound == pytest.approx(0.1243348307, abs=1e-9)
    assert cert.ring_radius == 0.99


def test_certificate_fails_at_larger_eps(step18_series):
    cert = rouche_certificate(step18_series, 0.05)
    assert not cert.holds
    assert cert.min_l == pytest.approx(0.1195649523, abs=1e-9)
    assert cert.min_l < cert.s_bound


def test_certificate_constant_weight_inconclusive(const1_series):
    cert = rouche_certificate(const1_series, 0.01)
    assert cert.linear_root is None
    assert not cert.holds
    assert cert.s_bound <= 1e-13


def test_certificate_rejects_bad_eps(step18_series):
    with pytest.raises(ValueError):
        rouche_certificate(step18_series, 0.0)
    with pytest.raises(ValueError):
        rouche_certificate(step18_series, 1.0)


def test_min_affine_modulus_formula_branch(step18_series):
    # min|L| = (alpha_1 - 3 alpha_0) - eps(alpha_1 - 2 alpha_0) while the
    # affine root stays inside the ring
    a0, a1 = step18_series.alpha(0), step18_series.alpha(1)
    for eps in (0.005, 0.01, 0.05, 0.2):
        cert = rouche_certificate(step18_series, eps)
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


def test_auto_eps_search(step18_series):
    best, table = auto_rouche_epsilon(step18_series)
    assert best is not None and 0.001 <= best <= 0.03
    assert all(cert.holds for eps, cert in table if eps <= best)
    # 0.05 fails, so the best passing value stays below it
    assert best < 0.05


# --------------------------------------------------------------------------
# winding counter
# --------------------------------------------------------------------------

def test_winding_counts_across_radii(step18_series):
    # the one zero sits near -0.477: outside |t|<0.3, inside |t|<0.7
    rep_small = count_zeros_winding(step18_series, 0.3)
    assert rep_small.certified and rep_small.zero_count == 0
    rep_large = count_zeros_winding(step18_series, 0.7)
    assert rep_large.certified and rep_large.zero_count == 1
    assert len(rep_large.located_zeros) == 1
    zero = rep_large.located_zeros[0]
    assert zero.location.imag == 0.0          # real zero reported once
    assert abs(zero.location - STEP_ZERO) <= 1e-12
    assert zero.residual <= 1e-9 * step18_series.alpha(0)


@pytest.mark.parametrize("weight", [
    StepWeight.from_plateau(18.0, 0.25), StepWeight.from_plateau(12.0, 0.6),
    StepWeight.from_plateau(25.0, 0.8), DiracAugmentedWeight(1.5),
    DiracAugmentedWeight(10.0), DiracAugmentedWeight(100.0)], ids=lambda w: w.label())
def test_locates_every_counted_zero(weight):
    rep = count_zeros_winding(KernelSeries(weight), 0.99)
    assert rep.certified and rep.zero_count >= 1
    assert len(rep.located_zeros) == rep.zero_count
    assert rep.diagnostics == ""


def test_located_plateau_zero_matches_oracle(step18_series):
    (zero,) = count_zeros_winding(step18_series, 0.99).located_zeros
    assert zero.location.imag == 0.0
    assert abs(zero.location.real - STEP_ZERO) <= 1e-12


@pytest.mark.parametrize("mass", [1.5, 10.0, 100.0])
def test_located_point_mass_zero_matches_closed_form(mass):
    (zero,) = count_zeros_winding(KernelSeries(DiracAugmentedWeight(mass)), 0.99).located_zeros
    assert abs(zero.location - (1.0 - math.sqrt(1.0 + PI / mass))) <= 1e-12


def test_located_conjugate_pair_is_exact():
    lower, upper = count_zeros_winding(
        KernelSeries(StepWeight.from_plateau(12.0, 0.6)), 0.99).located_zeros
    assert upper.location.imag > 0.0
    assert upper.location == lower.location.conjugate()
    assert upper.residual == lower.residual


def test_newton_refine_counts_steps_not_evaluations():
    mass = 10.0
    series = KernelSeries(DiracAugmentedWeight(mass))
    exact = 1.0 - math.sqrt(1.0 + PI / mass)
    target = 1e-9 * series.alpha(0)
    assert zeros._newton_refine(series, exact, target).iterations == 0
    assert zeros._newton_refine(series, exact + 1e-3, target).iterations >= 1


def test_locate_shortfall_is_reported(step18_series, monkeypatch):
    monkeypatch.setattr(zeros, "_newton_refine", lambda *args, **kwargs: None)
    rep = count_zeros_winding(step18_series, 0.7)
    assert rep.certified and rep.zero_count == 1
    assert rep.located_zeros == ()
    assert rep.diagnostics == "located 0 of 1 certified zeros"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(min_value=0.1, max_value=40.0), st.floats(min_value=0.05, max_value=0.95))
def test_plateau_located_count_equals_certified_count(a, x):
    series = KernelSeries(StepWeight.from_plateau(a, x))
    rep = count_zeros_winding(series, 0.99)
    assert rep.certified
    assert len(rep.located_zeros) == rep.zero_count
    assert all(z.residual <= 1e-9 * series.alpha(0) for z in rep.located_zeros)


def test_brute_force_minimum_on_small_disc(step18_series):
    # |F| stays above a positive floor on |t| <= 0.3 (grid + certified tail)
    coeffs = step18_series.alphas(200).astype(complex)
    rr = np.linspace(0, 0.3, 151)
    th = np.linspace(0, PI, 301)
    pts = (rr[:, None] * np.exp(1j * th[None, :])).ravel()
    floor = float(np.min(np.abs(_polyval(pts, coeffs)))) - step18_series.tail_bound(0.3, 200)
    assert floor > 0.03


def test_winding_constant_weight_no_zeros(const1_series):
    rep = count_zeros_winding(const1_series, 0.9)
    assert rep.certified and rep.zero_count == 0
    assert rep.located_zeros == ()


def test_winding_certification_margin(step18_series):
    rep = count_zeros_winding(step18_series, 0.7)
    assert rep.min_contour_modulus > rep.tail * (1 + 0.7) ** 2


def test_winding_stability_under_radius_perturbation(step18_series):
    base = count_zeros_winding(step18_series, 0.7, locate=False)
    for d in (1e-3, -1e-3):
        rep = count_zeros_winding(step18_series, 0.7 + d, locate=False)
        assert rep.zero_count == base.zero_count


def test_certificate_implies_winding_count(step18_series):
    cert = rouche_certificate(step18_series, 0.01)
    assert cert.holds
    rep = count_zeros_winding(step18_series, cert.ring_radius, locate=False)
    assert rep.certified and rep.zero_count >= 1


def test_scale_invariance_of_verdicts(step18_series):
    for factor in (0.01, 137.0):
        scaled = step18_series.scaled(factor)
        assert rouche_certificate(scaled, 0.01).holds
        assert not rouche_certificate(scaled, 0.05).holds
        rep = count_zeros_winding(scaled, 0.7)
        assert rep.certified and rep.zero_count == 1
        assert abs(rep.located_zeros[0].location - STEP_ZERO) <= 1e-12


def test_winding_contour_through_zero_still_resolves(step18_series):
    # contour radius equal (to float precision) to the zero's modulus: either
    # the truncation's zero lands strictly inside with a valid margin, or the
    # counter perturbs rho; both must yield a certified, stable answer
    rep = count_zeros_winding(step18_series, 0.476874666838925, locate=False)
    assert rep.certified
    assert rep.zero_count in (0, 1)
    inside = count_zeros_winding(step18_series, 0.479, locate=False)
    outside = count_zeros_winding(step18_series, 0.474, locate=False)
    assert (inside.zero_count, outside.zero_count) == (1, 0)


def test_winding_grows_truncation_past_spurious_zeros(const1_series):
    # at n_terms=30 the truncation's own zeros sit near |t| = (1/32)^(1/31);
    # the counter must deepen the truncation until the contour clears them
    rep = count_zeros_winding(const1_series, 0.894, n_terms=30, locate=False)
    assert rep.certified and rep.zero_count == 0
    assert rep.n_terms > 30


def test_winding_rejects_bad_radius(step18_series):
    with pytest.raises(ValueError):
        count_zeros_winding(step18_series, 1.0)


def test_near_constant_plateau_has_no_zeros():
    series = KernelSeries(StepWeight.from_plateau(1.0 + 1e-6, 0.25))
    rep = count_zeros_winding(series, 0.95, locate=False)
    assert rep.certified and rep.zero_count == 0


# --------------------------------------------------------------------------
# contour lower bound
# --------------------------------------------------------------------------

def _fine_contour(series, rep, factor):
    """|p| minimum and winding of the certified polynomial on `factor` x more points."""
    coeffs = diagonal_poly(series, rep.n_terms)
    scaled = coeffs * rep.rho_used ** np.arange(len(coeffs))
    values = np.fft.ifft(scaled, factor * rep.contour_samples, norm="forward")
    steps = np.angle(np.roll(values, -1) * np.conj(values))
    return float(np.min(np.abs(values))), int(round(float(np.sum(steps)) / (2.0 * PI)))


def test_contour_bound_below_dense_minimum_on_tight_plateau():
    # --step 11,0.95 at rho 0.99: 2^20 FFT points reach 7.7544e-3, below the
    # 8.27e-3 that sampling the contour alone reported
    series = KernelSeries(StepWeight.from_plateau(11.0, 0.95))
    rep = count_zeros_winding(series, 0.99, locate=False)
    assert rep.certified and rep.zero_count == 2
    dense_min, dense_winding = _fine_contour(series, rep, (1 << 20) // rep.contour_samples)
    assert rep.min_contour_modulus <= dense_min <= 7.7544e-3
    assert dense_winding == rep.zero_count
    assert rep.min_contour_modulus > rep.tail * (1.0 + rep.rho_used) ** 2


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(min_value=0.3, max_value=35.0), st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=0.5, max_value=0.99), st.booleans())
def test_contour_bound_below_finer_minimum(a, x, rho, smooth):
    weight = StepWeight.from_plateau(a, x)
    series = KernelSeries(mollify_weight(weight, 0.02) if smooth else weight)
    rep = count_zeros_winding(series, rho, locate=False)
    assert rep.certified
    fine_min, fine_winding = _fine_contour(series, rep, 16)
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


def test_n_terms_beyond_max_terms_rejected(step18_series):
    with pytest.raises(ValueError, match="MAX_TERMS"):
        count_zeros_winding(step18_series, 0.9, n_terms=10 ** 9)


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


def test_sweep_respects_thread_env(monkeypatch):
    monkeypatch.setenv("BERGKERN_THREADS", "1")
    cells = sweep_step_weights([1.0], [0.3, 0.6], rho=0.5)
    assert [c.split for c in cells] == [0.3, 0.6]


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
    rep = count_zeros_winding(KernelSeries(smooth), 0.7)
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
    rep = count_zeros_winding(KernelSeries(DiracAugmentedWeight(10.0)), 0.5)
    assert rep.certified and rep.zero_count == 1
    expected = 1.0 - math.sqrt(1.0 + PI / 10.0)
    assert abs(rep.located_zeros[0].location - expected) <= 1e-12
    rep_none = count_zeros_winding(KernelSeries(DiracAugmentedWeight(1.0)), 0.9, locate=False)
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
    # ||z^m w^j||^2 = (pi/(j+1)) * 2pi/(2m+2) for the unit weight
    got = reinhardt_monomial_norm(ConstantWeight(1.0), 2, 3)
    assert got == pytest.approx((PI / 4.0) * 2.0 * PI / 6.0, rel=1e-11)


def test_inflation_rejects_outside_disc(step18):
    with pytest.raises(ValueError):
        inflation_check(step18, 1.1, 0.0)


def test_inflation_rejects_point_mass():
    with pytest.raises(WeightError, match="point-mass"):
        inflation_check(DiracAugmentedWeight(1.0), 0.3, 0.2)
