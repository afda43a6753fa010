import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergkern import (CoefficientSequence, ConstantWeight, decompose_b, log_beta,
                      necessary_check, schur_bound_check, schur_integral,
                      schur_integral_quadrature, sufficient_check)
from bergkern import regularity
from bergkern.regularity import schur_theoretical_constant

PI = math.pi


def arithmetic_sequence(n_max):
    return CoefficientSequence(betas=(np.arange(n_max + 1) + 1.0) / PI, source="user")


# --------------------------------------------------------------------------
# necessary condition witness
# --------------------------------------------------------------------------

def test_necessary_arithmetic_coefficients():
    chk = necessary_check(arithmetic_sequence(100))
    # max over the last half of (n+1)/(n*pi), attained at the window start
    window_start = 1 + 100 // 2
    expected = (window_start + 1) / (window_start * PI)
    assert chk.limsup_estimate == pytest.approx(expected, rel=1e-12)
    assert abs(chk.limsup_estimate - 1.0 / PI) < 0.01
    assert chk.finite_trend


def test_necessary_quadratic_growth_flagged():
    seq = CoefficientSequence(betas=np.arange(101.0) ** 2, source="user")
    chk = necessary_check(seq)
    assert not chk.finite_trend


def test_necessary_plateau_coefficients_tend_to_inv_pi(step18):
    chk = necessary_check(CoefficientSequence.from_weight(step18, 200))
    assert 1.0 / PI <= chk.limsup_estimate <= 1.02 / PI
    assert chk.finite_trend


def test_necessary_needs_enough_terms():
    with pytest.raises(ValueError):
        necessary_check(CoefficientSequence(betas=np.ones(5), source="user"))


# --------------------------------------------------------------------------
# difference decomposition
# --------------------------------------------------------------------------

def test_decompose_arithmetic():
    dec = decompose_b(arithmetic_sequence(50))
    assert dec.b[0] == pytest.approx(1.0 / PI, rel=1e-15)
    assert dec.b[1:] == pytest.approx(np.full(50, 1.0 / PI), rel=1e-12)


def test_decompose_constant_ones():
    dec = decompose_b(CoefficientSequence(betas=np.ones(20), source="user"))
    assert dec.b[0] == 1.0
    assert np.all(dec.b[1:] == 0.0)
    assert dec.sup_abs == 1.0


def test_decompose_plateau_differences_tend_to_inv_pi(step18):
    dec = decompose_b(CoefficientSequence.from_weight(step18, 200))
    assert np.isfinite(dec.sup_abs)
    assert dec.b[-1].real == pytest.approx(1.0 / PI, abs=1e-10)


# --------------------------------------------------------------------------
# sufficient condition witness
# --------------------------------------------------------------------------

def test_sufficient_constant_weight_differences_are_constant():
    chk = sufficient_check(CoefficientSequence.from_weight(ConstantWeight(1.0), 100))
    assert chk.sup_diff == pytest.approx(1.0 / PI, rel=1e-13)
    assert chk.bounded_verdict
    assert chk.within_window          # C = 1: window is exactly [1/pi, 1/pi] up to slack


def test_sufficient_plateau_bounded_and_in_window(step18):
    chk = sufficient_check(CoefficientSequence.from_weight(step18, 500))
    assert chk.bounded_verdict
    assert chk.within_window
    c3 = 18.0 ** 3
    assert chk.window_low == pytest.approx(1.0 / (c3 * PI), rel=1e-14)
    assert chk.window_high == pytest.approx(c3 / PI, rel=1e-14)


def test_sufficient_alternating_growth_unbounded():
    betas = np.arange(101.0) * (-1.0) ** np.arange(101)
    chk = sufficient_check(CoefficientSequence(betas=betas, source="user"))
    assert not chk.bounded_verdict
    assert chk.sup_diff == pytest.approx(199.0)
    assert chk.within_window is None      # not weight-derived


# --------------------------------------------------------------------------
# Schur integral: Beta series and quadrature oracle
# --------------------------------------------------------------------------

def test_log_beta_basics():
    assert math.exp(log_beta(1.0, 0.5)) == pytest.approx(2.0, rel=1e-13)
    for n in (1, 5, 50):
        assert math.exp(log_beta(n, 1.0)) == pytest.approx(1.0 / n, rel=1e-12)


def test_schur_integral_single_term():
    seq = CoefficientSequence(betas=np.ones(3), source="user")
    got = schur_integral(seq, -0.5, 0.0)
    assert got.value == pytest.approx(2.0 * PI, rel=1e-13)   # pi * B(1, 1/2) = 2 pi
    assert got.tail == 0.0


def test_schur_integral_dominated_at_large_radius():
    seq = CoefficientSequence(betas=np.ones(2001), source="user")
    got = schur_integral(seq, -0.5, 0.9)
    bound = schur_theoretical_constant(-0.5) * (1 - 0.81) ** (-0.5)
    assert got.upper <= bound
    assert schur_theoretical_constant(-0.5) == pytest.approx(4.0 * PI, rel=1e-14)


def test_schur_integral_rejects_bad_epsilon():
    seq = CoefficientSequence(betas=np.ones(5), source="user")
    for eps in (-1.0, 0.0, 0.3, -1.5):
        with pytest.raises(ValueError):
            schur_integral(seq, eps, 0.5)
    with pytest.raises(ValueError):
        schur_integral(seq, -0.5, 1.0)


def test_schur_series_matches_quadrature_for_weight_coefficients():
    seq = CoefficientSequence.from_weight(ConstantWeight(1.0), 64)
    series_val = schur_integral(seq, -0.25, 0.5).value
    quad_val = schur_integral_quadrature(seq, -0.25, 0.5)
    assert abs(series_val - quad_val) / quad_val <= 1e-6


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    data=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=24),
    eps=st.floats(min_value=-0.9, max_value=-0.1),
    r=st.floats(min_value=0.0, max_value=0.9),
)
def test_schur_reduction_matches_quadrature_random(data, eps, r):
    seq = CoefficientSequence(betas=np.array(data), source="user")
    series_val = schur_integral(seq, eps, r).value
    quad_val = schur_integral_quadrature(seq, eps, r)
    assert abs(series_val - quad_val) <= 1e-6 * max(abs(quad_val), 1.0)


def test_schur_integral_monotone_in_radius():
    seq = CoefficientSequence(betas=np.linspace(1.0, 0.2, 30), source="user")
    vals = [schur_integral(seq, -0.4, r).value for r in (0.0, 0.3, 0.6, 0.9)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# --------------------------------------------------------------------------
# bound check report
# --------------------------------------------------------------------------

def test_schur_bound_check_ratios_match_schur_integral(step18):
    seq = CoefficientSequence.from_weight(step18, 400)
    grid = np.linspace(0.0, 0.99, 34)
    rep = schur_bound_check(seq, -0.3, grid)
    for r, ratio in zip(grid, rep.ratios):
        # bit-identical: the check calls schur_integral for each radius
        assert ratio == schur_integral(seq, -0.3, r).upper / (1.0 - r ** 2) ** -0.3
    # the Beta factors are built once per (length, eps) and shared read-only
    beta = regularity._beta_factors(401, -0.3)
    assert beta is regularity._beta_factors(401, -0.3) and not beta.flags.writeable


def test_schur_bound_check_uniform_sequence():
    seq = CoefficientSequence(betas=np.ones(800), source="user")
    report = schur_bound_check(seq, -0.5, (0.0, 0.5, 0.9, 0.99))
    assert report.passes
    assert report.theoretical_c == pytest.approx(4.0 * PI, rel=1e-14)
    assert len(report.ratios) == 4
    assert all(r > 0 for r in report.ratios)


def test_schur_bound_check_conjugate_pair_epsilon():
    # eps = -1/(p*q) for p=3 (q=3/2) is -2/9
    seq = CoefficientSequence(betas=np.ones(800), source="user")
    report = schur_bound_check(seq, -2.0 / 9.0, np.arange(0.0, 0.991, 0.01))
    assert report.passes


def test_schur_bound_check_difference_sequence_of_weight(step18):
    alphas = CoefficientSequence.from_weight(step18, 400)
    b = decompose_b(alphas).b
    seq = CoefficientSequence(betas=b, source="diff")
    report = schur_bound_check(seq, -0.25, np.arange(0.0, 0.91, 0.05))
    assert report.passes
