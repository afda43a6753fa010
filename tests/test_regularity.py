import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bergkern import (ConstantWeight, DiracAugmentedWeight, coefficient_conditions, log_beta,
                      schur_bound_check, schur_integral, schur_integral_quadrature)
from bergkern import regularity
from bergkern.regularity import schur_theoretical_constant

PI = math.pi
U = 2.0 ** -53       # unit roundoff


# --------------------------------------------------------------------------
# necessary condition: limsup alpha_n/n
# --------------------------------------------------------------------------

def test_necessary_arithmetic_coefficients():
    # the constant weight 1 has the arithmetic coefficients alpha_n = (n+1)/pi
    chk = coefficient_conditions(ConstantWeight(1.0), 100)
    # max over the last half of (n+1)/(n*pi), attained at the window start
    window_start = 1 + 100 // 2
    expected = (window_start + 1) / (window_start * PI)
    assert chk.limsup_estimate == pytest.approx(expected, rel=1e-12)
    assert abs(chk.limsup_estimate - 1.0 / PI) < 0.01


def test_necessary_plateau_coefficients_tend_to_inv_pi(step18):
    chk = coefficient_conditions(step18, 200)
    assert 1.0 / PI <= chk.limsup_estimate <= 1.02 / PI


def test_necessary_needs_enough_terms(step18):
    for n_max in (-3, 0, 1, 9):
        with pytest.raises(ValueError, match="n_max >= 10"):
            coefficient_conditions(step18, n_max)


def test_conditions_come_from_one_coefficient_fetch(step18, monkeypatch):
    calls = []
    original = type(step18).alphas

    def counting(self, n_max):
        calls.append(n_max)
        return original(self, n_max)

    monkeypatch.setattr(type(step18), "alphas", counting)
    chk = coefficient_conditions(step18, 300)
    assert calls == [300]
    a = original(step18, 300)
    assert chk.last_first_difference == a[-1] - a[-2]


def test_point_mass_conditions_are_proven_without_a_window():
    weight = DiracAugmentedWeight(10.0)
    chk = coefficient_conditions(weight, 50)
    # the delta-tail that proves both conditions: |delta_0| alone
    assert weight.delta_tail(0) == pytest.approx(10.0 / (PI * (PI + 10.0)), rel=1e-15)
    assert weight.delta_tail(1) == 0.0
    assert chk.window_low is None and chk.window_high is None and chk.within_window is None
    # alpha_n = (n+1)/pi for n >= 1, so every difference past the first is 1/pi
    assert chk.last_first_difference == pytest.approx(1.0 / PI, rel=1e-14)


# --------------------------------------------------------------------------
# first differences b_n = alpha_n - alpha_{n-1}
# --------------------------------------------------------------------------

def test_decompose_plateau_differences_tend_to_inv_pi(step18):
    chk = coefficient_conditions(step18, 200)
    assert np.isfinite(chk.sup_b) and chk.sup_b >= chk.sup_diff
    assert chk.last_first_difference == pytest.approx(1.0 / PI, abs=1e-10)


def test_sufficient_constant_weight_differences_are_constant():
    chk = coefficient_conditions(ConstantWeight(1.0), 100)
    assert chk.sup_diff == pytest.approx(1.0 / PI, rel=1e-13)
    assert chk.within_window          # C = 1: window is exactly [1/pi, 1/pi] up to slack


def test_sufficient_plateau_bounded_and_in_window(step18):
    chk = coefficient_conditions(step18, 500)
    assert chk.within_window
    c3 = 18.0 ** 3
    assert chk.window_low == pytest.approx(1.0 / (c3 * PI), rel=1e-14)
    assert chk.window_high == pytest.approx(c3 / PI, rel=1e-14)


# --------------------------------------------------------------------------
# Schur integral: Beta series and quadrature oracle
# --------------------------------------------------------------------------

def test_log_beta_basics():
    assert math.exp(log_beta(1.0, 0.5)) == pytest.approx(2.0, rel=1e-13)
    for n in (1, 5, 50):
        assert math.exp(log_beta(n, 1.0)) == pytest.approx(1.0 / n, rel=1e-12)


def test_schur_integral_single_term():
    seq = np.ones(3)
    got = schur_integral(seq, -0.5, 0.0)
    assert got.value == pytest.approx(2.0 * PI, rel=1e-13)   # pi * B(1, 1/2) = 2 pi
    assert got.tail == 0.0


def test_schur_integral_dominated_at_large_radius():
    seq = np.ones(2001)
    got = schur_integral(seq, -0.5, 0.9)
    bound = schur_theoretical_constant(-0.5) * (1 - 0.81) ** (-0.5)
    assert got.upper <= bound
    assert schur_theoretical_constant(-0.5) == pytest.approx(4.0 * PI, rel=1e-14)


def test_schur_integral_rejects_bad_epsilon():
    seq = np.ones(5)
    for eps in (-1.0, 0.0, 0.3, -1.5):
        with pytest.raises(ValueError):
            schur_integral(seq, eps, 0.5)
    with pytest.raises(ValueError):
        schur_integral(seq, -0.5, 1.0)


def test_schur_series_matches_quadrature_for_weight_coefficients():
    seq = ConstantWeight(1.0).alphas(64)
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
    seq = np.array(data)
    series_val = schur_integral(seq, eps, r).value
    quad_val = schur_integral_quadrature(seq, eps, r)
    assert abs(series_val - quad_val) <= 1e-6 * max(abs(quad_val), 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(eps=-0.99, r=0.999, length=2001, seed=0, ones=True)
@example(eps=-0.906, r=0.999, length=2001, seed=1, ones=False)
@example(eps=-0.01, r=0.999, length=2001, seed=2, ones=False)
@given(
    eps=st.floats(min_value=-0.99, max_value=-0.01),
    r=st.floats(min_value=0.0, max_value=0.999),
    length=st.integers(min_value=1, max_value=2001),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    ones=st.booleans(),
)
def test_schur_jacobi_route_matches_series(eps, r, length, seed, ones):
    seq = np.ones(length) if ones else np.random.default_rng(seed).uniform(-1.0, 1.0, length)
    series_val = schur_integral(seq, eps, r).value
    quad_val = schur_integral_quadrature(seq, eps, r)
    # near |z| = 1 both routes lose about u/(1-|z|^2): the rule at its nodes' rounding, where
    # the angular mean's relative slope is |z|^2/(1-|z|^2 u), and the series in lgamma's
    # cancellation; at |z| = 0.999 they were measured up to 3.0e-13 and 1.0e-13 off 30 digits
    assert abs(quad_val - series_val) <= (1e-13 + 8.0 * U / (1.0 - r * r)) * series_val


def test_schur_quadrature_bounds_its_radial_rule():
    with pytest.raises(ValueError, match="need"):
        schur_integral_quadrature(np.ones(5), -0.5, 1.0)
    # the rule would need ceil(12/sqrt(1-|z|^2)) > 8e6 nodes, capped at 5001 for 10 001 terms
    with pytest.raises(ValueError, match="5001-node radial rule, more than SCHUR_MAX_NODES"):
        schur_integral_quadrature(np.ones(10001), -0.5, 1.0 - 1e-12)


def test_schur_integral_monotone_in_radius():
    seq = np.linspace(1.0, 0.2, 30)
    vals = [schur_integral(seq, -0.4, r).value for r in (0.0, 0.3, 0.6, 0.9)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# --------------------------------------------------------------------------
# bound check report
# --------------------------------------------------------------------------

def test_schur_bound_check_ratios_match_schur_integral(step18):
    seq = step18.alphas(400)
    grid = np.linspace(0.0, 0.99, 34)
    rep = schur_bound_check(seq, -0.3, grid)
    for r, ratio in zip(grid, rep.ratios):
        # bit-identical: each row of the check's (radii x n) series sums as one radius alone
        assert ratio == schur_integral(seq, -0.3, r).upper / (1.0 - r ** 2) ** -0.3


def test_schur_bound_check_blocks_leave_ratios_alone(step18, monkeypatch):
    seq = np.diff(step18.alphas(400), prepend=0.0)
    grid = np.linspace(0.0, 0.99, 34)
    whole = schur_bound_check(seq, -0.3, grid)
    monkeypatch.setattr(regularity, "SCHUR_BLOCK_TERMS", 5 * 401)     # 5, 5, ..., 4 rows
    assert schur_bound_check(seq, -0.3, grid) == whole
    monkeypatch.setattr(regularity, "SCHUR_BLOCK_TERMS", 1)            # one row per block
    assert schur_bound_check(seq, -0.3, grid) == whole


def test_schur_bound_check_uniform_sequence():
    seq = np.ones(800)
    report = schur_bound_check(seq, -0.5, (0.0, 0.5, 0.9, 0.99))
    assert report.passes
    assert report.theoretical_c == pytest.approx(4.0 * PI, rel=1e-14)
    assert len(report.ratios) == 4
    assert all(r > 0 for r in report.ratios)


def test_schur_bound_check_conjugate_pair_epsilon():
    # eps = -1/(p*q) for p=3 (q=3/2) is -2/9
    seq = np.ones(800)
    report = schur_bound_check(seq, -2.0 / 9.0, np.arange(0.0, 0.991, 0.01))
    assert report.passes


def test_schur_bound_check_difference_sequence_of_weight(step18):
    seq = np.diff(step18.alphas(400), prepend=0.0)
    report = schur_bound_check(seq, -0.25, np.arange(0.0, 0.91, 0.05))
    assert report.passes
