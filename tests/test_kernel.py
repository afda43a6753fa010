import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergkern import (KernelSeries, StepWeight, ToleranceError, diagonal_poly, kernel_eval,
                      tail_bound)
from bergkern.kernel import eval_diagonal, terms_for_tolerance

PI = math.pi
_polyval = np.polynomial.polynomial.polyval


# --------------------------------------------------------------------------
# tail bound
# --------------------------------------------------------------------------

def test_tail_bound_zero_radius():
    assert tail_bound(1.0, 0.0, 5) == 0.0


def test_tail_bound_point_value_against_brute_force():
    # closed form at C=1, rho=1/2, N=0 is 3/pi; brute force: sum_{n>=1}(n+1)2^-n = 3
    val = tail_bound(1.0, 0.5, 0)
    assert val == pytest.approx(3.0 / PI, rel=1e-14)
    ns = np.arange(1, 400)
    brute = float(np.sum((ns + 1) * 0.5 ** ns)) / PI
    assert val == pytest.approx(brute, rel=1e-13)


def test_tail_bound_decreasing_in_truncation():
    vals = [tail_bound(18.0, 0.9, n) for n in range(0, 400, 25)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2 * vals[0]


def test_tail_bound_rejects_bad_radius():
    with pytest.raises(ValueError):
        tail_bound(1.0, 1.0, 10)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    a=st.floats(min_value=0.1, max_value=100.0),
    x=st.floats(min_value=0.05, max_value=0.95),
    rho=st.floats(min_value=0.0, max_value=0.95),
    n=st.integers(min_value=2, max_value=60),
)
def test_tail_bound_is_true_majorant(a, x, rho, n):
    w = StepWeight.from_plateau(a, x)
    series = KernelSeries(w)
    coeffs = series.alphas(n + 900)
    truth = float(_polyval(rho, coeffs))
    partial = float(_polyval(rho, coeffs[: n + 1]))
    slack = 4 * np.finfo(float).eps * abs(truth)  # rounding allowance
    assert abs(truth - partial) <= tail_bound(w.comparability_constant, rho, n) + slack


def test_terms_for_tolerance_is_minimal():
    n = terms_for_tolerance(18.0, 0.9, 1e-8)
    assert tail_bound(18.0, 0.9, n) <= 1e-8 < tail_bound(18.0, 0.9, n - 1)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def test_constant_kernel_closed_form_point(const1_series):
    got = kernel_eval(const1_series, 0.5, 0.5, tol=1e-12)
    assert got.value == pytest.approx(16.0 / (9.0 * PI), abs=2e-12)
    assert got.err_bound <= 1e-12


def test_constant_kernel_closed_form_random_grid(const1_series):
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * PI))
        w = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * PI))
        got = kernel_eval(const1_series, complex(z), complex(w), tol=1e-11)
        exact = 1.0 / (PI * (1.0 - z * np.conj(w)) ** 2)
        assert abs(got.value - exact) <= 2e-11


def test_eval_at_origin_is_alpha0(step18_series):
    got = kernel_eval(step18_series, 0.0, 0.37 + 0.2j, tol=1e-14)
    assert got.value == pytest.approx(step18_series.alpha(0), rel=1e-14)


def test_hermitian_symmetry(step18_series):
    z, w = 0.51 + 0.33j, -0.62 + 0.11j
    a = kernel_eval(step18_series, z, w, tol=1e-12).value
    b = kernel_eval(step18_series, w, z, tol=1e-12).value
    assert abs(a - np.conj(b)) <= 2e-12


def test_positive_on_real_diagonal(step18_series):
    for x in np.linspace(0.0, 0.97, 15):
        assert eval_diagonal(step18_series, float(x), tol=1e-10).value.real > 0.0


def test_value_at_affine_root_frozen_oracle(step18_series):
    # high-N certified partial sum, frozen from an independent Horner evaluation
    got = eval_diagonal(step18_series, -91.0 / 170.0, tol=1e-13)
    assert got.value.real == pytest.approx(-0.008798102679501, abs=1e-11)


def test_tolerance_unreachable_raises_with_achieved_bound(step18_series):
    with pytest.raises(ToleranceError) as exc_info:
        kernel_eval(step18_series, 0.99, 0.99, tol=1e-30, max_terms=100)
    assert exc_info.value.achieved > 1e-30


def test_eval_rejects_outside_disc(step18_series):
    with pytest.raises(ValueError):
        kernel_eval(step18_series, 1.2, 0.1)


# --------------------------------------------------------------------------
# (1-t)^2 * partial sum
# --------------------------------------------------------------------------

def test_diagonal_poly_constant_weight_interior_vanishes(const1_series):
    # arithmetic coefficients have zero second differences
    g = diagonal_poly(const1_series, 4)
    assert g[2:5] == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
    assert g[0] == pytest.approx(1.0 / PI, rel=1e-15)
    # truncation boundary terms: -(N+2)/pi and (N+1)/pi
    assert g[5] == pytest.approx(-6.0 / PI, rel=1e-14)
    assert g[6] == pytest.approx(5.0 / PI, rel=1e-14)


def test_diagonal_poly_plateau_linear_coefficient(step18_series):
    # alpha_1 - 2*alpha_0 in exact rational arithmetic from the two anchors
    expected = Fraction(512, 273) - 2 * Fraction(16, 33)
    assert expected == Fraction(8160, 9009)
    g = diagonal_poly(step18_series, 10)
    assert g[1] == pytest.approx(float(expected) / PI, rel=1e-13)


def test_diagonal_poly_plateau_interior_strictly_negative(step18_series):
    # beyond k ~ 14 the true values (~16^-k) sink below float64 resolution at
    # the coefficient magnitude; strict signs for the full range are certified
    # on the exact rational path (see test_zeros / the second-diff criterion)
    g = diagonal_poly(step18_series, 20)
    assert np.all(g[2:13] < 0.0)


def test_diagonal_poly_evaluates_to_product(step18_series):
    n = 40
    g = diagonal_poly(step18_series, n)
    t = 0.3 - 0.44j
    direct = (1 - t) ** 2 * _polyval(t, step18_series.alphas(n).astype(complex))
    assert abs(_polyval(t, g.astype(complex)) - direct) <= 1e-14


def test_diagonal_poly_rejects_small_n(step18_series):
    with pytest.raises(ValueError):
        diagonal_poly(step18_series, 1)


# --------------------------------------------------------------------------
# series cache
# --------------------------------------------------------------------------

def test_series_cache_extends_consistently(step18):
    series = KernelSeries(step18, initial_terms=4)
    first = series.alphas(3).copy()
    extended = series.alphas(600)
    assert extended[:4] == pytest.approx(first, rel=0, abs=0)
    assert len(series.alphas(600)) == 601


def test_scaled_series_scales_everything(step18_series):
    scaled = step18_series.scaled(7.25)
    assert scaled.alpha(5) == pytest.approx(7.25 * step18_series.alpha(5), rel=1e-15)
    assert scaled.tail_bound(0.5, 10) == pytest.approx(
        7.25 * step18_series.tail_bound(0.5, 10), rel=1e-15)
    with pytest.raises(ValueError):
        step18_series.scaled(-1.0)


def test_explicit_coefficients_have_a_fixed_budget(step18_series):
    a = step18_series.alphas(100).copy()
    a[0] *= 40.0                          # alpha_0*pi/1 now exceeds C = 18
    series = KernelSeries(step18_series.weight, coeffs=a)
    assert series.explicit and not step18_series.explicit
    assert np.array_equal(series.alphas(100), a)
    assert series.tail_constant == a[0] * PI
    with pytest.raises(ValueError):
        series.alphas(101)
    scaled = series.scaled(2.0)
    assert scaled.explicit and scaled.alpha(0) == 2.0 * a[0]


def test_explicit_coefficients_keep_the_weight_bound(step18_series):
    series = KernelSeries(step18_series.weight, coeffs=step18_series.alphas(50))
    assert series.tail_constant == step18_series.tail_constant == 18.0
