import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bergkern import (ConstantWeight, DiracAugmentedWeight, StepWeight, ToleranceError,
                      count_zeros_winding, diagonal_poly, inflation_check, kernel_eval,
                      mollify_weight, rouche_certificate, second_difference_bound, zeros)
from bergkern import kernel
from bergkern.kernel import eval_diagonal, terms_for_tolerance
from bergkern.weights import MAX_TERMS

PI = math.pi
EPS = np.finfo(float).eps
_polyval = np.polynomial.polynomial.polyval


# --------------------------------------------------------------------------
# tail bound
# --------------------------------------------------------------------------

def _closed_form_tail(c, rho, n):
    # reference: the tail majorant for alpha_n <= c(n+1)/pi with the constant c given
    # explicitly, sum_{k>n} (k+1) rho^k = rho^(n+1) ((n+2) - (n+1) rho)/(1-rho)^2
    if rho == 0.0:
        return 0.0
    return (c / PI) * rho ** (n + 1) * ((n + 2) - (n + 1) * rho) / (1.0 - rho) ** 2


def _closed_form_terms(c, rho, tol):
    # reference: the smallest n <= MAX_TERMS whose closed-form tail meets tol, None if none does
    if rho == 0.0:
        return 0
    if _closed_form_tail(c, rho, MAX_TERMS) > tol:
        return None
    return bisect.bisect_left(range(MAX_TERMS + 1), True,
                              key=lambda n: _closed_form_tail(c, rho, n) <= tol)


def _dyadic_step(splits, values):
    # breakpoints j/64, values j/8
    bps = tuple(sorted(j / 64.0 for j in splits)) + (1.0,)
    return StepWeight(breakpoints=bps, values=tuple(v / 8.0 for v in values[:len(bps)]))


def _mollified(a, x, frac):
    return mollify_weight(StepWeight.from_plateau(a, x), 0.5 * frac * min(x, 1.0 - x))


_EVERY_SHAPE = st.one_of(
    st.builds(StepWeight.from_plateau, st.floats(0.1, 100.0), st.floats(0.05, 0.95)),
    st.builds(_dyadic_step, st.lists(st.integers(1, 63), min_size=1, max_size=3, unique=True),
              st.lists(st.integers(1, 800), min_size=4, max_size=4)),
    st.floats(0.01, 100.0).map(ConstantWeight),
    st.builds(_mollified, st.floats(0.1, 100.0), st.floats(0.1, 0.9), st.floats(0.05, 0.95)),
    st.floats(0.0, 1e6).map(DiracAugmentedWeight))


def test_tail_bound_zero_radius(const1):
    assert const1.series_tail(0.0, 5) == 0.0


def test_tail_bound_point_value_against_brute_force(const1):
    # closed form at C=1, rho=1/2, N=0 is 3/pi; brute force: sum_{n>=1}(n+1)2^-n = 3
    val = const1.series_tail(0.5, 0)
    assert val == pytest.approx(3.0 / PI, rel=1e-14)
    ns = np.arange(1, 400)
    brute = float(np.sum((ns + 1) * 0.5 ** ns)) / PI
    assert val == pytest.approx(brute, rel=1e-13)


def test_tail_bound_decreasing_in_truncation(step18):
    vals = [step18.series_tail(0.9, n) for n in range(0, 400, 25)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2 * vals[0]


def test_tail_bound_rejects_bad_radius(const1):
    with pytest.raises(ValueError):
        const1.series_tail(1.0, 10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weight=_EVERY_SHAPE, rho=st.floats(min_value=0.0, max_value=0.95),
       theta=st.floats(min_value=0.0, max_value=2.0 * PI), n=st.integers(min_value=2, max_value=60))
@example(weight=ConstantWeight(1.0), rho=0.9, theta=0.0, n=10)   # alpha_k = (k+1)/pi: equality
@example(weight=DiracAugmentedWeight(1e6), rho=0.95, theta=0.0, n=2)
def test_tail_bound_is_true_majorant(weight, rho, theta, n):
    # |sum_{k>n} alpha_k t^k| at t = rho e^(i theta), summed far past n; each term carries a
    # few roundings and fsum adds none
    k = np.arange(n + 1, n + 901)
    terms = weight.alphas(n + 900)[n + 1:] * rho ** k
    tail = abs(complex(math.fsum(terms * np.cos(k * theta)), math.fsum(terms * np.sin(k * theta))))
    assert tail <= weight.series_tail(rho, n) + 16 * EPS * math.fsum(terms)


def test_terms_for_tolerance_is_minimal(step18):
    n = terms_for_tolerance(step18.series_tail, 0.9, 1e-8)
    assert step18.series_tail(0.9, n) <= 1e-8 < step18.series_tail(0.9, n - 1)


def _first_choice(weight, rho):
    """The truncation count_zeros_winding picks first at rho, before any doubling."""
    chosen = []

    def spy(tail, rho, tol):
        chosen.append(terms_for_tolerance(tail, rho, tol))
        return chosen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeros, "terms_for_tolerance", spy)
        count_zeros_winding(weight, rho, locate=False)
    return chosen[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(weight=_EVERY_SHAPE, rho=st.floats(min_value=0.01, max_value=0.95),
       theta=st.floats(min_value=0.0, max_value=2.0 * PI),
       log_tol=st.floats(min_value=-14.0, max_value=-2.0))
def test_truncations_match_the_closed_form_rule(weight, rho, theta, log_tol):
    # every caller picks the n, and reports the bound, of the rule with C = alpha_bound
    c, tol = weight.alpha_bound, 10.0 ** log_tol
    t = rho * complex(math.cos(theta), math.sin(theta))
    got = eval_diagonal(weight, t, tol=tol)
    assert got.n_used == _closed_form_terms(c, abs(t), tol)
    assert got.err_bound == _closed_form_tail(c, abs(t), got.n_used)
    assert _first_choice(weight, rho) == _closed_form_terms(c, rho, 1e-4 * weight.alphas(0)[0])
    if not isinstance(weight, DiracAugmentedWeight):     # the inflated domain needs a function
        z = math.sqrt(rho) * complex(math.cos(theta), math.sin(theta))
        chk = inflation_check(weight, z, math.sqrt(rho), tol=tol)
        q = z * math.sqrt(rho)
        assert chk.m_used == _closed_form_terms(c / PI, abs(q), tol * 1e-2)


def test_terms_for_tolerance_matches_the_closed_form_rule_on_random_triples():
    # C >= 1 is a constant weight's alpha_bound; the second tail is the inflation check's
    rng = np.random.default_rng(22)
    for c, rho, tol in zip(10.0 ** rng.uniform(0.0, 3.0, 4000), rng.uniform(0.0, 0.999, 4000),
                           10.0 ** rng.uniform(-16.0, 0.0, 4000)):
        weight = ConstantWeight(c)
        assert weight.alpha_bound == c
        for tail, ref_c in ((weight.series_tail, c),
                            (lambda r, m: weight.series_tail(r, m) / PI, c / PI)):
            try:
                got = terms_for_tolerance(tail, rho, tol)
            except ToleranceError:
                got = None
            assert got == _closed_form_terms(ref_c, rho, tol)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def test_constant_kernel_closed_form_point(const1):
    got = kernel_eval(const1, 0.5, 0.5, tol=1e-12)
    assert got.value == pytest.approx(16.0 / (9.0 * PI), abs=2e-12)
    assert got.err_bound <= 1e-12


def test_constant_kernel_closed_form_random_grid(const1):
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * PI))
        w = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * PI))
        got = kernel_eval(const1, complex(z), complex(w), tol=1e-11)
        exact = 1.0 / (PI * (1.0 - z * np.conj(w)) ** 2)
        assert abs(got.value - exact) <= 2e-11


def test_eval_at_origin_is_alpha0(step18):
    got = kernel_eval(step18, 0.0, 0.37 + 0.2j, tol=1e-14)
    assert got.value == pytest.approx(step18.alphas(0)[0], rel=1e-14)


def test_hermitian_symmetry(step18):
    z, w = 0.51 + 0.33j, -0.62 + 0.11j
    a = kernel_eval(step18, z, w, tol=1e-12).value
    b = kernel_eval(step18, w, z, tol=1e-12).value
    assert abs(a - np.conj(b)) <= 2e-12


def test_positive_on_real_diagonal(step18):
    for x in np.linspace(0.0, 0.97, 15):
        assert eval_diagonal(step18, float(x), tol=1e-10).value.real > 0.0


def test_value_at_affine_root_frozen_oracle(step18):
    # high-N certified partial sum, frozen from an independent Horner evaluation
    got = eval_diagonal(step18, -91.0 / 170.0, tol=1e-13)
    assert got.value.real == pytest.approx(-0.008798102679501, abs=1e-11)


def test_tolerance_unreachable_raises_with_achieved_bound(step18, monkeypatch):
    monkeypatch.setattr(kernel, "MAX_TERMS", 100)
    with pytest.raises(ToleranceError) as exc_info:
        kernel_eval(step18, 0.99, 0.99, tol=1e-30)
    achieved = step18.series_tail(abs(0.99 * 0.99), 100)
    assert achieved > 1e-30
    assert str(exc_info.value) == f"tail bound {achieved:.3e} at 100 terms exceeds tol 1.000e-30"


def test_eval_rejects_outside_disc(step18):
    with pytest.raises(ValueError):
        kernel_eval(step18, 1.2, 0.1)


# --------------------------------------------------------------------------
# (1-t)^2 * partial sum
# --------------------------------------------------------------------------

def test_diagonal_poly_constant_weight_interior_vanishes(const1):
    # arithmetic coefficients have zero second differences
    g = diagonal_poly(const1, 4)
    assert g[2:5] == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
    assert g[0] == pytest.approx(1.0 / PI, rel=1e-15)
    # truncation boundary terms: -(N+2)/pi and (N+1)/pi
    assert g[5] == pytest.approx(-6.0 / PI, rel=1e-14)
    assert g[6] == pytest.approx(5.0 / PI, rel=1e-14)


def test_diagonal_poly_plateau_linear_coefficient(step18):
    # alpha_1 - 2*alpha_0 in exact rational arithmetic from the two anchors
    expected = Fraction(512, 273) - 2 * Fraction(16, 33)
    assert expected == Fraction(8160, 9009)
    g = diagonal_poly(step18, 10)
    assert g[1] == pytest.approx(float(expected) / PI, rel=1e-13)


def test_diagonal_poly_plateau_interior_strictly_negative(step18):
    # beyond k ~ 14 the true values (~16^-k) sink below float64 resolution at
    # the coefficient magnitude; strict signs for the full range are certified
    # on the exact rational path (see test_zeros / the second-diff criterion)
    g = diagonal_poly(step18, 20)
    assert np.all(g[2:13] < 0.0)


def test_diagonal_poly_evaluates_to_product(step18):
    n = 40
    g = diagonal_poly(step18, n)
    t = 0.3 - 0.44j
    direct = (1 - t) ** 2 * _polyval(t, step18.alphas(n).astype(complex))
    assert abs(_polyval(t, g.astype(complex)) - direct) <= 1e-14


def test_diagonal_poly_rejects_small_n(step18):
    with pytest.raises(ValueError):
        diagonal_poly(step18, 1)


# --------------------------------------------------------------------------
# explicit coefficients
# --------------------------------------------------------------------------

def test_explicit_coefficients_have_a_fixed_budget(step18):
    a = step18.alphas(100)
    a[0] *= 40.0                          # alpha_0*pi/1 now exceeds C = 18
    sd = second_difference_bound(step18, 100, alphas=a)
    own = second_difference_bound(step18, 100)
    assert sd.remainder_bound == pytest.approx(own.remainder_bound * a[0] * PI / 18.0, rel=1e-14)
    with pytest.raises(ValueError, match="alpha_101"):
        second_difference_bound(step18, 101, alphas=a)
    with pytest.raises(ValueError, match="alpha_101"):
        rouche_certificate(step18, 0.01, n_cutoff=101, alphas=a)


def test_explicit_coefficients_keep_the_weight_bound(step18):
    # the weight's own coefficients, given explicitly: C stays alpha_bound = 18
    a = step18.alphas(50)
    sd = second_difference_bound(step18, 50, alphas=a)
    own = second_difference_bound(step18, 50)
    assert step18.alpha_bound == 18.0
    assert sd.remainder_bound == own.remainder_bound > 0.0
    # explicit coefficients prove no sign, so their |d2_k| are summed term by term, which
    # differs from the weight's telescoped sum by rounding: a few u of each alpha_k
    assert abs(sd.s_bound - own.s_bound) <= 16.0 * np.finfo(float).eps * float(np.sum(a))
