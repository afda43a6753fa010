import dataclasses
import json
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from bergkern import (ConstantWeight, DiracAugmentedWeight, QuadratureError, SampledWeight,
                      StepWeight, WeightError, load_weight, moment_quadrature, moment_table,
                      weight_from_json, weight_to_json)
from bergkern import weights
from bergkern.weights import alphas_closed_form
from bergkern.zeros import mollify_weight, second_difference_bound
from rational_oracle import step_alpha_pi_fraction

PI = math.pi
U = 2.0 ** -53


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def test_plateau_alpha0_alpha1(step18):
    a0, a1 = step18.alphas(1)
    assert a0 == pytest.approx(16.0 / (33.0 * PI), rel=1e-15)
    assert a1 == pytest.approx(512.0 / (273.0 * PI), rel=1e-15)


def test_plateau_alpha_pi_fractions_exact(step18):
    assert step_alpha_pi_fraction(step18, 0) == Fraction(16, 33)
    assert step_alpha_pi_fraction(step18, 1) == Fraction(512, 273)


def test_constant_weight_alpha_is_arithmetic():
    for n, alpha in enumerate(ConstantWeight(1.0).alphas(8)):
        assert alpha == pytest.approx((n + 1) / PI, rel=1e-15)


def test_constant_scaling():
    table = moment_table(ConstantWeight(2.5), 2)
    for n, alpha in enumerate(table.alphas):
        assert alpha == pytest.approx((n + 1) / (2.5 * PI), rel=1e-14)


def test_negative_index_rejected(step18):
    with pytest.raises(ValueError):
        moment_table(step18, -1)
    with pytest.raises(ValueError):
        moment_quadrature(step18, -2)


# --------------------------------------------------------------------------
# quadrature vs closed form
# --------------------------------------------------------------------------

def test_quadrature_matches_closed_form_on_plateau(step18):
    mus = 1.0 / step18.alphas(57)
    for n in (0, 1, 7, 57):
        mu_c = mus[n]
        mu_q, alpha_q, err = moment_quadrature(step18, n, tol=1e-12)
        assert abs(mu_q - mu_c) / mu_c <= 1e-12
        assert alpha_q * mu_q == pytest.approx(1.0, abs=10 * err)


def test_quadrature_constant_n5_exact_value():
    # int_0^1 r^11 dr = 1/12, so mu_5 = 2*pi/12 = pi/6
    mu, _, _ = moment_quadrature(ConstantWeight(1.0), 5, tol=1e-12)
    assert mu == pytest.approx(PI / 6.0, rel=1e-13)


def test_quadrature_large_index_concentrated_near_one(step18):
    mu_c = 1.0 / step18.alphas(900)[900]
    mu_q, _, err = moment_quadrature(step18, 900, tol=1e-12)
    assert abs(mu_q - mu_c) / mu_c <= 1e-11
    assert err <= 1e-12


def test_quadrature_failure_names_first_index_that_misses(step18):
    # no estimate is below the rounding allowance 8u kappa >= 8u, so such a tol always misses
    with pytest.raises(QuadratureError, match=r"^quadrature error estimate \S+ misses tol "
                                              r"1\.00e-16 at moment index 400$"):
        moment_quadrature(step18, 400, tol=1e-16)
    errs = moment_table(step18, 40, method="quadrature").errs
    assert errs.min() >= 8 * U
    # between the two largest estimates only the largest misses, wherever it sits
    tol = 0.5 * float(np.sum(np.sort(errs)[-2:]))
    with pytest.raises(QuadratureError) as exc_info:
        moment_table(step18, 40, tol=tol, method="quadrature")
    estimate = re.fullmatch(r"quadrature error estimate (\S+) misses tol \S+ at moment index (\d+)",
                            str(exc_info.value))
    assert int(estimate.group(2)) == int(np.argmax(errs)) and float(estimate.group(1)) > tol


def test_quadrature_rejects_dirac():
    with pytest.raises(WeightError):
        moment_quadrature(DiracAugmentedWeight(1.0), 0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    a=st.floats(min_value=0.1, max_value=100.0),
    x=st.floats(min_value=0.02, max_value=0.98),
    n=st.integers(min_value=0, max_value=40),
)
def test_closed_form_vs_quadrature_random_plateaus(a, x, n):
    w = StepWeight.from_plateau(a, x)
    mu_c = 1.0 / w.alphas(n)[n]
    mu_q, _, _ = moment_quadrature(w, n, tol=1e-12)
    assert abs(mu_q - mu_c) / mu_c <= 1e-12


# --------------------------------------------------------------------------
# tables and invariants
# --------------------------------------------------------------------------

def test_moment_table_plateau_first_two(step18):
    table = moment_table(step18, 1)
    assert table.alphas == pytest.approx([16 / (33 * PI), 512 / (273 * PI)], rel=1e-15)
    assert table.sandwich_holds()


def test_moment_table_constant_first_four():
    table = moment_table(ConstantWeight(1.0), 3)
    assert table.alphas == pytest.approx([1 / PI, 2 / PI, 3 / PI, 4 / PI], rel=1e-15)


def test_moment_table_quadrature_method(step18):
    table = moment_table(step18, 3, method="quadrature")
    assert table.method == "quadrature" and len(table.errs) == 4
    assert table.alphas == pytest.approx(moment_table(step18, 3).alphas, rel=1e-11)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    a=st.floats(min_value=0.1, max_value=100.0),
    x=st.floats(min_value=0.05, max_value=0.95),
)
def test_sandwich_and_monotonicity_random_plateaus(a, x):
    w = StepWeight.from_plateau(a, x)
    table = moment_table(w, 25)
    assert table.sandwich_holds()
    mus = table.mus
    assert np.all(np.diff(mus) < 0)  # mu_n strictly decreasing


def test_alphas_closed_form_matches_entrywise(step18):
    al = alphas_closed_form(step18, 30)
    for n in (0, 3, 17, 30):
        assert al[n] == pytest.approx(float(step_alpha_pi_fraction(step18, n)) / PI, rel=1e-14)


@pytest.mark.parametrize("weight", [
    ConstantWeight(2.5),
    StepWeight.from_plateau(18.0, 0.25),
    SampledWeight(radii=(0.0, 0.5), values=(2.0, 1.0)),
    DiracAugmentedWeight(10.0),
])
def test_alphas_closed_form_rejects_index_beyond_max_terms(weight):
    assert len(alphas_closed_form(weight, 0)) == 1
    with pytest.raises(ValueError, match="MAX_TERMS"):
        alphas_closed_form(weight, weights.MAX_TERMS + 1)


@pytest.mark.parametrize("weight", [
    ConstantWeight(2.5),
    StepWeight(breakpoints=(0.2, 0.6, 1.0), values=(18.0, 0.5, 1.0)),
    mollify_weight(StepWeight.from_plateau(18.0, 0.25), 1e-3),
    DiracAugmentedWeight(10.0),
    StepWeight.from_plateau(2.0, 0.4),
])
def test_alphas_prefix_stable(weight):
    # a prefix must not depend on how many coefficients one request asks for
    for m in (0, 1, 63, 500):
        assert np.array_equal(weight.alphas(4000)[:m + 1], weight.alphas(m))


def _alpha_mp(weight, n: int):
    """alpha_n from the float weight data in 50-digit arithmetic, interval by interval."""
    with mpmath.workdps(50):
        p, q = 2 * n + 2, 2 * n + 3
        if isinstance(weight, DiracAugmentedWeight):
            return 1 / (mpmath.pi + weight.mass) if n == 0 else (n + 1) / mpmath.pi
        if isinstance(weight, StepWeight):
            acc, prev = mpmath.mpf(0), mpmath.mpf(0)
            for b, v in zip(weight.breakpoints, weight.values):
                acc += v * (mpmath.mpf(b) ** p - prev ** p)
                prev = mpmath.mpf(b)
            return (n + 1) / (mpmath.pi * acc)
        rr = [mpmath.mpf(r) for r in weight.radii]
        vv = [mpmath.mpf(v) for v in weight.values]
        acc = vv[0] * rr[0] ** p / p + vv[-1] * (1 - rr[-1] ** p) / p
        for a, b, va, vb in zip(rr, rr[1:], vv, vv[1:]):
            c1 = (vb - va) / (b - a)     # lam = c0 + c1*r on [a, b]
            acc += (va - c1 * a) * (b ** p - a ** p) / p + c1 * (b ** q - a ** q) / q
        return 1 / (2 * mpmath.pi * acc)


FIFTY_DIGIT_WEIGHTS = [
    StepWeight.from_plateau(18.0, 0.25),
    StepWeight.from_plateau(11.0, 0.95),
    StepWeight.from_plateau(3.0, 0.9999),
    StepWeight.from_plateau(30.0, 0.05),
    StepWeight(breakpoints=(0.2, 0.6, 1.0), values=(18.0, 0.5, 1.0)),
    mollify_weight(StepWeight.from_plateau(20.0, 0.6), 0.02),
    mollify_weight(StepWeight.from_plateau(18.0, 0.25), 1e-3),
    mollify_weight(StepWeight.from_plateau(3.0, 0.98), 0.005),
    DiracAugmentedWeight(10.0),
]


@pytest.mark.parametrize("weight", FIFTY_DIGIT_WEIGHTS, ids=lambda w: w.label())
def test_alphas_match_50_digit_reference(weight):
    # a few u: sums of one power per kink lose up to 3.4e-14 on the smoothed plateaus
    # here, and sampled terms taken as plain differences b^q - a^q lose up to 6.6e-15
    alphas = weight.alphas(30000)
    for n in (0, 1, 2, 3, 10, 100, 1000, 2500, 10000, 30000):
        exact = _alpha_mp(weight, n)
        assert abs((alphas[n] - exact) / exact) <= 2e-15, n


@pytest.mark.parametrize("weight", FIFTY_DIGIT_WEIGHTS[:-1], ids=lambda w: w.label())
def test_quadrature_estimate_bounds_the_error(weight):
    # the point mass has no quadrature; n runs up to MAX_TERMS, where s^n sits within 2^-18 of r = 1
    ns = np.array([0, 1, 2, 3, 10, 100, 1000, 2500, 10000, 30000, 100000, weights.MAX_TERMS])
    vals, errs = weights.radial_integral(weight, 2 * ns + 1, tol=1.0)
    for n, val, err in zip(ns.tolist(), vals, errs):
        exact = 1 / (2 * mpmath.pi * _alpha_mp(weight, n))
        assert abs((val - exact) / exact) <= err, n


@pytest.mark.parametrize("weight", [
    StepWeight(breakpoints=(0.25, 0.5, 0.75, 1.0), values=(18.0, 0.5, 0.5, 1.0)),
    StepWeight.from_plateau(11.0, 0.9375),
    StepWeight(breakpoints=(0.125, 0.5, 0.96875, 1.0), values=(30.0, 0.25, 3.0, 1.5)),
])
def test_step_outer_g_sums_the_tail_terms(weight):
    # dyadic breakpoints, so every q_i = b_i^2 is exact and sum c_i q_i^(n+1) is g_n exactly
    terms = [(c, b * b) for c, b in weight._jumps()]
    g = weight.outer_g(2500)
    scale = 4.0 * U * sum(abs(c) for c, _ in terms)
    for n in (0, 1, 2, 3, 7, 40, 100, 1000, 2500):
        exact = sum(Fraction(c) * Fraction(q) ** (n + 1) for c, q in terms)
        assert abs(Fraction(g[n]) - exact) <= scale, n


@pytest.mark.parametrize("weight", [
    mollify_weight(StepWeight.from_plateau(18.0, 0.25), 1e-3),
    SampledWeight(radii=(0.0, 0.3, 0.5, 0.7), values=(2.0, 0.5, 4.0, 1.0)),
    SampledWeight(radii=(0.2, 0.6), values=(0.5, 3.0)),
])
def test_sampled_outer_g_matches_quadrature(weight):
    v_out, (big_g, q) = weight.v_out, weight._geometric_bound
    knots = [r for r in weight.radii if r > 0.0]
    g = weight.outer_g(60)
    for n in (0, 1, 2, 5, 20, 60):
        val, _ = quad(lambda r: r ** (2 * n + 1) * (float(weight.evaluate(r)) - v_out), 0.0,
                      knots[-1], points=knots[:-1] or None, limit=400, epsabs=0.0, epsrel=1e-13)
        assert abs(g[n] - 2 * (n + 1) * val) <= 1e-12 * big_g * q ** (n + 1), n


# --------------------------------------------------------------------------
# sampled weights
# --------------------------------------------------------------------------

def test_sampled_closed_form_vs_quadrature(step18):
    smooth = mollify_weight(step18, 1e-3)
    mus = 1.0 / smooth.alphas(11)
    for n in (0, 2, 11):
        mu_c = mus[n]
        mu_q, _, _ = moment_quadrature(smooth, n, tol=1e-12)
        assert abs(mu_q - mu_c) / mu_c <= 1e-11


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    first=st.floats(min_value=0.0, max_value=0.5),
    gaps=st.lists(st.floats(min_value=0.01, max_value=0.09), min_size=1, max_size=5),
    values=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=6, max_size=6),
    n=st.integers(min_value=0, max_value=2000),
)
def test_sampled_alphas_vs_quadrature_random(first, gaps, values, n):
    radii = [first]
    for g in gaps:
        radii.append(radii[-1] + g)
    w = SampledWeight(radii=tuple(radii), values=tuple(values[:len(radii)]))
    _, alpha_q, _ = moment_quadrature(w, n, tol=1e-12)
    assert abs(w.alphas(n)[n] - alpha_q) / alpha_q <= 1e-10


def test_mollified_alpha0_within_one_percent(step18):
    # the smoothed weight differs from the plateau only on a 2e-3 wide zone
    smooth = mollify_weight(step18, 1e-3)
    _, a0_smooth, _ = moment_quadrature(smooth, 0, tol=1e-12)
    a0_step = step18.alphas(0)[0]
    assert abs(a0_smooth - a0_step) / a0_step < 0.01


def test_sampled_flat_extrapolation():
    w = SampledWeight(radii=(0.1, 0.2), values=(2.0, 3.0))
    assert w.evaluate(0.05) == pytest.approx(2.0)
    assert w.evaluate(0.9) == pytest.approx(3.0)
    assert w.evaluate(0.15) == pytest.approx(2.5)


# --------------------------------------------------------------------------
# point-mass weight moments
# --------------------------------------------------------------------------

def test_dirac_moments():
    w = DiracAugmentedWeight(4.0)
    mus = moment_table(w, 3).mus
    assert mus[0] == pytest.approx(PI + 4.0, rel=1e-15)
    assert mus[3] == pytest.approx(PI / 4.0, rel=1e-15)
    al = alphas_closed_form(w, 3)
    assert al[0] == pytest.approx(1.0 / (PI + 4.0), rel=1e-15)
    assert al[2] == pytest.approx(3.0 / PI, rel=1e-15)


# --------------------------------------------------------------------------
# outer-annulus data
# --------------------------------------------------------------------------

_positive = st.floats(min_value=0.1, max_value=50.0)
_any_weight = st.one_of(
    st.builds(ConstantWeight, _positive),
    st.builds(StepWeight.from_plateau, _positive, st.floats(min_value=0.02, max_value=0.98)),
    st.lists(st.tuples(st.floats(min_value=0.01, max_value=0.3), _positive),
             min_size=2, max_size=4).map(lambda segs: StepWeight(
                 breakpoints=tuple(np.cumsum([g for g, _ in segs]) / sum(g for g, _ in segs)),
                 values=tuple(v for _, v in segs))),
    st.lists(st.tuples(st.floats(min_value=0.01, max_value=0.19), _positive),
             min_size=2, max_size=5).map(lambda knots: SampledWeight(
                 radii=tuple(np.cumsum([g for g, _ in knots])), values=tuple(v for _, v in knots))),
    st.builds(DiracAugmentedWeight, st.floats(min_value=0.0, max_value=50.0)),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weight=_any_weight)
def test_outer_tail_bounds_every_term(weight):
    # alpha_n = (n+1)/(pi*(v_out + g_n)) with |g_n| <= G*q^(n+1) for every n >= 0,
    # except for the point mass, whose only nonzero g_n is g_0 = mass/pi
    n = np.arange(201)
    g = weight.outer_g(200)
    if isinstance(weight, DiracAugmentedWeight):
        assert g[0] == weight.mass / PI and not g[1:].any()
    else:
        big_g, q = weight._geometric_bound
        assert np.all(np.abs(g) <= big_g * q ** (n + 1.0) * (1.0 + 1e-12))
    assert np.array_equal(weight.alphas(200), (n + 1) / (PI * (weight.v_out + g)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weight=_any_weight, n=st.integers(min_value=0, max_value=100))
@example(weight=StepWeight.from_plateau(0.5, 0.6), n=0)      # fails for half the bound
@example(weight=DiracAugmentedWeight(1e250), n=0)
def test_delta_tail_bounds_the_coefficient_tail(weight, n):
    # delta_m = alpha_m - (m+1)/(pi*v_out) = -(m+1) g_m/(pi v_out (v_out + g_m))
    m = np.arange(n + 201)
    g = weight.outer_g(n + 200)
    v = weight.v_out
    delta = np.abs(-(m + 1.0) * g / (PI * v * (v + g)))
    tails = [weight.delta_tail(k) for k in range(n + 201)]
    assert all(math.isfinite(t) for t in tails)
    assert all(t1 <= t0 for t0, t1 in zip(tails, tails[1:]))
    assert tails[n] * (1.0 + 1e-12) >= float(np.sum(delta[n:]))
    if isinstance(weight, DiracAugmentedWeight):
        assert tails[0] == delta[0] and not any(tails[1:])


def test_outer_tail_terms_sum_to_g_exactly():
    # g_n = sum_i c_i q_i^(n+1) for steps: checked against the exact rationals
    weight = StepWeight(breakpoints=(0.25, 0.5, 0.75, 1.0), values=(18.0, 0.5, 0.5, 1.0))
    v_out = weight.v_out
    terms = [(c, b * b) for c, b in weight._jumps()]
    assert terms == [(17.5, 0.0625), (-0.5, 0.5625)]      # the zero jump at 0.5 is dropped
    for n in (0, 1, 7, 40):
        g = sum(Fraction(c) * Fraction(q) ** (n + 1) for c, q in terms)
        assert (n + 1) / (Fraction(v_out) + g) == step_alpha_pi_fraction(weight, n)
    assert ConstantWeight(2.5)._jumps() == []
    assert StepWeight(breakpoints=(1.0,), values=(3.0,))._jumps() == []


def test_evaluate_tables_leave_equality_and_hashing_alone():
    a = SampledWeight(radii=(0.0, 0.5), values=(1.0, 2.0))
    b = SampledWeight(radii=(0.0, 0.5), values=(1.0, 2.0))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert StepWeight.from_plateau(18.0, 0.25) == StepWeight.from_plateau(18.0, 0.25)
    assert float(a.evaluate(0.25)) == 1.5
    with pytest.raises(ValueError):
        a._arrays[0][0] = 1.0                              # the tables are read-only


# --------------------------------------------------------------------------
# validation and serialization
# --------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(breakpoints=(0.5, 0.25, 1.0), values=(1.0, 2.0, 1.0)),   # not increasing
    dict(breakpoints=(0.25, 0.9), values=(1.0, 1.0)),             # does not close at 1
    dict(breakpoints=(0.25, 1.0), values=(1.0, -2.0)),            # negative value
    dict(breakpoints=(), values=()),                              # empty
    dict(breakpoints=(math.nan, 1.0), values=(2.0, 1.0)),         # NaN breakpoint
    dict(breakpoints=(0.25, math.nan, 1.0), values=(2.0, 3.0, 1.0)),
])
def test_step_validation(bad):
    with pytest.raises(WeightError):
        StepWeight(**bad)


def test_other_validation():
    with pytest.raises(WeightError):
        ConstantWeight(0.0)
    with pytest.raises(WeightError):
        SampledWeight(radii=(0.1, 1.0), values=(1.0, 1.0))        # radius at 1
    with pytest.raises(WeightError):
        SampledWeight(radii=(0.3, 0.2), values=(1.0, 1.0))        # decreasing
    for radii in ((math.nan, 0.5), (0.2, math.nan), (0.1, math.nan, 0.5)):
        with pytest.raises(WeightError):
            SampledWeight(radii=radii, values=(2.0,) * len(radii))
    with pytest.raises(WeightError):
        DiracAugmentedWeight(-0.5)
    with pytest.raises(WeightError):
        StepWeight.from_plateau(18.0, 1.5)


def test_comparability_constants(step18):
    assert step18.comparability_constant == 18.0
    assert ConstantWeight(0.25).comparability_constant == 4.0
    assert SampledWeight(radii=(0.0, 0.5), values=(0.5, 3.0)).comparability_constant == 3.0


@pytest.mark.parametrize("weight", [
    ConstantWeight(2.0),
    StepWeight.from_plateau(18.0, 0.25),
    SampledWeight(radii=(0.0, 0.4, 0.8), values=(1.0, 2.0, 1.5)),
    DiracAugmentedWeight(3.0),
])
def test_json_roundtrip(weight):
    assert weight_from_json(weight_to_json(weight)) == weight


def test_load_weight_file(tmp_path, step18):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"type": "step", "segments": [[0.25, 18.0], [1.0, 1.0]]}))
    assert load_weight(str(path)) == step18


def test_weight_from_json_rejects_garbage():
    with pytest.raises(WeightError):
        weight_from_json({"type": "pyramid"})
    with pytest.raises(WeightError):
        weight_from_json(["not", "an", "object"])
    # a missing or malformed field is a WeightError that names it, never a KeyError,
    # IndexError, TypeError or OverflowError
    for bad, field in [
        ({"type": "step"}, "'segments'"),
        ({"type": "step", "segments": [[1.0]]}, "'segments'"),
        ({"type": "step", "segments": 5}, "'segments'"),
        ({"type": "step", "segments": [[None, 1.0]]}, "'segments'"),
        ({"type": "sampled", "radii": [0.1, 0.5]}, "'values'"),
        ({"type": "sampled", "values": [1, 2]}, "'radii'"),
        ({"type": "dirac"}, "'mass'"),
        ({"type": "dirac", "mass": 10 ** 400}, "'mass'"),
        ({"type": "constant", "value": [1]}, "'value'"),
        ({"type": "constant", "value": None}, "'value'"),
        ({"type": "sampled", "radii": [0.1, 0.5], "values": [1, None]}, "'values'"),
    ]:
        with pytest.raises(WeightError, match=field):
            weight_from_json(bad)


def test_weight_from_json_keeps_accepting_loose_numbers():
    assert weight_from_json({"type": "constant"}) == ConstantWeight(1.0)
    assert weight_from_json({"type": "constant", "value": "2.5"}) == ConstantWeight(2.5)
    assert weight_from_json({"type": "step", "segments": [["0.25", 18, "extra"], [1, "1"]]}) \
        == StepWeight.from_plateau(18.0, 0.25)
    assert weight_from_json({"type": "dirac", "mass": True}) == DiracAugmentedWeight(1.0)


@pytest.mark.parametrize("weight", [
    SampledWeight(radii=(0.0, 0.5), values=(2.0, 1.0)),
    DiracAugmentedWeight(10.0),
])
def test_mollify_rejects_weights_that_are_not_steps(weight):
    message = f"not a piecewise-constant weight: {weight!r}"
    with pytest.raises(WeightError, match=re.escape(message)):
        mollify_weight(weight, 1e-3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(v=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example(v=1.0)
@example(v=0.25)
@example(v=2.5)
@example(v=1e-300)
@example(v=1e300)
@example(v=1e-310)     # its reciprocal overflows
@example(v=1e308)      # pi times it overflows
def test_constant_is_the_one_segment_step(v):
    if not (math.isfinite(1.0 / v) and math.isfinite(PI * v)):
        # no float coefficients: both forms reject the value
        for make in (ConstantWeight, lambda v: StepWeight((1.0,), (v,))):
            with pytest.raises(WeightError, match="overflows"):
                make(v)
        return
    const, step = ConstantWeight(v), StepWeight((1.0,), (v,))
    assert isinstance(const, StepWeight) and const.value == v

    def same(a, b):          # bit for bit, NaN and signed zero included
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        assert same(const.alphas(60), step.alphas(60))
        assert same(const.outer_g(60), step.outer_g(60))
        assert same(const.v_out, step.v_out)
        assert same(const._geometric_bound, step._geometric_bound)
        assert same([const.delta_tail(n) for n in (0, 1, 49)], [step.delta_tail(n) for n in (0, 1, 49)])
        assert same(const.second_difference_signs(50), step.second_difference_signs(50))
        r = np.array([0.0, 0.25, 0.5, 0.999, 1.0])
        assert same(const.evaluate(r), step.evaluate(r))
        assert same(const.comparability_constant, step.comparability_constant)
        sd_const, sd_step = (second_difference_bound(w, 50) for w in (const, step))
    for f in dataclasses.fields(sd_const):
        assert same(getattr(sd_const, f.name), getattr(sd_step, f.name)), f.name
    assert const == ConstantWeight(v) and hash(const) == hash(ConstantWeight(v))
    assert weight_from_json(json.loads(json.dumps(weight_to_json(const)))) == const
