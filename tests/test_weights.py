import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergkern import (ConstantWeight, DiracAugmentedWeight, QuadratureError, SampledWeight,
                      StepWeight, WeightError, load_weight, moment_quadrature, moment_table,
                      weight_from_json, weight_to_json)
from bergkern import weights
from bergkern.weights import alphas_closed_form, step_alpha_pi_fraction
from bergkern.zeros import mollify_weight

PI = math.pi


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
    for n, entry in enumerate(table.entries):
        assert entry.alpha == pytest.approx((n + 1) / (2.5 * PI), rel=1e-14)


def test_negative_index_rejected(step18):
    with pytest.raises(ValueError):
        moment_table(step18, -1)
    with pytest.raises(ValueError):
        step_alpha_pi_fraction(step18, -1)
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


def test_quadrature_budget_failure_carries_best_bound(step18, monkeypatch):
    monkeypatch.setattr(weights, "QUAD_LIMIT", 4)
    with pytest.raises(QuadratureError) as exc_info:
        moment_quadrature(step18, 400, tol=1e-14)
    assert exc_info.value.err is not None and exc_info.value.err > 1e-14
    assert exc_info.value.index == 400


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
    assert all(e.method == "quadrature" for e in table.entries)
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
    StepWeight(breakpoints=(0.2, 0.6, 1.0), values=(18.0, 0.5, 1.0)),
    mollify_weight(StepWeight.from_plateau(18.0, 0.25), 1e-3),
    DiracAugmentedWeight(10.0),
    StepWeight.from_plateau(2.0, 0.4),
])
def test_alphas_prefix_stable(weight):
    # KernelSeries grows its cache by recomputing a longer prefix
    for m in (0, 1, 63, 500):
        assert np.array_equal(weight.alphas(4000)[:m + 1], weight.alphas(m))


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
    # alpha_n = (n+1)/(pi*(v_out + g_n)) with |g_n| <= G*q^(n+1) for every n >= 0
    v_out, big_g, q = weight.outer_tail()
    n = np.arange(201)
    g = (n + 1) / (PI * weight.alphas(200)) - v_out
    rounding = 1e-12 * (v_out + big_g * q)
    assert np.all(np.abs(g) <= big_g * q ** (n + 1.0) + rounding)


# --------------------------------------------------------------------------
# validation and serialization
# --------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(breakpoints=(0.5, 0.25, 1.0), values=(1.0, 2.0, 1.0)),   # not increasing
    dict(breakpoints=(0.25, 0.9), values=(1.0, 1.0)),             # does not close at 1
    dict(breakpoints=(0.25, 1.0), values=(1.0, -2.0)),            # negative value
    dict(breakpoints=(), values=()),                              # empty
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
