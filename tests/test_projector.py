import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bergkern.projector
from bergkern import (ConstantWeight, StepWeight, TestFunction, build_projector,
                      cs_split_witness, default_family, lp_norm, lp_probe, project)
from bergkern.projector import _leggauss, function_from_spec, inner_product, monomial_inner
from bergkern.weights import MAX_TERMS, DiracAugmentedWeight

PI = math.pi


# --------------------------------------------------------------------------
# reference implementations: dense power loops over the grid
# --------------------------------------------------------------------------

def reference_monomial_inner(proj, f):
    w = proj.radial_area[:, None] * f
    conj_grid = np.conj(proj.grid)
    out = np.empty(proj.n_max + 1, dtype=complex)
    power = np.ones_like(conj_grid)
    for n in range(proj.n_max + 1):
        out[n] = np.sum(w * power)
        power = power * conj_grid
    return out


def reference_project(proj, f):
    coeffs = proj.alphas * reference_monomial_inner(proj, f)
    values = np.zeros_like(f)
    power = np.ones_like(proj.grid)
    for c in coeffs:
        values = values + c * power
        power = power * proj.grid
    return coeffs, values


def reference_split_witness(weight, f, p, n_trunc=12, radial=32, angular=48):
    """The split witness from dense kernel matrices, built in row chunks."""
    nodes, wts = _leggauss(radial)
    r = 0.5 * (nodes + 1.0)
    wr = 0.5 * wts
    thetas = np.linspace(0.0, 2.0 * math.pi, angular, endpoint=False)
    pts = (r[:, None] * np.exp(1j * thetas[None, :])).ravel()
    area = ((wr * r)[:, None] * np.full(angular, 2.0 * math.pi / angular)).ravel()
    b = np.diff(weight.alphas(n_trunc), prepend=0.0)
    fv = np.broadcast_to(np.asarray(f(pts), dtype=complex), pts.shape)
    tf = np.empty_like(fv)
    s1 = np.empty(len(pts))
    s2 = np.empty(len(pts))
    chunk = 512
    conj_pts = np.conj(pts)
    for lo in range(0, len(pts), chunk):
        t = pts[lo:lo + chunk, None] * conj_pts[None, :]
        k1 = (1.0 - t ** (n_trunc + 1)) / (1.0 - t)
        k2 = np.zeros_like(t)
        for c in b[::-1]:
            k2 = k2 * t + c
        tf[lo:lo + chunk] = (k1 * k2) @ (area * fv)
        s1[lo:lo + chunk] = np.real(np.abs(k1) ** 2 @ (area * np.abs(fv)))
        s2[lo:lo + chunk] = np.real(np.abs(k2) ** 2 @ (area * np.abs(fv)))
    lhs = float(np.sum(area * np.abs(tf) ** p) ** 2)
    rhs = float(np.sum(area * s1 ** p) * np.sum(area * s2 ** p))
    return lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-12))


def reference_lp_probe(weight, p_values, n_max, radial_per_segment, angular, family):
    """The probe from grid samples: sample each function, project it, take both lp_norms.

    Returns one list of (name, ratio) rows per exponent.
    """
    proj = build_projector(weight, n_max, radial_per_segment, angular)
    moduli = []
    for name, fn in family:
        samples = np.broadcast_to(np.asarray(fn(proj.grid), dtype=complex), proj.grid.shape)
        moduli.append((name, np.abs(samples), np.abs(project(proj, samples).values)))
    results = []
    for p in p_values:
        rows = []
        for name, abs_f, abs_pf in moduli:
            denom = lp_norm(proj, abs_f, p)
            rows.append((name, lp_norm(proj, abs_pf, p) / denom if denom != 0.0 else None))
        results.append(rows)
    return results


def max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


REFERENCE_WEIGHTS = (ConstantWeight(1.0), StepWeight.from_plateau(18.0, 0.25),
                     StepWeight.from_plateau(3.0, 0.7), StepWeight.from_plateau(0.3, 0.5))


@pytest.fixture(scope="module")
def proj_const(const1):
    return build_projector(const1, 40)


@pytest.fixture(scope="module")
def proj_step(step18):
    return build_projector(step18, 40)


# --------------------------------------------------------------------------
# grid algebra
# --------------------------------------------------------------------------

def test_discrete_monomial_orthogonality(proj_step):
    grid = proj_step.grid
    mu_min = 1.0 / proj_step.alphas[-1]
    for m, n in ((0, 1), (2, 5), (7, 40)):
        ip = inner_product(proj_step, grid ** m, grid ** n)
        assert abs(ip) <= 1e-13 * mu_min


def test_discrete_monomial_norms_match_moments(proj_step):
    grid = proj_step.grid
    for n in (0, 3, 17, 40):
        ip = inner_product(proj_step, grid ** n, grid ** n)
        assert ip.real == pytest.approx(1.0 / proj_step.alphas[n], rel=1e-13)


def test_projection_fixes_monomials(proj_const, proj_step):
    for proj in (proj_const, proj_step):
        f = proj.grid ** 3
        got = project(proj, f)
        assert np.max(np.abs(got.values - f)) <= 1e-10
        assert got.coeffs[3] == pytest.approx(1.0, rel=1e-12)


def test_projection_reproduces_polynomials(proj_step):
    grid = proj_step.grid
    poly = 0.3 - 1.1 * grid + grid ** 12 / 3.0 + (0.2 + 0.7j) * grid ** 40
    got = project(proj_step, poly)
    assert np.max(np.abs(got.values - poly)) <= 1e-9


def test_projection_annihilates_antiholomorphic(proj_const, proj_step):
    for proj in (proj_const, proj_step):
        for m in (1, 2, 5):
            got = project(proj, np.conj(proj.grid) ** m)
            assert np.max(np.abs(got.values)) <= 1e-10


def test_projection_of_radial_profile(proj_const):
    # (1 - |w|^2) has <f, 1> = pi/2, so the projection is the constant 1/2
    f = 1.0 - np.abs(proj_const.grid) ** 2
    got = project(proj_const, f)
    assert np.max(np.abs(got.values - 0.5)) <= 1e-12
    assert got.coeffs[0] == pytest.approx(0.5, rel=1e-13)
    assert np.max(np.abs(got.coeffs[1:])) <= 1e-14


def test_projection_idempotent(proj_step):
    rng = np.random.default_rng(5)
    f = rng.standard_normal(proj_step.grid.shape) + 1j * rng.standard_normal(proj_step.grid.shape)
    once = project(proj_step, f).values
    twice = project(proj_step, once).values
    assert np.max(np.abs(twice - once)) <= 1e-9 * max(1.0, float(np.max(np.abs(once))))


def test_projection_self_adjoint(proj_step):
    rng = np.random.default_rng(6)
    shape = proj_step.grid.shape
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lhs = inner_product(proj_step, project(proj_step, f).values, g)
    rhs = inner_product(proj_step, f, project(proj_step, g).values)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_projection_rejects_wrong_grid(proj_step):
    with pytest.raises(ValueError):
        project(proj_step, np.ones((3, 3)))


def test_projector_guards():
    with pytest.raises(ValueError):
        build_projector(ConstantWeight(1.0), 10, angular=20)   # needs >= 44
    with pytest.raises(ValueError):
        build_projector(DiracAugmentedWeight(1.0), 10)


def test_grid_arrays_computed_once(proj_step):
    assert proj_step.grid is proj_step.grid
    assert proj_step.radial_area is proj_step.radial_area


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(REFERENCE_WEIGHTS), st.integers(min_value=0, max_value=60),
       st.sampled_from(["4N+4", "4N+8", "odd"]), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_fft_projection_matches_power_loop(weight, n_max, angular, seed):
    m = {"4N+4": 4 * n_max + 4, "4N+8": 4 * n_max + 8, "odd": 4 * n_max + 5}[angular]
    proj = build_projector(weight, n_max, radial_per_segment=40, angular=m)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(proj.grid.shape) + 1j * rng.standard_normal(proj.grid.shape)
    want_inner = reference_monomial_inner(proj, f)
    assert max_rel(monomial_inner(proj, f), want_inner) <= 1e-12
    want_coeffs, want_values = reference_project(proj, f)
    got = project(proj, f)
    assert max_rel(got.coeffs, want_coeffs) <= 1e-12
    assert max_rel(got.values, want_values) <= 1e-12


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

def test_lp_norm_constant_function(proj_const):
    one = np.ones_like(proj_const.grid)
    assert lp_norm(proj_const, one, 2.0) == pytest.approx(math.sqrt(PI), rel=1e-13)


def test_lp_norm_identity_function(proj_const, proj_step):
    assert lp_norm(proj_const, proj_const.grid, 2.0) == pytest.approx(
        math.sqrt(PI / 2.0), rel=1e-13)
    assert lp_norm(proj_step, proj_step.grid, 2.0) == pytest.approx(
        math.sqrt(273.0 * PI / 512.0), rel=1e-13)


def test_lp_norm_rejects_bad_exponent(proj_const):
    with pytest.raises(ValueError):
        lp_norm(proj_const, proj_const.grid, 1.0)


# --------------------------------------------------------------------------
# probe
# --------------------------------------------------------------------------

def test_probe_monomial_is_fixed_point(const1):
    fn, name = function_from_spec({"type": "monomial", "m": 2})
    res = lp_probe(const1, [2.0], n_max=10, radial_per_segment=60, family=[(name, fn)])
    assert res[0].max_ratio == pytest.approx(1.0, abs=1e-10)


def test_probe_antiholomorphic_ratio_zero(const1):
    fn, name = function_from_spec({"type": "monomial", "m": 3, "conjugate": True})
    res = lp_probe(const1, [2.0], n_max=10, radial_per_segment=60, family=[(name, fn)])
    assert res[0].max_ratio <= 1e-12


def test_probe_default_family_reports_rows(step18):
    res = lp_probe(step18, [2.0, 3.0], n_max=10, radial_per_segment=60)
    assert len(res) == 2
    for r in res:
        assert r.max_ratio >= 1.0 - 1e-10      # monomials are in the family
        assert len(r.rows) == len(default_family(10, seed=0))


def test_probe_skips_degenerate_function(const1):
    one, _ = function_from_spec({"type": "monomial", "m": 0})
    res = lp_probe(const1, [2.0], n_max=8, radial_per_segment=50,
                   family=[("zero", TestFunction(lambda r: 0.0 * r, ((0, 1.0),))), ("one", one)])
    rows = dict(res[0].rows)
    assert rows["zero"] is None
    assert rows["one"] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p_values, family, message", [
    ([2.0, 0.5], None, "p must lie"),
    ([2.0, math.inf], None, "p must lie"),
    ([math.nan], None, "p must lie"),
    ([1.0], None, "p must lie"),
    ([2.0], [("z^2", lambda z: z ** 2)], "z\\^2"),
    ([2.0], [("z^2",)], "z\\^2"),
    ([2.0], ["z^2"], "z\\^2"),
])
def test_probe_checks_inputs_before_building_projector(const1, monkeypatch, p_values, family,
                                                        message):
    def build_must_not_run(*args, **kwargs):
        raise AssertionError("build_projector ran before the inputs were checked")

    monkeypatch.setattr(bergkern.projector, "build_projector", build_must_not_run)
    with pytest.raises(ValueError, match=message):
        lp_probe(const1, p_values, n_max=4, family=family)


_PROBE_SPECS = st.one_of(
    st.builds(lambda m, conj: {"type": "monomial", "m": m, "conjugate": conj},
              st.integers(min_value=0, max_value=400), st.booleans()),
    st.builds(lambda s: {"type": "radial_power", "s": s}, st.floats(min_value=0.1, max_value=3.0)),
    st.builds(lambda c, w: {"type": "bump", "center": c, "width": w},
              st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.05, max_value=0.5)),
)


def _trig_radial_product(data, n_max, annihilated):
    """A random trig x radial product.  Its modes stay apart on every admissible grid; when
    annihilated they are -3N-3..-1, which every grid of M >= 4N+4 angles folds above N."""
    low, high = (-3 * n_max - 3, -1) if annihilated else (-2 * n_max - 1, 2 * n_max + 1)
    ks = data.draw(st.lists(st.integers(min_value=low, max_value=high),
                            min_size=1, max_size=8, unique=True))
    coeffs = data.draw(st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
                                min_size=len(ks), max_size=len(ks)))
    d = data.draw(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=4))
    return TestFunction(lambda r: sum(dj * r ** j for j, dj in enumerate(d)),
                        tuple(zip(ks, coeffs)))


_ZERO_FUNCTIONS = (TestFunction(lambda r: 0.0 * r, ((0, 1.0), (2, 0.5))),
                   TestFunction(lambda r: 1.0 + r, ()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weight=st.one_of(
           st.builds(StepWeight.from_plateau, st.floats(min_value=0.2, max_value=30.0),
                     st.floats(min_value=0.1, max_value=0.9)),
           st.builds(ConstantWeight, st.floats(min_value=0.5, max_value=5.0))),
       n_max=st.integers(min_value=0, max_value=40),
       extra_angles=st.sampled_from([None, 0, 1, 7]),
       radial=st.integers(min_value=8, max_value=40),
       p_values=st.lists(st.floats(min_value=1.05, max_value=8.0), min_size=1, max_size=4),
       specs=st.lists(_PROBE_SPECS, min_size=0, max_size=6),
       counts=st.tuples(*[st.integers(min_value=0, max_value=k) for k in (3, 2, 2)]),
       data=st.data())
def test_probe_matches_dense_reference(weight, n_max, extra_angles, radial, p_values, specs,
                                       counts, data):
    # monomials, conjugates, radial profiles, trig x radial products, functions that are 0 on
    # the grid and functions the projection annihilates, in a random order
    angular = None if extra_angles is None else 4 * n_max + 4 + extra_angles
    n_multi, n_zero, n_annihilated = counts
    family = [(name, fn) for fn, name in map(function_from_spec, specs)]
    family += [(f"random_{i}", _trig_radial_product(data, n_max, False)) for i in range(n_multi)]
    family += [(f"zero_{i}", data.draw(st.sampled_from(_ZERO_FUNCTIONS))) for i in range(n_zero)]
    family += [(f"annihilated_{i}", _trig_radial_product(data, n_max, True))
               for i in range(n_annihilated)]
    family = data.draw(st.permutations(family))
    got = lp_probe(weight, p_values, n_max=n_max, radial_per_segment=radial, angular=angular,
                   family=family)
    want = reference_lp_probe(weight, p_values, n_max, radial, angular, family)
    for res, rows in zip(got, want):
        assert [name for name, _ in res.rows] == [name for name, _ in rows]
        for (_, ratio), (_, ref) in zip(res.rows, rows):
            assert (ratio is None) == (ref is None)
            if ref is not None and ref >= 1e-3:
                assert ratio == pytest.approx(ref, rel=1e-12)
            elif ref is not None:
                assert ratio == pytest.approx(ref, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(weight=st.sampled_from(REFERENCE_WEIGHTS), n_max=st.integers(min_value=0, max_value=40),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       p_values=st.lists(st.floats(min_value=1.05, max_value=1e308), min_size=1, max_size=4))
def test_probe_ratios_stay_finite_at_large_p(weight, n_max, seed, p_values):
    for res in lp_probe(weight, [*p_values, 1e308], n_max=n_max, radial_per_segment=16,
                        family=default_family(n_max, seed)):
        for name, ratio in res.rows:
            assert ratio is not None and math.isfinite(ratio), (res.p, name, ratio)
            if name.startswith("z^"):
                assert abs(ratio - 1.0) <= 1e-9, (res.p, name, ratio)
            if name.startswith("conj"):
                assert ratio <= 1e-9, (res.p, name, ratio)


@pytest.mark.parametrize("weight", REFERENCE_WEIGHTS, ids=lambda w: w.label())
def test_probe_at_the_largest_p_is_the_ratio_of_maxima(weight):
    # (sum of (|g|/max|g|)^p lam dA)^(1/p) is 1 at p = 1e308, so each ratio is max|Pf|/max|f|
    family = default_family(12, seed=5)
    got = lp_probe(weight, [1e308], n_max=12, radial_per_segment=30, family=family)[0]
    proj = build_projector(weight, 12, 30)
    for (name, ratio), (_, fn) in zip(got.rows, family):
        samples = fn(proj.grid)
        want = np.max(np.abs(project(proj, samples).values)) / np.max(np.abs(samples))
        assert ratio == pytest.approx(want, rel=1e-12, abs=1e-12), name


def test_probe_blocks_keep_memory_to_the_grid(const1):
    # 4000 functions on a 40 x 48 grid: the stacked arrays of a block hold at most two grids,
    # so the peak is the result rows and not a (P, 4000, M) array of 6 MB
    family = [(f"z^{k % 9}", function_from_spec({"type": "monomial", "m": k % 9})[0])
              for k in range(4000)]
    lp_probe(const1, [2.0], n_max=10, radial_per_segment=40, family=family[:10])
    tracemalloc.start()
    try:
        res = lp_probe(const1, [1.5, 2.0, 3.0, 4.0], n_max=10, radial_per_segment=40,
                       family=family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20
    for r in res:
        assert [name for name, _ in r.rows] == [name for name, _ in family]
        assert all(abs(ratio - 1.0) <= 1e-12 for _, ratio in r.rows)


def test_probe_folds_many_modes_onto_the_grid(step18):
    # N = 10 on the default 48 angles: modes 50 and 101 fold onto 2 and 5, -45 and -40 onto
    # 3 and 8; -1, 11 and 60 (onto 47, 11 and 12) are annihilated; seven modes survive
    ks = (0, 2, 3, 5, 8, 10, 50, 101, -45, -40, -1, 11, 60, 7)
    modes = tuple((k, complex(math.cos(k), 0.5 + 0.1 * j)) for j, k in enumerate(ks))
    family = [("folded", TestFunction(lambda r: 1.0 + r - 2.0 * r ** 3, modes))]
    p_values = [1.5, 2.0, 3.0]
    got = lp_probe(step18, p_values, n_max=10, radial_per_segment=24, family=family)
    want = reference_lp_probe(step18, p_values, 10, 24, None, family)
    for res, rows in zip(got, want):
        assert res.rows[0][1] == pytest.approx(rows[0][1], rel=1e-12)
        assert res.rows[0][1] > 0.05


# --------------------------------------------------------------------------
# split witness
# --------------------------------------------------------------------------

def test_cs_split_constant_function(step18):
    fn, _ = function_from_spec({"type": "monomial", "m": 0})
    wit = cs_split_witness(step18, fn, 2.0)
    assert wit.holds and wit.lhs <= wit.rhs


def test_cs_split_identity_function(const1):
    fn, _ = function_from_spec({"type": "monomial", "m": 1})
    wit = cs_split_witness(const1, fn, 2.0)
    assert wit.holds and wit.lhs <= wit.rhs


def test_cs_split_zero_function(step18):
    wit = cs_split_witness(step18, lambda z: 0.0 * z, 3.0)
    assert wit.lhs == 0.0 and wit.rhs == 0.0 and wit.holds


@pytest.mark.parametrize("weight, p, cubic", [
    (REFERENCE_WEIGHTS[1], 1.5, [1.0, -0.5j, 0.25, 1.0]),
    (REFERENCE_WEIGHTS[2], 2.0, [0.3 + 0.7j, -0.8, 0.1 - 0.4j, 0.6j]),
    (REFERENCE_WEIGHTS[3], 3.0, [-0.9 + 0.2j, 0.5 - 0.5j, 0.75, -0.3 + 0.9j]),
    (REFERENCE_WEIGHTS[0], 4.0, [0.05, 0.4 + 0.4j, -0.6j, 1.0 - 1.0j]),
])
def test_cs_split_matches_dense_reference(weight, p, cubic):
    fn = lambda z: np.polyval(cubic, z)
    wit = cs_split_witness(weight, fn, p)
    lhs, rhs, holds = reference_split_witness(weight, fn, p)
    assert wit.lhs == pytest.approx(lhs, rel=1e-12)
    assert wit.rhs == pytest.approx(rhs, rel=1e-12)
    assert wit.holds == holds


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(min_value=0.2, max_value=30.0), st.floats(min_value=0.1, max_value=0.9),
       st.sampled_from([1.5, 2.0, 3.0, 4.0]), st.integers(min_value=1, max_value=16),
       st.integers(min_value=2, max_value=20), st.integers(min_value=3, max_value=40),
       st.lists(st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0), min_size=1,
                max_size=5))
def test_cs_split_matches_dense_reference_on_small_grids(a, x, p, n_trunc, radial, angular,
                                                         coeffs):
    weight = StepWeight.from_plateau(a, x)
    fn = lambda z: np.polyval(coeffs, z)
    wit = cs_split_witness(weight, fn, p, n_trunc=n_trunc, radial=radial, angular=angular)
    lhs, rhs, holds = reference_split_witness(weight, fn, p, n_trunc, radial, angular)
    if lhs == 0.0:
        assert wit.lhs == 0.0
    else:
        assert wit.lhs == pytest.approx(lhs, rel=1e-12)
        assert wit.rhs == pytest.approx(rhs, rel=1e-12)
    assert wit.holds == holds


def test_cs_split_aliased_spectra_match_dense_reference(step18):
    # n_trunc = 30 on 48 angles: T's kernel frequencies 0..60 and those of S1 and S2,
    # -30..30, overlap modulo 48, so their spectra must fold, not truncate
    fn = lambda z: np.polyval([0.3 + 0.7j, -0.8, 0.1 - 0.4j, 0.6j], z) + 0.5 * np.conj(z) ** 2
    for p in (1.5, 3.0):
        wit = cs_split_witness(step18, fn, p, n_trunc=30)
        lhs, rhs, holds = reference_split_witness(step18, fn, p, n_trunc=30)
        assert wit.lhs == pytest.approx(lhs, rel=1e-12)
        assert wit.rhs == pytest.approx(rhs, rel=1e-12)
        assert wit.holds == holds


def test_cs_split_builds_no_kernel_array(step18):
    # the kernels enter through their (2N+1) x M coefficient tables; an R x R x M complex
    # array would take 64*64*96*16 bytes = 6 MB on its own
    fn = lambda z: np.polyval([1.0, -0.5j, 0.25, 1.0], z)
    cs_split_witness(step18, fn, 2.0, radial=64, angular=96)     # warm the Gauss rule cache
    tracemalloc.start()
    try:
        cs_split_witness(step18, fn, 2.0, radial=64, angular=96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_cs_split_rejects_bad_exponent(step18):
    with pytest.raises(ValueError):
        cs_split_witness(step18, lambda z: z, 1.0)


# --------------------------------------------------------------------------
# function specs
# --------------------------------------------------------------------------

def test_function_from_spec_variants():
    z = np.array([0.5 + 0.5j])
    fn, name = function_from_spec({"type": "monomial", "m": 2, "conjugate": True})
    assert fn(z)[0] == pytest.approx(np.conj(z[0]) ** 2)
    assert "conj" in name
    fn, _ = function_from_spec({"type": "radial_power", "s": 0.5})
    assert fn(z)[0] == pytest.approx(math.sqrt(1 - 0.5))
    fn, _ = function_from_spec({"type": "bump", "center": 0.5, "width": 0.1})
    assert fn(np.array([0.5]))[0] == pytest.approx(1.0)
    assert function_from_spec({"type": "monomial", "m": 3.0})[1] == "z^3"
    assert function_from_spec({"type": "monomial", "m": MAX_TERMS})[1] == f"z^{MAX_TERMS}"
    assert function_from_spec({"type": "radial_power", "s": 2})[1] == "(1-|z|^2)^2"
    with pytest.raises(ValueError):
        function_from_spec({"type": "mystery"})


@pytest.mark.parametrize("spec", [
    [1, 2],
    "monomial",
    {"type": "radial_power"},
    {"type": "radial_power", "s": "half"},
    {"type": "bump", "center": 0.3},
    {"type": "bump", "center": None, "width": 0.1},
    {"type": "monomial", "m": [3]},
    {"type": "monomial", "m": math.inf},
    {"type": "monomial", "m": math.nan},
    {"type": "monomial", "m": 2.7},
    {"type": "monomial", "m": -3},
    {"type": "monomial", "m": 1e300},
    {"type": "monomial", "m": MAX_TERMS + 1},
    {"type": "monomial", "m": True},
    {"type": "monomial", "m": "3"},
    {"type": "monomial", "m": 2, "conjugate": "no"},
    {"type": "monomial", "m": 2, "conjugate": 1},
    {"type": "radial_power", "s": "0.5"},
    {"type": "radial_power", "s": True},
    {"type": "radial_power", "s": 10 ** 400},
    {"type": "bump", "center": 0.3, "width": 0},
    {"type": "bump", "center": 0.3, "width": -0.1},
    {"type": "bump", "center": "0.3", "width": 0.1},
])
def test_function_from_spec_rejects_malformed(spec):
    with pytest.raises(ValueError):
        function_from_spec(spec)


_rng = np.random.default_rng(2024)
CLOSED_FORM_POINTS = np.concatenate([
    [0.0, 1.0, -0.6, 0.8j, 0.5 + 0.5j, -0.3 - 0.9j],
    np.sqrt(_rng.uniform(0.0, 1.0, 200)) * np.exp(1j * _rng.uniform(-PI, PI, 200))])


def _assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8, 13, 21, 34])
def test_test_function_matches_monomial_closed_forms(m):
    z = CLOSED_FORM_POINTS
    fn, _ = function_from_spec({"type": "monomial", "m": m})
    _assert_close(fn(z), z ** m)
    fn, _ = function_from_spec({"type": "monomial", "m": m, "conjugate": True})
    _assert_close(fn(z), np.conj(z) ** m)


def test_test_function_matches_radial_closed_forms():
    z = CLOSED_FORM_POINTS
    for s in (0.25, 0.5, 1.0, 2.5):
        fn, _ = function_from_spec({"type": "radial_power", "s": s})
        _assert_close(fn(z), (1.0 - np.abs(z) ** 2) ** s)
    for c, w in ((0.3, 0.1), (0.7, 0.1), (0.0, 0.4)):
        fn, _ = function_from_spec({"type": "bump", "center": c, "width": w})
        _assert_close(fn(z), np.exp(-(((np.abs(z) - c) / w) ** 2)))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_default_family_random_functions_match_closed_form(seed):
    z = CLOSED_FORM_POINTS
    rng = np.random.default_rng(seed)
    family = default_family(40, seed)
    for i, (name, fn) in enumerate(family[-3:]):
        c = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        d = rng.standard_normal(4)
        r, u = np.abs(z), np.exp(1j * np.angle(z))
        want = np.polyval(c[::-1], u) * u ** -6 * sum(dj * r ** j for j, dj in enumerate(d))
        assert name == f"random_{i}"
        _assert_close(fn(z), want)
