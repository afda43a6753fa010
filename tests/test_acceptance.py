"""Acceptance gate: one test per criterion, each printing its pass/fail line.

The criterion implementations live in bergkern.acceptance (shared with the
``repro-all`` subcommand); every tolerance is pinned there.
"""

import pytest

from bergkern import ProbeResult, acceptance


def _check(result):
    print(result.line())
    assert result.passed, result.detail


def test_criterion_01_coefficient_exactness():
    _check(acceptance.criterion_coeffs())


def test_criterion_02_linear_part_root():
    _check(acceptance.criterion_linear_root())


def test_criterion_03_second_differences():
    _check(acceptance.criterion_second_diff())


def test_criterion_04_rouche_and_winding():
    _check(acceptance.criterion_rouche())


def test_criterion_05_located_zero_consistency():
    _check(acceptance.criterion_located())


def test_criterion_06_mollification_persistence():
    _check(acceptance.criterion_mollify())


def test_criterion_07_dirac_threshold():
    _check(acceptance.criterion_dirac())


def test_criterion_08_inflation_identity():
    _check(acceptance.criterion_inflation())


def test_criterion_09_schur_closed_form():
    _check(acceptance.criterion_schur())


def test_criterion_10_projector_algebra():
    _check(acceptance.criterion_projector())


def test_criterion_11_lp_probe_stability():
    _check(acceptance.criterion_lp_probe())


def test_criterion_12_cauchy_schwarz_split():
    _check(acceptance.criterion_cs_split())


def test_sensitivity_row_flips_certificate():
    rows = acceptance.run_all(only={"linear-root"}, perturb=0.1)
    flip = next(r for r in rows if r.cid == "perturb")
    print(flip.line())
    assert flip.values["holds"] is False


@pytest.mark.parametrize("refined_bump, passes", [(0.5, True), (0.55, False)])
def test_lp_probe_criterion_sees_drift_of_one_function(monkeypatch, refined_bump, passes):
    # the MAX row is 1 at both resolutions and the annihilated row drifts by
    # roundoff only; a 10 % drift of the bump alone must fail the criterion
    def fake_probe(weight, ps, n_max, **kwargs):
        base = n_max == 40
        rows = (("z^0", 1.0), ("conj(z)^1", 1e-16 if base else 7e-16),
                ("bump(0.3,0.1)", 0.5 if base else refined_bump))
        return [ProbeResult("stub", p, n_max, 1.0, rows) for p in ps]

    monkeypatch.setattr(acceptance, "lp_probe", fake_probe)
    result = acceptance.criterion_lp_probe()
    assert result.passed is passes
    assert result.values["drifts"][2.0] == pytest.approx(2.0 * refined_bump - 1.0)
