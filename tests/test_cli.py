import argparse
import ast
import csv
import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bergkern.acceptance
import bergkern.cli
from bergkern import StepWeight, mollify_weight, schur_bound_check, weight_to_json
from bergkern.cli import build_parser, main, parse_complex, parse_range

PI = math.pi


def run(args, capsys):
    status = main(args)
    out = capsys.readouterr().out
    return status, out


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    status = main([*args, "--out", str(out)])
    return status, json.loads(out.read_text())


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def test_parse_complex_forms():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("0.5+0.2i") == 0.5 + 0.2j
    assert parse_complex("-0.3i") == -0.3j
    with pytest.raises(Exception):
        parse_complex("fish")


def test_parse_range_inclusive():
    vals = parse_range("1:2:0.5")
    assert list(vals) == [1.0, 1.5, 2.0]
    with pytest.raises(Exception):
        parse_range("1:2")


def test_usage_errors_exit_2(capsys):
    assert main(["rouche"]) == 2                      # missing weight
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["dirac"]) == 2                       # missing --k
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["find-zeros", "--step", "18,0.25", "--rho", "1.5"],
    ["rouche", "--step", "18,0.25", "--eps", "2"],
    ["schur", "--step", "18,0.25", "--eps", "0.5"],
    ["lp-probe", "--step", "18,0.25", "--p", "0.5"],
    ["kernel-eval", "--step", "18,0.25", "--z", "1.5", "--w", "0"],
    ["moments", "--step", "18,0.25", "-N", "-3"],
    ["coeff-check", "--step", "18,0.25", "-N", "5"],
], ids=["find-zeros", "rouche", "schur", "lp-probe", "kernel-eval", "moments", "coeff-check"])
def test_bad_input_exits_2_with_message(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["lp-probe", "--step", "18,0.25", "-N", "4", "--angular", "100000000"],
    ["lp-probe", "--step", "18,0.25", "-N", "4", "--radial", "100000000"],
    ["lp-probe", "--step", "18,0.25", "-N", "100000000"],
    ["lp-probe", "--step", "18,0.25", "-N", "4", "--radial", "3000", "--angular", "20"],
    ["find-zeros", "--step", "18,0.25", "--rho", "0.9", "--n-terms", "1000000000"],
    ["coeff-check", "--step", "18,0.25", "-N", "1000000000"],
    ["schur", "--step", "18,0.25", "--eps", "-0.5", "-N", "1000000000"],
    ["moments", "--step", "18,0.25", "-N", "1000000000"],
], ids=["lp-angular", "lp-radial", "lp-degree", "lp-gauss-rule", "find-zeros-terms",
        "coeff-check-terms", "schur-terms", "moments-terms"])
def test_oversized_input_exits_2_before_allocating(argv, capsys):
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""
    assert peak < 16 * 2 ** 20


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = "import sys, bergkern.cli; print('scipy.integrate' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


def test_cli_import_loads_no_numpy_polynomial_beyond_numpy():
    code = ("import sys, numpy\n"
            "before = {m for m in sys.modules if m.startswith('numpy.polynomial')}\n"
            "import bergkern.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')\n"
            "             and m not in before))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


_NAN_SAMPLED = {"type": "sampled", "radii": [math.nan, 0.5], "values": [2, 1]}
_NAN_STEP = {"type": "step", "segments": [[math.nan, 2], [1, 1]]}


@pytest.mark.parametrize("argv, payload", [
    (["lp-probe", "--weight", "constant1", "-N", "4", "--functions", "{missing}"], None),
    (["lp-probe", "--weight", "constant1", "-N", "4", "--functions", "{file}"],
     [{"type": "radial_power"}]),
    (["lp-probe", "--weight", "constant1", "-N", "4", "--functions", "{file}"],
     {"type": "monomial", "m": 2}),
    (["lp-probe", "--weight", "constant1", "-N", "4", "--p", "2", "--functions", "{file}"],
     [{"type": "monomial", "m": 2.7}]),
    (["lp-probe", "--weight", "constant1", "-N", "4", "--p", "2", "--functions", "{file}"],
     [{"type": "monomial", "m": -3}]),
    (["lp-probe", "--weight", "constant1", "-N", "4", "--p", "2", "--functions", "{file}"],
     [{"type": "monomial", "m": 1e300}]),
    (["lp-probe", "--weight", "constant1", "-N", "4", "--p", "2", "--functions", "{file}"],
     [{"type": "monomial", "m": 2, "conjugate": "no"}]),
    (["lp-probe", "--weight", "constant1", "-N", "4", "--p", "2", "--functions", "{file}"],
     [{"type": "bump", "center": 0.3, "width": 0}]),
    (["lp-probe", "--weight", "constant1", "-N", "4", "--p", "2", "--functions", "{file}"],
     [{"type": "radial_power", "s": "0.5"}]),
    (["sweep", "--A", "5:1:1", "--x", "0.3:0.3:0.1"], None),
    (["schur", "--step", "18,0.25", "--eps", "-0.5", "--grid", "0.5:0.1:0.1"], None),
    (["sweep", "--A", "1:100000000000:1", "--x", "0.5:0.5:1"], None),
    (["schur", "--step", "18,0.25", "--eps", "-0.5", "--grid", "0:0.99:1e-10"], None),
    (["sweep", "--A", "1:1000:1", "--x", "0.001:1:0.001"], None),
    (["sweep", "--A", "1:inf:1", "--x", "0.5:0.5:1"], None),
    (["moments", "--weight", "{file}", "-N", "3"], _NAN_SAMPLED),
    (["rouche", "--weight", "{file}", "--eps", "0.01"], _NAN_SAMPLED),
    (["find-zeros", "--weight", "{file}", "--rho", "0.9"], _NAN_SAMPLED),
    (["moments", "--weight", "{file}", "-N", "3"], _NAN_STEP),
    (["rouche", "--weight", "{file}", "--eps", "0.01"], _NAN_STEP),
    (["find-zeros", "--weight", "{file}", "--rho", "0.9"], _NAN_STEP),
    (["find-zeros", "--step", "3,0.5", "--rho", "0.9", "--n-terms", "-5"], None),
    (["dirac", "--k", "nan"], None),
    (["dirac", "--k", "inf"], None),
    (["sweep", "--A", "2:3:1", "--x", "0.5:0.5:1", "--rho", "1.5"], None),
    (["sweep", "--A", "2:3:1", "--x", "0.5:0.5:1", "--rho", "nan"], None),
    (["sweep", "--A", "2:3:1", "--x", "0.5:0.5:1", "--rho", "0"], None),
    (["sweep", "--A", "2:3:1", "--x", "0.5:0.5:1", "--rho", "1"], None),
    (["repro-all", "--only", "99"], None),
    (["repro-all", "--only", "1,99"], None),
    (["repro-all", "--only", "dirac,99"], None),
    (["kernel-eval", "--step", "18,0.25", "--z", "0.5", "--w", "0.5", "--tol", "-1"], None),
    (["kernel-eval", "--step", "18,0.25", "--z", "0.5", "--w", "0.5", "--tol", "nan"], None),
    (["kernel-eval", "--step", "18,0.25", "--z", "0", "--w", "0.5", "--tol", "-1"], None),
    (["inflate-check", "--step", "18,0.25", "--z", "0.4", "--t", "0.3", "--tol", "-1"], None),
    (["repro-all", "--only", "dirac", "--perturb", "nan"], None),
    (["repro-all", "--only", "dirac", "--perturb", "-1"], None),
    *[(["moments", "--weight", "{file}", "-N", "2"], bad) for bad in (
        {"type": "step"},
        {"type": "step", "segments": [[1.0]]},
        {"type": "step", "segments": 5},
        {"type": "sampled", "radii": [0.1, 0.5]},
        {"type": "dirac"},
        {"type": "constant", "value": [1]},
        {"type": "sampled", "radii": [0.1, 0.5], "values": [1, None]},
    )],
], ids=["functions-missing", "functions-missing-key", "functions-not-a-list",
        "functions-fractional-m", "functions-negative-m", "functions-huge-m",
        "functions-string-conjugate", "functions-zero-width", "functions-string-s",
        "sweep-empty-range", "schur-empty-grid", "sweep-huge-range", "schur-huge-grid",
        "sweep-huge-grid", "sweep-infinite-range", "moments-nan-radius", "rouche-nan-radius",
        "find-zeros-nan-radius", "moments-nan-breakpoint", "rouche-nan-breakpoint",
        "find-zeros-nan-breakpoint", "find-zeros-negative-terms", "dirac-nan-mass",
        "dirac-infinite-mass", "sweep-rho-above-1", "sweep-rho-nan", "sweep-rho-0",
        "sweep-rho-1", "repro-all-unknown-id", "repro-all-unknown-ids",
        "repro-all-known-and-unknown-id", "kernel-eval-negative-tol", "kernel-eval-nan-tol",
        "kernel-eval-origin-negative-tol", "inflate-check-negative-tol", "repro-all-nan-perturb",
        "repro-all-perturb-minus-1", "weight-step-no-segments", "weight-step-short-segment",
        "weight-step-segments-not-a-list", "weight-sampled-no-values", "weight-dirac-no-mass",
        "weight-constant-list-value", "weight-sampled-null-value"])
def test_usage_errors_exit_2_with_message(argv, payload, tmp_path, capsys):
    spec_file = tmp_path / "input.json"       # a function list or a weight definition
    if payload is not None:
        spec_file.write_text(json.dumps(payload))
    argv = [a.format(file=spec_file, missing=tmp_path / "nope.json") for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: " in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_repro_all_unknown_id_lists_valid_ids(capsys):
    assert main(["repro-all", "--only", "99"]) == 2
    err = capsys.readouterr().err
    assert "99" in err and "coeffs" in err and "cs-split" in err


def _assert_one_error_line(captured):
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "usage:" not in err and "Traceback" not in err


@pytest.mark.parametrize("argv, status, needle", [
    (["kernel-eval", "--step", "18,0.25", "--z", "0.99999", "--w", "0.99999", "--tol", "1e-30"],
     1, "tail bound 4.324e+07 at 400000 terms"),
    (["moments", "--step", "18,0.25", "-N", "2", "--method", "quadrature", "--tol", "1e-16"],
     1, "at moment index 0"),
    (["inflate-check", "--weight", "constant1", "--z", "0.999999", "--t", "0.999999",
      "--tol", "1e-12"], 1, "error: tol 1.000e-12 (tol/100 for each series) not reached: "
                            "tail bound 2.049e+10 at 400000 terms exceeds tol 1.000e-14"),
    (["find-zeros", "--step", "0,0.25", "--rho", "0.9"], 2, "error: --step: "),
    (["find-zeros", "--weight", "{missing}", "--rho", "0.9"], 2, "error: --weight: "),
    (["find-zeros", "--rho", "0.9"], 2, "error: one of --weight/--step is required"),
    (["lp-probe", "--step", "18,0.25", "-N", "4", "--functions", "{file}"], 2,
     "error: --functions: "),
    (["dirac", "--k", "2", "--out", "{missing}/x.json"], 2, "nope.json"),
    (["find-zeros", "--step", "18,0.25", "--rho", "0.9", "--out", "{directory}"], 2,
     "Is a directory"),
], ids=["kernel-eval-tolerance", "moments-quadrature", "inflate-check-tolerance",
        "find-zeros-bad-step", "find-zeros-missing-weight", "find-zeros-no-weight",
        "lp-probe-functions-object", "dirac-missing-out-dir", "find-zeros-out-is-directory"])
def test_every_failure_is_one_error_line(argv, status, needle, tmp_path, capsys):
    spec_file = tmp_path / "input.json"
    spec_file.write_text("{}")
    directory = tmp_path / "a-directory"
    directory.mkdir()
    out = tmp_path / "out.txt"
    argv = [a.format(file=spec_file, missing=tmp_path / "nope.json", directory=directory)
            for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    assert main(argv) == status
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert needle in captured.err
    assert captured.out == ""
    assert not out.exists() and not (tmp_path / "nope.json").exists()
    assert list(directory.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["kernel-eval", "--weight", "constant1", "--z", "0.5", "--w", "0.5"],
    ["moments", "--weight", "constant1", "-N", "3"],
    ["find-zeros", "--weight", "constant1", "--rho", "0.5"],
    ["rouche", "--weight", "constant1", "--eps", "0.01", "--n-cutoff", "50"],
    ["sweep", "--A", "2:2:1", "--x", "0.5:0.5:1", "--rho", "0.5"],
    ["dirac", "--k", "2"],
    ["inflate-check", "--weight", "constant1", "--z", "0.4", "--t", "0.3"],
    ["schur", "--weight", "constant1", "--eps", "-0.25", "--grid", "0:0.5:0.25", "-N", "50"],
    ["coeff-check", "--weight", "constant1", "-N", "20"],
    ["lp-probe", "--weight", "constant1", "-N", "4", "--radial", "20"],
    ["repro-all", "--only", "dirac"],
], ids=lambda argv: argv[0])
def test_unwritable_out_exits_2_with_one_error_line(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main([*argv, "--out", str(missing / "out.json")]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert str(missing / "out.json") in captured.err
    assert captured.out == ""
    assert not missing.exists()


@pytest.mark.parametrize("argv", [
    ["repro-all"],
    ["sweep", "--A", "1:40:0.5", "--x", "0.05:0.95:0.05", "--rho", "0.95"],
], ids=lambda argv: argv[0])
def test_unwritable_out_fails_before_any_work(argv, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before its --out was checked")
    monkeypatch.setattr(bergkern.acceptance, "run_all", no_work)
    monkeypatch.setattr(bergkern.cli, "sweep_step_weights", no_work)
    for out in (tmp_path / "missing" / "r.json", tmp_path):      # missing parent, a directory
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert str(out) in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["0:1:0", "0:1:-0.5", "1:0:-1", "0:1:inf", "0:1:nan"])
def test_parse_range_rejects_a_step_that_is_not_positive(text, capsys):
    with pytest.raises(argparse.ArgumentTypeError, match="range step must be positive and finite"):
        parse_range(text)
    assert main(["sweep", "--A", text, "--x", "0.5:0.5:1"]) == 2
    assert "range step must be positive and finite" in capsys.readouterr().err


def test_parse_range_rejects_empty():
    with pytest.raises(Exception, match="empty range"):
        parse_range("5:1:1")
    assert list(parse_range("0.5:0.5:0.1")) == [0.5]


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def test_kernel_eval_constant(tmp_path):
    status, payload = run_json(
        ["kernel-eval", "--weight", "constant1", "--z", "0.5", "--w", "0.5",
         "--tol", "1e-10"], tmp_path)
    assert status == 0
    assert payload["value_re"] == pytest.approx(16.0 / (9.0 * PI), abs=1e-9)
    assert payload["value_im"] == 0.0
    assert payload["err_bound"] <= 1e-10
    assert payload["N_used"] > 0
    assert "true" in payload["units"]


def test_rouche_json(tmp_path):
    status, payload = run_json(["rouche", "--step", "18,0.25", "--eps", "0.01"], tmp_path)
    assert status == 0
    assert payload["holds"] is True
    assert payload["linear_root"] == pytest.approx(-91.0 / 170.0, abs=1e-12)
    assert payload["min_L"] > payload["S_bound"]


def test_rouche_scaled_units_factor(tmp_path):
    _, true_units = run_json(["rouche", "--step", "18,0.25", "--eps", "0.01"], tmp_path, "a.json")
    _, scaled = run_json(["rouche", "--step", "18,0.25", "--eps", "0.01",
                          "--scaled-units"], tmp_path, "b.json")
    assert scaled["min_L"] == pytest.approx(2 * PI * true_units["min_L"], rel=1e-14)
    assert scaled["holds"] == true_units["holds"]     # verdicts are scale invariant


def test_rouche_auto_eps(tmp_path):
    status, payload = run_json(["rouche", "--step", "18,0.25"], tmp_path)
    assert status == 0
    assert 0.001 <= payload["auto_eps_best"] <= 0.03
    assert any(row["holds"] for row in payload["auto_eps_table"])


def test_dirac_below_threshold(tmp_path):
    status, payload = run_json(["dirac", "--k", "1"], tmp_path)
    assert status == 0
    assert payload["has_zero_in_disc"] is False
    assert payload["threshold"] == pytest.approx(PI / 3.0)


def test_find_zeros_constant(tmp_path):
    status, payload = run_json(
        ["find-zeros", "--weight", "constant1", "--rho", "0.9"], tmp_path)
    assert status == 0
    assert payload["zero_count"] == 0 and payload["certified"] is True


def test_find_zeros_plateau_locates(tmp_path):
    status, payload = run_json(
        ["find-zeros", "--step", "18,0.25", "--rho", "0.7"], tmp_path)
    assert status == 0
    assert payload["zero_count"] == 1
    zero = payload["located_zeros"][0]
    assert zero["re"] == pytest.approx(-0.476874666838925, abs=1e-7)
    assert zero["im"] == 0.0


UNCERTIFIED_NOTE = r"contour at rho=0\.993 came within \d\.\d{3}e-\d\d of a zero \(1048576 samples\)"


def test_find_zeros_uncertified_prints_nulls(tmp_path):
    # every contour of this steep plateau passes too near a zero to be certified
    status, payload = run_json(["find-zeros", "--step", "1000000,0.95", "--rho", "0.995"],
                               tmp_path)
    assert status == 1 and payload["certified"] is False
    assert [payload[key] for key in ("rho_used", "zero_count", "n_terms", "min_contour_modulus",
                                     "tail_bound", "contour_samples")] == [None] * 6
    assert payload["located_zeros"] == []
    assert re.fullmatch(UNCERTIFIED_NOTE, payload["diagnostics"])


def test_sweep_uncertified_cell_has_an_empty_count(capsys):
    status, out = run(["sweep", "--A", "1000000:1000000:1", "--x", "0.9:0.95:0.05",
                       "--rho", "0.995"], capsys)
    assert status == 1
    certified, uncertified = csv.reader(out.splitlines()[2:])
    assert certified == ["1000000", "0.9", "0.995", "30", "True", ""]
    assert uncertified[:5] == ["1000000", "0.95", "0.995", "", "False"]
    assert re.fullmatch(UNCERTIFIED_NOTE, uncertified[5])


def test_weight_file_equivalent_to_shorthand(tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"type": "step", "segments": [[0.25, 18.0], [1.0, 1.0]]}))
    _, via_file = run_json(["rouche", "--weight", str(wfile), "--eps", "0.01"], tmp_path, "f.json")
    _, via_flag = run_json(["rouche", "--step", "18,0.25", "--eps", "0.01"], tmp_path, "g.json")
    assert via_file == via_flag


def test_sweep_csv_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sweep", "--A", "1:2:1", "--x", "0.25:0.5:0.25", "--rho", "0.9"]
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()                  # bit-identical output
    lines = text.splitlines()
    assert lines[0].startswith("#") and "alpha_n" in lines[0]
    assert lines[1] == "A,x,rho,zero_count,certified,note"
    assert len(lines) == 2 + 4


def test_sweep_records_rejected_weights_in_row(capsys):
    status, out = run(["sweep", "--A", "2:2:1", "--x", "0:1:0.5", "--rho", "0.9"], capsys)
    assert status == 1
    assert out == (
        "# plateau-weight zero counts; units true: alpha_n = 1/(2*pi*int_0^1 r^(2n+1) lam(r) dr)\n"
        "A,x,rho,zero_count,certified,note\n"
        '2,0,0.9,,False,"WeightError: split must lie in (0,1), got 0.0"\n'
        "2,0.5,0.9,0,True,\n"
        '2,1,0.9,,False,"WeightError: split must lie in (0,1), got 1.0"\n')


@pytest.mark.parametrize("plateau", ["1e300:1e300:1e299", "1.7e308:1.7e308:1e307"])
@pytest.mark.parametrize("split", ["0.5:0.5:1", "1e-9:1e-9:1"])
def test_sweep_certifies_extreme_plateaus(plateau, split, capsys):
    status, out = run(["sweep", "--A", plateau, "--x", split, "--rho", "0.99"], capsys)
    assert status == 0
    row = out.splitlines()[2].split(",")
    assert row[4] == "True" and int(row[3]) > 0 and row[5] == ""


@pytest.mark.parametrize("sequence, name", [("ones", "ones"), ("alpha", "weight"), ("diff", "diff")])
def test_schur_sequence_choices(sequence, name, tmp_path):
    alphas = StepWeight.from_plateau(18.0, 0.25).alphas(50)
    betas = {"ones": np.ones(51), "alpha": alphas, "diff": np.diff(alphas, prepend=0.0)}[sequence]
    report = schur_bound_check(betas, -0.5, parse_range("0:0.9:0.3"))
    out = tmp_path / "schur.csv"
    status = main(["schur", "--step", "18,0.25", "--sequence", sequence, "--eps", "-0.5",
                   "-N", "50", "--grid", "0:0.9:0.3", "--out", str(out)])
    assert status == (0 if report.passes else 1)
    lines = out.read_text().splitlines()
    assert f"; sequence={name}; sup|beta|={report.sup_beta!r};" in lines[0]
    assert [float(line.split(",")[1]) for line in lines[2:]] == list(report.ratios)


def test_schur_csv(tmp_path):
    out = tmp_path / "schur.csv"
    status = main(["schur", "--weight", "constant1", "--eps", "-0.25",
                   "--grid", "0:0.9:0.1", "-N", "200", "--out", str(out)])
    assert status == 0
    lines = out.read_text().splitlines()
    assert "passes=True" in lines[0]
    assert lines[1] == "radius,ratio"
    assert len(lines) == 2 + 10


def test_coeff_check_scaled_units(tmp_path):
    _, true_units = run_json(["coeff-check", "--step", "18,0.25", "-N", "300"],
                             tmp_path, "t.json")
    _, scaled = run_json(["coeff-check", "--step", "18,0.25", "-N", "300",
                          "--scaled-units"], tmp_path, "s.json")
    assert scaled["first_difference_limit"] == pytest.approx(2.0, abs=1e-12)
    assert true_units["first_difference_limit"] == pytest.approx(1.0 / PI, rel=1e-13)
    assert scaled["sup_diff"] == pytest.approx(2 * PI * true_units["sup_diff"], rel=1e-13)


@pytest.mark.parametrize("step, n", [("0.05,0.99", "500"), ("30,0.95", "100"), ("30,0.9", "20")])
def test_coeff_check_verdicts_are_proven(step, n, tmp_path):
    status, out = run_json(["coeff-check", "--step", step, "-N", n], tmp_path)
    assert status == 0
    assert out["finite_trend"] is True and out["bounded_verdict"] is True
    assert "proven" in out["note"]


_COMMANDS_WITH_A_WEIGHT = {
    "kernel-eval": ["--z", "0.5", "--w", "0.3"],
    "moments": ["-N", "5"],
    "find-zeros": ["--rho", "0.9"],
    "rouche": ["--eps", "0.01"],
    "inflate-check": ["--z", "0.4", "--t", "0.3"],
    "schur": ["--eps", "-0.5"],
    "coeff-check": ["-N", "20"],
    "lp-probe": ["-N", "4", "--radial", "20"],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS_WITH_A_WEIGHT))
@pytest.mark.parametrize("weight_args, needle", [
    (["--weight", "constant:1e-310"], "--weight: constant weight 1e-310 is too small: "
                                      "its reciprocal overflows"),
    (["--step", "1e-310,0.5"], "--step: segment value 1e-310 is too small"),
    (["--weight", "constant:1e308"], "--weight: constant weight 1e+308 is too large: "
                                     "pi times it overflows"),
    (["--weight", "{step}"], "--weight: outer segment value 1e+308 is too large"),
    (["--weight", "{sampled}"], "--weight: sample value 1e-310 is too small"),
], ids=["constant-tiny", "step-tiny", "constant-huge", "step-huge-outer", "sampled-tiny"])
def test_weights_without_float_coefficients_exit_2(command, weight_args, needle, tmp_path,
                                                    capsys, recwarn):
    files = {"step": {"type": "step", "segments": [[0.5, 2.0], [1.0, 1e308]]},
             "sampled": {"type": "sampled", "radii": [0.0, 0.5], "values": [1e-310, 1.0]}}
    for name, spec in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    weight_args = [a.format(**{name: tmp_path / f"{name}.json" for name in files})
                   for a in weight_args]
    assert main([command, *weight_args, *_COMMANDS_WITH_A_WEIGHT[command]]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert needle in captured.err and captured.out == ""
    assert len(recwarn) == 0


@pytest.mark.parametrize("weight_args", [["--weight", "constant:1e103"],
                                         ["--weight", "constant:1e-103"],
                                         ["--step", "1e300,0.5"]], ids=lambda a: a[1])
def test_coeff_check_has_no_window_where_c_cubed_overflows(weight_args, tmp_path):
    status, out = run_json(["coeff-check", *weight_args, "-N", "20"], tmp_path)
    assert status == 0
    assert out["window_low"] is None and out["window_high"] is None
    assert out["within_window"] is None
    assert out["finite_trend"] is True and out["bounded_verdict"] is True


def test_coeff_check_telescopes_to_n_max(tmp_path):
    # the telescoped sum of second differences ends at N, also above 500
    status, out = run_json(["coeff-check", "--step", "18,0.25", "-N", "600"], tmp_path)
    assert status == 0
    alphas = StepWeight.from_plateau(18.0, 0.25).alphas(600)
    assert out["telescoped_value"] == (alphas[1] - alphas[0]) - (alphas[600] - alphas[599])


def _coeff_check(weight, n_max):
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = os.path.join(tmp, "w.json"), os.path.join(tmp, "out.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(weight_to_json(weight), fh)
        assert main(["coeff-check", "--weight", spec, "-N", str(n_max), "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=st.floats(min_value=0.05, max_value=40.0), x=st.floats(min_value=0.05, max_value=0.99),
       smooth=st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.45)),
       n_max=st.integers(min_value=10, max_value=600))
def test_coeff_check_verdicts_and_maxima_over_plateaus(a, x, smooth, n_max):
    weight = StepWeight.from_plateau(a, x)
    if smooth is not None:      # ramp half-width a fraction of the room on either side of x
        weight = mollify_weight(weight, smooth * min(x, 1.0 - x))
    out = _coeff_check(weight, n_max)
    assert out["finite_trend"] is True and out["bounded_verdict"] is True
    alphas = weight.alphas(n_max)
    ratios = alphas[1:] / np.arange(1, n_max + 1)
    assert out["limsup_estimate"] == float(np.max(ratios[len(ratios) // 2:]))
    assert out["sup_diff"] == float(np.max(np.abs(np.diff(alphas))))
    assert out["sup_b"] == float(np.max(np.abs(np.diff(alphas, prepend=0.0))))


def test_lp_probe_csv_with_function_file(tmp_path):
    specs = tmp_path / "fns.json"
    specs.write_text(json.dumps([{"type": "monomial", "m": 2},
                                 {"type": "radial_power", "s": 0.5}]))
    out = tmp_path / "probe.csv"
    status = main(["lp-probe", "--weight", "constant1", "--p", "2,3", "-N", "8",
                   "--radial", "50", "--functions", str(specs), "--out", str(out)])
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "p,function,ratio"
    # two functions plus a MAX row, per exponent
    assert len(lines) == 2 + 2 * 3


def test_moments_csv_both_methods(tmp_path):
    for method in ("auto", "quadrature"):
        out = tmp_path / f"m_{method}.csv"
        status = main(["moments", "--step", "18,0.25", "-N", "5",
                       "--method", method, "--tol", "1e-12", "--out", str(out)])
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "n,mu,alpha,method,err"
        assert len(lines) == 2 + 6
        first = lines[2].split(",")
        assert float(first[2]) == pytest.approx(16.0 / (33.0 * PI), rel=1e-10)


@pytest.mark.parametrize("argv, label, rows", [
    (["--weight", "constant:2.5"], "constant(2.5)",
     ["0,7.853981633974483,0.12732395447351627,closed_form,5e-16",
      "1,3.9269908169872414,0.25464790894703254,closed_form,5e-16",
      "2,2.617993877991494,0.38197186342054884,closed_form,5e-16",
      "3,1.9634954084936207,0.5092958178940651,closed_form,5e-16"]),
    (["--step", "18,0.25"], "step[(0.25,18),(1,1)]",
     ["0,6.4795348480289485,0.15433206602850458,closed_form,5e-16",
      "1,1.6751070203711202,0.5969767828794902,closed_form,5e-16",
      "2,1.051543830095607,0.9509827088320982,closed_form,5e-16",
      "3,0.7856018952208393,1.2729093527948931,closed_form,5e-16"]),
], ids=["constant", "plateau"])
def test_moments_closed_form_csv_bytes(argv, label, rows, capsys):
    assert main(["moments", *argv, "-N", "3"]) == 0
    assert capsys.readouterr().out == (
        f"# moments of {label}; mu_n = 2*pi*int_0^1 r^(2n+1) lam(r) dr; alpha_n = 1/mu_n; "
        f"units true: alpha_n = 1/(2*pi*int_0^1 r^(2n+1) lam(r) dr)\n"
        "n,mu,alpha,method,err\n" + "".join(row + "\n" for row in rows))


def test_inflate_check(tmp_path):
    status, payload = run_json(
        ["inflate-check", "--step", "18,0.25", "--z", "0.4", "--t", "0.3+0.1i"], tmp_path)
    assert status == 0
    assert payload["agree"] is True
    assert payload["abs_diff"] <= 1e-8


def test_repro_all_subset(capsys):
    status, out = run(["repro-all", "--only", "dirac,linear-root"], capsys)
    assert status == 0
    assert "criterion dirac" in out and "criterion linear-root" in out
    assert "SUMMARY: 2/2" in out


def test_repro_all_perturbation_flips_certificate(capsys):
    status, out = run(["repro-all", "--only", "linear-root", "--perturb", "0.1"], capsys)
    assert status == 0
    assert "holds=False" in out


def test_repro_all_perturbation_too_small_to_flip_fails(capsys):
    status, out = run(["repro-all", "--only", "linear-root", "--perturb", "0.001"], capsys)
    assert status == 1
    assert "FAIL  criterion perturb" in out and "holds=True" in out


def test_repro_all_out_holds_every_criterion(tmp_path, capsys):
    status, payload = run_json(["repro-all", "--only", "dirac,linear-root", "--perturb", "0.1"],
                               tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert status == 0 and lines[-1] == "SUMMARY: 3/3 criteria passed"
    assert payload["units"] == bergkern.cli.TRUE_UNITS
    results = bergkern.acceptance.run_all(only={"dirac", "linear-root"}, perturb=0.1)
    assert payload["criteria"] == [{"id": r.cid, "name": r.name, "passed": r.passed,
                                    "detail": r.detail} for r in results]
    assert lines[:-1] == [r.line() for r in results]


# --------------------------------------------------------------------------
# one parser per process
# --------------------------------------------------------------------------

def _subcommands(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_repeated_main_calls_are_independent(tmp_path, capsys):
    commands = [
        ["find-zeros", "--step", "18,0.25", "--rho", "0.9"],
        ["sweep", "--A", "1:2:1", "--x", "0.25:0.5:0.25", "--rho", "0.9"],
        ["schur", "--step", "18,0.25", "--eps", "-0.25", "-N", "100"],
        ["coeff-check", "--step", "18,0.25", "-N", "100"],
        ["rouche", "--step", "18,0.25", "--eps", "0.01", "--n-cutoff", "200"],
        ["lp-probe", "--step", "18,0.25", "-N", "12", "--radial", "40", "--seed", "3"],
    ]

    def run_commands(tag):
        results = []
        for i, argv in enumerate(commands):
            out = tmp_path / f"{tag}{i}.out"
            results.append((main([*argv, "--out", str(out)]), out.read_bytes()))
        return results

    first = run_commands("a")
    assert main(["find-zeros", "--step", "18,0.25", "--rho", "1.5"]) == 2
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert run_commands("b") == first
    assert [status for status, _ in first] == [0, 0, 0, 0, 0, 0]
    assert build_parser() is build_parser()


def test_cached_parser_help_matches_a_fresh_parser(capsys):
    main(["sweep", "--A", "1:1:1", "--x", "0.5:0.5:1", "--rho", "0.9"])
    capsys.readouterr()
    cached, fresh = build_parser(), build_parser.__wrapped__()
    assert cached is not fresh
    assert cached.format_help() == fresh.format_help()
    assert sorted(_subcommands(cached)) == sorted(_subcommands(fresh))
    for name, sub in _subcommands(cached).items():
        assert sub.format_help() == _subcommands(fresh)[name].format_help(), name


def test_schur_default_grid_is_fresh_on_every_call(tmp_path, monkeypatch):
    grids = []
    original = bergkern.cli.schur_bound_check

    def recording(seq, eps, grid):
        grids.append(grid)
        return original(seq, eps, grid)

    monkeypatch.setattr(bergkern.cli, "schur_bound_check", recording)
    outs = [tmp_path / "g1.csv", tmp_path / "g2.csv"]
    for out in outs:
        assert main(["schur", "--weight", "constant1", "--eps", "-0.25", "--out", str(out)]) == 0
    assert len(grids) == 2 and grids[0] is not grids[1]
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(grids[0]) == 100 and grids[0][-1] == pytest.approx(0.99)


# --------------------------------------------------------------------------
# names the benchmark harness uses
# --------------------------------------------------------------------------

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _dotted(node):
    """'a.b.c' for a chain of names and attributes, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def _bench_names():
    """(module, name) pairs that bench/*.py imports, calls through or wraps."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bergkern"):
                names.update((node.module, alias.name) for alias in node.names)
            chain = _dotted(node) if isinstance(node, ast.Attribute) else None
            if chain and chain.startswith("bergkern.") and chain.count(".") == 2:
                names.add(tuple(chain.rsplit(".", 1)))
            if path.name == "spans.py" and isinstance(node, ast.Assign) \
                    and [_dotted(t) for t in node.targets] == ["TARGETS"]:
                names.update((f"bergkern.{row.elts[0].value}", row.elts[1].value)
                             for row in node.value.elts)
    return sorted(names)


def test_names_the_benchmark_uses_exist():
    # bench/ reaches the package by name; a name that is gone would otherwise
    # show only as a failed benchmark run
    names = _bench_names()
    assert ("bergkern.cli", "main") in names and ("bergkern.zeros", "count_zeros_winding") in names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
