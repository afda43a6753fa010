import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

from bergkern.cli import main, parse_complex, parse_range

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


@pytest.mark.parametrize("argv, functions", [
    (["lp-probe", "--weight", "constant1", "-N", "4", "--functions", "{missing}"], None),
    (["lp-probe", "--weight", "constant1", "-N", "4", "--functions", "{file}"],
     [{"type": "radial_power"}]),
    (["lp-probe", "--weight", "constant1", "-N", "4", "--functions", "{file}"],
     {"type": "monomial", "m": 2}),
    (["sweep", "--A", "5:1:1", "--x", "0.3:0.3:0.1"], None),
    (["schur", "--step", "18,0.25", "--eps", "-0.5", "--grid", "0.5:0.1:0.1"], None),
], ids=["functions-missing", "functions-missing-key", "functions-not-a-list",
        "sweep-empty-range", "schur-empty-grid"])
def test_usage_errors_exit_2_with_message(argv, functions, tmp_path, capsys):
    spec_file = tmp_path / "fns.json"
    if functions is not None:
        spec_file.write_text(json.dumps(functions))
    argv = [a.format(file=spec_file, missing=tmp_path / "nope.json") for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: " in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


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
