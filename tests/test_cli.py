import contextlib
import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupsobolev.checks import suite_names
from groupsobolev.cli import main
from groupsobolev.group import parse_group
from groupsobolev.sobolev import algebra_constant, embedding_constant_sup, make_weight
from groupsobolev.spectral import (
    Signal,
    dft_values,
    idft_values,
    read_signal_csv,
    write_signal_csv,
    write_signal_json,
)
from groupsobolev.stringop import build_multiplier, solve_linear


def _write_huge_signal(path):
    """Four finite samples of 1e308 on Z4: their mean coefficient sums past
    float64, and so does the inverse transform of them read as a spectrum."""
    write_signal_json(str(path), Signal(parse_group("Z4"), np.full(4, 1e308)))
    return str(path)


def _write_random_signal(rng, path, group):
    sig = Signal(group, rng.standard_normal(group.order))
    write_signal_csv(str(path), sig)
    return sig


# ---------------------------------------------------------------------------
# info / constants
# ---------------------------------------------------------------------------

def test_info_json(capsys):
    assert main(["info", "--group", "Z4", "--s", "1.0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 4
    assert doc["factors"] == [4]
    assert doc["weight"]["name"] == "sym-euclid"
    assert doc["weight"]["subadditive"] is True
    assert doc["embedding_constant_sup"] == pytest.approx(math.sqrt(2.2), rel=1e-14)


def test_info_text(capsys):
    assert main(["info", "--group", "Z2xZ3"]) == 0
    out = capsys.readouterr().out
    assert "order 6" in out
    assert "sup-embedding constant" in out


def test_info_text_prints_the_worst_ratio_in_full(tmp_path, capsys):
    # a table that breaks subadditivity by 5e-9 must not read as a ratio of 1
    table = tmp_path / "gamma.csv"
    table.write_text("index,gamma\n0,0\n1,1\n2,2.00000001\n3,1\n")
    argv = ["info", "--group", "Z4", "--weight-table", str(table)]
    assert main([*argv, "--json"]) == 0
    ratio = json.loads(capsys.readouterr().out)["weight"]["worst_ratio"]
    assert main(argv) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert ratio > 1 and line.endswith(f"subadditive=False (worst ratio {ratio:.17g})")


def test_info_bad_group_exits_2(capsys):
    assert main(["info", "--group", "Z0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_memory_error_exits_2(monkeypatch, capsys):
    import groupsobolev.cli as cli

    # stands in for an allocation too large for the machine, without making one
    def exhausted(group, name):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(cli, "make_weight", exhausted)
    assert main(["info", "--group", "Z4"]) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 745. GiB\n"


def test_constants_json_matches_library(capsys):
    assert main(["constants", "--group", "Z12", "--s", "1.0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    assert doc["embedding_constant_sup"] == pytest.approx(embedding_constant_sup(g, w, 1.0))
    assert doc["algebra_constant"] == pytest.approx(algebra_constant(g, w, 1.0))
    alphas = [row["alpha"] for row in doc["lebesgue_embeddings"]]
    assert alphas == [1.5, 3.0, 4.0]
    for row in doc["lebesgue_embeddings"]:
        assert row["alpha_star"] == pytest.approx(2 * row["alpha"] / (row["alpha"] - 1.0))


@pytest.mark.parametrize("command, label", [("info", "D = inf"), ("constants", "D(gamma,s) = inf")])
def test_overflowing_algebra_constant_reads_inf(capsys, command, label):
    # 2^s overflows float64 at s = 1100
    assert main([command, "--group", "Z4", "--s", "1100", "--json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["algebra_constant"] == "inf"
    assert main([command, "--group", "Z4", "--s", "1100"]) == 0
    text, err2 = capsys.readouterr()
    assert label in text
    assert "Traceback" not in err + err2


def test_constants_explicit_alpha(capsys):
    assert main(["constants", "--group", "Z8", "--alpha", "2.0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["lebesgue_embeddings"]) == 1
    assert doc["lebesgue_embeddings"][0]["alpha"] == 2.0


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_constants_refuse_a_non_finite_alpha(capsys, alpha):
    # NaN in the output is not JSON: one line and exit 2 instead
    assert main(["constants", "--group", "Z4", "--alpha", alpha, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: alpha must be finite and >= 1, got {alpha}\n"


def test_weight_table_flow(tmp_path, capsys):
    table = tmp_path / "gamma.csv"
    table.write_text("index,gamma\n0,0\n1,1\n2,2\n3,1\n")
    assert main(["info", "--group", "Z4", "--weight-table", str(table), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weight"]["name"] == "custom"
    assert doc["weight"]["subadditive"] is True
    assert doc["embedding_constant_sup"] == pytest.approx(math.sqrt(2.2), rel=1e-14)


def test_weight_table_bad_header(tmp_path, capsys):
    table = tmp_path / "gamma.csv"
    table.write_text("k,value\n0,0\n")
    assert main(["info", "--group", "Z4", "--weight-table", str(table)]) == 2
    assert "index,gamma" in capsys.readouterr().err


def test_weight_table_bad_row_names_file_and_row(tmp_path, capsys):
    table = tmp_path / "gamma.csv"
    for row in ("2,2,3", "2,x", "x,2"):  # wrong cell count, bad gamma, bad index
        table.write_text(f"index,gamma\n0,0\n1,1\n{row}\n3,1\n")
        assert main(["info", "--group", "Z4", "--weight-table", str(table)]) == 2
        err = capsys.readouterr().err
        assert "gamma.csv" in err and repr(row) in err


def test_weight_table_wrong_row_count_names_file(tmp_path, capsys):
    table = tmp_path / "gamma.csv"
    table.write_text("index,gamma\n0,0\n1,1\n2,2\n")
    assert main(["info", "--group", "Z2", "--weight-table", str(table)]) == 2
    err = capsys.readouterr().err
    assert "gamma.csv" in err and "3 rows" in err


@pytest.mark.parametrize("argv, name, text", [
    (["transform", "--group", "Z2", "--input"], "s.csv", "index,re,im\n0,1.0,0.0\n1,1e999,0.0\n"),
    (["info", "--group", "Z2", "--weight-table"], "w.csv", "index,gamma\n0,0\n1,1e999\n"),
])
def test_csv_cell_overflowing_to_inf_names_file_and_row(tmp_path, capsys, argv, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert name in err and "'1,1e999" in err


def test_c_gamma_without_weight_table_exits_2(capsys):
    # --c-gamma is a property of a custom table; alone it would be ignored
    assert main(["info", "--group", "Z4", "--c-gamma", "5", "--json"]) == 2
    assert "--weight-table" in capsys.readouterr().err


@pytest.mark.parametrize("c_gamma", ["-1", "nan", "inf"])
def test_bad_c_gamma_with_weight_table_names_the_flag_not_the_file(tmp_path, capsys, c_gamma):
    table = tmp_path / "gamma.csv"
    table.write_text("index,gamma\n0,0\n1,1\n")
    assert main(["info", "--group", "Z2", "--weight-table", str(table), "--c-gamma", c_gamma]) == 2
    err = capsys.readouterr().err
    assert "--c-gamma" in err and "gamma.csv" not in err


def test_weight_table_asymmetric_rejected_before_solving(tmp_path, capsys):
    # gamma(1) != gamma(-1 = 3): real fields would not stay real
    table = tmp_path / "gamma.csv"
    table.write_text("index,gamma\n0,0\n1,1\n2,2\n3,1.5\n")
    code = main(["solve-nonlinear", "--group", "Z4", "--weight-table", str(table), "--c", "0.5",
                 "--nonlinearity", "forced-power:2,0.1", "--forcing-scale", "0.01"])
    assert code == 2
    assert "symmetric under xi -> xi^-1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def test_transform_file_roundtrip(tmp_path, rng):
    g = parse_group("Z8")
    sig = _write_random_signal(rng, tmp_path / "sig.csv", g)
    spec_path = tmp_path / "spec.json"
    back_path = tmp_path / "back.csv"
    assert main(["transform", "--group", "Z8", "--input", str(tmp_path / "sig.csv"),
                 "--output", str(spec_path)]) == 0
    assert main(["transform", "--group", "Z8", "--inverse", "--input", str(spec_path),
                 "--output", str(back_path)]) == 0
    back = read_signal_csv(str(back_path), g)
    assert np.allclose(back.values, sig.values, atol=1e-12)


def test_transform_oracle_agrees(tmp_path, rng, capsys):
    g = parse_group("Z12")
    _write_random_signal(rng, tmp_path / "sig.csv", g)
    code = main(["transform", "--group", "Z12", "--input", str(tmp_path / "sig.csv"),
                 "--oracle", "--output", str(tmp_path / "spec.csv")])
    assert code == 0
    assert "oracle deviation" in capsys.readouterr().out


def test_transform_stdout_rows(tmp_path, rng, capsys):
    g = parse_group("Z4")
    _write_random_signal(rng, tmp_path / "sig.csv", g)
    assert main(["transform", "--group", "Z4", "--input", str(tmp_path / "sig.csv")]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 4
    assert rows[0].startswith("0,")


def test_transform_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("this,is,not\na,signal,file\n")
    assert main(["transform", "--group", "Z4", "--input", str(bad)]) == 2


@pytest.mark.parametrize("flag", ["--oracle", "--naive"])
def test_transform_inverse_rejects_forward_only_flags(tmp_path, rng, capsys, flag):
    g = parse_group("Z4")
    _write_random_signal(rng, tmp_path / "spec.csv", g)
    assert main(["transform", "--group", "Z4", "--inverse", flag,
                 "--input", str(tmp_path / "spec.csv")]) == 2
    assert "forward transform" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "1,1_0,0",    # float() reads 10, numpy's parser refuses it
    "# 1,1,0",    # a comment-like row is refused, not skipped
])
def test_transform_csv_row_python_and_numpy_disagree_on_exits_2(tmp_path, capsys, row):
    path = tmp_path / "sig.csv"
    path.write_text(f"index,re,im\n0,1,0\n{row}\n2,1,0\n3,1,0\n")
    assert main(["transform", "--group", "Z4", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "sig.csv" in err and "Traceback" not in err


def test_transform_naive_refuses_huge_table(tmp_path, capsys):
    # a Z65536 character table would take 64 GiB; the guard refuses it first
    g = parse_group("Z65536")
    write_signal_csv(str(tmp_path / "sig.csv"), Signal(g, np.zeros(g.order)))
    assert main(["transform", "--group", "Z65536", "--input", str(tmp_path / "sig.csv"),
                 "--naive"]) == 2
    assert "4096" in capsys.readouterr().err


@pytest.mark.parametrize("argv, text", [
    (["transform"], "signal is too large: its forward transform"),
    (["transform", "--naive"], "signal is too large: its forward transform"),
    (["transform", "--inverse"], "spectrum is too large: its inverse transform"),
    (["solve-linear", "--c", "1"], "signal is too large: its forward transform"),
])
def test_overflowing_transform_exits_2_with_one_line(tmp_path, capsys, argv, text):
    code = main([*argv, "--group", "Z4", "--input", _write_huge_signal(tmp_path / "big.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {text} overflows float64\n"


@pytest.mark.parametrize("argv", [["transform"], ["solve-linear", "--c", "1"]])
@pytest.mark.parametrize("pairs", ["[1%s, 0]" % ("0" * 399), "[true, false]", '["0.5", 0]'],
                         ids=["integer-past-float64", "bool", "string"])
def test_json_entry_that_is_not_a_float64_number_exits_2(tmp_path, capsys, argv, pairs):
    path = tmp_path / "sig.json"
    path.write_text('{"group": "Z4", "values": [%s, [0, 0], [0, 0], [0, 0]]}' % pairs)
    code = main([*argv, "--group", "Z4", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {path}: 'values' pairs must hold JSON numbers that float64 can hold\n"


@pytest.mark.parametrize("text, message", [
    ('{"group": "Z4",\n', "Expecting property name enclosed in double quotes: line 2 column 1"),
    ('{"group": "Z4", "values": [[1%s, 0]]}\n' % ("0" * 5000), "Exceeds the limit (4300 digits)"),
], ids=["truncated", "integer-past-4300-digits"])
def test_field_file_that_json_refuses_exits_2_naming_it(tmp_path, capsys, text, message):
    path = tmp_path / "sig.json"
    path.write_text(text)
    code = main(["transform", "--group", "Z4", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1


def test_config_file_that_json_refuses_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"c": \n')
    code = main(["--config", str(cfg), "info", "--group", "Z4"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: Expecting value: line 2 column 1 (char 7)\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e-300])
def test_transform_oracle_measures_samples_near_the_ends_of_float64(tmp_path, capsys, scale):
    # squares of 1e200 overflow and squares of 1e-300 underflow; the
    # rescaled norm reads both, so the deviation is a relative one
    path = tmp_path / "sig.json"
    values = scale * np.array([1.0, -2.0, 3.0j, 0.5])
    write_signal_json(str(path), Signal(parse_group("Z4"), values))
    code = main(["transform", "--group", "Z4", "--input", str(path), "--oracle"])
    out, err = capsys.readouterr()
    dev = float(out.splitlines()[0].removeprefix("oracle deviation (relative l2): "))
    assert code == 0 and err == ""
    assert 0.0 < dev <= 1e-10


def test_transform_naive_computes_no_fast_transform(tmp_path, rng, monkeypatch, capsys):
    import groupsobolev.cli as cli

    def refuse(sig):
        raise AssertionError("the fast transform ran")

    g = parse_group("Z8")
    _write_random_signal(rng, tmp_path / "sig.csv", g)
    monkeypatch.setattr(cli, "dft_fast", refuse)
    assert main(["transform", "--group", "Z8", "--naive", "--input", str(tmp_path / "sig.csv")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8


def test_transform_unknown_extension(tmp_path, rng):
    g = parse_group("Z4")
    _write_random_signal(rng, tmp_path / "sig.csv", g)
    assert main(["transform", "--group", "Z4", "--input", str(tmp_path / "sig.csv"),
                 "--output", str(tmp_path / "out.txt")]) == 2


# ---------------------------------------------------------------------------
# solve-linear
# ---------------------------------------------------------------------------

def test_solve_linear_report(tmp_path, rng):
    g = parse_group("Z64")
    sig = _write_random_signal(rng, tmp_path / "g.csv", g)
    report_path = tmp_path / "report.json"
    out_path = tmp_path / "u.json"
    code = main(["solve-linear", "--group", "Z64", "--c", "0.5",
                 "--input", str(tmp_path / "g.csv"),
                 "--output", str(out_path), "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["isometry"]["ok"] is True
    assert report["isometry"]["relative_deviation"] <= 1e-10
    assert report["sup_bound"]["ok"] is True
    assert report["multiplier_overflow_frequencies"] == 0
    assert report["isometry"]["unrepresentable_data_l2"] == 0.0
    # the written solution is the library solution
    from groupsobolev.spectral import read_signal_json

    u_file = read_signal_json(str(out_path), g)
    w = make_weight(g, "sym-euclid")
    u_lib = solve_linear(sig, w, 0.5)
    assert np.allclose(u_file.values, u_lib.values, atol=1e-15)


def _solve_linear_pruefer(tmp_path, capsys, values) -> tuple[int, dict]:
    """solve-linear on Z64 under pruefer:2 at c = 2, where m overflows at 48
    frequencies; the report read from stdout."""
    write_signal_csv(str(tmp_path / "g.csv"), Signal(parse_group("Z64"), values))
    code = main(["solve-linear", "--group", "Z64", "--weight", "pruefer:2", "--c", "2",
                 "--input", str(tmp_path / "g.csv")])
    return code, json.loads(capsys.readouterr().out)


def test_solve_linear_reports_the_data_it_cannot_represent(tmp_path, rng, capsys):
    # where log m >= 2054 the exact solution's coefficients are below
    # e^-2054 times the data's: the isometry holds with that data counted apart
    g = parse_group("Z64")
    values = rng.standard_normal(g.order)
    profile = build_multiplier(g, make_weight(g, "pruefer:2"), 2.0)
    assert profile.overflow_count == 48 and profile.log_values[profile.overflow].min() > 2000
    code, doc = _solve_linear_pruefer(tmp_path, capsys, values)
    assert code == 0
    iso = doc["isometry"]
    share = np.linalg.norm(dft_values(g, values)[profile.overflow])
    assert iso["unrepresentable_data_l2"] == pytest.approx(share, rel=1e-12)
    assert iso["omitted_solution_sup_bound"] == 0.0
    assert math.hypot(iso["domain_norm_solution"], share) == pytest.approx(
        iso["l2_norm_data"], rel=1e-12)
    assert iso["ok"] is True and iso["relative_deviation"] <= 1e-10


def test_solve_linear_data_without_energy_where_m_overflows(tmp_path, rng, capsys):
    g = parse_group("Z64")
    profile = build_multiplier(g, make_weight(g, "pruefer:2"), 2.0)
    coeffs = dft_values(g, rng.standard_normal(g.order))
    coeffs[profile.overflow] = 0.0
    values = idft_values(g, coeffs).real
    assert not dft_values(g, values)[profile.overflow].any()
    code, doc = _solve_linear_pruefer(tmp_path, capsys, values)
    assert code == 0
    iso = doc["isometry"]
    assert iso["unrepresentable_data_l2"] == 0.0 and iso["omitted_solution_sup_bound"] == 0.0
    dom, l2g = iso["domain_norm_solution"], iso["l2_norm_data"]
    assert iso["relative_deviation"] == abs(dom - l2g) / l2g  # the deviation as before


def test_solve_linear_stdout_json(tmp_path, rng, capsys):
    g = parse_group("Z12")
    _write_random_signal(rng, tmp_path / "g.csv", g)
    code = main(["solve-linear", "--group", "Z12", "--c", "0.5",
                 "--input", str(tmp_path / "g.csv")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"version", "isometry", "sup_bound", "multiplier_overflow_frequencies"}


@pytest.mark.parametrize("c", [0.7, 0.71, 0.72])
def test_solve_linear_counts_a_subnormal_quotient_as_unrepresentable(tmp_path, capsys, c):
    # on Z64 under sym-euclid m overflows at the top frequency alone, where
    # -F(g)/m is subnormal at c = 0.7 and 0.71 and underflows to 0 at 0.72;
    # m times a subnormal quotient gives F(g) back to a few digits only, so
    # the solution leaves it out and the report counts it as unrepresentable
    g = parse_group("Z64")
    k = np.arange(g.order)
    values = 0.02 * (np.sin(1.3 * k + 0.2) + 0.5 * np.cos(0.7 * k))
    write_signal_csv(str(tmp_path / "g.csv"), Signal(g, values))
    assert main(["solve-linear", "--group", "Z64", "--c", str(c), "--input",
                 str(tmp_path / "g.csv")]) == 0
    doc = json.loads(capsys.readouterr().out)
    iso = doc["isometry"]
    assert doc["multiplier_overflow_frequencies"] == 1
    assert iso["ok"] is True and iso["relative_deviation"] <= 1e-10
    assert iso["unrepresentable_data_l2"] == pytest.approx(abs(dft_values(g, values)[32]),
                                                           rel=1e-12)


# ---------------------------------------------------------------------------
# solve-nonlinear
# ---------------------------------------------------------------------------

def test_solve_nonlinear_converged(capsys):
    code = main(["solve-nonlinear", "--group", "Z12", "--c", "0.5",
                 "--nonlinearity", "forced-power:2,0.1", "--forcing-scale", "0.01"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["status"] == "converged"
    assert doc["result"]["final_residual_eq"] < 1e-9
    assert doc["verification"]["all_ok"] is True
    assert doc["config"]["forcing_l2"] == pytest.approx(0.01, rel=1e-12)


def test_solve_nonlinear_budget_exhaustion(capsys):
    code = main(["solve-nonlinear", "--group", "Z12", "--c", "0.5",
                 "--nonlinearity", "forced-power:2,0.1", "--forcing-scale", "0.01",
                 "--max-iter", "1", "--tol", "1e-30"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["status"] == "max_iter"


@pytest.mark.parametrize("argv", [
    ["--group", "Z4096", "--weight", "pruefer:2", "--c", "1",
     "--nonlinearity", "forced-power:2,0.1", "--forcing-scale", "0.01"],
    ["--group", "Z729", "--weight", "pruefer:3", "--c", "2", "--theta", "0.5",
     "--nonlinearity", "forced-power:2,1", "--forcing-scale", "0.1"],
])
def test_solve_nonlinear_failed_verification_exits_1(argv, capsys):
    # the forcing sits where the multiplier overflows: the update test stops
    # the loop, but the certificate's residual is the whole forcing
    code = main(["solve-nonlinear", *argv])
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["status"] == "converged"
    assert doc["verification"]["residual_ok"] is False
    assert code == 1


def test_solve_nonlinear_verifies_once(monkeypatch, capsys):
    import groupsobolev.nonlinear as nonlinear

    # every certificate, the solver's own and any verify_solution, is this method
    calls = []
    real = nonlinear._FixedPointMap.certificate

    def counting(self, *args, **kwargs):
        calls.append(kwargs.get("residual_tol"))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(nonlinear._FixedPointMap, "certificate", counting)
    code = main(["solve-nonlinear", "--group", "Z12", "--c", "0.5", "--tol", "1e-11",
                 "--nonlinearity", "forced-power:2,0.1", "--forcing-scale", "0.01"])
    assert code == 0
    assert calls == [pytest.approx(1e-10)]  # the report's certificate, at 10 tol
    assert json.loads(capsys.readouterr().out)["verification"]["all_ok"] is True


@pytest.mark.parametrize("flags", [
    ["--nonlinearity", "power:2,1e-200"],  # D' underflows to 0
    ["--nonlinearity", "forced-power:3,1e300", "--forcing-scale", "0.1"],  # C^2 overflows
])
def test_solve_nonlinear_extreme_coupling_ends_without_traceback(capsys, flags):
    code = main(["solve-nonlinear", "--group", "Z12", "--c", "1", *flags])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("flags, text", [
    (["--c", "1", "--nonlinearity", "forced-power:2,inf"], "coupling must be finite"),
    (["--c", "1e308", "--nonlinearity", "forced-power:2,1"], "c = 1e+308"),
])
def test_solve_nonlinear_refuses_non_finite_data(capsys, flags, text):
    code = main(["solve-nonlinear", "--group", "Z12", *flags, "--forcing-scale", "0.1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and text in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve-nonlinear", "--forcing-scale", "1e308"],
    ["sweep", "--param", "forcing-scale", "--grid", "1e308"],
])
def test_overflowing_forcing_scale_exits_2_with_one_line(capsys, argv):
    # the forcing's samples overflow float64 however its norm is taken
    code = main([*argv, "--group", "Z8", "--c", "1", "--nonlinearity", "forced-power:2,1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: forcing scale 1e+308") and err.count("\n") == 1


def test_overflowing_initial_field_exits_2_with_one_line(tmp_path, capsys):
    code = main(["solve-nonlinear", "--group", "Z4", "--c", "1", "--nonlinearity", "power:2,1",
                 "--initial", _write_huge_signal(tmp_path / "big.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: initial field is too large: its coefficients overflow float64\n"


@pytest.mark.parametrize("flags, spec", [
    (["--nonlinearity", "power:2.5,1"], "'power:2.5,1'"),
    (["--nonlinearity", "power:2,1", "--weight", "pruefer:x"], "'pruefer:x'"),
])
def test_spec_with_a_non_integer_p_is_named_in_one_line(capsys, flags, spec):
    code = main(["solve-nonlinear", "--group", "Z8", "--c", "1", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert spec in err and "must be an integer" in err and err.count("\n") == 1


def test_solve_nonlinear_converged_at_large_s_exits_0(tmp_path):
    # (1 + gamma^2)^60 overflows where 1/m has left exact zeros in phi
    report = tmp_path / "rep.json"
    code = main(["solve-nonlinear", "--group", "Z4096", "--c", "1", "--s", "60",
                 "--nonlinearity", "forced-power:2,1", "--forcing-scale", "0.2",
                 "--report", str(report)])
    doc = json.loads(report.read_text())
    assert doc["result"]["status"] == "converged"
    assert math.isfinite(doc["verification"]["sobolev_norm"])
    assert doc["verification"]["continuity_ok"] and code == 0


def test_solve_nonlinear_huge_forcing_reports_its_norm(capsys):
    # the forcing's squares overflow float64; its norm does not
    code = main(["solve-nonlinear", "--group", "Z12", "--c", "1",
                 "--nonlinearity", "forced-power:2,1", "--forcing-scale", "1e300"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["config"]["forcing_l2"] == pytest.approx(1e300, rel=1e-15)
    assert doc["result"]["status"] == "diverged"


def test_solve_nonlinear_reports_a_real_forcing_norm_from_its_real_parts(capsys):
    # the forcing is held as complex samples with zero imaginary parts,
    # which must not enter the sum of its squares
    code = main(["solve-nonlinear", "--group", "Z64", "--c", "1",
                 "--nonlinearity", "forced-power:2,1", "--forcing-scale", "0.3"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["config"]["forcing_l2"] == 0.3


def test_solve_nonlinear_diverged_prints_no_warnings(tmp_path):
    # the field blows up; its verification reports inf instead of warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve-nonlinear", "--group", "Z12", "--c", "0.5",
                     "--nonlinearity", "forced-power:3,5", "--forcing-scale", "100",
                     "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["result"]["status"] == "diverged"
    assert doc["verification"]["residual_eq"] == math.inf


def test_solve_nonlinear_forcing_conflict(tmp_path, rng, capsys):
    g = parse_group("Z12")
    _write_random_signal(rng, tmp_path / "h.csv", g)
    code = main(["solve-nonlinear", "--group", "Z12", "--c", "0.5",
                 "--nonlinearity", "affine", "--forcing", str(tmp_path / "h.csv"),
                 "--forcing-scale", "0.1"])
    assert code == 2
    assert "not both" in capsys.readouterr().err


def test_solve_nonlinear_affine_needs_forcing(capsys):
    code = main(["solve-nonlinear", "--group", "Z12", "--c", "0.5",
                 "--nonlinearity", "affine"])
    assert code == 2


def test_solve_nonlinear_writes_solution(tmp_path):
    out = tmp_path / "phi.csv"
    report = tmp_path / "rep.json"
    code = main(["solve-nonlinear", "--group", "Z12", "--c", "0.5",
                 "--nonlinearity", "forced-power:2,0.1", "--forcing-scale", "0.01",
                 "--output", str(out), "--report", str(report)])
    assert code == 0
    g = parse_group("Z12")
    phi = read_signal_csv(str(out), g)
    assert np.abs(phi.values).max() > 0.0
    doc = json.loads(report.read_text())
    assert doc["result"]["converged"] is True


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_row(param, value, report):
    """The sweep CSV cells for one grid point, from a solve-nonlinear report."""
    res = json.loads(report.read_text())["result"]
    cells = [param, format(value, ".17g"), res["status"], str(res["converged"]).lower(),
             str(res["iterations"]), format(res["final_residual_eq"], ".17g")]
    cells += [format(res["norms"][k], ".17g") for k in ("l2", "l2alpha", "domain", "sup")]
    return cells + [str(res["ball_respected"]).lower(), format(res["ball_radius"], ".17g")]


def test_sweep_c_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--group", "Z12", "--c", "0.5",
                 "--nonlinearity", "forced-power:2,0.1", "--forcing-scale", "0.01",
                 "--param", "c", "--grid", "0.25,0.5,1.0", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("param,value,status,converged,iterations,final_residual_eq,"
                        "norm_l2,norm_l2alpha,norm_domain,norm_sup,ball_respected,ball_radius")
    assert len(lines) == 4
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert values == [0.25, 0.5, 1.0]  # grid order preserved
    for ln in lines[1:]:
        cells = ln.split(",")
        assert cells[0] == "c"
        assert cells[2] == "converged" and cells[3] == "true"


def test_sweep_reads_forcing_once(tmp_path, monkeypatch):
    import groupsobolev.cli as cli

    g = parse_group("Z16")
    forcing = tmp_path / "h.csv"
    write_signal_csv(str(forcing), Signal(g, 0.01 * np.cos(2 * np.pi * np.arange(16) / 16)))
    reads = []

    def counting_read(path, group):
        reads.append(path)
        return read_signal_csv(path, group)

    monkeypatch.setattr(cli, "read_signal_csv", counting_read)
    grid = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--group", "Z16", "--c", "1",
                 "--nonlinearity", "forced-power:2,1", "--forcing", str(forcing),
                 "--param", "c", "--grid", ",".join(map(str, grid)), "--output", str(out)])
    assert code == 0
    assert len(reads) == 1
    # every row is what a separate solve-nonlinear run reports for its point
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == len(grid)
    for value, row in zip(grid, rows):
        report = tmp_path / "rep.json"
        main(["solve-nonlinear", "--group", "Z16", "--c", str(value),
              "--nonlinearity", "forced-power:2,1", "--forcing", str(forcing),
              "--report", str(report)])
        assert row.split(",") == _sweep_row("c", value, report)


def test_sweep_lam_rewrites_nonlinearity(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--group", "Z12", "--c", "0.5",
                 "--nonlinearity", "forced-power:2,0.01", "--forcing-scale", "0.01",
                 "--param", "lam", "--grid", "0.05,0.2,0.1234567,0.123457",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    assert all(ln.split(",")[3] == "true" for ln in lines[1:])
    # lam is not rounded: the 0.1234567 row is that coupling's own solve
    report = tmp_path / "rep.json"
    main(["solve-nonlinear", "--group", "Z12", "--c", "0.5",
          "--nonlinearity", "forced-power:2,0.1234567", "--forcing-scale", "0.01",
          "--report", str(report)])
    assert lines[3].split(",") == _sweep_row("lam", 0.1234567, report)
    assert lines[3].split(",")[2:] != lines[4].split(",")[2:]


@pytest.mark.parametrize("spec", ["forced-power:2,1,7", "forced-power:2,oops"])
def test_sweep_lam_refuses_what_solve_nonlinear_refuses(capsys, spec):
    flags = ["--group", "Z12", "--c", "0.5", "--nonlinearity", spec, "--forcing-scale", "0.01"]
    assert main(["solve-nonlinear", *flags]) == 2
    refusal = capsys.readouterr().err
    assert refusal.startswith("error: bad nonlinearity spec") and refusal.count("\n") == 1
    assert main(["sweep", *flags, "--param", "lam", "--grid", "0.1,0.2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == refusal


def test_sweep_empty_grid(capsys):
    code = main(["sweep", "--group", "Z12", "--c", "0.5",
                 "--nonlinearity", "power:2,0.1",
                 "--param", "c", "--grid", ","])
    assert code == 2


def test_sweep_bad_param():
    code = main(["sweep", "--group", "Z12", "--c", "0.5",
                 "--nonlinearity", "power:2,0.1",
                 "--param", "bogus", "--grid", "1.0"])
    assert code == 2


def test_forcing_json_values_not_pairs_exits_2(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text('{"group": "Z4", "values": [1, 2, 3, 4]}')
    code = main(["solve-nonlinear", "--group", "Z4", "--c", "0.5",
                 "--nonlinearity", "forced-power:2,0.1", "--forcing", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "flat.json" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# process set-up
# ---------------------------------------------------------------------------

def test_importing_the_package_first_pins_one_blas_thread():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import groupsobolev

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(groupsobolev.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    read = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    cases = [  # (OPENBLAS_NUM_THREADS preset, imports, the variable after them)
        (None, "import groupsobolev", "1"),
        ("2", "import groupsobolev", "2"),  # the user's setting stands
        (None, "import numpy; import groupsobolev", "None"),  # too late to act: left unset
    ]
    probes = [subprocess.Popen([sys.executable, "-c", f"{imports}; {read}"], text=True,
                               env=env if preset is None else {**env, "OPENBLAS_NUM_THREADS": preset},
                               stdout=subprocess.PIPE)
              for preset, imports, _ in cases]
    assert [p.communicate(timeout=60)[0].strip() for p in probes] == [c[2] for c in cases]
    assert all(p.returncode == 0 for p in probes)


_PUBLIC = {  # the package's public names
    "__version__", "FiniteAbelianGroup", "parse_group", "compose", "inverse",
    "evaluate_character", "enumerate_elements", "haar_weight", "index_of", "element_at",
    "compose_indices", "Signal", "Spectrum", "dft_fast", "dft_naive", "idft", "pointwise_mul",
    "translate", "convolve_dual", "write_signal_csv", "read_signal_csv", "write_signal_json",
    "read_signal_json", "write_spectrum_csv", "read_spectrum_csv", "write_spectrum_json",
    "read_spectrum_json", "Weight", "make_weight", "weight_from_table", "check_subadditivity",
    "sobolev_norm", "lp_norm", "embedding_constant_sup", "embedding_constant_lalpha",
    "algebra_constant", "translation_modulus", "ShiftProfileRow", "compactness_profile",
    "verify_scale", "MultiplierProfile", "NotInDomainError", "build_multiplier", "domain_norm",
    "apply_operator", "solve_linear", "Nonlinearity", "affine_nonlinearity",
    "power_nonlinearity", "forced_power_nonlinearity", "parse_nonlinearity", "lowfreq_forcing",
    "eval_source", "picard_step", "SolverConfig", "SolveReport", "size_ball", "solve_nonlinear",
    "verify_solution", "check_growth_conditions", "run_checks", "suite_names",
}


def test_the_package_exports_each_module_list_once():
    import subprocess
    import sys

    import groupsobolev
    from groupsobolev import group, nonlinear, sobolev, spectral, stringop

    names = groupsobolev.__all__
    assert len(names) == len(set(names)) == len(_PUBLIC) == 62 and set(names) == _PUBLIC
    assert names == ["__version__", *group.__all__, *spectral.__all__, *sobolev.__all__,
                     *stringop.__all__, *nonlinear.__all__, "run_checks", "suite_names"]
    for name in names:
        assert getattr(groupsobolev, name) is not None
    # the suites still load only on first use
    probe = "import sys, groupsobolev; print('groupsobolev.checks' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_cli_imports_the_suites_only_to_run_them(capsys):
    import subprocess
    import sys

    probe = ("import sys, groupsobolev.cli; print('groupsobolev.checks' in sys.modules); "
             "groupsobolev.cli.main(['constants', '--group', 'Z4']); "
             "print('groupsobolev.checks' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    lines = out.strip().splitlines()
    assert lines[0] == lines[-1] == "False"  # after import, and after a constants run
    # check --help still lists every suite
    assert main(["check", "--help"]) == 0
    text = "".join(capsys.readouterr().out.split())
    assert "".join(f"restrict to a suite ({', '.join(suite_names())})".split()) in text


def test_check_single_suite(capsys):
    name = suite_names()[0]
    assert main(["check", "--only", name]) == 0
    out = capsys.readouterr().out
    assert f"PASS {name}" in out


def test_check_text_prints_the_json_slack_in_full(capsys):
    # a slack of tol - 1e-16 must not read as the round tolerance
    assert main(["check", "--seed", "1", "--only", "plancherel", "--json"]) == 0
    slack = json.loads(capsys.readouterr().out)["suites"][0]["worst_slack"]
    assert main(["check", "--seed", "1", "--only", "plancherel"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    printed = line.split("worst slack ")[1].split(" (")[0]
    assert float(printed) == slack != 1e-10 and printed == format(slack, ".17g")


def test_check_output_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["check", "--seed", "7", "--output", str(a)]) == 0
    assert main(["check", "--seed", "7", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["all_passed"] is True


def test_check_inject_bug_fails(capsys):
    # the planted defect deflates the algebra constant, so that suite must fail
    code = main(["check", "--inject-bug", "--only", "algebra-bound"])
    assert code == 1
    assert "failing suites" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "groupsobolev" in capsys.readouterr().out


def test_no_command_is_usage_error():
    assert main([]) == 2


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # keys of other subcommands' flags are accepted as their defaults
    for doc in ({"s": 2.0}, {"s": 2.0, "seed": 7, "max-iter": 3, "alpha": [2]}):
        cfg.write_text(json.dumps(doc))
        assert main(["--config", str(cfg), "info", "--group", "Z4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["s"] == 2.0


def test_config_file_supplies_required_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "Z4", "c": 1}))
    argv = ["--config", str(cfg), "solve-nonlinear", "--nonlinearity", "power:2,1"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["group"] == "Z4" and doc["config"]["c"] == 1.0
    # a value on the command line overrides the config's
    assert main([*argv, "--group", "Z8"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["group"] == "Z8"


@pytest.mark.parametrize("form", [["--config=CFG"], ["--conf", "CFG"]])
def test_config_file_every_spelling(tmp_path, capsys, form):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": 2}))
    argv = [tok.replace("CFG", str(cfg)) for tok in form]
    assert main([*argv, "info", "--group", "Z8", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["s"] == 2


def test_config_file_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    assert main(["--config", str(cfg), "info", "--group", "Z4"]) == 2
    # a value its flag cannot parse, and a key that names no flag
    for key, val in (("s", [1]), ("sigma", 2), ("max-iter", 2.5), ("json", 1)):
        cfg.write_text(json.dumps({key: val}))
        assert main(["--config", str(cfg), "info", "--group", "Z4"]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err


_CONFIG_KEYS = (  # the long flags of every subcommand, then keys that name none
    "group", "weight", "weight-table", "c-gamma", "s", "c", "json", "input", "output", "inverse",
    "naive", "oracle", "alpha", "seed", "only", "inject-bug", "report", "nonlinearity",
    "forcing", "forcing-scale", "theta", "tol", "max-iter", "epsilon-ball", "initial", "param",
    "grid", "config", "version", "help", "sigma", "", "--s")
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.sampled_from((0, 1, -1, 3, 2**64, 10**400)),
              st.sampled_from((0.5, -1.0, 1e-300, 1e308)),
              st.sampled_from(("nan", "inf", "", "x", "2", "Z8", "sym-euclid", "plancherel", "c",
                               "power:2,1"))),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(("s", "a")), inner, max_size=2)),
    max_leaves=6)
_Z8 = ("--group", "Z8", "--c", "1", "--nonlinearity", "forced-power:2,1", "--forcing-scale",
       "0.1", "--max-iter", "50")  # a budget no config can lift
_CONFIG_COMMANDS = (
    ["info", "--group", "Z8"],
    ["constants", "--group", "Z8"],
    ["check", "--only", "plancherel"],
    ["solve-nonlinear", *_Z8],
    ["sweep", *_Z8, "--param", "c", "--grid", "0.5,1"],
)


@settings(max_examples=25, deadline=None)
@given(doc=st.one_of(st.dictionaries(st.sampled_from(_CONFIG_KEYS), _json_values, max_size=4),
                     _json_values))
@example(doc={"s": 2, "seed": 10**400, "max-iter": 3, "alpha": [2]})
@example(doc={"theta": "nan", "tol": None})
@example(doc=[{"s": 1}])
def test_any_config_file_ends_in_a_result_or_one_line(tmp_path_factory, doc):
    import groupsobolev.cli as cli

    where = tmp_path_factory.mktemp("config")
    cfg = where / "cfg.json"
    cfg.write_text(json.dumps(doc))
    try:
        cli._apply_config_defaults(cli.build_parser(), str(cfg))
        refusal = None
    except ValueError as exc:
        refusal = f"error: {exc}\n"
    cwd = os.getcwd()
    os.chdir(where)  # an output or report path in the config lands here
    try:
        for argv in _CONFIG_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--config", str(cfg), *argv])
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            if refusal is not None:  # reading the config refused it: that line, naming the file
                assert code == 2 and err.getvalue() == refusal and str(cfg) in refusal
    finally:
        os.chdir(cwd)


# ---------------------------------------------------------------------------
# every input ends in a result or a one-line error
# ---------------------------------------------------------------------------

_NUMBERS = ("nan", "inf", "-inf", "-1", "0", "5e-324", "1e-300", "1e300", "1100")
_groups = st.lists(st.integers(1, 16), min_size=1, max_size=3).filter(
    lambda f: math.prod(f) <= 512).map(lambda f: "x".join(f"Z{n}" for n in f))
_VALUES = {
    "--group": st.one_of(_groups, st.sampled_from(
        ("", "Z0", "Z-3", "Zx", "Z4x", "Z2xxZ2", "Q8", "Z1.5", "z4", "Z2xZ2xZ2", "Z9"))),
    "--weight": st.sampled_from(
        ("zero", "sym-euclid", "hamming", "pruefer:2", "pruefer:3", "pruefer:", "pruefer:x", "l1")),
    "--nonlinearity": st.one_of(
        st.sampled_from(("affine", "power:1,1", "power:2", "forced-power:x,1", "cubic")),
        st.builds("{}:{},{}".format, st.sampled_from(("power", "forced-power")),
                  st.sampled_from(("2", "3")), st.sampled_from(_NUMBERS))),
    "--param": st.sampled_from(("c", "theta", "forcing-scale", "lam")),
    "--grid": st.lists(st.sampled_from(_NUMBERS), min_size=1, max_size=2).map(",".join),
}
_FLAGS = {
    "info": ("--group", "--weight", "--s"),
    "constants": ("--group", "--weight", "--s", "--alpha"),
    "solve-nonlinear": ("--group", "--weight", "--s", "--c", "--nonlinearity", "--forcing-scale",
                        "--theta", "--tol", "--max-iter", "--epsilon-ball"),
}
_FLAGS["sweep"] = (*_FLAGS["solve-nonlinear"], "--param", "--grid")


@st.composite
def _argv(draw):
    """A command line whose every flag is ordinary but for one or two, each
    drawn from that flag's malformed spellings and extreme values."""
    command = draw(st.sampled_from(tuple(_FLAGS)))
    opts = {"--group": draw(_groups), "--weight": "sym-euclid", "--s": "1"}
    if command in ("solve-nonlinear", "sweep"):
        opts.update({"--c": "1", "--nonlinearity": "forced-power:2,1", "--forcing-scale": "0.1"})
    if command == "sweep":
        opts.update({"--param": draw(_VALUES["--param"]), "--grid": "0.5,1"})
    for flag in draw(st.lists(st.sampled_from(_FLAGS[command]), min_size=1, max_size=2,
                              unique=True)):
        opts[flag] = draw(_VALUES.get(flag, st.sampled_from(_NUMBERS)))
    argv = [command, *(tok for item in opts.items() for tok in item)]
    return argv + ["--json"] if command in ("info", "constants") and draw(st.booleans()) else argv


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
@example(argv=["info", "--group", "Z4", "--s", "1100"])
@example(argv=["constants", "--group", "Z4", "--s", "1e300", "--json"])
def test_cli_ends_in_a_result_or_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
