import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_paired_solve_runs_the_checkout_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_solve.py"), str(ROOT), str(ROOT),
         "--rounds", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["check_errors"] == 0 and doc["rounds"] == 1
    groups = doc["groups"]
    assert len(groups) == 7 and groups["overall"]["pairs"] == 36
    assert sum(row["pairs"] for name, row in groups.items() if name != "overall") == 36
    for row in groups.values():
        lo, hi = row["ci95"]
        assert 0.0 < lo <= hi and row["ratio"] > 0.0
        assert 0.0 <= row["change_wins"] <= 1.0


def test_cli_regression_compares_the_checkout_against_itself(capsys):
    spec = importlib.util.spec_from_file_location("cli_regression",
                                                  ROOT / "tools" / "cli_regression.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    summary = tool.compare(ROOT, ROOT, ["error-json-bool-and-string"])
    assert summary["commands"] == summary["identical"] == 1 and summary["differ"] == []
    assert capsys.readouterr().out == ""
    # the command it ran reads an input the script wrote and names it in one line
    got = tool.run(ROOT, tool.COMMANDS["error-json-bool-and-string"])
    assert got["exit"] == 2 and got["stderr"].startswith("error: {tmp}/z4_bool.json: ")
    assert list(got["files"]) == ["z4_bool.json"]


def test_src_lines_reads_zero_for_the_checkout_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py"), str(ROOT), str(ROOT)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "checks.py" in rows and "total" in rows
    for row in rows.values():
        assert row["diff"] == {"physical": 0, "code": 0}
        assert row["parent"] == row["change"]
    total = rows["total"]["change"]
    assert 0 < total["code"] < total["physical"]
