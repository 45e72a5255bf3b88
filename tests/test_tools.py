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
