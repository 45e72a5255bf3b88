"""Byte-for-byte comparison of the command line between two source trees.

Run from anywhere, with two checkouts of this repository:

    python3 tools/cli_regression.py PARENT CHANGE

Every command of ``COMMANDS`` runs once under each tree: a fresh
``python -c`` process calls ``groupsobolev.cli.main`` with that tree's
``src`` first on ``PYTHONPATH`` and ``PYTHONDONTWRITEBYTECODE=1``, in a fresh
temporary directory that holds the input files the command names.  The two
runs of a command must agree on the exit code, stdout, stderr (each with the
temporary directory's path replaced by ``{tmp}``) and the bytes of every
file left in the directory.  Each difference is printed; the last line of
stdout is one JSON object that sums the run up, and the exit code is 1 on
any difference.

The set covers ``check`` JSON at three seeds, every subcommand's help,
``info`` (on weight tables that break subadditivity too), ``constants``,
``transform`` with ``--naive``/``--oracle``/``--inverse``,
``solve-linear``, ``solve-nonlinear`` on the six groups of the benchmark's
``solve`` menu, on Z65536 and on edge rows (a forcing past the band among
them), the benchmark's ``sweep`` command and three others, ``--config``
(supplying required flags, and a list that a repeated flag replaces), and
error paths.  Input files are written by this script from fixed formulas,
not by the package, so both trees read the same bytes.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ENTRY = "import sys; from groupsobolev.cli import main; sys.exit(main())"
TIMEOUT = 600


def _rows(values) -> str:
    return "".join(f"{i},{complex(v).real!r},{complex(v).imag!r}\n" for i, v in enumerate(values))


def _csv(values) -> str:
    return "index,re,im\n" + _rows(values)


def _json(group: str, values) -> str:
    pairs = ", ".join(f"[{complex(v).real!r}, {complex(v).imag!r}]" for v in values)
    return f'{{"group": "{group}", "values": [{pairs}]}}\n'


def _table(gamma) -> str:
    return "index,gamma\n" + "".join(f"{i},{float(g)!r}\n" for i, g in enumerate(gamma))


def _wave(n: int, scale: float = 1.0, imag: bool = True) -> list[complex]:
    return [scale * complex(math.sin(1.3 * i + 0.2) + 0.5 * math.cos(0.7 * i),
                            math.cos(0.9 * i) - 0.25 if imag else 0.0) for i in range(n)]


def _plane_wave(side: int, l2: float) -> list[float]:
    """l2 * (cos x1 + cos x2) on Z<side>xZ<side> in row-major order, whose L2
    norm is l2."""
    step = 2 * math.pi / side
    return [l2 * (math.cos(step * (i // side)) + math.cos(step * (i % side))) for i in
            range(side * side)]


def _cosines(n: int, top: int, scale: float) -> list[float]:
    """scale * sum of cos(2 pi k i / n) / k for k = 1..top on Z<n>: a real
    field with every wavenumber up to ``top``."""
    return [scale * sum(math.cos(2 * math.pi * k * i / n) / k for k in range(1, top + 1))
            for i in range(n)]


INPUTS = {  # file name: its text
    "z64.csv": lambda: _csv(_wave(64)),
    "z64.json": lambda: _json("Z64", _wave(64)),
    "z12_spectrum.csv": lambda: _csv(_wave(12, 0.1)),
    "z4096.csv": lambda: _csv(_wave(4096)),
    # wavenumbers 1..20 against a band of 6 at c = 1, all where m is finite
    "z4096_broadband.csv": lambda: _csv(_cosines(4096, 20, 0.01)),
    "z64_real.csv": lambda: _csv(_wave(64, 0.02, imag=False)),
    "z64_initial.csv": lambda: _csv(_wave(64, 0.01, imag=False)),
    "z128x128_forcing.csv": lambda: _csv(_plane_wave(128, 0.1)),
    "z12_weights.csv": lambda: _table([min(i, 12 - i) for i in range(12)]),
    "bad_header.csv": lambda: "index,weight\n" + "".join(f"{i},1\n" for i in range(12)),
    # gamma(1) + gamma(1) = 2 below gamma(2) = 5: a finite ratio of 2.5
    "z8_violating.csv": lambda: _table([0, 1, 5, 3, 4, 3, 2, 1]),
    # gamma vanishes on the odd characters but not at 1 + 1 = 2
    "z8_degenerate.csv": lambda: _table([0, 0, 1, 0, 1, 0, 1, 0]),
    "z8_negative.csv": lambda: _table([0, 1, 2, 3, -4, 3, 2, 1]),
    # gamma(2) exceeds gamma(1) + gamma(1) by 1e-8: a ratio of 1.000000005
    "z4_near_one.csv": lambda: _table([0, 1, 2.00000001, 1]),
    "z5_four_pairs.json": lambda: _json("Z5", _wave(4, 0.1, imag=False)),
    "z4_huge.json": lambda: _json("Z4", [1e308] * 4),
    "z4_1e200.json": lambda: _json("Z4", [1e200, -2e200, 3e200j, 0.5e200]),
    "z4_1e-300.json": lambda: _json("Z4", [1e-300, -2e-300, 3e-300j, 0.5e-300]),
    "z4_bigint.json": lambda: '{"group": "Z4", "values": [[1%s, 0], [0, 0], [0, 0], [0, 0]]}\n'
                              % ("0" * 399),
    "z4_bool.json": lambda: '{"group": "Z4", "values": [[true, false], ["0.5", 0], [0, 0], '
                            '[0, 0]]}\n',
    "config.json": lambda: '{"group": "Z4", "c": 1}\n',
    "config_alpha.json": lambda: '{"alpha": [2]}\n',
    "config_only.json": lambda: '{"only": ["plancherel"]}\n',
}

_SOLVE = ("solve-nonlinear", "--weight", "sym-euclid", "--nonlinearity")
_SWEEP = ("sweep", "--group", "Z12", "--c", "0.5", "--nonlinearity")
COMMANDS = {  # name: argv; "{tmp}" is the run's directory, which holds the INPUTS it names
    "check-seed-1-json": ["check", "--seed", "1", "--json"],
    "check-seed-7-json": ["check", "--seed", "7", "--json"],
    "check-seed-42-json": ["check", "--seed", "42", "--json"],
    "check-seed-42-text": ["check", "--seed", "42"],
    "check-output": ["check", "--seed", "3", "--only", "plancherel", "--output",
                     "{tmp}/check.json"],
    "check-inject-bug": ["check", "--inject-bug", "--only", "algebra-bound"],
    **{f"help-{cmd or 'top'}": [*([cmd] if cmd else []), "--help"] for cmd in (
        "", "info", "transform", "constants", "check", "solve-linear", "solve-nonlinear",
        "sweep")},
    "info-z64": ["info", "--group", "Z64"],
    "info-hamming-json": ["info", "--group", "Z2xZ2xZ2xZ2", "--weight", "hamming", "--s", "2",
                          "--json"],
    "info-weight-table": ["info", "--group", "Z12", "--weight-table", "{tmp}/z12_weights.csv",
                          "--c-gamma", "1.5", "--json"],
    "info-z8-violating": ["info", "--group", "Z8", "--weight-table", "{tmp}/z8_violating.csv"],
    "info-z8-violating-json": ["info", "--group", "Z8", "--weight-table",
                               "{tmp}/z8_violating.csv", "--json"],
    "info-z8-degenerate": ["info", "--group", "Z8", "--weight-table",
                           "{tmp}/z8_degenerate.csv"],
    "info-z8-degenerate-json": ["info", "--group", "Z8", "--weight-table",
                                "{tmp}/z8_degenerate.csv", "--json"],
    "info-z4-near-one": ["info", "--group", "Z4", "--weight-table", "{tmp}/z4_near_one.csv"],
    "info-z2^10-hamming-json": ["info", "--group", "x".join(["Z2"] * 10), "--weight", "hamming",
                                "--json"],
    "info-z729-pruefer-json": ["info", "--group", "Z729", "--weight", "pruefer:3", "--json"],
    "constants-z4": ["constants", "--group", "Z4"],
    "constants-pruefer-json": ["constants", "--group", "Z729", "--weight", "pruefer:3", "--s",
                               "0.5", "--json"],
    "constants-alpha-json": ["constants", "--group", "Z8xZ8", "--alpha", "2", "--alpha", "5",
                             "--json"],
    "transform-stdout": ["transform", "--group", "Z64", "--input", "{tmp}/z64.csv"],
    "transform-oracle-json": ["transform", "--group", "Z64", "--input", "{tmp}/z64.json",
                              "--oracle", "--output", "{tmp}/out.json"],
    "transform-naive": ["transform", "--group", "Z64", "--input", "{tmp}/z64.csv", "--naive",
                        "--output", "{tmp}/out.csv"],
    "transform-inverse": ["transform", "--group", "Z12", "--input", "{tmp}/z12_spectrum.csv",
                          "--inverse"],
    "transform-oracle-z4096": ["transform", "--group", "Z4096", "--input", "{tmp}/z4096.csv",
                               "--oracle", "--output", "{tmp}/out.csv"],
    "transform-oracle-1e200": ["transform", "--group", "Z4", "--input", "{tmp}/z4_1e200.json",
                               "--oracle"],
    "transform-oracle-1e-300": ["transform", "--group", "Z4", "--input",
                                "{tmp}/z4_1e-300.json", "--oracle"],
    "transform-overflow": ["transform", "--group", "Z4", "--input", "{tmp}/z4_huge.json"],
    "solve-linear-stdout": ["solve-linear", "--group", "Z64", "--c", "0.5", "--input",
                            "{tmp}/z64_real.csv"],
    "solve-linear-files": ["solve-linear", "--group", "Z64", "--weight", "pruefer:2", "--c", "2",
                           "--input", "{tmp}/z64_real.csv", "--output", "{tmp}/u.csv",
                           "--report", "{tmp}/report.json"],
    # m overflows at the top frequency alone, where -F(g)/m is subnormal
    **{f"solve-linear-subnormal-{c}": ["solve-linear", "--group", "Z64", "--c", c, "--input",
                                       "{tmp}/z64_real.csv", "--report", "{tmp}/report.json"]
       for c in ("0.7", "0.71")},
    "solve-z4096": ["solve-nonlinear", "--group", "Z4096", "--c", "1", "--nonlinearity",
                    "forced-power:2,1", "--forcing-scale", "0.2"],
    # the forcing reaches past the band: the loop runs on Z4096, not on Z20
    "solve-z4096-broadband": [*_SOLVE, "forced-power:2,1", "--group", "Z4096", "--c", "1",
                              "--forcing", "{tmp}/z4096_broadband.csv"],
    "solve-z65536": [*_SOLVE, "forced-power:2,1", "--group", "Z65536", "--c", "1",
                     "--forcing-scale", "1.5"],
    "solve-z4096-pruefer": ["solve-nonlinear", "--group", "Z4096", "--weight", "pruefer:2",
                            "--c", "1", "--nonlinearity", "forced-power:2,1",
                            "--forcing-scale", "0.2"],
    "solve-z64xz64-files": [*_SOLVE, "forced-power:3,1", "--group", "Z64xZ64", "--c", "0.5",
                            "--forcing-scale", "0.05", "--output", "{tmp}/phi.csv",
                            "--report", "{tmp}/report.json"],
    # a forcing small enough for a finite invariant ball
    "solve-z64xz64-small-data": [*_SOLVE, "forced-power:3,1", "--group", "Z64xZ64", "--c", "1",
                                 "--forcing-scale", "0.05"],
    "solve-z16^3": [*_SOLVE, "forced-power:2,2", "--group", "Z16xZ16xZ16", "--c", "1",
                    "--forcing-scale", "0.1"],
    "solve-z2^12-hamming": ["solve-nonlinear", "--group", "x".join(["Z2"] * 12), "--weight",
                            "hamming", "--c", "0.5", "--nonlinearity", "forced-power:2,1",
                            "--forcing-scale", "0.3"],
    "solve-z257": [*_SOLVE, "forced-power:3,1", "--group", "Z257", "--c", "1",
                   "--forcing-scale", "0.3"],
    "solve-z4096-near-fold": [*_SOLVE, "forced-power:2,1", "--group", "Z4096", "--c", "1",
                              "--forcing-scale", "1.64"],
    "solve-z12-damped": [*_SOLVE, "forced-power:3,1", "--group", "Z12", "--c", "0.5",
                         "--forcing-scale", "10"],
    "solve-max-iter-3": [*_SOLVE, "forced-power:3,1", "--group", "Z12", "--c", "0.5",
                         "--forcing-scale", "10", "--max-iter", "3"],
    "solve-affine-json": [*_SOLVE, "affine", "--group", "Z64", "--c", "1", "--forcing",
                          "{tmp}/z64_real.csv", "--output", "{tmp}/phi.json"],
    "solve-unforced": [*_SOLVE, "power:2,1", "--group", "Z64", "--c", "1"],
    "solve-initial": [*_SOLVE, "forced-power:2,1", "--group", "Z64", "--c", "1",
                      "--forcing-scale", "0.1", "--initial", "{tmp}/z64_initial.csv"],
    # damped, the first iterate keeps 0.3 of the initial field's coefficients
    "solve-initial-damped": [*_SOLVE, "forced-power:2,1", "--group", "Z64", "--c", "1",
                             "--forcing-scale", "0.1", "--initial", "{tmp}/z64_initial.csv",
                             "--theta", "0.7"],
    "solve-s-60": [*_SOLVE, "power:2,1", "--group", "Z4", "--c", "1", "--s", "60"],
    "solve-z2xz4xz2xz4": [*_SOLVE, "forced-power:2,1", "--group", "Z2xZ4xZ2xZ4", "--c", "1",
                          "--forcing-scale", "0.1", "--theta", "0.5"],
    "sweep-benchmark": ["sweep", "--group", "Z128xZ128", "--weight", "sym-euclid", "--c", "1",
                        "--nonlinearity", "forced-power:2,1", "--forcing",
                        "{tmp}/z128x128_forcing.csv", "--param", "c", "--grid",
                        "0.25,0.5,0.75,1,1.25,1.5,1.75,2", "--output", "{tmp}/sweep.csv"],
    "sweep-lam": [*_SWEEP, "forced-power:2,0.01", "--forcing-scale", "0.01", "--param", "lam",
                  "--grid", "0.05,0.2,0.1234567"],
    "sweep-theta": [*_SWEEP, "power:2,0.1", "--param", "theta", "--grid", "0.5,1"],
    "sweep-forcing-scale": [*_SWEEP, "forced-power:2,1", "--param", "forcing-scale", "--grid",
                            "0.01,0.1,10"],
    "config-supplies-flags": ["--config", "{tmp}/config.json", "solve-nonlinear",
                              "--nonlinearity", "power:2,1"],
    # a repeated flag on the command line replaces the config's list
    "config-alpha-replaced": ["--config", "{tmp}/config_alpha.json", "constants", "--group", "Z4",
                              "--alpha", "5", "--json"],
    "config-only-replaced": ["--config", "{tmp}/config_only.json", "check", "--only",
                             "transform-roundtrip", "--json"],
    # error paths: each ends in exit 2 and one line
    "error-bad-group": ["info", "--group", "Q8"],
    "error-c-gamma-alone": ["info", "--group", "Z4", "--c-gamma", "2"],
    "error-alpha-nan": ["constants", "--group", "Z4", "--alpha", "nan"],
    "error-weight-table-header": ["solve-linear", "--group", "Z12", "--c", "1", "--weight-table",
                                  "{tmp}/bad_header.csv", "--input", "{tmp}/z64_real.csv"],
    "error-weight-table-negative": ["info", "--group", "Z8", "--weight-table",
                                    "{tmp}/z8_negative.csv"],
    "error-json-pair-count": [*_SOLVE, "forced-power:2,1", "--group", "Z5", "--c", "1",
                              "--forcing", "{tmp}/z5_four_pairs.json"],
    "error-forcing-conflict": [*_SOLVE, "forced-power:2,1", "--group", "Z64", "--c", "1",
                               "--forcing", "{tmp}/z64_real.csv", "--forcing-scale", "0.1"],
    "error-spec-three-parts": [*_SOLVE, "forced-power:2,1,7", "--group", "Z12", "--c", "0.5",
                               "--forcing-scale", "0.01"],
    "error-empty-grid": [*_SWEEP, "power:2,0.1", "--param", "c", "--grid", ","],
    "error-lam-affine": [*_SWEEP, "affine", "--forcing-scale", "0.01", "--param", "lam",
                         "--grid", "0.1"],
    "error-sweep-lam-three-parts": [*_SWEEP, "forced-power:2,1,7", "--forcing-scale", "0.01",
                                    "--param", "lam", "--grid", "0.1"],
    "error-sweep-lam-oops": [*_SWEEP, "forced-power:2,oops", "--forcing-scale", "0.01",
                             "--param", "lam", "--grid", "0.1"],
    "error-json-bigint": ["transform", "--group", "Z4", "--input", "{tmp}/z4_bigint.json"],
    "error-json-bigint-linear": ["solve-linear", "--group", "Z4", "--c", "1", "--input",
                                 "{tmp}/z4_bigint.json"],
    "error-json-bool-and-string": ["transform", "--group", "Z4", "--input",
                                   "{tmp}/z4_bool.json"],
}


def run(tree: Path, argv: list[str]) -> dict:
    """Exit code, stdout, stderr and written files of one command under ``tree``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)}
    with tempfile.TemporaryDirectory(prefix="cli_regression_") as tmp:
        for name, text in INPUTS.items():
            if any(f"{{tmp}}/{name}" in tok for tok in argv):
                Path(tmp, name).write_text(text(), encoding="ascii")
        proc = subprocess.run([sys.executable, "-c", ENTRY,
                               *(tok.replace("{tmp}", tmp) for tok in argv)],
                              cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        return {"exit": proc.returncode,
                "stdout": proc.stdout.replace(tmp, "{tmp}"),
                "stderr": proc.stderr.replace(tmp, "{tmp}"),
                "files": {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}}


def _first_difference(a: str, b: str) -> str:
    for k, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return f"line {k + 1}: {x[:200]!r} -> {y[:200]!r}"
    return f"{len(a.splitlines())} lines -> {len(b.splitlines())} lines"


def compare(parent: Path, change: Path, names=None) -> dict:
    """Run each named command (all by default) under both trees; print every
    difference and return the summary."""
    differ = []
    names = list(COMMANDS) if names is None else list(names)
    for name in names:
        old, new = run(parent, COMMANDS[name]), run(change, COMMANDS[name])
        parts = [key for key in ("exit", "stdout", "stderr", "files") if old[key] != new[key]]
        if not parts:
            continue
        differ.append(name)
        print(f"DIFFERS {name}: {' '.join(COMMANDS[name])}")
        if "exit" in parts:
            print(f"  exit {old['exit']} -> {new['exit']}")
        for key in ("stdout", "stderr"):
            if key in parts:
                print(f"  {key} {_first_difference(old[key], new[key])}")
        if "files" in parts:
            changed = sorted(f for f in old["files"].keys() | new["files"].keys()
                             if old["files"].get(f) != new["files"].get(f))
            print(f"  files {', '.join(changed)}")
    return {"parent": str(parent), "change": str(change), "commands": len(names),
            "identical": len(names) - len(differ), "differ": differ}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    args = ap.parse_args(argv)
    summary = compare(args.parent.resolve(), args.change.resolve())
    print(json.dumps(summary))
    return 1 if summary["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
