"""Paired A/B timing of the benchmark's ``solve`` problems between two source trees.

Run from anywhere, with two checkouts of this repository:

    python3 tools/paired_solve.py PARENT CHANGE [--rounds N] [--seed S]

Both trees' ``groupsobolev`` packages are loaded into one process, each under
a name of its own, and every problem of the ``solve`` workload
(``perfbench/workloads.py``: the solve and the caller's ``verify_solution``)
runs on both, one after the other, the side that goes first alternating
from problem to problem.  Problems pair up across the sides, so the host's
drift, which spreads whole benchmark runs by 25 % or more, cancels within a
pair.  One untimed round fills both sides' caches first, as a benchmark run's
many rounds do.  Every output is checked by ``perfbench/reference.py``
outside the timed region; an error is printed and the exit code is 1.

The report gives, per menu group and overall, the ratio of the change's
summed time to the parent's, with a 95 % bootstrap interval over the paired
problems, and the share of pairs the change won.  The last line of stdout
is one JSON object with the same figures.  ``perfbench/`` is only read.

A tree compared against itself reads 0.98-0.99 overall, not 1 (0.992,
0.979 and 0.994 in three runs at 5 rounds): the side loaded second gains
about 1 %.  A change that claims no gain is judged against that band.

The script loads numpy once, before either tree, so it cannot see what a
tree changes about the process itself, such as the package's one-thread
OpenBLAS setting, which acts only before numpy loads.  Time such a change
on fresh processes.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = "groupsobolev"
BOOTSTRAP = 2000


def load_tree(root: Path, alias: str):
    """Import ``root``'s src/groupsobolev as the package ``alias``; its
    relative imports resolve inside it."""
    pkg = root / "src" / PACKAGE
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"no {PACKAGE} package under {root}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def imported_as_package(alias: str):
    """Within the block, ``import groupsobolev[.x]`` finds the modules
    loaded under ``alias``; sys.modules is restored afterwards."""
    saved = {name: mod for name, mod in sys.modules.items()
             if name == PACKAGE or name.startswith(PACKAGE + ".")}
    try:
        for name in saved:
            del sys.modules[name]
        for name, mod in list(sys.modules.items()):
            if name == alias or name.startswith(alias + "."):
                sys.modules[PACKAGE + name[len(alias):]] = mod
        yield
    finally:
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        sys.modules.update(saved)


def ratio_interval(parent: np.ndarray, change: np.ndarray, rng) -> tuple[float, float, float]:
    """sum(change) / sum(parent) and its 95 % bootstrap interval over the pairs."""
    picks = rng.integers(0, parent.size, size=(BOOTSTRAP, parent.size))
    ratios = change[picks].sum(axis=1) / parent[picks].sum(axis=1)
    lo, hi = np.percentile(ratios, [2.5, 97.5])
    return float(change.sum() / parent.sum()), float(lo), float(hi)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--rounds", type=int, default=5, help="timed rounds of 36 problems")
    ap.add_argument("--seed", type=int, default=21, help="workload seed")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    import workloads  # noqa: E402  (perfbench/ is on the path only now)

    sides = []
    for label, root in (("parent", args.parent), ("change", args.change)):
        alias = f"_paired_{label}"
        load_tree(root.resolve(), alias)
        wl = workloads.Solve(args.seed, BENCH / "_scratch")
        with imported_as_package(alias):
            wl.prepare()
        sides.append(wl)
    problems = workloads.Solve(args.seed, BENCH / "_scratch")
    menu = [f"{descriptor} {weight}" for descriptor, weight in workloads.Solve.MENU]

    errors = 0
    times = []  # (menu index, parent seconds, change seconds) per timed problem
    count = 0
    for rnd in range(args.rounds + 1):  # round 0 is the untimed warm-up
        for prob in problems.next_round():
            order = (0, 1) if count % 2 == 0 else (1, 0)
            count += 1
            took = [0.0, 0.0]
            outs = [None, None]
            for side in order:
                t0 = time.perf_counter()
                outs[side] = sides[side].run(prob)
                took[side] = time.perf_counter() - t0
            for side, wl in enumerate(sides):
                for err in wl.check(prob, outs[side]):
                    errors += 1
                    print(f"{('parent', 'change')[side]} {menu[prob['menu']]}: {err}",
                          file=sys.stderr)
            if rnd:
                times.append((prob["menu"], *took))

    rng = np.random.default_rng(0)
    arr = np.array(times)
    rows = {}
    for m, name in enumerate(menu + ["overall"]):
        sel = arr if name == "overall" else arr[arr[:, 0] == m]
        ratio, lo, hi = ratio_interval(sel[:, 1], sel[:, 2], rng)
        rows[name] = {"pairs": int(len(sel)), "parent_ms": 1e3 * float(np.median(sel[:, 1])),
                      "change_ms": 1e3 * float(np.median(sel[:, 2])), "ratio": ratio,
                      "ci95": [lo, hi], "change_wins": float(np.mean(sel[:, 2] < sel[:, 1]))}
    print(f"{'group':<44}{'pairs':>6}{'parent ms':>11}{'change ms':>11}"
          f"{'ratio':>8}{'95% interval':>18}{'wins':>7}")
    for name, row in rows.items():
        print(f"{name:<44}{row['pairs']:>6}{row['parent_ms']:>11.3f}{row['change_ms']:>11.3f}"
              f"{row['ratio']:>8.3f}   [{row['ci95'][0]:.3f}, {row['ci95'][1]:.3f}]"
              f"{row['change_wins']:>7.2f}")
    print(json.dumps({"seed": args.seed, "rounds": args.rounds, "check_errors": errors,
                      "groups": rows}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
