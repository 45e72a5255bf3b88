"""Command-line interface.

Subcommands:

* ``info``            group and weight summary with the embedding constants;
* ``transform``       forward/inverse transforms on CSV/JSON signal files,
                      with an ``--oracle`` cross-check against the naive path;
* ``constants``       the full table of constants for a configuration;
* ``check``           the seeded verification suites (machine-readable JSON);
* ``solve-linear``    the exact inverse of the string operator;
* ``solve-nonlinear`` the damped Picard solver;
* ``sweep``           one-parameter grids of nonlinear solves, CSV output.

Exit codes: 0 success, 1 property/convergence failure, 2 usage or parse
errors.  All machine output is deterministic given (configuration, seed,
version): keys are sorted and no timestamps are embedded.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import __version__
from .group import FiniteAbelianGroup, parse_group
from .nonlinear import (
    SolverConfig,
    lowfreq_forcing,
    parse_nonlinearity,
    solve_nonlinear,
)
from .sobolev import (
    Weight,
    _alpha_grid,
    algebra_constant,
    check_subadditivity,
    embedding_constant_lalpha,
    embedding_constant_sup,
    lp_norm,
    lp_norm_batch,
    make_weight,
    weight_from_table,
)
from .spectral import (
    Signal,
    Spectrum,
    _csv_rows,
    _fmt17,
    _read_json,
    _read_table_csv,
    dft_fast,
    dft_naive,
    idft,
    read_signal_csv,
    read_signal_json,
    read_spectrum_csv,
    read_spectrum_json,
    write_signal_csv,
    write_signal_json,
    write_spectrum_csv,
    write_spectrum_json,
)
from .stringop import build_multiplier, domain_norm, solve_linear, unrepresentable_data

__all__ = ["main"]

def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(text: str, path: str | None = None) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_problem(args) -> tuple[FiniteAbelianGroup, Weight]:
    """The group and weight that ``--group`` and the weight flags name."""
    group = parse_group(args.group)
    if args.weight_table:
        gamma = _read_table_csv(args.weight_table, group, ("gamma",))[:, 0]
        c_gamma = args.c_gamma if args.c_gamma is not None else 1.0
        if not (math.isfinite(c_gamma) and c_gamma >= 0):  # the flag's fault, not the table's
            raise ValueError(f"--c-gamma must be finite and nonnegative, got {c_gamma}")
        try:
            return group, weight_from_table(group, gamma, c_gamma, name="custom")
        except ValueError as exc:
            raise ValueError(f"{args.weight_table}: {exc}") from None
    if args.c_gamma is not None:
        raise ValueError("--c-gamma applies only with --weight-table")
    return group, make_weight(group, args.weight)


def _read_field(path: str, group: FiniteAbelianGroup, spectral: bool = False):
    if path.endswith(".json"):
        return (read_spectrum_json if spectral else read_signal_json)(path, group)
    if path.endswith(".csv"):
        return (read_spectrum_csv if spectral else read_signal_csv)(path, group)
    raise ValueError(f"cannot infer file format of {path!r} (use .csv or .json)")


def _write_field(path: str, obj) -> None:
    spectral = isinstance(obj, Spectrum)
    if path.endswith(".json"):
        (write_spectrum_json if spectral else write_signal_json)(path, obj)
    elif path.endswith(".csv"):
        (write_spectrum_csv if spectral else write_signal_csv)(path, obj)
    else:
        raise ValueError(f"cannot infer file format of {path!r} (use .csv or .json)")


def _emit_solution(args, field: Signal, report: dict) -> None:
    """The field to ``--output`` and the report to ``--report``; with
    neither, the report to stdout."""
    if args.output:
        _write_field(args.output, field)
    if args.report or not args.output:
        _emit(_json_text(report), args.report)


def _constants(group: FiniteAbelianGroup, w: Weight, s: float) -> dict:
    """The block of constants that ``info`` and ``constants`` share."""
    d_const = algebra_constant(group, w, s)
    return {
        "s": s,
        "embedding_constant_sup": embedding_constant_sup(group, w, s),
        "algebra_constant": d_const if math.isfinite(d_const) else "inf",
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_info(args) -> int:
    group, w = _load_problem(args)
    sub = check_subadditivity(group, w)
    doc = {
        "group": group.descriptor,
        "order": group.order,
        "factors": list(group.factors),
        "weight": {
            "name": w.name,
            "c_gamma": w.c_gamma,
            "gamma_min": float(w.values.min()),
            "gamma_max": float(w.values.max()),
            "subadditive": sub["ok"],
            "worst_ratio": sub["worst_ratio"] if math.isfinite(sub["worst_ratio"]) else "inf",
        },
        **_constants(group, w, args.s),
    }
    if args.json:
        _emit(_json_text(doc))
    else:
        print(f"group {group.descriptor}: order {group.order}, factors {list(group.factors)}")
        print(
            f"weight {w.name}: c_gamma={_fmt17(w.c_gamma)}, "
            f"gamma range [{_fmt17(w.values.min())}, {_fmt17(w.values.max())}], "
            f"subadditive={sub['ok']} (worst ratio {_fmt17(sub['worst_ratio'])})"
        )
        print(f"s = {_fmt17(args.s)}")
        print(f"sup-embedding constant C = {_fmt17(doc['embedding_constant_sup'])}")
        print(f"algebra constant        D = {_fmt17(doc['algebra_constant'])}")
    return 0


def _cmd_transform(args) -> int:
    group = parse_group(args.group)
    if args.inverse and (args.oracle or args.naive):
        raise ValueError("--oracle and --naive apply only to the forward transform")
    if args.inverse:
        spec = _read_field(args.input, group, spectral=True)
        out = idft(spec)
    else:
        sig = _read_field(args.input, group, spectral=False)
        fast = dft_fast(sig) if args.oracle or not args.naive else None
        naive = dft_naive(sig) if args.oracle or args.naive else None
        if args.oracle:
            # rescaled l2 norms, which neither overflow nor warn; 1/|G| cancels.
            # Below the normal range float64 holds only absolute accuracy.
            dev = float(lp_norm_batch(group, fast.values - naive.values, 2)
                        / max(lp_norm_batch(group, naive.values, 2), sys.float_info.min))
            print(f"oracle deviation (relative l2): {_fmt17(dev)}")
            if not dev <= 1e-10:
                print("FAIL: fast transform disagrees with the naive oracle", file=sys.stderr)
                return 1
        out = naive if args.naive else fast
    if args.output:
        _write_field(args.output, out)
    else:
        print("\n".join(_csv_rows(out.values)))
    return 0


def _cmd_constants(args) -> int:
    group, w = _load_problem(args)
    per_alpha = [{"alpha": alpha, **embedding_constant_lalpha(group, w, args.s, alpha)}
                 for alpha in args.alpha or _alpha_grid(args.s)]
    doc = {
        "group": group.descriptor,
        "weight": w.name,
        **_constants(group, w, args.s),
        "lebesgue_embeddings": per_alpha,
    }
    if args.json:
        _emit(_json_text(doc))
    else:
        print(f"group {group.descriptor}, weight {w.name}, s={_fmt17(args.s)}")
        print(f"C(gamma,s) = {_fmt17(doc['embedding_constant_sup'])}")
        print(f"D(gamma,s) = {_fmt17(doc['algebra_constant'])}")
        for row in per_alpha:
            print(
                f"alpha={_fmt17(row['alpha'])}: alpha*={_fmt17(row['alpha_star'])}, "
                f"constant={_fmt17(row['constant'])}"
            )
    return 0


def _cmd_check(args) -> int:
    from .checks import run_checks

    doc = run_checks(seed=args.seed, inject_bug=args.inject_bug, only=args.only or None)
    text = _json_text(doc)
    if args.output:
        _emit(text, args.output)
    if args.json:
        _emit(text)
    elif not args.output:
        for suite in doc["suites"]:
            status = "PASS" if suite["passed"] else "FAIL"
            print(f"{status} {suite['name']}: worst slack {_fmt17(suite['worst_slack'])} "
                  f"({suite['trials']} trials)")
        print("all passed" if doc["all_passed"] else "FAILURES present")
    if not doc["all_passed"]:
        failing = [s["name"] for s in doc["suites"] if not s["passed"]]
        print(f"failing suites: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _cmd_solve_linear(args) -> int:
    group, w = _load_problem(args)
    g = _read_field(args.input, group)
    u = solve_linear(g, w, args.c)
    profile = build_multiplier(group, w, args.c)
    dom = domain_norm(u, w, args.c)
    l2g = lp_norm(g, 2)
    share, omitted_sup = unrepresentable_data(g, w, args.c)
    rel_dev = abs(math.hypot(dom, share) - l2g) / l2g if l2g > 0 else 0.0
    c_sup = embedding_constant_sup(group, w, args.s)
    sup_u = lp_norm(u, math.inf)
    report = {
        "version": __version__,
        "group": group.descriptor,
        "weight": w.name,
        "c": args.c,
        "s": args.s,
        "isometry": {
            "domain_norm_solution": dom,
            "l2_norm_data": l2g,
            "unrepresentable_data_l2": share,
            "omitted_solution_sup_bound": omitted_sup,
            "relative_deviation": rel_dev,
            "ok": rel_dev <= 1e-10,
        },
        "sup_bound": {
            "sup_norm": sup_u,
            "constant": c_sup,
            "bound": c_sup * l2g,
            "ok": sup_u <= c_sup * l2g + 1e-10,
        },
        "multiplier_overflow_frequencies": profile.overflow_count,
    }
    _emit_solution(args, u, report)
    if not report["isometry"]["ok"] or not report["sup_bound"]["ok"]:
        print("solve-linear: a guarantee failed (see report)", file=sys.stderr)
        return 1
    return 0


def _load_forcing(path, scale, group: FiniteAbelianGroup) -> Signal | None:
    if path and scale is not None:
        raise ValueError("give either --forcing FILE or --forcing-scale X, not both")
    if path:
        return _read_field(path, group)
    if scale is not None:
        return lowfreq_forcing(group, scale)
    return None


def _solver_config(args, group: FiniteAbelianGroup) -> SolverConfig:
    initial = None
    if args.initial:
        initial = _read_field(args.initial, group)
    return SolverConfig(
        theta=args.theta,
        tol=args.tol,
        max_iter=args.max_iter,
        epsilon_ball=args.epsilon_ball,
        initial=initial,
        s=args.s,
    )


_SWEEP_PARAMS = ("c", "theta", "forcing-scale", "lam")


def _problems(args, group: FiniteAbelianGroup, grid=(None,)):
    """Yield the (nonlinearity, c, config) of the solve-nonlinear command line
    ``args`` at each grid value, which is first set on the field that
    ``args.param`` names (solve-nonlinear sweeps none).  A lam is written
    into a spec that has parsed, so a sweep refuses what solve-nonlinear
    refuses.  The first point builds every part, reading each file once; a
    later one rebuilds only what its field changes."""
    param = getattr(args, "param", None)
    for k, value in enumerate(grid):
        if param in ("c", "theta", "forcing-scale"):
            setattr(args, param.replace("-", "_"), value)
        if k == 0 or param == "forcing-scale":
            forcing = _load_forcing(args.forcing, args.forcing_scale, group)
        if param == "lam":
            spec = parse_nonlinearity(args.nonlinearity, group, forcing).name
            if "," not in spec:
                raise ValueError("sweeping lam needs a power:p,lam style nonlinearity")
            args.nonlinearity = f"{spec.rpartition(',')[0]},{value!r}"  # repr keeps lam exact
        nl = parse_nonlinearity(args.nonlinearity, group, forcing)
        if k == 0:
            cfg = _solver_config(args, group)
        elif param == "theta":
            cfg = dataclasses.replace(cfg, theta=value)
        yield nl, args.c, cfg


def _cmd_solve_nonlinear(args) -> int:
    group, w = _load_problem(args)
    nl, c, cfg = next(_problems(args, group))
    phi, rep = solve_nonlinear(nl, w, c, cfg)
    report = {
        "version": __version__,
        "config": {
            "group": group.descriptor,
            "weight": w.name,
            "c": c,
            "s": args.s,
            "nonlinearity": nl.name,
            "theta": args.theta,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "forcing_l2": lp_norm(nl.h, 2),
        },
        "result": rep.as_dict(),
        "verification": rep.verification,
    }
    _emit_solution(args, phi, report)
    if args.output or args.report:
        print(f"status: {rep.status} after {rep.iterations} iterations; "
              f"equation residual {rep.final_residual_eq:.3e}")
    return 0 if rep.converged and rep.verification["all_ok"] else 1


def _cmd_sweep(args) -> int:
    try:
        grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad sweep grid {args.grid!r}") from exc
    if not grid:
        raise ValueError("sweep grid is empty")
    group, w = _load_problem(args)
    lines = [
        "param,value,status,converged,iterations,final_residual_eq,"
        "norm_l2,norm_l2alpha,norm_domain,norm_sup,ball_respected,ball_radius"
    ]
    for value, (nl, c, cfg) in zip(grid, _problems(args, group, grid)):
        _, rep = solve_nonlinear(nl, w, c, cfg)
        lines.append(
            ",".join(
                [
                    args.param,
                    _fmt17(value),
                    rep.status,
                    str(rep.converged).lower(),
                    str(rep.iterations),
                    _fmt17(rep.final_residual_eq),
                    _fmt17(rep.norms["l2"]),
                    _fmt17(rep.norms["l2alpha"]),
                    _fmt17(rep.norms["domain"]) if math.isfinite(rep.norms["domain"]) else "inf",
                    _fmt17(rep.norms["sup"]),
                    str(rep.ball_respected).lower(),
                    _fmt17(rep.ball_radius) if math.isfinite(rep.ball_radius) else "inf",
                ]
            )
        )
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # main prints it in one line and exits 2
        raise ValueError(f"{self.prog}: {message}")


class _SuiteListFormatter(argparse.HelpFormatter):
    """Fills the suite list into ``check``'s help only when help is printed,
    so that other commands do not import the suites."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        text = super()._get_help_string(action)
        if text and "{suites}" in text:
            from .checks import suite_names

            text = text.replace("{suites}", ", ".join(suite_names()))
        return text


def _add_problem_flags(p: argparse.ArgumentParser, c: bool = False) -> None:
    """``--group``, the weight flags, ``--s`` and, with ``c``, ``--c``."""
    p.add_argument("--group", required=True)
    p.add_argument("--weight", default="sym-euclid",
                   help="zero | sym-euclid | hamming | pruefer:<p> (default sym-euclid)")
    p.add_argument("--weight-table", default=None,
                   help="CSV 'index,gamma' table overriding --weight")
    p.add_argument("--c-gamma", type=float, default=None,
                   help="subadditivity constant for --weight-table (default 1)")
    p.add_argument("--s", type=float, default=1.0)
    if c:
        p.add_argument("--c", type=float, required=True)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nonlinearity", required=True,
                   help="affine | power:p,lam | forced-power:p,lam")
    p.add_argument("--forcing", default=None, help="forcing signal file (.csv/.json)")
    p.add_argument("--forcing-scale", type=float, default=None,
                   help="use the built-in low-frequency profile at this L2 norm")
    p.add_argument("--theta", type=float, default=SolverConfig.theta,
                   help="damping in (0,1], default 1")
    p.add_argument("--tol", type=float, default=SolverConfig.tol)
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p.add_argument("--epsilon-ball", type=float, default=SolverConfig.epsilon_ball,
                   help="override the automatic ball radius")
    p.add_argument("--initial", default=None, help="initial iterate file")
    p.add_argument("--output", default=None, help="solution output file (.csv/.json)")
    p.add_argument("--report", default=None, help="JSON report path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="groupsobolev",
        description="Sobolev spaces, spectral multipliers, and the nonlocal "
                    "string-equation solver on finite abelian groups",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", default=None,
                        help="JSON file with default values for any long flag")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="group/weight summary and constants")
    _add_problem_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("transform", help="forward/inverse transform of a file")
    p.add_argument("--group", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--naive", action="store_true", help="use the quadratic-time path")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check fast vs naive; exit 1 if they disagree")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("constants", help="embedding/algebra constants table")
    _add_problem_flags(p)
    p.add_argument("--alpha", type=float, action="append", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("check", help="run the seeded verification suites",
                       formatter_class=_SuiteListFormatter)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", default=None, help="write the JSON result here")
    p.add_argument("--only", action="append", default=None,
                   help="restrict to a suite ({suites})")
    p.add_argument("--inject-bug", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve-linear", help="exact inverse of the string operator")
    _add_problem_flags(p, c=True)
    p.add_argument("--input", required=True, help="data signal g (.csv/.json)")
    p.add_argument("--output", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_solve_linear)

    p = sub.add_parser("solve-nonlinear", help="damped Picard solver")
    _add_problem_flags(p, c=True)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_solve_nonlinear)

    p = sub.add_parser("sweep", help="vary one parameter over a grid, CSV out")
    _add_problem_flags(p, c=True)
    _add_solver_flags(p)
    p.add_argument("--param", required=True, choices=_SWEEP_PARAMS)
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)

    return parser


def _config_value(action: argparse.Action, val, where: str):
    """A config value converted as the flag's command-line text would be."""
    if action.nargs == 0:  # a switch such as --json
        if isinstance(val, bool):
            return val
        raise ValueError(f"{where}: expected true or false, got {val!r}")
    repeated = isinstance(action, argparse._AppendAction)  # noqa: SLF001 - argparse surface
    if repeated and not isinstance(val, list):
        raise ValueError(f"{where}: expected a list, got {val!r}")
    out = []
    for item in val if repeated else [val]:
        if isinstance(item, bool) or not isinstance(item, (str, int, float)):
            raise ValueError(f"{where}: expected a string or a number, got {item!r}")
        try:
            out.append((action.type or str)(str(item)))
        except ValueError:
            raise ValueError(f"{where}: invalid value {item!r}") from None
        if action.choices is not None and out[-1] not in action.choices:
            raise ValueError(f"{where}: {item!r} is not one of {', '.join(action.choices)}")
    return out if repeated else out[0]


def _apply_config_defaults(parser: argparse.ArgumentParser, path: str) -> None:
    """Make each key of the JSON object at ``path`` the default of every
    subcommand flag it names, which then is no longer required; a key that
    names no flag is an error."""
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object of flag defaults")
    subparsers = [
        sp
        for action in parser._subparsers._group_actions  # noqa: SLF001 - argparse surface
        if isinstance(action, argparse._SubParsersAction)
        for sp in action.choices.values()
    ]
    for key, val in cfg.items():
        dest = key.replace("-", "_")
        where = f"{path}: config key {key!r}"
        flags = [
            (sp, a) for sp in subparsers for a in sp._actions
            if a.dest == dest and not isinstance(a, argparse._HelpAction)
        ]
        if not flags:
            raise ValueError(f"{where} matches no flag of any subcommand")
        for sp, action in flags:
            sp.set_defaults(**{dest: _config_value(action, val, where)})
            action.required = False


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # find --config in every spelling the full parser accepts (--config=F,
    # the prefix --conf F), and only before the subcommand, as it does
    pre = _Parser(prog=parser.prog, add_help=False)
    pre.add_argument("--config", default=None)
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    try:
        cfg_path = pre.parse_known_args(argv)[0].config
        if cfg_path is not None:
            _apply_config_defaults(parser, cfg_path)
        args = parser.parse_args(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
