"""Seeded verification suites behind the ``check`` CLI command.

Each suite fuzzes or exhaustively scans one family of guarantees (transform
identities, norm inequalities, operator isometries, solver contracts) over a
fixed zoo of groups.  A suite is one function ``suite(rng, t, inject_bug)``
declared with ``@_suite(name, detail)``; it only feeds margins and structural
checks to the tracker ``t``, and ``run_checks`` turns the tracker into the
suite's JSON record.  Suites are deterministic for a given seed: the runner
spawns one child RNG stream per suite in definition order, so results -- and
the serialized JSON -- are byte-stable across runs.  A new suite goes after
the last one, so the streams of the others stay as they are.

``worst_slack`` is the smallest observed margin (bound minus value, including
the tolerance); a suite passes iff its slack never went negative and all its
structural checks held.  Witnesses carry the configuration that attained the
worst margin, so failures are reproducible.
"""
from __future__ import annotations

import contextlib
import math
from typing import Callable

import numpy as np

from . import __version__
from .group import FiniteAbelianGroup, compose_indices, element_at, parse_group, residue_grid
from .nonlinear import (
    Nonlinearity,
    SolverConfig,
    affine_nonlinearity,
    check_growth_conditions,
    forced_power_nonlinearity,
    lowfreq_forcing,
    picard_step,
    power_nonlinearity,
    solve_nonlinear,
    verify_solution,
)
from .sobolev import (
    Weight,
    _alpha_grid,
    algebra_constant,
    check_subadditivity,
    compactness_profile,
    embedding_constant_lalpha,
    embedding_constant_sup,
    lp_norm_batch,
    make_weight,
    sobolev_norm_batch,
    translation_modulus,
    _character_column,
    _translation_moduli,
)
from .spectral import (
    Signal,
    convolve_dual,
    dft_fast,
    dft_naive,
    dft_values,
    idft_values,
    translate,
)
from .stringop import build_multiplier, domain_norm_batch, solve_linear

__all__ = ["ZOO", "run_checks", "suite_names", "weights_for"]

ZOO = (
    "Z2",
    "Z3",
    "Z4",
    "Z7",
    "Z12",
    "Z2xZ2",
    "Z2xZ3xZ5",
    "Z8xZ8",
    "Z64",
    "Z2xZ2xZ2xZ2xZ2xZ2",
)
S_GRID = (0.0, 0.5, 1.0, 2.0)

_REL_TOL = 1e-10


def weights_for(group: FiniteAbelianGroup) -> list[Weight]:
    """The built-in weights that are well-defined on this group."""
    out = [make_weight(group, "zero"), make_weight(group, "sym-euclid")]
    if all(n == 2 for n in group.factors):
        out.append(make_weight(group, "hamming"))
    if len(group.factors) == 1 and (n := group.factors[0]) > 1:
        p = next(q for q in range(2, n + 1) if n % q == 0)  # the least prime factor
        with contextlib.suppress(ValueError):  # n is not a power of p
            out.append(make_weight(group, f"pruefer:{p}"))
    return out


def _rand_complex(rng, group: FiniteAbelianGroup, count: int) -> np.ndarray:
    return rng.standard_normal((count, group.order)) + 1j * rng.standard_normal(
        (count, group.order)
    )


def _rand_real(rng, group: FiniteAbelianGroup, count: int) -> np.ndarray:
    return rng.standard_normal((count, group.order))


class _Tracker:
    """Accumulates the smallest margin, the witness attaining it and whether
    every structural check held."""

    def __init__(self) -> None:
        self.worst = math.inf
        self.witness: dict | None = None
        self.trials = 0
        self.ok = True

    def add(self, slack: float, witness: dict, count: int = 1) -> None:
        self.trials += count
        if slack < self.worst:
            self.worst = float(slack)
            self.witness = witness

    def require(self, holds) -> None:
        """Record a structural check; the suite fails if any does not hold."""
        self.ok = self.ok and bool(holds)

    def result(self, name: str, detail: str) -> dict:
        """The suite's record in the ``check`` JSON."""
        return {
            "name": name,
            "passed": self.ok and self.worst >= 0.0,
            "trials": self.trials,
            "worst_slack": self.worst if math.isfinite(self.worst) else 0.0,
            "witness": self.witness,
            "detail": detail,
        }


_SUITES: dict[str, tuple[str, Callable]] = {}  # name: (detail, suite), in definition order


def _suite(name: str, detail: str):
    """Register the decorated function as the suite ``name``."""
    def register(suite):
        _SUITES[name] = (detail, suite)
        return suite
    return register


def _configs(table):
    """(name, weight name, c, group, weight) for each row of a config table."""
    for name, wname, c in table:
        group = parse_group(name)
        yield name, wname, c, group, make_weight(group, wname)


# ---------------------------------------------------------------------------
# transform suites
# ---------------------------------------------------------------------------

@_suite("transform-oracle",
        "fast factor-split transform matches the quadratic-time definition (rel l2, tol 1e-10)")
def _suite_transform_oracle(rng, t: _Tracker, inject_bug: bool) -> None:
    for name in ZOO:
        group = parse_group(name)
        vals = _rand_complex(rng, group, 8)
        vals = np.concatenate([vals, np.ones((1, group.order))])  # constant special case
        for i, row in enumerate(vals):
            f = Signal(group, row)
            fast = dft_fast(f).values
            naive = dft_naive(f).values
            dev = np.linalg.norm(fast - naive) / max(np.linalg.norm(naive), 1e-30)
            t.add(_REL_TOL - dev, {"group": name, "trial": i})


@_suite("transform-roundtrip",
        "inverse transform undoes the forward transform (rel l2, tol 1e-10)")
def _suite_transform_roundtrip(rng, t: _Tracker, inject_bug: bool) -> None:
    for name in ZOO + ("Z720", "Z4096", "Z3xZ5xZ7"):
        group = parse_group(name)
        vals = _rand_complex(rng, group, 4)
        back = idft_values(group, dft_values(group, vals))
        dev = np.linalg.norm(back - vals, axis=1) / np.linalg.norm(vals, axis=1)
        t.add(float(_REL_TOL - dev.max()), {"group": name}, count=vals.shape[0])


@_suite("plancherel", "L2 norm on the group equals l2 norm of the coefficients (tol 1e-10)")
def _suite_plancherel(rng, t: _Tracker, inject_bug: bool) -> None:
    for name in ZOO:
        group = parse_group(name)
        vals = _rand_complex(rng, group, 100)
        l2 = np.sqrt((np.abs(vals) ** 2).sum(axis=1) / group.order)
        spec = dft_values(group, vals)
        l2spec = np.sqrt((np.abs(spec) ** 2).sum(axis=1))
        dev = np.abs(l2 - l2spec) / l2
        t.add(float(_REL_TOL - dev.max()), {"group": name}, count=vals.shape[0])


@_suite("convolution-theorem",
        "transform of a pointwise product is the dual-side convolution (tol 1e-10)")
def _suite_convolution(rng, t: _Tracker, inject_bug: bool) -> None:
    for name in ("Z8", "Z12", "Z2xZ3", "Z2xZ2xZ2"):
        group = parse_group(name)
        for trial in range(5):
            f = Signal(group, _rand_complex(rng, group, 1)[0])
            g = Signal(group, _rand_complex(rng, group, 1)[0])
            lhs = dft_fast(Signal(group, f.values * g.values)).values
            rhs = convolve_dual(dft_fast(f), dft_fast(g)).values
            dev = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-30)
            t.add(_REL_TOL - dev, {"group": name, "trial": trial})


@_suite("translation-modulation",
        "translating a signal modulates its coefficients by xi(h) (tol 1e-10)")
def _suite_translation_modulation(rng, t: _Tracker, inject_bug: bool) -> None:
    for name in ("Z6", "Z4xZ3", "Z2xZ2xZ2"):
        group = parse_group(name)
        for trial in range(5):
            f = Signal(group, _rand_complex(rng, group, 1)[0])
            h_idx = int(rng.integers(0, group.order))

            h = element_at(group, h_idx)
            lhs = dft_fast(translate(f, h)).values
            rhs = _character_column(group, h) * dft_fast(f).values
            dev = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-30)
            t.add(_REL_TOL - dev, {"group": name, "shift": list(h), "trial": trial})


# ---------------------------------------------------------------------------
# weight / norm suites
# ---------------------------------------------------------------------------

@_suite("weight-subadditivity",
        "every built-in weight satisfies its declared subadditivity constant")
def _suite_subadditivity(rng, t: _Tracker, inject_bug: bool) -> None:
    for name in ZOO:
        group = parse_group(name)
        for w in weights_for(group):
            rep = check_subadditivity(group, w)
            t.require(rep["ok"])
            slack = (
                -1.0
                if not math.isfinite(rep["worst_ratio"])
                else w.c_gamma + 1e-12 - rep["worst_ratio"]
            )
            t.add(slack, {"group": name, "weight": w.name, "report": rep})


def _norm_fuzz_configs():
    for name in ZOO:
        group = parse_group(name)
        for w in weights_for(group):
            for s in S_GRID:
                yield name, group, w, s


@_suite("l2-vs-sobolev", "the L2 norm never exceeds the weighted Sobolev norm (tol 1e-12)")
def _suite_l2_vs_sobolev(rng, t: _Tracker, inject_bug: bool) -> None:
    for name, group, w, s in _norm_fuzz_configs():
        vals = _rand_complex(rng, group, 60)
        spec = dft_values(group, vals)
        l2 = lp_norm_batch(group, vals, 2)
        sob = sobolev_norm_batch(w, s, spec)
        slack = (sob + 1e-12 - l2).min()
        t.add(float(slack), {"group": name, "weight": w.name, "s": s}, count=60)


@_suite("sup-embedding",
        "sup|f| <= C(gamma,s) * ||f||_{s,gamma} with the explicit constant (tol 1e-10)")
def _suite_sup_embedding(rng, t: _Tracker, inject_bug: bool) -> None:
    for name, group, w, s in _norm_fuzz_configs():
        vals = _rand_complex(rng, group, 60)
        spec = dft_values(group, vals)
        sup = lp_norm_batch(group, vals, math.inf)
        sob = sobolev_norm_batch(w, s, spec)
        c = embedding_constant_sup(group, w, s)
        slack = (c * sob + _REL_TOL - sup).min()
        t.add(float(slack), {"group": name, "weight": w.name, "s": s}, count=60)


@_suite("lebesgue-embedding",
        "||f||_{alpha*} <= (sum (1+gamma^2)^{-alpha})^{s/2alpha} ||f||_{s,gamma} (tol 1e-10)")
def _suite_lebesgue_embedding(rng, t: _Tracker, inject_bug: bool) -> None:
    for name, group, w, s in _norm_fuzz_configs():
        vals = _rand_complex(rng, group, 40)
        spec = dft_values(group, vals)
        sob = sobolev_norm_batch(w, s, spec)
        for alpha in _alpha_grid(s):
            emb = embedding_constant_lalpha(group, w, s, alpha)
            lp = lp_norm_batch(group, vals, emb["alpha_star"])
            slack = (emb["constant"] * sob + _REL_TOL - lp).min()
            t.add(
                float(slack),
                {"group": name, "weight": w.name, "s": s, "alpha": alpha},
                count=40,
            )


@_suite("algebra-bound",
        "||fg|| <= D(gamma,s) ||f|| ||g|| with the closed-form constant (tol 1e-10)")
def _suite_algebra_bound(rng, t: _Tracker, inject_bug: bool) -> None:
    scale = 0.45 if inject_bug else 1.0
    for name, group, w, s in _norm_fuzz_configs():
        f = _rand_complex(rng, group, 60)
        g = _rand_complex(rng, group, 60)
        sob_f = sobolev_norm_batch(w, s, dft_values(group, f))
        sob_g = sobolev_norm_batch(w, s, dft_values(group, g))
        sob_fg = sobolev_norm_batch(w, s, dft_values(group, f * g))
        d = algebra_constant(group, w, s) * scale
        slack = (d * sob_f * sob_g + _REL_TOL - sob_fg).min()
        t.add(float(slack), {"group": name, "weight": w.name, "s": s}, count=60)


@_suite("scale-monotonicity",
        "Sobolev norms grow with s; C(gamma,s) and the translation modulus shrink")
def _suite_scale_monotonicity(rng, t: _Tracker, inject_bug: bool) -> None:
    grid = S_GRID + (4.0,)
    for name in ZOO:
        group = parse_group(name)
        for w in weights_for(group):
            vals = _rand_complex(rng, group, 20)
            spec = dft_values(group, vals)
            norms = [sobolev_norm_batch(w, s, spec) for s in grid]
            for lo, hi in zip(norms, norms[1:]):
                t.add(float((hi - lo + 1e-12).min()), {"group": name, "weight": w.name}, 20)
            consts = [embedding_constant_sup(group, w, s) for s in grid]
            for hi_c, lo_c in zip(consts, consts[1:]):
                t.add(hi_c - lo_c + 1e-12, {"group": name, "weight": w.name, "kind": "C"})
            for _ in range(3):
                h_idx = int(rng.integers(0, group.order))

                h = element_at(group, h_idx)
                mods = [translation_modulus(group, w, s, h) for s in grid]
                for hi_m, lo_m in zip(mods, mods[1:]):
                    t.add(
                        hi_m - lo_m + 1e-12,
                        {"group": name, "weight": w.name, "shift": list(h)},
                    )


@_suite("translation-bound",
        "mean-square translation distance is controlled by the modulus C(h) (tol 1e-10)")
def _suite_translation_bound(rng, t: _Tracker, inject_bug: bool) -> None:
    for name in ZOO:
        group = parse_group(name)
        if group.order > 64:
            continue
        n = group.order
        perms = compose_indices(group, np.arange(n)[None, :], np.arange(n)[:, None])
        shifts = residue_grid(group).T  # row h_idx is element_at(group, h_idx)
        for w in weights_for(group):
            for s in S_GRID:
                vals = _rand_complex(rng, group, 20)
                spec = dft_values(group, vals)
                sob2 = sobolev_norm_batch(w, s, spec) ** 2
                # every shift at once: lhs[h, k] is trial k's distance at shift h
                diff = vals[:, perms]
                diff -= vals[:, None, :]
                dist = np.abs(diff)
                dist *= dist
                lhs = dist.sum(axis=2).T / n
                moduli = _translation_moduli(group, w, s, shifts)
                slacks = (moduli[:, None] * sob2 + _REL_TOL - lhs).min(axis=1)
                for h_idx, slack in enumerate(slacks):  # in h order: ties keep their witness
                    t.add(
                        float(slack),
                        {"group": name, "weight": w.name, "s": s, "shift_index": h_idx},
                        count=20,
                    )


@_suite("shift-angle-bound", "discrete shifts obey the torus-angle bound sup <= 2*pi*min(m,N-m)/N")
def _suite_shift_angle_bound(rng, t: _Tracker, inject_bug: bool) -> None:
    for name in ("Z16", "Z64"):
        group = parse_group(name)
        w = make_weight(group, "sym-euclid")
        for s in (0.5, 1.0, 2.0):
            for row in compactness_profile(group, w, s):
                if row.angle_bound is None:
                    continue
                t.require(row.within_bound)
                t.add(
                    row.angle_bound + 1e-12 - row.sup_ratio,
                    {"group": name, "s": s, "multiple": row.multiple},
                )


# ---------------------------------------------------------------------------
# operator suites
# ---------------------------------------------------------------------------

_OPERATOR_CONFIGS = (
    ("Z64", "sym-euclid", 0.5),
    ("Z64", "zero", 1.0),
    ("Z2xZ2xZ2xZ2xZ2xZ2", "sym-euclid", 1.0),
    ("Z2xZ2xZ2xZ2xZ2xZ2", "hamming", 1.0),
    ("Z12", "sym-euclid", 2.0),
    ("Z4", "pruefer:2", 0.25),
)


@_suite("linear-isometry",
        "domain norm of the linear solution equals the L2 norm of the data (tol 1e-10)")
def _suite_linear_isometry(rng, t: _Tracker, inject_bug: bool) -> None:
    for name, wname, c, group, w in _configs(_OPERATOR_CONFIGS):
        profile = build_multiplier(group, w, c)
        g = _rand_complex(rng, group, 100)
        spec = dft_values(group, g)
        sol_spec = -spec * profile.inverse
        dom = domain_norm_batch(profile, sol_spec)
        l2g = np.sqrt((np.abs(spec) ** 2).sum(axis=1))
        dev = np.abs(dom - l2g) / l2g
        t.add(float(_REL_TOL - dev.max()), {"group": name, "weight": wname, "c": c}, 100)


@_suite("linear-roundtrip",
        "solve/apply invert each other on representable frequencies; both are linear")
def _suite_linear_roundtrip(rng, t: _Tracker, inject_bug: bool) -> None:
    for name, wname, c, group, w in _configs(_OPERATOR_CONFIGS):
        profile = build_multiplier(group, w, c)
        g = _rand_complex(rng, group, 30)
        spec = dft_values(group, g)
        # solve then apply: -m * (-spec/m) recovers spec wherever m is finite
        applied = -profile.finite_values * (-spec * profile.inverse)
        dev = np.linalg.norm(applied - spec, axis=1) / np.linalg.norm(spec, axis=1)
        t.add(float(_REL_TOL - dev.max()), {"group": name, "weight": wname, "c": c}, 30)
        # apply then solve on band-limited u (kill frequencies with huge m)
        band = np.where(profile.log_values < 300.0, 1.0, 0.0)
        u_spec = dft_values(group, _rand_complex(rng, group, 30)) * band
        back = -(-profile.finite_values * u_spec) * profile.inverse
        dev2 = np.linalg.norm(back - u_spec, axis=1) / np.linalg.norm(u_spec, axis=1)
        t.add(float(_REL_TOL - dev2.max()), {"group": name, "weight": wname, "c": c}, 30)
        # linearity of the solve
        a, b = rng.standard_normal(2)
        lin = -(a * spec[0] + b * spec[1]) * profile.inverse
        parts = (-spec[0] * profile.inverse) * a + (-spec[1] * profile.inverse) * b
        dev3 = np.linalg.norm(lin - parts) / max(np.linalg.norm(lin), 1e-30)
        t.add(float(_REL_TOL - dev3), {"group": name, "weight": wname, "c": c})


@_suite("domain-embedding",
        "domain norm dominates every tested Sobolev norm (s <= 2); solutions are continuous")
def _suite_domain_embedding(rng, t: _Tracker, inject_bug: bool) -> None:
    for name, wname, c, group, w in _configs(_OPERATOR_CONFIGS):
        profile = build_multiplier(group, w, c)
        g = _rand_complex(rng, group, 40)
        spec = dft_values(group, g)
        sol_spec = -spec * profile.inverse
        dom = domain_norm_batch(profile, sol_spec)
        for s in S_GRID:
            sob = sobolev_norm_batch(w, s, sol_spec)
            t.add(
                float((dom + _REL_TOL - sob).min()),
                {"group": name, "weight": wname, "c": c, "s": s},
                40,
            )
        # continuity of solutions: sup|u| <= C(gamma,s) ||g||_L2 via the chain
        u_vals = idft_values(group, sol_spec)
        sup = np.abs(u_vals).max(axis=1)
        l2g = np.sqrt((np.abs(spec) ** 2).sum(axis=1))
        cs = embedding_constant_sup(group, w, 1.0)
        t.add(float((cs * l2g + _REL_TOL - sup).min()), {"group": name, "weight": wname}, 40)


@_suite("multiplier-monotonicity",
        "multiplier grows pointwise with c; solution L2 norms shrink with c")
def _suite_multiplier_monotonicity(rng, t: _Tracker, inject_bug: bool) -> None:
    cs = (0.1, 0.5, 1.0, 2.0)
    for name, wname in (("Z64", "sym-euclid"), ("Z12", "sym-euclid"), ("Z2xZ2xZ2", "hamming")):
        group = parse_group(name)
        w = make_weight(group, wname)
        profiles = [build_multiplier(group, w, c) for c in cs]
        for lo, hi in zip(profiles, profiles[1:]):
            t.add(float((hi.log_values - lo.log_values).min()) + 1e-15, {"group": name})
        g = _rand_complex(rng, group, 20)
        spec = dft_values(group, g)
        sols = [
            np.sqrt((np.abs(spec * p.inverse) ** 2).sum(axis=1)) for p in profiles
        ]
        for hi_n, lo_n in zip(sols, sols[1:]):
            t.add(float((hi_n - lo_n).min()) + 1e-15, {"group": name, "weight": wname}, 20)


# ---------------------------------------------------------------------------
# solver suites
# ---------------------------------------------------------------------------

_SOLVER_CONFIGS = (
    ("Z64", "sym-euclid", 1.0),
    ("Z2xZ2xZ2xZ2xZ2xZ2", "hamming", 1.0),
)

# For the affine one-step certificate the forcing is full-spectrum random, so
# every multiplier must stay inside float64 range: on Z64 that means c = 0.5
# (at c = 1 frequencies with gamma >= 28 carry data the solve cannot
# represent, and the residual honestly reports that loss).
_AFFINE_CONFIGS = (
    ("Z64", "sym-euclid", 0.5),
    ("Z2xZ2xZ2xZ2xZ2xZ2", "hamming", 1.0),
    ("Z12", "sym-euclid", 0.5),
)


@_suite("affine-exactness", "U = y + h solves in exactly one undamped step with residual <= 1e-12")
def _suite_affine_exactness(rng, t: _Tracker, inject_bug: bool) -> None:
    for name, wname, c, group, w in _configs(_AFFINE_CONFIGS):
        for trial in range(10):
            h = Signal(group, 0.1 * _rand_real(rng, group, 1)[0])
            nl = affine_nonlinearity(h)
            phi, rep = solve_nonlinear(nl, w, c, SolverConfig())
            direct = solve_linear(h, w, c)
            dev = np.linalg.norm(phi.values - direct.values) / max(
                np.linalg.norm(direct.values), 1e-30
            )
            t.require(rep.converged and rep.iterations == 1 and dev <= _REL_TOL)
            t.add(
                1e-12 - rep.final_residual_eq,
                {"group": name, "weight": wname, "c": c, "trial": trial},
            )


@_suite("quadratic-smalldata",
        "small forced quadratic problems converge inside the sized ball with certified residual")
def _suite_quadratic_smalldata(rng, t: _Tracker, inject_bug: bool) -> None:
    for name, wname, c, group, w in _configs(_SOLVER_CONFIGS):
        h = lowfreq_forcing(group, 0.01)
        nl = forced_power_nonlinearity(2, 0.1, h)
        phi, rep = solve_nonlinear(nl, w, c, SolverConfig())
        record = verify_solution(phi, nl, w, c, s=1.0)
        t.require(rep.converged and rep.iterations < 50 and rep.ball_respected
                  and rep.small_data_ok and record["all_ok"])
        t.add(_REL_TOL - rep.final_residual_eq, {"group": name, "weight": wname, "c": c})


@_suite("growth-conditions", "catalog growth certificates hold; a mislabeled exponent is detected")
def _suite_growth_conditions(rng, t: _Tracker, inject_bug: bool) -> None:
    group = parse_group("Z12")
    y_samples = [0.0, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0]
    h = Signal(group, _rand_real(rng, group, 1)[0])
    catalog = [
        affine_nonlinearity(h),
        power_nonlinearity(group, 2, 0.1),
        power_nonlinearity(group, 3, 0.5),
        forced_power_nonlinearity(2, 0.1, h),
    ]
    for nl in catalog:
        rep = check_growth_conditions(nl, y_samples)
        t.require(rep["ok"])
        worst = max(rep["worst_value_ratio"], rep["worst_derivative_ratio"])
        t.add(1.0 + 1e-12 - worst, {"nonlinearity": nl.name})
    # a deliberately mislabeled cubic must be caught
    bad = Nonlinearity(
        name="mislabeled-cubic",
        u_func=lambda y: y + y**3,
        du_func=lambda y: 3.0 * y**2,
        alpha=1.5,
        beta=0.5,
        c_growth=1.0,
        h=Signal(group, np.zeros(group.order)),
        f_env=Signal(group, np.zeros(group.order)),
    )
    rep = check_growth_conditions(bad, y_samples)
    t.require(not rep["ok"])
    t.add(rep["worst_value_ratio"] - 1.0, {"nonlinearity": "mislabeled-cubic-detected"})


@_suite("damping-neutrality", "a fixed point of the undamped map is fixed for every damping")
def _suite_damping_neutrality(rng, t: _Tracker, inject_bug: bool) -> None:
    group = parse_group("Z64")
    w = make_weight(group, "sym-euclid")
    h = lowfreq_forcing(group, 0.01)
    nl = forced_power_nonlinearity(2, 0.1, h)
    cfg = SolverConfig(theta=1.0, tol=1e-12)
    phi, rep = solve_nonlinear(nl, w, 1.0, cfg)
    t.require(rep.converged)
    for theta in (0.5, 0.25):
        step = picard_step(phi, nl, w, 1.0)
        damped = (1.0 - theta) * phi.values + theta * step.values
        drift = float(np.sqrt((np.abs(damped - phi.values) ** 2).sum() / group.order))
        t.add(1e-11 - drift, {"theta": theta})
        t.require(drift <= 1e-11)


def suite_names() -> list[str]:
    return list(_SUITES)


def run_checks(seed: int = 42, inject_bug: bool = False, only=None) -> dict:
    """Run the verification suites; deterministic for a fixed seed.

    ``only`` optionally restricts to a subset of suite names (the RNG
    streams of the remaining suites are unaffected by the filter).
    """
    if only is not None:
        unknown = set(only) - set(_SUITES)
        if unknown:
            raise ValueError(f"unknown suite names: {sorted(unknown)}")
    children = np.random.SeedSequence(seed).spawn(len(_SUITES))
    results = []
    for (name, (detail, suite)), child in zip(_SUITES.items(), children):
        if only is not None and name not in only:
            continue
        t = _Tracker()
        suite(np.random.default_rng(child), t, inject_bug)
        results.append(t.result(name, detail))
    return {
        "version": __version__,
        "seed": int(seed),
        "groups": list(ZOO),
        "all_passed": all(r["passed"] for r in results),
        "suites": results,
    }
