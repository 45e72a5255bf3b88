"""End-to-end acceptance runs for the package's headline guarantees.

Every test prints a single ``ACCEPTANCE <n> PASS/FAIL`` line (to the real
stdout, so the lines survive pytest's capture) and then asserts.  The
criteria are deliberately heavyweight -- thousands of randomized trials at
tight tolerances -- so each one carries its own seeded generator and, where
stated, a wall-clock budget.  Slack is bound minus value, as in ``check``;
a violation is a trial whose value exceeds its bound by more than 1e-10.
"""
import json
import math
import time

import numpy as np

from groupsobolev.checks import run_checks
from groupsobolev.group import character_table, compose_indices, element_at, parse_group
from groupsobolev.nonlinear import (
    SolverConfig,
    affine_nonlinearity,
    forced_power_nonlinearity,
    lowfreq_forcing,
    solve_nonlinear,
    verify_solution,
)
from groupsobolev.sobolev import (
    algebra_constant,
    compactness_profile,
    embedding_constant_lalpha,
    embedding_constant_sup,
    lp_norm,
    make_weight,
    sobolev_norm_batch,
    translation_modulus,
)
from groupsobolev.spectral import Signal, dft_fast, dft_naive, dft_values, idft
from groupsobolev.stringop import apply_operator, domain_norm, solve_linear

ZOO = ("Z2", "Z3", "Z4", "Z5", "Z8", "Z12", "Z16", "Z2xZ3", "Z2xZ2xZ2", "Z4xZ6")

NORM_CONFIGS = (
    ("Z64", "sym-euclid"),
    ("Z2xZ2xZ2xZ2xZ2xZ2", "hamming"),
    ("Z16", "pruefer:2"),
    ("Z12", "sym-euclid"),
)

S_GRID = (0.0, 0.5, 1.0, 2.0)


def _batch_spectra(group, values):
    """Forward transform of row signals straight from the definition."""
    table = character_table(group)
    return values @ np.conj(table).T / group.order


def _tally(worst_excess: float, violations: int, excess: np.ndarray) -> tuple[float, int]:
    """Fold one batch of value - bound into the worst excess and the count
    of violations."""
    return max(worst_excess, float(excess.max())), violations + int((excess > 1e-10).sum())


def _slack(worst_excess: float) -> float:
    """Worst slack, bound minus value; written 0 - x so that a zero prints as 0."""
    return 0.0 - worst_excess


def _default_alphas(s: float) -> list[float]:
    return [a for a in sorted({s + 0.5, 2.0 * s + 1.0, 4.0}) if a >= 1.0 and a > s]


def test_criterion_01_transform_agreement(acceptance_report):
    t0 = time.monotonic()
    rng = np.random.default_rng(52001)
    worst = 0.0
    for name in ZOO:
        group = parse_group(name)
        n = group.order
        for _ in range(8):
            f = Signal(group, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            fast = dft_fast(f)
            naive = dft_naive(f)
            scale = np.linalg.norm(naive.values)
            worst = max(worst, np.linalg.norm(fast.values - naive.values) / scale)
            back = idft(fast)
            worst = max(worst, np.linalg.norm(back.values - f.values)
                        / np.linalg.norm(f.values))
            plancherel = abs(lp_norm(f, 2) - np.linalg.norm(fast.values))
            worst = max(worst, plancherel / np.linalg.norm(fast.values))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    assert acceptance_report(1, ok, f"transform oracle/inverse/Plancherel: worst rel dev "
                          f"{worst:.3e} over {len(ZOO)} groups in {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_embedding_inequalities(acceptance_report):
    t0 = time.monotonic()
    rng = np.random.default_rng(52002)
    trials = 1000
    worst_excess, violations = -math.inf, 0
    checked = 0
    for name, wname in NORM_CONFIGS:
        group = parse_group(name)
        w = make_weight(group, wname)
        n = group.order
        values = rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
        spectra = _batch_spectra(group, values)
        l2 = np.sqrt((np.abs(values) ** 2).mean(axis=1))
        sup = np.abs(values).max(axis=1)
        for s in S_GRID:
            sob = sobolev_norm_batch(w, s, spectra)
            c_sup = embedding_constant_sup(group, w, s)
            worst_excess, violations = _tally(worst_excess, violations, l2 - sob)
            worst_excess, violations = _tally(worst_excess, violations, sup - c_sup * sob)
            checked += 2 * trials
            for alpha in _default_alphas(s):
                emb = embedding_constant_lalpha(group, w, s, alpha)
                astar = emb["alpha_star"]
                lal = (np.abs(values) ** astar).mean(axis=1) ** (1.0 / astar)
                worst_excess, violations = _tally(
                    worst_excess, violations, lal - emb["constant"] * sob)
                checked += trials
    elapsed = time.monotonic() - t0
    ok = worst_excess <= 1e-10 and elapsed < 60.0
    assert acceptance_report(2, ok, f"norm embeddings: {checked} inequality checks, "
                          f"{violations} violations (worst slack {_slack(worst_excess):.3e}) "
                          f"in {elapsed:.2f}s")
    assert worst_excess <= 1e-10
    assert elapsed < 60.0


def test_criterion_03_algebra_bound(acceptance_report):
    rng = np.random.default_rng(52003)
    trials = 1000
    worst_excess, violations = -math.inf, 0
    for name, wname in NORM_CONFIGS:
        group = parse_group(name)
        w = make_weight(group, wname)
        n = group.order
        f = rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
        g = rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
        spec_f = _batch_spectra(group, f)
        spec_g = _batch_spectra(group, g)
        spec_fg = _batch_spectra(group, f * g)
        for s in S_GRID:
            d = algebra_constant(group, w, s)
            lhs = sobolev_norm_batch(w, s, spec_fg)
            rhs = d * sobolev_norm_batch(w, s, spec_f) * sobolev_norm_batch(w, s, spec_g)
            worst_excess, violations = _tally(worst_excess, violations, lhs - rhs)
    ok = worst_excess <= 1e-10
    assert acceptance_report(3, ok, f"pointwise-product bound: {4 * len(S_GRID) * trials} pairs, "
                          f"{violations} violations (worst slack {_slack(worst_excess):.3e})")
    assert worst_excess <= 1e-10


def test_criterion_04_translation_bound(acceptance_report):
    rng = np.random.default_rng(52004)
    configs = (
        ("Z16", "sym-euclid"),
        ("Z64", "sym-euclid"),
        ("Z12", "sym-euclid"),
        ("Z4xZ6", "sym-euclid"),
        ("Z2xZ2xZ2", "hamming"),
    )
    worst_excess, violations = -math.inf, 0
    checked = 0
    for name, wname in configs:
        group = parse_group(name)
        w = make_weight(group, wname)
        n = group.order
        values = rng.standard_normal((100, n)) + 1j * rng.standard_normal((100, n))
        spectra = _batch_spectra(group, values)
        sob2 = sobolev_norm_batch(w, 1.0, spectra) ** 2
        for h_idx in range(n):  # exhaustive over every shift
            perm = compose_indices(group, np.arange(n), h_idx)
            dist2 = (np.abs(values[:, perm] - values) ** 2).mean(axis=1)
            bound = translation_modulus(group, w, 1.0, element_at(group, h_idx))
            worst_excess, violations = _tally(worst_excess, violations, dist2 - bound * sob2)
            checked += 100
    ok = worst_excess <= 1e-10
    assert acceptance_report(4, ok, f"translation continuity: {checked} exhaustive shift checks, "
                          f"{violations} violations (worst slack {_slack(worst_excess):.3e})")
    assert worst_excess <= 1e-10


def test_criterion_05_shift_angle_profile(acceptance_report):
    worst_gap = -math.inf
    rows_total = 0
    all_within = True
    for n in (16, 64, 256):
        group = parse_group(f"Z{n}")
        w = make_weight(group, "sym-euclid")
        for row in compactness_profile(group, w, 1.0):
            expected = 2.0 * math.pi * min(row.multiple, n - row.multiple) / n
            assert row.angle_bound == expected
            all_within = all_within and bool(row.within_bound)
            worst_gap = max(worst_gap, row.sup_ratio - expected)
            rows_total += 1
    ok = all_within and worst_gap <= 1e-12
    assert acceptance_report(5, ok, f"discrete-torus shift ratios within the angle bound: "
                          f"{rows_total} rows, worst excess {worst_gap:.3e}")
    assert ok


def test_criterion_06_solve_isometry(acceptance_report):
    rng = np.random.default_rng(52006)
    configs = (
        ("Z64", "sym-euclid", 0.5),
        ("Z2xZ2xZ2xZ2xZ2xZ2", "sym-euclid", 1.0),
        ("Z2xZ2xZ2xZ2xZ2xZ2", "hamming", 1.0),
    )
    trials = 1000
    worst_iso = 0.0
    worst_round = 0.0
    for name, wname, c in configs:
        group = parse_group(name)
        w = make_weight(group, wname)
        n = group.order
        for _ in range(trials):
            data = Signal(group, rng.standard_normal(n))
            u = solve_linear(data, w, c)
            l2 = lp_norm(data, 2)
            worst_iso = max(worst_iso, abs(domain_norm(u, w, c) - l2) / l2)
            back = apply_operator(u, w, c)
            worst_round = max(
                worst_round,
                float(np.linalg.norm(back.values - data.values)
                      / np.linalg.norm(data.values)),
            )
    ok = worst_iso <= 1e-10 and worst_round <= 1e-10
    assert acceptance_report(6, ok, f"linear solve: {len(configs) * trials} solves, isometry dev "
                          f"{worst_iso:.3e}, apply-back dev {worst_round:.3e}")
    assert worst_iso <= 1e-10
    assert worst_round <= 1e-10


def test_criterion_07_affine_one_step(acceptance_report):
    rng = np.random.default_rng(52007)
    worst_resid = 0.0
    one_step = True
    for name, c in (("Z12", 0.5), ("Z64", 0.5)):
        group = parse_group(name)
        w = make_weight(group, "sym-euclid")
        for _ in range(100):
            h = Signal(group, rng.standard_normal(group.order))
            _, rep = solve_nonlinear(affine_nonlinearity(h), w, c, SolverConfig())
            one_step = one_step and rep.converged and rep.iterations == 1
            worst_resid = max(worst_resid, rep.final_residual_eq)
    ok = one_step and worst_resid <= 1e-12
    assert acceptance_report(7, ok, f"affine fixed point in a single step: 200 solves, worst "
                          f"equation residual {worst_resid:.3e}")
    assert ok


def test_criterion_08_quadratic_small_data(acceptance_report):
    t0 = time.monotonic()
    results = []
    for name, wname in (("Z64", "sym-euclid"), ("Z2xZ2xZ2xZ2xZ2xZ2", "hamming")):
        group = parse_group(name)
        w = make_weight(group, wname)
        nl = forced_power_nonlinearity(2, 0.1, lowfreq_forcing(group, 0.01))
        phi, rep = solve_nonlinear(nl, w, 1.0, SolverConfig())
        record = verify_solution(phi, nl, w, 1.0, s=1.0)
        results.append((rep, record))
    elapsed = time.monotonic() - t0
    converged = all(rep.converged and rep.iterations < 50 for rep, _ in results)
    certified = all(rec["residual_eq"] < 1e-10 and rec["continuity_ok"]
                    and rec["all_ok"] for _, rec in results)
    worst = max(rec["residual_eq"] for _, rec in results)
    ok = converged and certified and elapsed < 5.0
    assert acceptance_report(8, ok, f"quadratic small-data solves: both configurations converged, "
                          f"worst residual {worst:.3e} in {elapsed:.2f}s")
    assert ok


def test_criterion_09_refinement_stability(acceptance_report):
    solutions = {}
    for n in (64, 128, 256):
        group = parse_group(f"Z{n}")
        w = make_weight(group, "sym-euclid")
        nl = forced_power_nonlinearity(2, 0.1, lowfreq_forcing(group, 0.01))
        phi, rep = solve_nonlinear(nl, w, 1.0, SolverConfig())
        assert rep.converged
        solutions[n] = dft_fast(phi).values
    worst = 0.0
    for a, b in ((64, 128), (128, 256)):
        fa, fb = solutions[a], solutions[b]
        for k in range(5):
            worst = max(worst, abs(fa[k] - fb[k]))
            if k:
                worst = max(worst, abs(fa[a - k] - fb[b - k]))
    ok = worst <= 1e-6
    assert acceptance_report(9, ok, f"refinement stability of low-frequency coefficients "
                          f"(Z64 -> Z128 -> Z256): worst gap {worst:.3e}")
    assert worst <= 1e-6


def test_criterion_10_reproducibility(acceptance_report):
    first = run_checks(seed=42)
    second = run_checks(seed=42)
    identical = json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    ok = identical and first["all_passed"]
    n = len(first["suites"])
    assert acceptance_report(10, ok, f"seeded verification: {n} suites all passed, two runs "
                           f"byte-identical={identical}")
    assert identical
    assert first["all_passed"]
