import math

import numpy as np
import pytest

from groupsobolev.group import parse_group
from groupsobolev.nonlinear import (
    Nonlinearity,
    SolverConfig,
    affine_nonlinearity,
    check_growth_conditions,
    eval_source,
    forced_power_nonlinearity,
    lowfreq_forcing,
    parse_nonlinearity,
    picard_step,
    power_nonlinearity,
    size_ball,
    solve_nonlinear,
    verify_solution,
)
from groupsobolev.sobolev import lp_norm, make_weight
from groupsobolev.spectral import Signal, dft_fast, dft_values
from groupsobolev.stringop import solve_linear


def _zero(group):
    return Signal(group, np.zeros(group.order))


# ---------------------------------------------------------------------------
# nonlinearity catalog
# ---------------------------------------------------------------------------

def test_eval_source_quadratic_constant_field():
    g = parse_group("Z8")
    nl = power_nonlinearity(g, 2, 0.3)
    u = Signal(g, np.full(8, 1.5))
    out = eval_source(nl, u)
    assert np.allclose(out.values, 0.3 * 1.5**2)


def test_eval_source_affine_is_forcing(rng):
    g = parse_group("Z8")
    h = Signal(g, rng.standard_normal(8))
    nl = affine_nonlinearity(h)
    u = Signal(g, rng.standard_normal(8))
    assert np.allclose(eval_source(nl, u).values, h.values)


def test_eval_source_rejects_complex_field():
    g = parse_group("Z8")
    nl = power_nonlinearity(g, 2, 0.3)
    u = Signal(g, np.full(8, 1.0 + 1e-3j))
    with pytest.raises(ValueError, match="imaginary"):
        eval_source(nl, u)


def test_nonlinearity_growth_data_validation():
    g = parse_group("Z4")
    z = _zero(g)
    with pytest.raises(ValueError):
        Nonlinearity("bad", lambda y: y, lambda y: y, 1.0, 0.0, 1.0, z, z)
    with pytest.raises(ValueError):
        Nonlinearity("bad", lambda y: y, lambda y: y, 2.0, 1.5, 1.0, z, z)
    with pytest.raises(ValueError):
        Nonlinearity("bad", lambda y: y, lambda y: y, 2.0, 1.0, 0.0, z, z)
    with pytest.raises(ValueError):
        Nonlinearity("bad", lambda y: y, lambda y: y, 2.0, 1.0, 1.0, z, _zero(parse_group("Z8")))


def test_power_nonlinearity_validation():
    g = parse_group("Z4")
    with pytest.raises(ValueError):
        power_nonlinearity(g, 1, 0.5)
    with pytest.raises(ValueError):
        power_nonlinearity(g, 2, -0.5)


def test_parse_nonlinearity():
    g = parse_group("Z8")
    h = lowfreq_forcing(g, 0.1)
    assert parse_nonlinearity("power:2,0.5", g).name == "power:2,0.5"
    # the name carries lam exactly, so a report identifies its coupling
    assert parse_nonlinearity("power:2,0.1234567", g).name == "power:2,0.1234567"
    forced = parse_nonlinearity("forced-power:2,0.1234567", g, h)
    assert forced.name == "forced-power:2,0.1234567"
    assert parse_nonlinearity("affine", g, h).name == "affine"
    assert parse_nonlinearity("forced-power:3,0.25", g, h).alpha == 3.0
    with pytest.raises(ValueError, match="forcing"):
        parse_nonlinearity("affine", g)
    with pytest.raises(ValueError, match="forcing"):
        parse_nonlinearity("forced-power:2,0.1", g)
    with pytest.raises(ValueError):
        parse_nonlinearity("power:1,0.5", g)
    with pytest.raises(ValueError):
        parse_nonlinearity("power:2", g)
    with pytest.raises(ValueError):
        parse_nonlinearity("gaussian", g)


def test_lowfreq_forcing_norm_and_reality():
    g = parse_group("Z64")
    h = lowfreq_forcing(g, 0.25)
    assert lp_norm(h, 2) == pytest.approx(0.25, rel=1e-12)
    assert np.isrealobj(h.values) or np.abs(h.values.imag).max() == 0.0


def test_lowfreq_forcing_refinement_consistent():
    # the same cosine packet lives at wavenumbers 1, 2, 3 on every Z_N
    ha = lowfreq_forcing(parse_group("Z64"), 0.01)
    hb = lowfreq_forcing(parse_group("Z128"), 0.01)
    fa = dft_fast(ha).values
    fb = dft_fast(hb).values
    for k in (1, 2, 3):
        assert fa[k] == pytest.approx(fb[k], abs=1e-15)
        assert fa[64 - k] == pytest.approx(fb[128 - k], abs=1e-15)


def test_lowfreq_forcing_tiny_groups():
    g = parse_group("Z2")
    h = lowfreq_forcing(g, 1.0)
    assert lp_norm(h, 2) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        lowfreq_forcing(parse_group("Z1"), 1.0)
    with pytest.raises(ValueError):
        lowfreq_forcing(g, 0.0)


# ---------------------------------------------------------------------------
# fixed-point map
# ---------------------------------------------------------------------------

def test_picard_step_zero_source_gives_zero():
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    nl = power_nonlinearity(g, 2, 0.5)
    out = picard_step(_zero(g), nl, w, 0.5)
    assert np.allclose(out.values, 0.0, atol=1e-15)


def test_picard_step_affine_matches_linear_solve(rng):
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    h = Signal(g, rng.standard_normal(12))
    nl = affine_nonlinearity(h)
    out = picard_step(_zero(g), nl, w, 0.5)
    ref = solve_linear(h, w, 0.5)
    assert np.allclose(out.values, ref.values.real, atol=1e-12)


def test_affine_solves_in_one_step(rng):
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    h = Signal(g, rng.standard_normal(12))
    nl = affine_nonlinearity(h)
    phi, rep = solve_nonlinear(nl, w, 0.5, SolverConfig())
    assert rep.status == "converged"
    assert rep.iterations == 1
    assert rep.final_residual_eq <= 1e-12
    assert np.allclose(phi.values, solve_linear(h, w, 0.5).values.real, atol=1e-12)


def test_quadratic_small_data_converges():
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    h = lowfreq_forcing(g, 0.01)
    nl = forced_power_nonlinearity(2, 0.1, h)
    phi, rep = solve_nonlinear(nl, w, 1.0, SolverConfig())
    assert rep.converged and rep.status == "converged"
    assert rep.iterations < 50
    assert rep.final_residual_eq < 1e-10
    assert rep.ball_respected and rep.small_data_ok
    assert rep.norms["l2"] > 0.0
    check = verify_solution(phi, nl, w, 1.0, s=1.0)
    assert check["all_ok"]
    assert check["residual_eq"] < 1e-10


def test_damping_reaches_same_fixed_point():
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    h = lowfreq_forcing(g, 0.01)
    nl = forced_power_nonlinearity(2, 0.1, h)
    phi_full, rep_full = solve_nonlinear(nl, w, 0.5, SolverConfig(tol=1e-13))
    phi_half, rep_half = solve_nonlinear(nl, w, 0.5, SolverConfig(theta=0.5, tol=1e-13))
    assert rep_full.converged and rep_half.converged
    assert np.allclose(phi_full.values, phi_half.values, atol=1e-11)
    assert rep_half.theta_used == 0.5


def test_max_iter_status():
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    nl = forced_power_nonlinearity(2, 0.1, lowfreq_forcing(g, 0.01))
    _, rep = solve_nonlinear(nl, w, 0.5, SolverConfig(tol=1e-30, max_iter=1))
    assert rep.status == "max_iter"
    assert not rep.converged
    assert rep.iterations == 1


def test_divergence_retries_then_reports():
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    nl = forced_power_nonlinearity(3, 5.0, lowfreq_forcing(g, 100.0))
    _, rep = solve_nonlinear(nl, w, 0.5, SolverConfig(max_iter=200))
    assert rep.status == "diverged"
    assert not rep.converged
    assert rep.theta_used == pytest.approx(0.25)  # two halvings from theta = 1
    assert not rep.small_data_ok  # the sizing rule rejects this forcing


@pytest.mark.parametrize("p, lam, scale, s, status", [
    (2, 0.1, 0.01, 1.5, "converged"),
    (3, 5.0, 100.0, 1.0, "diverged"),  # the certificate's norms are inf or overflowed
])
def test_report_certificate_is_verify_solution(p, lam, scale, s, status):
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    nl = forced_power_nonlinearity(p, lam, lowfreq_forcing(g, scale))
    cfg = SolverConfig(s=s)
    phi, rep = solve_nonlinear(nl, w, 0.5, cfg)
    assert rep.status == status
    check = verify_solution(phi, nl, w, 0.5, s=cfg.s)
    assert rep.final_residual_eq == check["residual_eq"]
    assert rep.norms["domain"] == check["domain_norm"]
    assert rep.norms["sup"] == check["sup_norm"]
    assert rep.continuity_constant == check["continuity_constant"]


@pytest.mark.parametrize("p, lam, scale, status", [
    (2, 0.1, 0.01, "converged"),
    (3, 5.0, 100.0, "diverged"),
])
def test_report_carries_its_verification(p, lam, scale, status):
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    nl = forced_power_nonlinearity(p, lam, lowfreq_forcing(g, scale))
    cfg = SolverConfig(tol=1e-11, s=1.5)
    phi, rep = solve_nonlinear(nl, w, 0.5, cfg)
    assert rep.status == status
    check = verify_solution(phi, nl, w, 0.5, s=cfg.s, residual_tol=10 * cfg.tol)
    assert rep.verification.keys() == check.keys()
    for key, value in check.items():
        assert rep.verification[key] == value, key
    assert "verification" not in rep.as_dict()


def test_solver_leaves_initial_untouched():
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    nl = forced_power_nonlinearity(2, 0.1, lowfreq_forcing(g, 0.01))
    initial = _zero(g)
    _, rep = solve_nonlinear(nl, w, 0.5, SolverConfig(initial=initial))
    assert rep.converged
    assert initial.exact_dual is None
    assert np.array_equal(initial.values, np.zeros(12))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(theta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(theta=1.5)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon_ball=-1.0)


def test_weight_group_mismatch_rejected():
    g = parse_group("Z12")
    w = make_weight(parse_group("Z8"), "sym-euclid")
    nl = power_nonlinearity(g, 2, 0.5)
    with pytest.raises(ValueError):
        solve_nonlinear(nl, w, 0.5, SolverConfig())


# ---------------------------------------------------------------------------
# ball sizing / certificates
# ---------------------------------------------------------------------------

def test_size_ball_unforced():
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    nl = power_nonlinearity(g, 2, 0.5)
    ball = size_ball(g, w, 1.0, nl)
    assert ball["ok"]
    assert 0.0 < ball["epsilon"] < math.inf
    assert ball["delta"] == 1.25  # smallest admissible exponent on this dual
    # s sits inside the admissible window (delta - delta/alpha, delta)
    assert ball["delta"] - ball["delta"] / nl.alpha < ball["s_embed"] < ball["delta"]


def test_size_ball_small_forcing_shrinks_eps():
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    free = size_ball(g, w, 1.0, power_nonlinearity(g, 2, 0.1))
    forced = size_ball(
        g, w, 1.0, forced_power_nonlinearity(2, 0.1, lowfreq_forcing(g, 0.001))
    )
    assert forced["ok"]
    assert forced["epsilon"] < free["epsilon"]
    # the forced radius still absorbs the map: D'(||h||^2 + eps^{2a}) <= eps^2
    dp = forced["contraction_coeff"]
    eps = forced["epsilon"]
    assert dp * (0.001**2 + eps**4) <= eps**2 * (1.0 + 1e-9)


def test_size_ball_rejects_large_forcing():
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    nl = forced_power_nonlinearity(2, 1.0, lowfreq_forcing(g, 1e6))
    ball = size_ball(g, w, 1.0, nl)
    assert not ball["ok"]
    assert math.isinf(ball["epsilon"])


def test_verify_solution_affine(rng):
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    h = Signal(g, rng.standard_normal(12))
    phi = solve_linear(h, w, 0.5)  # carries its exact dual representation
    check = verify_solution(phi, affine_nonlinearity(h), w, 0.5, s=1.0)
    assert check["all_ok"]
    assert check["residual_eq"] <= 1e-12
    assert check["sup_norm"] <= check["continuity_constant"] * check["sobolev_norm"] + 1e-10


def test_growth_conditions_catalog():
    g = parse_group("Z12")
    ys = (-4.0, -1.0, -0.1, 0.0, 0.1, 1.0, 4.0)
    h = lowfreq_forcing(g, 0.5)
    for nl in (
        affine_nonlinearity(h),
        power_nonlinearity(g, 2, 0.5),
        power_nonlinearity(g, 3, 0.5),
        forced_power_nonlinearity(2, 0.1, h),
    ):
        rep = check_growth_conditions(nl, ys)
        assert rep["ok"], (nl.name, rep)
        assert rep["worst_value_ratio"] <= 1.0 + 1e-12
        assert rep["worst_derivative_ratio"] <= 1.0 + 1e-12


def test_growth_conditions_detect_mislabeled_exponent():
    # a cubic claiming alpha = 1.5 fails the value inequality at large y
    g = parse_group("Z4")
    z = _zero(g)
    bad = Nonlinearity(
        name="mislabeled",
        u_func=lambda y: y + 0.5 * y**3,
        du_func=lambda y: 1.0 + 1.5 * y**2,
        alpha=1.5,
        beta=0.5,
        c_growth=1.5,
        h=z,
        f_env=z,
    )
    rep = check_growth_conditions(bad, (-4.0, -1.0, 0.0, 1.0, 4.0))
    assert not rep["ok"]
    assert rep["worst_value_ratio"] > 1.0


def test_growth_conditions_need_samples():
    g = parse_group("Z4")
    nl = power_nonlinearity(g, 2, 0.5)
    with pytest.raises(ValueError):
        check_growth_conditions(nl, [])
