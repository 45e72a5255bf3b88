import dataclasses
import math

import numpy as np
import pytest

from groupsobolev.group import inverse_indices, parse_group
from groupsobolev.nonlinear import (
    _IMAG_TOL,
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
from groupsobolev.sobolev import (
    embedding_constant_lalpha,
    lp_norm,
    make_weight,
    weight_from_table,
)
from groupsobolev.spectral import Signal, dft_fast, dft_values, half_layout, idft_values
from groupsobolev.stringop import build_multiplier, domain_norm_batch, solve_linear


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
    for spec in ("power:2,inf", "forced-power:2,inf", "power:2,nan"):
        with pytest.raises(ValueError, match="finite and positive"):
            parse_nonlinearity(spec, g, h)
    with pytest.raises(ValueError):
        parse_nonlinearity("power:2", g)
    with pytest.raises(ValueError):
        parse_nonlinearity("gaussian", g)


@pytest.mark.parametrize("p", [2, 3, 4, 7, 31, 200000])
def test_powers_on_signed_input_match_long_double(p):
    if np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant:
        pytest.skip("long double is no wider than double here")
    lam = 0.5  # a power of two, so lam * y^p adds no rounding of its own
    mags = [0.0, 5e-324, 1e-310, 1e-200, 1e-3, 0.3, 0.99999, 1.00002, 1.7, 3.25, 1e5,
            1e100, 1e300]
    y = np.array(mags + [-m for m in mags])
    g = parse_group(f"Z{y.size}")
    h = Signal(g, np.full(y.size, -0.0))  # adds nothing, and keeps the sign of -0.0
    yl = y.astype(np.longdouble)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        # (1st term, 2nd term) of u = y + lam y^p and du = 1 + p lam y^(p-1)
        terms = ((yl, np.longdouble(lam) * yl**p),
                 (np.ones_like(yl), np.longdouble(p * lam) * yl ** (p - 1)))
        refs = [(a + b).astype(np.float64) for a, b in terms]
    # where the two terms nearly cancel, the sum's rounding, not the power's,
    # sets the error; those points carry no information here
    keep = [(np.sign(a) == np.sign(b)) | (np.abs(b) <= np.abs(a) / 4) | (np.abs(b) >= 4 * np.abs(a))
            for a, b in terms]
    for nl in (power_nonlinearity(g, p, lam), forced_power_nonlinearity(p, lam, h)):
        with np.errstate(over="ignore"):
            got = (nl.u_func(y), nl.du_func(y))
        for value, ref, ok in zip(got, refs, keep):
            assert ok.sum() >= y.size - 6
            value, ref = value[ok], ref[ok]
            assert np.array_equal(np.signbit(value), np.signbit(ref)), (nl.name, y[ok])
            assert np.array_equal(np.isinf(value), np.isinf(ref)), (nl.name, y[ok])
            finite = np.isfinite(ref)
            ulps = np.abs(value[finite] - ref[finite]) / np.spacing(np.abs(ref[finite]))
            assert ulps.max() <= 2.0, (nl.name, y[ok][finite][np.argmax(ulps)])


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


def test_picard_step_evaluates_u_once_and_keeps_the_real_field_check():
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    base = forced_power_nonlinearity(2, 0.1, lowfreq_forcing(g, 0.01))
    calls = []
    nl = dataclasses.replace(base, u_func=lambda y: calls.append(y) or base.u_func(y))
    out = picard_step(_zero(g), nl, w, 0.5)
    assert len(calls) == 1
    assert np.array_equal(out.values, picard_step(_zero(g), base, w, 0.5).values)
    with pytest.raises(ValueError, match="imaginary"):
        picard_step(Signal(g, np.full(12, 1e-6j)), nl, w, 0.5)
    assert len(calls) == 1


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


def test_growth_outside_the_ball_diverges_and_halves_theta():
    # a finite iterate that leaves a prescribed ball while its update grows
    # for 10 steps in a row: no restart goes through a non-finite source
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    nl = forced_power_nonlinearity(2, 1.0, lowfreq_forcing(g, 1.0))
    phi, rep = solve_nonlinear(nl, w, 0.25, SolverConfig(epsilon_ball=0.1))
    assert rep.status == "diverged" and rep.theta_used == 0.25
    assert not rep.ball_respected
    assert rep.iterations == 32
    tail = rep.residual_history[-11:]
    assert all(later > earlier for earlier, later in zip(tail, tail[1:]))
    assert np.isfinite(phi.values).all()
    _, rep = solve_nonlinear(nl, w, 0.25, SolverConfig(epsilon_ball=0.1, theta=0.5))
    assert rep.status == "diverged" and rep.theta_used == 0.125


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


def test_damped_solve_from_sampled_initial_keeps_a_finite_residual():
    # an initial given by its samples, as read from a file, carries their
    # rounding noise where m is huge; a damped solve must not keep it
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    h = Signal(g, 0.2 * np.cos(2 * np.pi * np.arange(64) / 64))
    nl = forced_power_nonlinearity(2, 0.5, h)
    start, _ = solve_nonlinear(nl, w, 1.0, SolverConfig())
    initial = Signal(g, start.values)
    ref, _ = solve_nonlinear(nl, w, 1.0, SolverConfig(initial=initial, theta=1.0))
    cfg = SolverConfig(initial=initial, theta=0.7)
    phi, rep = solve_nonlinear(nl, w, 1.0, cfg)
    assert rep.converged
    assert rep.final_residual_eq <= 10 * cfg.tol
    assert lp_norm(Signal(g, phi.values - ref.values), 2) <= cfg.tol


@pytest.fixture
def transform_count(monkeypatch):
    """Counts every forward and inverse transform from here on."""
    from groupsobolev import spectral

    calls = []
    real = spectral._transform_grid

    def counting(group, values, inverse, half=False):
        calls.append(inverse)
        return real(group, values, inverse, half=half)

    monkeypatch.setattr(spectral, "_transform_grid", counting)
    return calls


def _small_quadratic_problem():
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    return forced_power_nonlinearity(2, 0.1, lowfreq_forcing(g, 0.01)), w


def test_solve_transform_count(transform_count):
    nl, w = _small_quadratic_problem()
    cfg = SolverConfig()
    transform_count.clear()  # the forcing's synthesis
    _, rep = solve_nonlinear(nl, w, 1.0, cfg)
    # this solve stops on the update size: one forward transform of the
    # initial source, then per iteration one inverse and, but for the last,
    # one forward; and one inverse in the certificate
    k = rep.iterations
    assert rep.converged and k > 1 and rep.residual_history[-1] < cfg.tol
    assert len(transform_count) == 2 * k + 1


def test_certificate_makes_one_transform(transform_count):
    nl, w = _small_quadratic_problem()
    phi, _ = solve_nonlinear(nl, w, 1.0, SolverConfig())
    transform_count.clear()
    assert verify_solution(phi, nl, w, 1.0, s=1.0)["all_ok"]
    assert transform_count == [True]  # L phi's synthesis, from phi's own coefficients


def test_picard_step_makes_one_half_transform_each_way(transform_count, monkeypatch):
    from groupsobolev import spectral

    nl, w = _small_quadratic_problem()
    phi, _ = solve_nonlinear(nl, w, 1.0, SolverConfig())
    halves = []
    counting = spectral._transform_grid
    monkeypatch.setattr(spectral, "_transform_grid", lambda group, values, inverse, half=False:
                        halves.append(half) or counting(group, values, inverse, half=half))
    before = build_multiplier.cache_info()
    transform_count.clear()
    picard_step(phi, nl, w, 1.0)
    assert transform_count == [False, True] and halves == [True, True]
    assert build_multiplier.cache_info() == before  # no full-dual profile


@pytest.mark.parametrize("name, weight", [
    ("Z64", "sym-euclid"), ("Z6xZ10", "sym-euclid"), ("Z2xZ4xZ2xZ4", "sym-euclid"),
    ("Z2xZ2xZ2xZ2xZ2xZ2", "hamming"),
])
def test_picard_step_is_the_solvers_step(name, weight):
    # Z2xZ4xZ2xZ4 has no axis to halve; Z2^6 holds real coefficients
    g = parse_group(name)
    w = make_weight(g, weight)
    nl = forced_power_nonlinearity(2, 0.5, lowfreq_forcing(g, 0.1))
    u, _ = solve_nonlinear(nl, w, 0.5, SolverConfig(max_iter=2))
    step = picard_step(u, nl, w, 0.5)
    dual = step.exact_dual
    assert np.array_equal(dual[inverse_indices(g)], dual.conj())
    assert np.array_equal(step.values.imag, np.zeros(g.order))
    # one undamped iteration of the solver from u
    ref, rep = solve_nonlinear(nl, w, 0.5, SolverConfig(initial=u, max_iter=1))
    assert rep.iterations == 1
    assert np.array_equal(step.values, ref.values) and np.array_equal(dual, ref.exact_dual)


def test_an_initial_field_whose_coefficients_overflow_is_refused():
    # four finite samples of 1e308: their mean coefficient sums past float64
    g = parse_group("Z4")
    initial = Signal(g, np.full(g.order, 1e308))
    with pytest.raises(ValueError, match="^initial field is too large"):
        solve_nonlinear(power_nonlinearity(g, 2, 1.0), make_weight(g, "sym-euclid"), 1.0,
                        SolverConfig(initial=initial))


def test_solve_and_certificates_share_one_fixed_point_map():
    from groupsobolev.nonlinear import _plan

    nl, w = _small_quadratic_problem()
    before = _plan.cache_info().misses
    phi, rep = solve_nonlinear(nl, w, 1.0, SolverConfig())
    assert verify_solution(phi, nl, w, 1.0, s=1.0, residual_tol=1e-9) == rep.verification
    # the loop's plan serves its own certificate and the caller's
    assert _plan.cache_info().misses == before + 1


def test_plan_is_built_once_per_weight_and_c():
    from groupsobolev.nonlinear import _fixed_point_map, _plan

    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    before = _plan.cache_info().misses
    maps = []
    for scale in (0.01, 0.02):  # two forcings on one (weight, c)
        nl = forced_power_nonlinearity(2, 0.1, lowfreq_forcing(g, scale))
        phi, rep = solve_nonlinear(nl, w, 1.0, SolverConfig())
        assert verify_solution(phi, nl, w, 1.0, s=1.0, residual_tol=1e-9) == rep.verification
        maps.append(_fixed_point_map(nl, w, 1.0))
    assert _plan.cache_info().misses == before + 1
    assert maps[0] is maps[1]
    solve_nonlinear(nl, w, 0.5, SolverConfig())  # a new c
    assert _plan.cache_info().misses == before + 2
    solve_nonlinear(nl, make_weight(g, "sym-euclid"), 0.5, SolverConfig())  # a new weight
    assert _plan.cache_info().misses == before + 3


@pytest.mark.parametrize("name, weight", [
    ("Z4096", "sym-euclid"), ("Z4096", "pruefer:2"), ("Z64xZ64", "sym-euclid"),
    ("Z16xZ16xZ16", "sym-euclid"), ("x".join(["Z2"] * 12), "hamming"), ("Z257", "sym-euclid"),
])
def test_solver_certificate_is_verify_solution_on_the_benchmark_groups(name, weight):
    # the solver certifies its own coefficients and samples; a caller's
    # verify_solution takes them from the returned Signal: one record
    g = parse_group(name)
    w = make_weight(g, weight)
    for p in (2, 3):
        nl = forced_power_nonlinearity(p, 1.0, lowfreq_forcing(g, 0.1))
        phi, rep = solve_nonlinear(nl, w, 1.0, SolverConfig())
        assert rep.converged
        assert verify_solution(phi, nl, w, 1.0, s=1.0, residual_tol=1e-9) == rep.verification


@pytest.mark.parametrize("name, weight", [
    ("Z64", "sym-euclid"), ("Z257", "sym-euclid"), ("Z6xZ10", "sym-euclid"),
    ("Z5xZ2xZ2xZ7", "sym-euclid"), ("Z2xZ4xZ2xZ4", "sym-euclid"),
    ("Z2xZ2xZ2xZ2xZ2xZ2", "hamming"),
])
def test_certificate_sobolev_norm_on_the_half_layout_is_the_full_dual_one(name, weight, rng):
    # the certificate sums (1 + gamma^2)^(s/2) a over the half layout, each
    # entry counted twice but those whose partners are stored too
    from groupsobolev.sobolev import sobolev_norm_batch

    g = parse_group(name)
    w = make_weight(g, weight)
    nl = power_nonlinearity(g, 2, 0.5)
    for _ in range(5):
        y = rng.standard_normal(g.order) * 10.0 ** rng.uniform(-5, 5)
        dual = half_layout(g).expand(dft_values(g, y, half=True))  # exactly Hermitian
        for s in (0.0, 1.0, 2.5):
            got = verify_solution(Signal(g, y, exact_dual=dual), nl, w, 1.0, s=s)["sobolev_norm"]
            assert got == pytest.approx(float(sobolev_norm_batch(w, s, dual)), rel=1e-15, abs=0.0)


def test_certificate_of_a_real_phi_reads_its_sup_from_the_real_parts(rng):
    # |x + 0j| is |x|: the real parts' sup is the complex sup, bit for bit
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    nl = forced_power_nonlinearity(2, 0.5, lowfreq_forcing(g, 0.1))
    phi, rep = solve_nonlinear(nl, w, 1.0, SolverConfig())
    fields = [phi, Signal(g, rng.standard_normal(64) * 1e300), Signal(g, -rng.random(64) * 1e-300),
              Signal(g, np.full(64, -0.0))]
    for u in fields:
        assert not u.values.imag.any()
        assert verify_solution(u, nl, w, 1.0, s=1.0)["sup_norm"] == float(np.abs(u.values).max())
    assert rep.verification["sup_norm"] == float(np.abs(phi.values).max())


def _full_dual_picard(nl, w, c, tol):
    """The undamped Picard loop of solve_nonlinear, built from public pieces
    on the full dual with complex coefficients: a = -F(V(y)) / m, projected
    onto Hermitian coefficients, and y its real synthesis."""
    g = nl.group
    profile = build_multiplier(g, w, c)
    inv = inverse_indices(g)
    a, y = np.zeros(g.order, dtype=complex), np.zeros(g.order)
    v_hat = dft_values(g, nl.u_func(y) - y)
    for k in range(1, 501):
        raw = -v_hat * profile.inverse
        a = 0.5 * (raw + raw[inv].conj())
        y_new = idft_values(g, a).real
        diff = math.sqrt(((y_new - y) ** 2).mean())
        y = y_new
        if diff < tol:
            return a, y, k
        v_hat = dft_values(g, nl.u_func(y) - y)
        if np.linalg.norm(profile.values * a + v_hat) < tol:
            return a, y, k
    raise AssertionError("the full-dual loop did not converge")


@pytest.mark.parametrize("c, lam", [(0.5, 1.0), (1.0, 2.0)])
def test_real_layout_solve_matches_the_full_dual_map(c, lam):
    # Z2^12 hamming is solved on real float64 coefficients; the complex
    # arithmetic on the full dual reaches the same phi in as many steps
    from groupsobolev.nonlinear import _fixed_point_map

    g = parse_group("x".join(["Z2"] * 12))
    w = make_weight(g, "hamming")
    nl = forced_power_nonlinearity(2, lam, lowfreq_forcing(g, 0.2))
    cfg = SolverConfig()
    phi, rep = solve_nonlinear(nl, w, c, cfg)
    fmap = _fixed_point_map(nl, w, c)
    assert fmap.layout.real
    assert fmap.samples(fmap.layout.gather(phi.exact_dual)).dtype == np.float64
    a, y, k = _full_dual_picard(nl, w, c, cfg.tol)
    assert rep.converged and rep.iterations == k > 3
    assert np.linalg.norm(phi.values - y) <= 1e-14 * np.linalg.norm(y)
    assert np.linalg.norm(phi.exact_dual - a) <= 1e-14 * np.linalg.norm(a)


def test_half_map_builds_its_profile_on_the_half_layout():
    # neither the solve nor its certificate builds the full-dual profile;
    # the map's arrays hold exactly the full one's entries on the half layout
    from groupsobolev.nonlinear import _fixed_point_map

    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    nl = forced_power_nonlinearity(2, 0.5, lowfreq_forcing(g, 0.1))
    build_multiplier(g, make_weight(g, "zero"), 1.0)  # another weight in the cache
    before = build_multiplier.cache_info()
    phi, rep = solve_nonlinear(nl, w, 1.0, SolverConfig())
    assert rep.converged
    assert build_multiplier.cache_info() == before
    fmap = _fixed_point_map(nl, w, 1.0)
    full = build_multiplier(g, w, 1.0)
    layout = half_layout(g)
    assert full.overflow_count > 0 and fmap.overflow.size > 0
    for name, want in (("log_values", full.log_values), ("finite_values", full.finite_values),
                       ("neg_inverse", -full.inverse)):
        assert np.array_equal(getattr(fmap, name), layout.gather(want))
    for arr in (fmap.log_values, fmap.overflow, fmap.finite_values, fmap.neg_inverse):
        assert not arr.flags.writeable
    assert np.array_equal(fmap.overflow, np.flatnonzero(np.isinf(layout.gather(full.values))))


def test_half_map_holds_one_array_per_fact():
    # log m, the overflowed entries, m with zeros there and -1/m, next to the
    # weight and the layout: no profile, and no m with inf or 1/m, which no
    # application of the map reads
    from groupsobolev.nonlinear import _fixed_point_map
    from groupsobolev.stringop import MultiplierProfile

    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    fmap = _fixed_point_map(forced_power_nonlinearity(2, 0.5, lowfreq_forcing(g, 0.1)), w, 1.0)
    names = [f.name for f in dataclasses.fields(fmap)]
    assert names == ["weight", "layout", "log_values", "overflow", "finite_values", "neg_inverse"]
    assert not any(isinstance(getattr(fmap, name), MultiplierProfile) for name in names)
    assert not hasattr(fmap, "values") and not hasattr(fmap, "inverse")


def _arrays_held(obj):
    """Every ndarray that obj's dataclass fields hold, directly or through a
    field that is itself a dataclass; the weight and the layout are shared
    with the rest of the package and left out."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.name in ("weight", "layout"):
            continue
        if isinstance(value, np.ndarray):
            yield value
        elif dataclasses.is_dataclass(value):
            yield from _arrays_held(value)


def test_benchmark_sweep_maps_hold_three_layout_arrays():
    # the c-grid of the benchmark's sweep on Z128xZ128: each cached map holds
    # three float arrays of the layout's size (log m, m with zeros where it
    # overflows, -1/m) and the overflow list
    from groupsobolev.nonlinear import _fixed_point_map

    g = parse_group("Z128xZ128")
    w = make_weight(g, "sym-euclid")
    nl = forced_power_nonlinearity(2, 1.0, lowfreq_forcing(g, 0.1))
    size = half_layout(g).size
    for c in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0):
        fmap = _fixed_point_map(nl, w, c)
        floats = [a for a in _arrays_held(fmap) if a.dtype.kind == "f"]
        assert len(floats) == 3 and all(a.shape == (size,) for a in floats)
        assert sum(a.nbytes for a in floats) == 3 * 8 * size
        others = [a for a in _arrays_held(fmap) if a.dtype.kind != "f"]
        assert len(others) == 1 and others[0] is fmap.overflow


@pytest.mark.parametrize("coeff", [1e-170, 1e-200])
def test_certificate_domain_norm_of_a_tiny_field(coeff):
    # the squares of m a are below the smallest float64: the certificate
    # must sum them again scaled rather than read 0
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    nl = forced_power_nonlinearity(2, 0.5, lowfreq_forcing(g, 0.1))
    dual = np.zeros(64, dtype=complex)
    dual[[1, 63]] = coeff
    phi = Signal(g, idft_values(g, dual).real, exact_dual=dual)
    rec = verify_solution(phi, nl, w, 0.5, s=1.0)
    want = math.sqrt(2.0) * coeff * (1.0 + math.exp(0.5))
    assert rec["domain_norm"] == pytest.approx(want, rel=1e-14, abs=0.0)
    assert rec["sobolev_norm"] == pytest.approx(2.0 * coeff, rel=1e-14, abs=0.0)


def test_certificate_domain_norm_is_the_norm_of_m_a():
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    nl = forced_power_nonlinearity(2, 0.5, lowfreq_forcing(g, 0.1))
    phi, _ = solve_nonlinear(nl, w, 1.0, SolverConfig())
    profile = build_multiplier(g, w, 1.0)
    rec = verify_solution(phi, nl, w, 1.0, s=1.0)
    want = float(np.linalg.norm(profile.finite_values * phi.exact_dual))
    assert rec["domain_norm"] == pytest.approx(want, rel=1e-15)
    log_space = float(domain_norm_batch(profile, phi.exact_dual))
    assert rec["domain_norm"] == pytest.approx(log_space, rel=2e-15)
    # where the squares of m a overflow, they are summed again scaled by the
    # largest |m a|: on an entry counted twice (index 1, whose partner 63 is
    # not stored on the half layout) and on one counted once (index 0)
    for pair, want in (((1, 63), math.sqrt(2.0) * 1e200 * profile.values[1]), ((0,), 1e200)):
        dual = np.zeros(64, dtype=complex)
        dual[list(pair)] = 1e200
        big = Signal(g, idft_values(g, dual).real, exact_dual=dual)
        rec = verify_solution(big, nl, w, 1.0, s=1.0)
        assert rec["domain_norm"] == pytest.approx(want, rel=1e-15)
        assert rec["residual_eq"] == math.inf and not rec["all_ok"]


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


@pytest.mark.parametrize("kwargs, match", [
    ({"s": -1.0}, "smoothness exponent must be >= 0"),
    ({"s": math.nan}, "smoothness exponent must be >= 0"),
    ({"max_iter": 2.5}, "max_iter must be an integer >= 1"),
])
def test_solver_config_refuses_bad_s_and_max_iter(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SolverConfig(**kwargs)


def _z12_problem():
    g = parse_group("Z12")
    return make_weight(g, "sym-euclid"), forced_power_nonlinearity(2, 0.1, lowfreq_forcing(g, 0.01))


@pytest.mark.parametrize("other", ["Z3xZ4", "Z8"])
def test_picard_step_refuses_a_field_on_another_group(other):
    w, nl = _z12_problem()
    with pytest.raises(ValueError, match="field lives on a different group"):
        picard_step(_zero(parse_group(other)), nl, w, 0.5)


@pytest.mark.parametrize("other", ["Z3xZ4", "Z8"])
def test_eval_source_refuses_a_field_on_another_group(other):
    _, nl = _z12_problem()
    with pytest.raises(ValueError, match="field lives on a different group"):
        eval_source(nl, _zero(parse_group(other)))


@pytest.mark.parametrize("other", ["Z3xZ4", "Z8"])
def test_solver_refuses_an_initial_field_on_another_group(other):
    w, nl = _z12_problem()
    with pytest.raises(ValueError, match="field lives on a different group"):
        solve_nonlinear(nl, w, 0.5, SolverConfig(initial=_zero(parse_group(other))))


def test_solver_refuses_a_complex_initial_field():
    # picard_step refuses this field too
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    nl = forced_power_nonlinearity(2, 0.1, lowfreq_forcing(g, 0.01))
    initial = Signal(g, np.full(g.order, 1j))
    with pytest.raises(ValueError, match="imaginary"):
        solve_nonlinear(nl, w, 0.5, SolverConfig(initial=initial))


def test_size_ball_refuses_a_nonlinearity_on_another_group():
    g = parse_group("Z3xZ4")
    _, nl = _z12_problem()
    with pytest.raises(ValueError, match="nonlinearity lives on a different group"):
        size_ball(g, make_weight(g, "sym-euclid"), 0.5, nl)


def test_weight_group_mismatch_rejected():
    g = parse_group("Z12")
    w = make_weight(parse_group("Z8"), "sym-euclid")
    nl = power_nonlinearity(g, 2, 0.5)
    with pytest.raises(ValueError):
        solve_nonlinear(nl, w, 0.5, SolverConfig())


def test_every_application_of_the_map_refuses_an_asymmetric_weight():
    # the half layout holds gamma on one entry of each pair xi, xi^-1 only
    from groupsobolev.nonlinear import _plan

    g = parse_group("Z12")
    w = weight_from_table(g, _ASYMMETRIC, 8.0)
    nl = forced_power_nonlinearity(2, 0.1, lowfreq_forcing(g, 0.01))
    before = _plan.cache_info()
    for apply in (lambda: solve_nonlinear(nl, w, 0.5, SolverConfig()),
                  lambda: picard_step(_zero(g), nl, w, 0.5),
                  lambda: verify_solution(_zero(g), nl, w, 0.5, s=1.0)):
        with pytest.raises(ValueError, match="symmetric under xi -> xi"):
            apply()
    assert _plan.cache_info() == before  # refused before a map is built


# ---------------------------------------------------------------------------
# ball sizing / certificates
# ---------------------------------------------------------------------------

def _interpolated(inverse_max, inverse_l2, alpha):
    """E = max(1/m)^(1/alpha) * ||1/m||_l2^(1 - 1/alpha)."""
    return inverse_max ** (1.0 / alpha) * inverse_l2 ** (1.0 - 1.0 / alpha)


def test_size_ball_unforced():
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    nl = power_nonlinearity(g, 2, 0.5)
    ball = size_ball(g, w, 1.0, nl)
    assert ball["ok"]
    assert 0.0 < ball["epsilon"] < math.inf
    # m(0) = 1 is the least multiplier, so E = ||1/m||_l2^(1 - 1/alpha)
    inverse = np.exp(-build_multiplier(g, w, 1.0).log_values)
    assert inverse.max() == 1.0
    assert ball["embedding_const"] == pytest.approx(np.linalg.norm(inverse) ** 0.5, rel=1e-15)
    # without forcing the radius is the minimizer eps* = (alpha D')^(-1/(2 alpha - 2))
    assert ball["epsilon"] == pytest.approx((2.0 * ball["contraction_coeff"]) ** -0.5,
                                             rel=1e-15)


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


def _growth_only(group, c_growth, h):
    """A nonlinearity whose growth data alone drives size_ball."""
    return Nonlinearity("growth-only", lambda y: y, np.ones_like, 2.0, 1.0, c_growth, h,
                        _zero(group))


def test_size_ball_extreme_couplings():
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    h = lowfreq_forcing(g, 0.1)
    # D' = 2 C^2 E^2 underflows to 0: every ball is invariant
    for forcing in (_zero(g), h):
        ball = size_ball(g, w, 1.0, _growth_only(g, 1e-200, forcing))
        assert ball["contraction_coeff"] == 0.0
        assert ball["ok"] and ball["epsilon"] == math.inf
    # C^2 overflows: D' reads inf and no ball is certified
    ball = size_ball(g, w, 1.0, _growth_only(g, 1e300, h))
    assert ball["contraction_coeff"] == math.inf
    assert not ball["ok"] and ball["epsilon"] == math.inf
    # eps* ~ 1e99, where eps*^(2 alpha) overflows: a finite invariant ball
    ball = size_ball(g, w, 1.0, _growth_only(g, 1e-100, h))
    eps, d_prime = ball["epsilon"], ball["contraction_coeff"]
    assert ball["ok"] and 0.0 < eps <= 2 * math.sqrt(d_prime) * 0.1
    assert d_prime * (0.01 + eps**2 * eps**2) <= eps**2  # ||h||_2 = 0.1


def test_weight_constants_computed_once_per_weight():
    from groupsobolev.sobolev import _inverse_power_sum

    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    nl = power_nonlinearity(g, 2, 0.5)
    solve_nonlinear(nl, w, 0.5, SolverConfig())
    before = _inverse_power_sum.cache_info()
    for c in (0.75, 1.0, 1.25, 1.5):  # a sweep over c
        solve_nonlinear(nl, w, c, SolverConfig())
    after = _inverse_power_sum.cache_info()
    # the certificate's continuity constant sums over the dual once per weight
    assert after.misses == before.misses and after.hits == before.hits + 4


# An asymmetric table, gamma(xi) != gamma(xi^-1); the radii pinned are those
# of the norms of 1/m taken over the whole dual.
_ASYMMETRIC = [0.0, 0.05, 0.2, 0.35, 0.1, 0.5, 0.6, 0.45, 0.1, 0.3, 0.2, 0.15]
_ASYMMETRIC_BALLS = {
    (0.25, 2): ("0x1.4b687c72c6e57p-8", "0x1.c98c2ec5cc40ep+0"),
    (0.25, 3): ("0x1.2d8acbda18f8ep-7", "0x1.15a2267403165p+1"),
    (2.0, 2): ("0x1.477aaefea8848p-8", "0x1.c421511cec28cp+0"),
    (2.0, 3): ("0x1.28ca89e32f7b7p-7", "0x1.11425459fb566p+1"),
}


def test_size_ball_over_distinct_gammas_is_bit_identical():
    g = parse_group("Z12")
    w = weight_from_table(g, _ASYMMETRIC, 8.0)
    h = lowfreq_forcing(g, 1e-3)
    for (c, p), (eps, e_const) in _ASYMMETRIC_BALLS.items():
        ball = size_ball(g, w, c, forced_power_nonlinearity(p, 1.0, h))
        assert ball["epsilon"] == float.fromhex(eps)
        assert ball["embedding_const"] == float.fromhex(e_const)
        inverse = np.exp(-build_multiplier(g, w, c).log_values)
        assert ball["embedding_const"] == pytest.approx(
            _interpolated(inverse.max(), np.linalg.norm(inverse), p), rel=1e-15)
    with pytest.raises(ValueError, match="different group"):
        size_ball(parse_group("Z6"), w, 1.0, power_nonlinearity(g, 2, 1.0))
    with pytest.raises(ValueError, match="positive"):
        size_ball(g, w, math.nan, power_nonlinearity(g, 2, 1.0))


def test_size_ball_on_an_asymmetric_weight_builds_no_map():
    # the solver refuses the weight, so its map would only be cached waste
    from groupsobolev.nonlinear import _plan

    g = parse_group("Z12")
    w = weight_from_table(g, _ASYMMETRIC, 8.0)
    before = _plan.cache_info()
    size_ball(g, w, 0.25, forced_power_nonlinearity(2, 1.0, lowfreq_forcing(g, 1e-3)))
    assert _plan.cache_info() == before


_Z2_12 = "x".join(["Z2"] * 12)
_SYMMETRIC_BALLS = {
    ("Z4096", "sym-euclid", 0.5, 2): ("0x1.8ae61e331b10dp-9", "0x1.10ae0be267fe5p+0"),
    ("Z4096", "sym-euclid", 0.5, 3): ("0x1.2e75974de31f9p-8", "0x1.167a598a24306p+0"),
    ("Z4096", "sym-euclid", 1.0, 2): ("0x1.7f7b1fe4da5fcp-9", "0x1.08cc0338ced19p+0"),
    ("Z4096", "sym-euclid", 1.0, 3): ("0x1.22db7fced3276p-8", "0x1.0bcbc036c8c76p+0"),
    ("Z4096", "pruefer:2", 0.5, 2): ("0x1.72d6b56a9d036p-9", "0x1.00118a6a5c47ap+0"),
    ("Z4096", "pruefer:2", 0.5, 3): ("0x1.16251a28ce7eep-8", "0x1.0017637cd9530p+0"),
    ("Z4096", "pruefer:2", 1.0, 2): ("0x1.72bdcbc51ce6cp-9", "0x1.00005723957d8p+0"),
    ("Z4096", "pruefer:2", 1.0, 3): ("0x1.160c313e6d3fep-8", "0x1.0000742f78941p+0"),
    (_Z2_12, "hamming", 0.5, 2): ("0x1.decf05f861bbap-9", "0x1.4a9aae7b3af7bp+0"),
    (_Z2_12, "hamming", 0.5, 3): ("0x1.87071250e7af0p-8", "0x1.680617b43150fp+0"),
    (_Z2_12, "hamming", 1.0, 2): ("0x1.b183531d39433p-9", "0x1.2b566888baf43p+0"),
    (_Z2_12, "hamming", 1.0, 3): ("0x1.56837a3890ad7p-8", "0x1.3b5b399e330a5p+0"),
    (_Z2_12, "hamming", 0.01, 2): ("0x1.50248449292b9p-8", "0x1.d013441a3295fp+0"),
    (_Z2_12, "hamming", 0.01, 3): ("0x1.334ab1b08fedep-7", "0x1.1aed574fc7d4fp+1"),
    ("Z64xZ64", "sym-euclid", 0.5, 2): ("0x1.a5a80527d0f42p-9", "0x1.23270562e6164p+0"),
    ("Z64xZ64", "sym-euclid", 0.5, 3): ("0x1.4a154e10693c1p-8", "0x1.2fe95c6aebc73p+0"),
    ("Z64xZ64", "sym-euclid", 1.0, 2): ("0x1.8c4ae2d879a44p-9", "0x1.11a45b18c2c89p+0"),
    ("Z64xZ64", "sym-euclid", 1.0, 3): ("0x1.2fe2156ef4d30p-8", "0x1.17c9f149c0685p+0"),
}


def test_size_ball_on_symmetric_weights_is_bit_identical():
    # the norms of 1/m over the whole dual are those over the half layout,
    # which holds every gamma value of a symmetric weight: its max exactly,
    # and its l2 norm, the map's E_inf, to rounding
    from groupsobolev.nonlinear import _ball_constants, _plan

    prepared = {}
    for (descriptor, name, c, p), (eps, e_const) in _SYMMETRIC_BALLS.items():
        if (descriptor, name) not in prepared:
            g = parse_group(descriptor)
            prepared[descriptor, name] = g, make_weight(g, name), lowfreq_forcing(g, 1e-3)
        g, w, h = prepared[descriptor, name]
        ball = size_ball(g, w, c, forced_power_nonlinearity(p, 1.0, h))
        assert ball["epsilon"] == float.fromhex(eps)
        assert ball["embedding_const"] == float.fromhex(e_const)
        fmap = _plan(w, c)
        inverse_max, inverse_l2 = _ball_constants(w, c)
        assert inverse_max == float(np.abs(fmap.neg_inverse).max())
        assert inverse_l2 == pytest.approx(fmap.norm(fmap.neg_inverse), rel=1e-14)


def test_ball_constants_are_computed_once_per_weight_and_c():
    from groupsobolev.nonlinear import _ball_constants

    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    size_ball(g, w, 1.0, forced_power_nonlinearity(2, 1.0, lowfreq_forcing(g, 0.01)))
    before = _ball_constants.cache_info()
    size_ball(g, w, 1.0, forced_power_nonlinearity(2, 1.0, lowfreq_forcing(g, 0.02)))
    ball = size_ball(g, w, 1.0, forced_power_nonlinearity(3, 1.0, lowfreq_forcing(g, 0.01)))
    after = _ball_constants.cache_info()
    # a second forcing and a second alpha
    assert after.misses == before.misses and after.hits == before.hits + 2
    assert ball["embedding_const"] == _interpolated(*_ball_constants(w, 1.0), 3.0)
    size_ball(g, w, 2.0, forced_power_nonlinearity(2, 1.0, lowfreq_forcing(g, 0.01)))
    assert _ball_constants.cache_info().misses == before.misses + 1  # a second c


def test_symmetric_and_asymmetric_weights_share_one_sizing_path():
    from groupsobolev.nonlinear import _ball_constants

    g = parse_group("Z12")
    nl = forced_power_nonlinearity(2, 1.0, lowfreq_forcing(g, 1e-3))
    for w in (make_weight(g, "sym-euclid"), weight_from_table(g, _ASYMMETRIC, 8.0)):
        before = _ball_constants.cache_info()
        ball = size_ball(g, w, 0.25, nl)
        after = _ball_constants.cache_info()
        assert after.misses == before.misses + 1 and after.hits == before.hits
        assert ball["embedding_const"] == _interpolated(*_ball_constants(w, 0.25), 2.0)


_BOUND_CASES = [("Z12", "sym-euclid"), ("Z64xZ64", "sym-euclid"), (_Z2_12, "hamming"),
                ("Z729", "pruefer:3"), ("Z2xZ3xZ5", "sym-euclid")]


@pytest.mark.parametrize("descriptor, name", _BOUND_CASES)
def test_ball_constant_bounds_the_inverse_and_attains_its_sup_end(descriptor, name, rng):
    from groupsobolev.nonlinear import _ball_constants

    g = parse_group(descriptor)
    w = make_weight(g, name)
    for c in (0.01, 1.0):
        inverse = np.exp(-build_multiplier(g, w, c).log_values)
        for alpha in (2.0, 3.0, 5.0):
            e_const = size_ball(g, w, c, power_nonlinearity(g, int(alpha), 1.0))["embedding_const"]
            for _ in range(4):
                # ||L^{-1} f||_{2 alpha} <= E ||f||_L2, on real and on complex f
                for f in (rng.standard_normal(g.order),
                          rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)):
                    u = solve_linear(Signal(g, f), w, c)
                    assert lp_norm(u, 2 * alpha) <= e_const * lp_norm(Signal(g, f), 2) * (1 + 1e-12)
        # f_hat = 1/m attains the L^inf end: L^{-1} f peaks at 0 with sum 1/m^2
        f = Signal(g, idft_values(g, inverse))
        ratio = lp_norm(solve_linear(f, w, c), math.inf) / lp_norm(f, 2)
        assert ratio == pytest.approx(_ball_constants(w, c)[1], rel=1e-12)


def _chain_constant(g, w, c, alpha):
    """The constant of the embedding chain domain -> H^s -> L^{alpha*} ->
    L^{2 alpha}: delta the first of {1.25, 1.5, 2, 3, 4} with sum (1 +
    gamma^2)^-delta <= 10 (else 4), s = delta - delta / (2 alpha), and E =
    sup (1 + gamma^2)^(s/2) / m times the L^{alpha*} embedding constant."""
    gam2 = w.values**2
    delta = next((d for d in (1.25, 1.5, 2.0, 3.0, 4.0) if np.sum((1.0 + gam2) ** -d) <= 10.0),
                 4.0)
    s_embed = delta - delta / (2.0 * alpha)
    with np.errstate(divide="ignore"):
        log_m = np.logaddexp(0.0, c * gam2 + np.log(gam2))
    sup = np.exp(np.max(0.5 * s_embed * np.log1p(gam2) - log_m))
    return sup * embedding_constant_lalpha(g, w, s_embed, delta)["constant"]


def test_ball_constant_never_exceeds_the_embedding_chain():
    # 12 groups x 7 values of c x 3 exponents: the interpolated E is at most
    # the chain's at every cell, and strictly below it
    cells = [("Z4096", "sym-euclid"), ("Z4096", "pruefer:2"), ("Z64xZ64", "sym-euclid"),
             ("Z16xZ16xZ16", "sym-euclid"), (_Z2_12, "hamming"), ("Z257", "sym-euclid"),
             ("Z128xZ128", "sym-euclid"), ("Z12", "sym-euclid"), ("Z729", "pruefer:3"),
             ("Z64", "sym-euclid"), ("Z8xZ8", "sym-euclid"), ("Z2xZ3xZ5", "sym-euclid")]
    ratios = []
    for descriptor, name in cells:
        g = parse_group(descriptor)
        w = make_weight(g, name)
        for c in (0.01, 0.1, 0.25, 0.5, 1.0, 2.0, 7.5):
            for p in (2, 3, 5):
                e_const = size_ball(g, w, c, power_nonlinearity(g, p, 1.0))["embedding_const"]
                ratios.append(e_const / _chain_constant(g, w, c, float(p)))
    assert len(ratios) == 252
    assert 0.37 < min(ratios) and max(ratios) < 0.96


@pytest.mark.parametrize("descriptor, name, c, p, scale", [
    ("Z12", "sym-euclid", 1.0, 2, 1e-3),
    ("Z64xZ64", "sym-euclid", 1.0, 3, 0.05),
    ("Z4096", "pruefer:2", 0.5, 2, 1e-3),
    (_Z2_12, "hamming", 0.5, 3, 0.01),
    ("Z729", "pruefer:3", 0.25, 2, 0.01),
])
def test_balls_are_invariant_under_the_map(descriptor, name, c, p, scale, rng):
    g = parse_group(descriptor)
    w = make_weight(g, name)
    nl = forced_power_nonlinearity(p, 1.0, lowfreq_forcing(g, scale))
    ball = size_ball(g, w, c, nl)
    eps = ball["epsilon"]
    assert ball["ok"] and 0.0 < eps < math.inf
    for k in range(60):
        # fields inside the ball, a third of them on its sphere, every other
        # one with spiky samples
        y = rng.standard_normal(g.order) * rng.uniform(0.1, 10.0, g.order) ** (k % 2)
        radius = eps if k % 3 == 0 else eps * rng.uniform()
        u = Signal(g, y * (radius / lp_norm(Signal(g, y), 2 * p)))
        assert lp_norm(picard_step(u, nl, w, c), 2 * p) <= eps


def test_certificate_half_and_full_paths_agree():
    # a solver output, the same field nudged by an imaginary part of 1e-30,
    # and its samples alone are certified alike to rounding.  c is small
    # enough for every multiplier to be finite, so that the samples alone
    # carry the field too
    for name, weight in (("Z64", "sym-euclid"), ("Z6xZ10", "sym-euclid"),
                         ("Z2xZ2xZ2xZ2xZ2xZ2", "hamming")):
        g = parse_group(name)
        w = make_weight(g, weight)
        nl = forced_power_nonlinearity(2, 0.5, lowfreq_forcing(g, 0.1))
        phi, rep = solve_nonlinear(nl, w, 0.01, SolverConfig())
        assert rep.converged
        half = verify_solution(phi, nl, w, 0.01, s=1.0)
        nudged = Signal(g, phi.values + 1e-30j, exact_dual=phi.exact_dual)
        full = verify_solution(nudged, nl, w, 0.01, s=1.0)
        sampled = verify_solution(Signal(g, phi.values), nl, w, 0.01, s=1.0)
        # the samples fix the coefficients to their rounding only, which the
        # multiplier amplifies in L phi
        for rec, resid_tol in ((full, 1e-15), (sampled, 1e-11)):
            assert rec["all_ok"] and half["all_ok"]
            for key in ("sobolev_norm", "domain_norm", "sup_norm", "continuity_constant"):
                assert rec[key] == pytest.approx(half[key], rel=1e-13)
            assert abs(rec["residual_eq"] - half["residual_eq"]) <= resid_tol


def _full_dual_certificate(phi, nl, w, c, s):
    """verify_solution's figures for phi = p + i q from the complex full
    dual: ||-F^-1(m d) - V(Re phi)||, ||m d||, the Sobolev norm of d and
    max |phi|, for d phi's coefficients; every m must be finite."""
    g = phi.group
    m = build_multiplier(g, w, c).values
    d = dft_values(g, phi.values) if phi.exact_dual is None else phi.exact_dual
    y = phi.values.real
    r = -idft_values(g, m * d) - (nl.u_func(y) - y)
    return {"residual_eq": math.sqrt((np.abs(r) ** 2).mean()),
            "domain_norm": float(np.linalg.norm(m * d)),
            "sobolev_norm": float(np.sqrt(((1.0 + w.values**2) ** s * np.abs(d) ** 2).sum())),
            "sup_norm": float(np.abs(phi.values).max())}


@pytest.mark.parametrize("name, weight", [
    ("Z64", "sym-euclid"), ("Z6xZ10", "sym-euclid"), ("Z2xZ4xZ2xZ4", "sym-euclid"),
    ("Z2xZ2xZ2xZ2xZ2xZ2", "hamming"),
])
def test_certificate_of_a_complex_field_is_the_full_dual_one(name, weight, rng):
    # phi = p + i q: p goes through the map, and ||L q|| adds in quadrature
    # to the residual and the domain norm.  An imaginary part within the
    # tolerance is certified; a larger one reads residual inf
    g = parse_group(name)
    w = make_weight(g, weight)
    nl = forced_power_nonlinearity(2, 0.5, lowfreq_forcing(g, 0.1))
    phi, rep = solve_nonlinear(nl, w, 0.01, SolverConfig())
    assert rep.converged
    psi = rng.standard_normal(g.order)
    for eps in (1e-10, 1e-3):
        values = phi.values + 1j * eps * psi
        above = np.abs(values.imag).max() > _IMAG_TOL
        assert above == (eps > 1e-9)
        dual = phi.exact_dual + 1j * eps * dft_values(g, psi)
        # the samples fix the coefficients to their rounding only, which the
        # multiplier amplifies; the residual is compared in units of ||m d||
        for u, tol, resid_tol in ((Signal(g, values, exact_dual=dual), 1e-14, 1e-15),
                                  (Signal(g, values), 1e-11, 1e-9)):
            got = verify_solution(u, nl, w, 0.01, s=1.0)
            want = _full_dual_certificate(u, nl, w, 0.01, 1.0)
            for key in ("domain_norm", "sobolev_norm", "sup_norm"):
                assert got[key] == pytest.approx(want[key], rel=tol), key
            if above:
                assert got["residual_eq"] == math.inf and not got["all_ok"]
            else:
                assert want["residual_eq"] > 1e-2 * eps  # ||L q|| is in it
                assert abs(got["residual_eq"] - want["residual_eq"]) <= resid_tol * want["domain_norm"]


def test_certificate_reads_a_non_hermitian_dual_in_full():
    # real values whose remembered coefficients are not a real field's:
    # the certificate reads the coefficients, anti-Hermitian part included
    g = parse_group("Z8")
    w = make_weight(g, "sym-euclid")
    nl = power_nonlinearity(g, 2, 0.5)
    dual = np.zeros(8, dtype=complex)
    dual[1] = 1e-3  # its partner, index 7, stays 0
    rec = verify_solution(Signal(g, np.zeros(8), exact_dual=dual), nl, w, 1.0, s=1.0)
    assert rec["sobolev_norm"] == pytest.approx(1e-3 * math.sqrt(2.0), rel=1e-14)


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
