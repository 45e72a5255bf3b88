"""Solve on the band, certify on the group.

A catalog polynomial solve may run its Picard loop on a coarse group that
holds the band {log m <= 40} and de-aliases the source, then certify once on
the whole group.  Its answer must be the direct solve's to rounding, with the
same status and iteration count; a solve that does not take the band path,
or falls back from it, must be the direct solve bit for bit.
"""
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from groupsobolev.cli import main
from groupsobolev.group import inverse_indices, parse_group
from groupsobolev.nonlinear import (
    SolverConfig,
    affine_nonlinearity,
    check_growth_conditions,
    forced_power_nonlinearity,
    lowfreq_forcing,
    power_nonlinearity,
    solve_nonlinear,
    verify_solution,
)
from groupsobolev.sobolev import make_weight
from groupsobolev.spectral import (
    Signal,
    dft_values,
    frequency_embedding,
    half_layout,
    idft_values,
    write_signal_csv,
)
from groupsobolev.stringop import _log_multiplier

_MENU = (("Z4096", "sym-euclid"), ("Z4096", "pruefer:2"), ("Z64xZ64", "sym-euclid"),
         ("Z16xZ16xZ16", "sym-euclid"), ("x".join(["Z2"] * 12), "hamming"),
         ("Z257", "sym-euclid"))
_POWERS = ((2, 1.0), (2, 2.0), (3, 1.0))


def _band_forcing(group, w, c, l2, seed, log_m_max=40.0):
    """A real forcing of L2 norm ``l2`` whose coefficients are Gaussian,
    damped by 1/(1 + gamma^2), on the nonzero characters with log m <=
    ``log_m_max`` and zero elsewhere."""
    rng = np.random.default_rng(seed)
    gam = w.values
    keep = (_log_multiplier(gam, c, w.name) <= log_m_max) & (gam > 0)
    coeffs = (rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order))
    coeffs = np.where(keep, coeffs / (1.0 + gam**2), 0.0)
    coeffs = 0.5 * (coeffs + np.conj(coeffs[inverse_indices(group)]))
    values = idft_values(group, coeffs).real
    return Signal(group, values * (l2 / math.sqrt(np.mean(values**2))))


def _direct(nl):
    """The same nonlinearity without its pointwise part: the solve cannot
    take the band path."""
    return dataclasses.replace(nl, _pointwise=None)


def _digest(phi, rep, record) -> str:
    """One SHA-256 over phi's samples and coefficients, the report without
    ``loop_group`` and the ``verify_solution`` record."""
    doc = {k: v for k, v in rep.as_dict().items() if k != "loop_group"}
    text = json.dumps([doc, rep.verification, record], sort_keys=True)
    digest = hashlib.sha256(phi.values.tobytes() + phi.exact_dual.tobytes())
    digest.update(text.encode())
    return digest.hexdigest()


def _solve_both(nl, w, c, cfg=SolverConfig()):
    """(band solve, direct solve), each as (phi, report, verify record)."""
    out = []
    for x in (nl, _direct(nl)):
        phi, rep = solve_nonlinear(x, w, c, cfg)
        out.append((phi, rep, verify_solution(phi, x, w, c, s=1.0, residual_tol=1e-9)))
    return out


def _assert_agree(band, direct, loop_group):
    (phi, rep, record), (phi_d, rep_d, record_d) = band, direct
    assert rep.loop_group == loop_group
    assert rep_d.loop_group == phi.group.descriptor
    assert rep.status == "converged"
    assert (rep.status, rep.iterations) == (rep_d.status, rep_d.iterations)
    assert np.abs(phi.values - phi_d.values).max() <= 1e-15
    assert record["all_ok"] and record == rep.verification
    assert rep.final_residual_eq <= 1e-9


@pytest.mark.parametrize("descriptor,wname", _MENU)
def test_band_solve_matches_the_direct_solve_on_the_benchmark_menu(descriptor, wname):
    group = parse_group(descriptor)
    w = make_weight(group, wname)
    coarse = {("Z4096", "sym-euclid"): {0.5: ("Z25", "Z25", "Z36"), 1.0: ("Z20", "Z20", "Z25")},
              ("Z4096", "pruefer:2"): {0.5: ("Z8",) * 3, 1.0: ("Z4",) * 3},
              ("Z64xZ64", "sym-euclid"): {0.5: ("Z25xZ25", "Z25xZ25", descriptor),
                                          1.0: ("Z20xZ20", "Z20xZ20", "Z25xZ25")},
              ("Z257", "sym-euclid"): {0.5: ("Z25", "Z25", "Z36"),
                                       1.0: ("Z20", "Z20", "Z25")}}.get((descriptor, wname))
    for c in (0.5, 1.0):
        for k, (p, lam) in enumerate(_POWERS):
            h = _band_forcing(group, w, c, 0.05 + 0.05 * k, seed=k)
            band, direct = _solve_both(forced_power_nonlinearity(p, lam, h), w, c)
            _assert_agree(band, direct, descriptor if coarse is None else coarse[c][k])


def test_band_solve_matches_the_direct_solve_on_the_sweep_grid():
    group = parse_group("Z128xZ128")
    w = make_weight(group, "sym-euclid")
    nl = forced_power_nonlinearity(2, 1.0, _band_forcing(group, w, 2.0, 0.1, seed=7))
    for c in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0):
        band, direct = _solve_both(nl, w, c)
        assert band[1].loop_group != "Z128xZ128"
        _assert_agree(band, direct, band[1].loop_group)


@pytest.mark.parametrize("scale", [0.2, 1.5])
def test_band_solve_on_z65536(scale):
    group = parse_group("Z65536")
    w = make_weight(group, "sym-euclid")
    band, direct = _solve_both(forced_power_nonlinearity(2, 1.0, lowfreq_forcing(group, scale)),
                               w, 1.0)
    _assert_agree(band, direct, "Z20")


def test_out_of_band_forcing_file_falls_back_bit_for_bit(tmp_path, capsys):
    group = parse_group("Z4096")
    w = make_weight(group, "sym-euclid")
    rng = np.random.default_rng(3)
    h = Signal(group, 0.01 * rng.standard_normal(group.order))  # broadband
    band, direct = _solve_both(forced_power_nonlinearity(2, 1.0, h), w, 1.0)
    assert band[1].loop_group == direct[1].loop_group == "Z4096"
    assert _digest(*band) == _digest(*direct)
    # and through the command line, from a forcing file
    path = tmp_path / "broadband.csv"
    write_signal_csv(str(path), h)
    assert main(["solve-nonlinear", "--group", "Z4096", "--c", "1",
                 "--nonlinearity", "forced-power:2,1", "--forcing", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["loop_group"] == "Z4096"
    assert doc["result"]["iterations"] == direct[1].iterations


def test_a_band_result_that_fails_falls_back_to_the_direct_solve(monkeypatch):
    # past the fold the band loop diverges; the direct result is returned untouched
    import groupsobolev.nonlinear as nonlinear

    loops = []
    picard = nonlinear._picard
    monkeypatch.setattr(nonlinear, "_picard", lambda fmap, *args: (
        loops.append(fmap.weight.group.descriptor), picard(fmap, *args))[1])
    group = parse_group("Z4096")
    w = make_weight(group, "sym-euclid")
    band, direct = _solve_both(forced_power_nonlinearity(2, 1.0, lowfreq_forcing(group, 1.65)),
                               w, 1.0)
    assert loops == ["Z20", "Z4096", "Z4096"]  # the band loop, its fallback, the direct solve
    assert band[1].status == "diverged" and band[1].loop_group == "Z4096"
    assert _digest(*band) == _digest(*direct)


def test_no_band_path_with_an_initial_field_or_a_custom_nonlinearity():
    group = parse_group("Z4096")
    w = make_weight(group, "sym-euclid")
    nl = forced_power_nonlinearity(2, 1.0, lowfreq_forcing(group, 0.2))
    initial = Signal(group, np.zeros(group.order))
    band, direct = (solve_nonlinear(x, w, 1.0, SolverConfig(initial=initial))
                    for x in (nl, _direct(nl)))
    assert band[1].loop_group == "Z4096"
    assert np.array_equal(band[0].values, direct[0].values)
    assert solve_nonlinear(_direct(nl), w, 1.0, SolverConfig())[1].loop_group == "Z4096"


@pytest.mark.parametrize("descriptor,wname,c", [
    ("Z64", "sym-euclid", 1.0), ("Z64", "sym-euclid", 0.5),
    ("Z2xZ2xZ2xZ2xZ2xZ2", "hamming", 1.0), ("Z12", "sym-euclid", 0.5)])
def test_the_check_groups_take_the_direct_path_bit_for_bit(descriptor, wname, c):
    group = parse_group(descriptor)
    w = make_weight(group, wname)
    rng = np.random.default_rng(5)
    for nl in (forced_power_nonlinearity(2, 0.1, lowfreq_forcing(group, 0.01)),
               affine_nonlinearity(Signal(group, 0.1 * rng.standard_normal(group.order)))):
        band, direct = _solve_both(nl, w, c)
        assert band[1].loop_group == descriptor
        assert _digest(*band) == _digest(*direct)


@pytest.mark.parametrize("descriptor,wname,c,coarse,step", [
    ("Z4096", "pruefer:2", 1.0, (4,), 1024), ("Z4096", "pruefer:2", 0.5, (8,), 512),
    ("Z729", "pruefer:3", 1.0, (3,), 243)])
def test_pruefer_band_is_the_exact_quotient(descriptor, wname, c, coarse, step):
    group = parse_group(descriptor)
    w = make_weight(group, wname)
    band = np.flatnonzero(_log_multiplier(w.values, c, w.name) <= 40.0)
    emb = frequency_embedding(group.factors, band, 2)
    assert emb.factors == coarse and emb.scale is None
    assert np.array_equal(emb.dual, step * np.arange(coarse[0]))
    # a forcing on the quotient's frequencies: the solve runs there
    h = _band_forcing(group, w, c, 0.1, seed=1)
    bandsol, direct = _solve_both(forced_power_nonlinearity(2, 1.0, h), w, c)
    _assert_agree(bandsol, direct, f"Z{coarse[0]}")


def test_even_coarse_size_halves_its_nyquist_entry():
    group = parse_group("Z4096")
    w = make_weight(group, "sym-euclid")
    band = np.flatnonzero(_log_multiplier(w.values, 1.0, w.name) <= 40.0)
    assert np.abs(np.where(band > 2048, band - 4096, band)).max() == 6
    emb = frequency_embedding(group.factors, band, 2)  # 3 * 6 + 1 = 19 -> 20
    assert emb.factors == (20,)
    assert np.array_equal(emb.index, np.arange(11))  # k' = 0..10 -> k = 0..10
    assert np.flatnonzero(emb.scale != 1.0).tolist() == [10] and emb.scale[10] == 0.5
    assert np.array_equal(emb.dual, np.r_[0:11, 4087:4096])
    # the coarse Nyquist coefficient a is split as a/2 at k = +-10
    from groupsobolev.nonlinear import _band_plan
    plan = _band_plan(w, 1.0, 2)
    coarse = np.zeros(11, dtype=complex)
    coarse[10] = 0.8
    full = plan.layout.expand(plan.prolong(coarse))
    assert full[10] == full[4086] == 0.4 and np.count_nonzero(full) == 2
    assert np.array_equal(plan.restrict(plan.prolong(coarse)), coarse)


@pytest.mark.parametrize("descriptor,c,p", [("Z64xZ64", 1.0, 2), ("Z64xZ64", 0.5, 2),
                                            ("Z128xZ128", 0.25, 2), ("Z257", 1.0, 3)])
def test_prolonged_coefficients_are_a_real_fields(descriptor, c, p):
    # coarse Nyquist entries on an axis that is not halved land on entries
    # whose partners the coarse group does not reach; the layout's projection
    # splits them, so that the prolonged coefficients stay Hermitian
    from groupsobolev.nonlinear import _band_plan

    group = parse_group(descriptor)
    w = make_weight(group, "sym-euclid")
    plan = _band_plan(w, c, p)
    rng = np.random.default_rng(11)
    coarse_group = plan.fmap.weight.group
    coarse = dft_values(coarse_group, rng.standard_normal(coarse_group.order), half=True)
    full = plan.layout.expand(plan.prolong(coarse))
    assert np.array_equal(full[inverse_indices(group)], np.conj(full))


def test_a_coarse_layout_that_does_not_embed_gives_none():
    # the coarse group Z20xZ2 halves its first axis, Z64xZ64 its last: the
    # coarse entries that stand for their partners land on entries whose
    # partners are stored
    band = np.array([64 * (k % 64) + j for k in range(-6, 7) for j in (0, 32)])
    assert frequency_embedding((64, 64), band, 2) is None
    assert half_layout(parse_group("Z20xZ2")).axis == -2


def test_band_plans_stay_out_of_the_full_map_cache():
    from groupsobolev.nonlinear import _band_plan, _plan

    group = parse_group("Z4096")
    w = make_weight(group, "sym-euclid")
    nl = forced_power_nonlinearity(2, 1.0, lowfreq_forcing(group, 0.2))
    _plan(w, 1.0)
    before = _plan.cache_info()
    plans = _band_plan.cache_info().misses
    phi, rep = solve_nonlinear(nl, w, 1.0, SolverConfig())
    after = _plan.cache_info()
    assert rep.loop_group == "Z20"
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    assert _band_plan.cache_info().misses == plans + 1
    assert _band_plan.cache_info().maxsize >= 24


def test_loop_group_in_the_command_line_report(capsys):
    assert main(["solve-nonlinear", "--group", "Z4096", "--c", "1",
                 "--nonlinearity", "forced-power:2,1", "--forcing-scale", "0.2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["loop_group"] == "Z20"
    assert main(["solve-nonlinear", "--group", "Z16", "--c", "1",
                 "--nonlinearity", "forced-power:2,1", "--forcing-scale", "0.2"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["loop_group"] == "Z16"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_growth_check_refuses_a_sample_that_is_not_finite(bad):
    nl = power_nonlinearity(parse_group("Z12"), 2, 1.0)
    with pytest.raises(ValueError, match="^sample values must be finite"):
        check_growth_conditions(nl, [0.5, bad])


def test_solver_config_refuses_a_bool_max_iter():
    with pytest.raises(ValueError, match="^max_iter must be an integer"):
        SolverConfig(max_iter=True)
    assert SolverConfig(max_iter=np.int64(3)).max_iter == 3
