import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from groupsobolev.group import character_table, inverse_indices, parse_group
from groupsobolev.sobolev import lp_norm, make_weight, sobolev_norm, weight_from_table
from groupsobolev.spectral import Signal, Spectrum, idft
from groupsobolev.stringop import (
    ACTIVE_COEFF_TOL,
    LOG_MAX_DOUBLE,
    NotInDomainError,
    apply_operator,
    build_multiplier,
    domain_norm,
    domain_norm_batch,
    multiply_spectrum,
    solve_linear,
    unrepresentable_data,
)


def _band_limited(rng, group, weight, gamma_max):
    """Random real signal supported on frequencies with gamma <= gamma_max."""
    n = group.order
    coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    coeff[weight.values > gamma_max] = 0.0
    f = idft(Spectrum(group, coeff))
    return f


# ---------------------------------------------------------------------------
# multiplier profile
# ---------------------------------------------------------------------------

def test_zero_weight_multiplier_is_one():
    g = parse_group("Z8")
    prof = build_multiplier(g, make_weight(g, "zero"), 1.0)
    assert np.all(prof.values == 1.0)
    assert np.all(prof.log_values == 0.0)
    assert prof.overflow_count == 0


def test_multiplier_at_unit_frequency():
    g = parse_group("Z4")
    prof = build_multiplier(g, make_weight(g, "sym-euclid"), 1.0)
    # gamma = 1: m = 1 + 1 * e^1
    assert prof.values[1] == pytest.approx(1.0 + math.e, rel=1e-15)
    assert prof.values[0] == 1.0


def test_log_multiplier_beyond_float64():
    g = parse_group("Z64")
    prof = build_multiplier(g, make_weight(g, "sym-euclid"), 1.0)
    k = 30  # gamma = 30: log m = log(1 + 900 e^900)
    expected = np.logaddexp(0.0, 900.0 + 2.0 * math.log(30.0))
    assert prof.log_values[k] == pytest.approx(906.8023947633243, abs=1e-9)
    assert prof.log_values[k] == pytest.approx(expected, rel=1e-15)
    assert not np.isfinite(prof.values[k])
    # gamma >= 27 overflows at c = 1, i.e. k in 27..37
    assert prof.overflow_count == 11
    assert prof.overflow.tolist() == list(range(27, 38))
    assert np.array_equal(prof.finite_values, np.where(np.isinf(prof.values), 0.0, prof.values))


def test_scale_whose_gamma_term_overflows_is_refused():
    # c * gamma^2 beyond float64 would leave log m infinite, and the domain
    # norm of a constant field would read 0 instead of 1
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    with pytest.raises(ValueError, match=r"c = 1e\+308"):
        build_multiplier(g, w, 1e308)
    with pytest.raises(ValueError, match="overflows"):
        domain_norm(Signal(g, np.ones(12)), w, 1e308)
    assert domain_norm(Signal(g, np.ones(12)), w, 1e306) == 1.0


def test_domain_norm_beyond_float64_is_refused_not_zero():
    # gamma = 6 at c = 4e306: log m = 1.44e308 is finite, but twice it, the
    # log of an inactive coefficient's squared term, is not
    g = parse_group("Z12")
    dual = np.zeros(12, dtype=np.complex128)
    dual[6] = 1e-300
    with pytest.raises(NotInDomainError, match="exceeds float64"):
        domain_norm(idft(Spectrum(g, dual)), make_weight(g, "sym-euclid"), 4e306)


def test_scale_must_be_positive():
    g = parse_group("Z4")
    w = make_weight(g, "sym-euclid")
    for c in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            build_multiplier(g, w, c)


def test_multiplier_built_once_per_operator():
    g = parse_group("Z16")
    w = make_weight(g, "sym-euclid")
    prof = build_multiplier(g, w, 1.0)
    assert build_multiplier(g, w, 1.0) is prof
    assert build_multiplier(g, w, 0.5).c == 0.5


def test_multiplier_cache_tells_weights_apart():
    # same group, same name, different tables: the cache must not key by name
    g = parse_group("Z4")
    a = build_multiplier(g, weight_from_table(g, [0.0, 1.0, 2.0, 1.0], 1.0), 1.0)
    b = build_multiplier(g, weight_from_table(g, [0.0, 2.0, 3.0, 2.0], 1.0), 1.0)
    assert a.weight_name == b.weight_name == "custom"
    assert not np.array_equal(a.log_values, b.log_values)


def test_multiplier_inverse_is_exact_and_frozen():
    g = parse_group("Z64")
    prof = build_multiplier(g, make_weight(g, "sym-euclid"), 1.0)
    assert np.array_equal(prof.inverse, np.exp(-prof.log_values))
    assert prof.inverse[30] == 0.0  # 1/m underflows where m overflows
    for arr in (prof.log_values, prof.values, prof.inverse):
        assert not arr.flags.writeable


def test_weight_group_mismatch():
    g = parse_group("Z4")
    w = make_weight(parse_group("Z8"), "sym-euclid")
    with pytest.raises(ValueError):
        build_multiplier(g, w, 1.0)


# ---------------------------------------------------------------------------
# forward operator
# ---------------------------------------------------------------------------

def test_characters_are_eigenfunctions():
    g = parse_group("Z4")
    w = make_weight(g, "sym-euclid")
    u = Signal(g, character_table(g)[1])  # gamma = 1
    out = apply_operator(u, w, 1.0)
    assert np.allclose(out.values, -(1.0 + math.e) * u.values, atol=1e-12)


def test_constant_signal_maps_to_minus_itself():
    # raw samples (no remembered dual): keep c small enough that the
    # multiplier cannot amplify transform roundoff above tolerance
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    u = Signal(g, np.full(12, 2.5))
    out = apply_operator(u, w, 0.1)  # m(0) = 1
    assert np.allclose(out.values, -2.5, atol=1e-12)


def test_apply_is_linear(rng):
    g = parse_group("Z16")
    w = make_weight(g, "sym-euclid")
    f = _band_limited(rng, g, w, 8)
    h = _band_limited(rng, g, w, 8)
    lhs = apply_operator(Signal(g, 2.0 * f.values - 3.0 * h.values), w, 0.5)
    rhs = 2.0 * apply_operator(f, w, 0.5).values - 3.0 * apply_operator(h, w, 0.5).values
    assert np.allclose(lhs.values, rhs, rtol=1e-10, atol=1e-9)


def test_apply_refuses_overflowed_frequency():
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    # the character at k = 32 has gamma = 32: log m = 1024 + 2 log 32 >> 709.78
    u = Signal(g, character_table(g)[32].real)
    with pytest.raises(NotInDomainError) as err:
        apply_operator(u, w, 1.0)
    assert "32" in str(err.value)


def test_domain_norm_refuses_overflowed_frequency():
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    u = Signal(g, character_table(g)[32].real)
    with pytest.raises(NotInDomainError):
        domain_norm(u, w, 1.0)


# ---------------------------------------------------------------------------
# domain norm
# ---------------------------------------------------------------------------

def test_domain_norm_of_constant():
    g = parse_group("Z8")
    w = make_weight(g, "sym-euclid")
    assert domain_norm(Signal(g, np.ones(8)), w, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_domain_norm_single_mode():
    g = parse_group("Z4")
    w = make_weight(g, "sym-euclid")
    f = idft(Spectrum(g, [0.0, 1.0, 0.0, 0.0]))
    assert domain_norm(f, w, 1.0) == pytest.approx(1.0 + math.e, rel=1e-14)


def test_domain_norm_zero_signal():
    g = parse_group("Z8")
    w = make_weight(g, "sym-euclid")
    assert domain_norm(Signal(g, np.zeros(8)), w, 1.0) == 0.0


def test_domain_norm_batch_matches_scalar(rng):
    g = parse_group("Z16")
    w = make_weight(g, "sym-euclid")
    prof = build_multiplier(g, w, 0.5)
    sigs = [_band_limited(rng, g, w, 8) for _ in range(5)]
    stacked = np.stack([s.exact_dual for s in sigs])
    batch = domain_norm_batch(prof, stacked)
    for row, s in zip(batch, sigs):
        assert row == pytest.approx(domain_norm(s, w, 0.5), rel=1e-13)


@pytest.mark.parametrize("routine", [apply_operator, domain_norm])
def test_operator_routines_refuse_an_overflowing_transform_alike(routine):
    # four finite samples of 1e308 on Z4: their mean coefficient sums past
    # float64.  Each routine raises solve_linear's one ValueError about the
    # input's transform, not NotInDomainError, which would blame the
    # multiplier, and lets numpy print no RuntimeWarning
    g = parse_group("Z4")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^signal is too large: its forward transform "
                           "overflows float64$") as err:
            routine(Signal(g, np.full(4, 1e308)), make_weight(g, "sym-euclid"), 1.0)
    assert not isinstance(err.value, NotInDomainError)


def test_domain_norm_overflow_raises():
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    coeff = np.zeros(64, dtype=complex)
    coeff[32] = 1e84  # m(32)^2 * |F|^2 tops the float64 range at c = 0.5
    f = idft(Spectrum(g, coeff))
    with pytest.raises(NotInDomainError, match="exceeds float64 range"):
        domain_norm(f, w, 0.5)


def test_domain_norm_of_a_field_whose_transform_overflows_is_refused():
    # every sample is finite, but the transform's sums overflow: the input's
    # own transform is refused, as solve_linear refuses it, with no numpy
    # warning (an error in this suite); a row of NaN coefficients given to
    # the batch norm is refused rather than read as 0
    g = parse_group("Z8")
    w = make_weight(g, "sym-euclid")
    f = Signal(g, [1.7e308] * 8)
    assert lp_norm(f, 2) == 1.7e308
    with pytest.raises(ValueError, match="^signal is too large: its forward transform "
                       "overflows float64$") as err:
        domain_norm(f, w, 0.5)
    assert not isinstance(err.value, NotInDomainError)
    rows = np.zeros((2, 8), dtype=complex)
    rows[0, 2] = np.nan
    with pytest.raises(NotInDomainError, match="not a number"):
        domain_norm_batch(build_multiplier(g, w, 0.5), rows)


@pytest.mark.parametrize("coeff", [1e-170, 1e-200])
def test_tiny_fields_do_not_read_zero(coeff):
    # every square is below the smallest float64, so each norm must be
    # summed again scaled by its largest term
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    dual = np.zeros(64, dtype=complex)
    dual[[1, 63]] = coeff
    f = idft(Spectrum(g, dual))
    m1 = 1.0 + math.exp(0.5)  # gamma = 1 at indices 1 and 63
    assert domain_norm(f, w, 0.5) == pytest.approx(math.sqrt(2.0) * coeff * m1, rel=1e-14, abs=0.0)
    assert sobolev_norm(f, w, 1.0) == pytest.approx(2.0 * coeff, rel=1e-14, abs=0.0)
    assert lp_norm(f, 2) == pytest.approx(math.sqrt(2.0) * coeff, rel=1e-14, abs=0.0)


def test_domain_norm_reads_subnormal_coefficients_as_their_products():
    # on white noise at c = 0.5 some coefficients of the solution are
    # subnormal, where |F| rounds to the subnormal grid; the domain norm is
    # the l2 norm of the products m F, which keep F's phase and size
    wide = np.finfo(np.longdouble)
    if wide.eps == np.finfo(np.float64).eps:
        pytest.skip(f"long double is float64 here (eps {wide.eps}): no wider reference")
    g = parse_group("Z64xZ64")
    w = make_weight(g, "sym-euclid")
    data = Signal(g, np.random.default_rng(1).standard_normal(g.order))
    u = solve_linear(data, w, 0.5)
    dual = u.exact_dual
    tiny = np.finfo(np.float64).tiny
    assert ((np.abs(dual) < tiny) & (dual != 0)).sum() > 0
    m = np.exp(build_multiplier(g, w, 0.5).log_values.astype(np.longdouble))
    ref = np.sqrt(((m * dual.real.astype(np.longdouble)) ** 2
                   + (m * dual.imag.astype(np.longdouble)) ** 2).sum())
    assert domain_norm(u, w, 0.5) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


_SMALL_GROUPS = ("Z1", "Z2", "Z3", "Z7", "Z12", "Z64", "Z8xZ8", "Z2xZ3xZ4", "Z4xZ16",
                 "Z2xZ2xZ2xZ2xZ2xZ2", "Z5xZ5")


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(_SMALL_GROUPS), c=st.floats(0.1, 2.0), s=st.floats(0.0, 4.0),
       k=st.integers(-1000, 1000), seed=st.integers(0, 2**32 - 1))
def test_norms_scale_exactly_by_powers_of_two(name, c, s, k, seed):
    # a power of two scales every norm exactly, so only a missing rescale of
    # an overflowing or underflowing sum of squares can break this; the
    # coefficients sit where m < 4e5, so every product stays representable
    g = parse_group(name)
    w = make_weight(g, "sym-euclid")
    profile = build_multiplier(g, w, c)
    rng = np.random.default_rng(seed)
    dual = rng.uniform(0.5, 2.0, g.order) * np.exp(2j * np.pi * rng.random(g.order))
    dual[profile.log_values > 13.0] = 0.0
    f = idft(Spectrum(g, dual))
    scaled = idft(Spectrum(g, 2.0**k * dual))
    for norm in (lambda h: domain_norm(h, w, c), lambda h: sobolev_norm(h, w, s),
                 lambda h: lp_norm(h, 2)):
        assert norm(scaled) == pytest.approx(2.0**k * norm(f), rel=1e-14, abs=0.0)
    # L inverts its own solve, and keeps the L2 norm, where m is in range
    assume(profile.log_values.max() < 700.0)
    data = Signal(g, rng.standard_normal(g.order))
    back = apply_operator(solve_linear(data, w, c), w, c)
    assert lp_norm(back, 2) == pytest.approx(lp_norm(data, 2), rel=1e-13, abs=0.0)


def _small_group(factors):
    """The product of the cyclic factors, each cut so the order stays <= 64."""
    cut, room = [], 64
    for n in factors:
        cut.append(min(n, room))
        room //= cut[-1]
    return parse_group("x".join(f"Z{n}" for n in cut))


def _weights_admitted(g):
    names = ["zero", "sym-euclid", "hamming", *(f"pruefer:{p}" for p in (2, 3, 5, 7))]
    out = []
    for name in names:
        try:
            out.append(make_weight(g, name))
        except ValueError:
            pass
    return out


@settings(max_examples=40, deadline=None)
@given(factors=st.lists(st.integers(1, 64), min_size=1, max_size=3), pick=st.integers(0, 8),
       c=st.one_of(st.floats(0.05, 3.0), st.floats(0.69, 0.72)), real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(factors=[64], pick=1, c=0.7, real=True, seed=0)
@example(factors=[64], pick=1, c=0.71, real=False, seed=1)
def test_solve_linear_isometry_on_random_small_groups(factors, pick, c, real, seed):
    # hypot(||u||_dom, the data solve_linear cannot represent) is ||g||: the
    # check solve-linear prints.  Z64 under sym-euclid at c in [0.69, 0.72]
    # puts log m at the top frequency in (709.78, 745), where -F(g)/m is
    # subnormal or 0; a pick past the built-in weights draws a symmetric table
    g = _small_group(factors)
    rng = np.random.default_rng(seed)
    weights = _weights_admitted(g)
    if pick < len(weights):
        w = weights[pick]
    else:
        gamma = rng.uniform(0.0, 40.0, g.order)
        w = weight_from_table(g, np.maximum(gamma, gamma[inverse_indices(g)]), 1.0)
    values = rng.standard_normal(g.order)
    if not real:
        values = values + 1j * rng.standard_normal(g.order)
    data = Signal(g, values)
    u = solve_linear(data, w, c)
    share, _ = unrepresentable_data(data, w, c)
    assert math.hypot(domain_norm(u, w, c), share) == pytest.approx(lp_norm(data, 2), rel=1e-10,
                                                                    abs=0.0)


def test_domain_norm_dominates_sobolev(rng):
    g = parse_group("Z16")
    w = make_weight(g, "sym-euclid")
    for s in (0.0, 0.5, 1.0, 2.0):
        for _ in range(25):
            f = Signal(g, rng.standard_normal(16))
            assert domain_norm(f, w, 0.5) >= sobolev_norm(f, w, s) - 1e-10


def test_domain_norm_monotone_in_scale(rng):
    g = parse_group("Z16")
    w = make_weight(g, "sym-euclid")
    f = Signal(g, rng.standard_normal(16))
    norms = [domain_norm(f, w, c) for c in (0.25, 0.5, 1.0)]
    assert norms[0] <= norms[1] <= norms[2]


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

def test_constant_source_solution():
    g = parse_group("Z8")
    w = make_weight(g, "sym-euclid")
    u = solve_linear(Signal(g, np.ones(8)), w, 1.0)
    assert np.allclose(u.values, -1.0, atol=1e-14)


def test_solve_then_apply_roundtrip(rng):
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    g_sig = _band_limited(rng, g, w, 20)
    u = solve_linear(g_sig, w, 1.0)
    back = apply_operator(u, w, 1.0)
    assert np.allclose(back.values, g_sig.values, rtol=1e-11, atol=1e-11)


def test_apply_then_solve_roundtrip(rng):
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    u = _band_limited(rng, g, w, 20)
    g_sig = apply_operator(u, w, 1.0)
    back = solve_linear(g_sig, w, 1.0)
    assert np.allclose(back.values, u.values, rtol=1e-11, atol=1e-11)


def test_solve_output_carries_exact_dual(rng):
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    u = solve_linear(Signal(g, rng.standard_normal(64)), w, 1.0)
    assert u.exact_dual is not None
    # beyond the representable band the solve coefficients underflow to zero
    prof = build_multiplier(g, w, 1.0)
    assert np.all(u.exact_dual[prof.log_values > 745.0] == 0.0)


def test_solve_isometry_z64(rng):
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    for _ in range(100):
        data = Signal(g, rng.standard_normal(64))
        u = solve_linear(data, w, 0.5)
        lhs = domain_norm(u, w, 0.5)
        rhs = lp_norm(data, 2)
        assert abs(lhs - rhs) <= 1e-10 * rhs


def test_solve_isometry_hamming(rng):
    g = parse_group("Z2xZ2xZ2xZ2xZ2xZ2")
    w = make_weight(g, "hamming")
    for _ in range(50):
        data = Signal(g, rng.standard_normal(64))
        u = solve_linear(data, w, 1.0)
        assert domain_norm(u, w, 1.0) == pytest.approx(lp_norm(data, 2), rel=1e-12)


# ---------------------------------------------------------------------------
# log-space multiplication
# ---------------------------------------------------------------------------

def test_multiply_spectrum_plain(rng):
    g = parse_group("Z16")
    w = make_weight(g, "sym-euclid")
    prof = build_multiplier(g, w, 0.5)
    spec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert np.allclose(multiply_spectrum(prof, spec), prof.values * spec)


def test_multiply_spectrum_handles_underflowed_coefficients():
    # a sub-tolerance coefficient at an unrepresentable multiplier is pushed
    # through in log space, preserving magnitude and phase
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    prof = build_multiplier(g, w, 1.0)
    spec = np.zeros(64, dtype=complex)
    spec[30] = 1e-310 * (0.6 + 0.8j)  # gamma = 30, log m ~ 906.8
    out = multiply_spectrum(prof, spec)
    expected_log = prof.log_values[30] + math.log(1e-310)
    assert math.log(abs(out[30])) == pytest.approx(expected_log, abs=1e-9)
    assert np.angle(out[30]) == pytest.approx(np.angle(spec[30]), abs=1e-6)
    assert np.all(out[np.arange(64) != 30] == 0.0)


def test_multiply_spectrum_rejects_unrepresentable_product():
    # gamma = 40 at c = 1: log m ~ 1607, so even a 1e-302 coefficient gives a
    # product beyond float64
    g = parse_group("Z128")
    w = make_weight(g, "sym-euclid")
    prof = build_multiplier(g, w, 1.0)
    spec = np.zeros(128, dtype=complex)
    spec[40] = 1e-302
    with pytest.raises(NotInDomainError, match="not representable"):
        multiply_spectrum(prof, spec)


def test_multiply_spectrum_guards_active_overflow():
    g = parse_group("Z64")
    w = make_weight(g, "sym-euclid")
    prof = build_multiplier(g, w, 1.0)
    spec = np.zeros(64, dtype=complex)
    spec[32] = 0.5
    with pytest.raises(NotInDomainError, match="dual index 32"):
        multiply_spectrum(prof, spec)


def test_active_tolerance_pin():
    assert ACTIVE_COEFF_TOL == 1e-300
    assert LOG_MAX_DOUBLE == pytest.approx(709.7827, abs=1e-3)
