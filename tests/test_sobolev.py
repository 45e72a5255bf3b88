import math

import numpy as np
import pytest

from groupsobolev.group import compose, element_at, index_of, parse_group
from groupsobolev.sobolev import (
    algebra_constant,
    check_subadditivity,
    compactness_profile,
    embedding_constant_lalpha,
    embedding_constant_sup,
    lp_norm,
    lp_norm_batch,
    make_weight,
    sobolev_norm,
    sobolev_norm_batch,
    translation_modulus,
    verify_scale,
    weight_from_table,
)
from groupsobolev.spectral import Signal, Spectrum, dft_fast, idft, pointwise_mul


def test_sym_euclid_table_z4():
    w = make_weight(parse_group("Z4"), "sym-euclid")
    assert np.allclose(w.values, [0.0, 1.0, 2.0, 1.0])
    assert w.c_gamma == 1.0


def test_sym_euclid_table_product():
    # gamma(k) = sqrt(sum_j min(k_j, n_j - k_j)^2)
    w = make_weight(parse_group("Z4xZ4"), "sym-euclid")
    assert w.values[0] == 0.0
    k = 1 * 4 + 2  # element (1, 2)
    assert w.values[k] == pytest.approx(math.sqrt(1 + 4))


def test_hamming_weight_counts_ones():
    w = make_weight(parse_group("Z2xZ2xZ2"), "hamming")
    assert np.allclose(w.values, [0, 1, 1, 2, 1, 2, 2, 3])


def test_hamming_needs_dyadic_group():
    with pytest.raises(ValueError):
        make_weight(parse_group("Z4"), "hamming")


def test_pruefer_table_z8():
    w = make_weight(parse_group("Z8"), "pruefer:2")
    assert np.allclose(w.values, [0, 8, 4, 8, 2, 8, 4, 8])


def test_pruefer_needs_matching_prime_power():
    with pytest.raises(ValueError):
        make_weight(parse_group("Z8"), "pruefer:3")
    with pytest.raises(ValueError):
        make_weight(parse_group("Z12"), "pruefer:2")


def test_zero_weight():
    w = make_weight(parse_group("Z7"), "zero")
    assert np.all(w.values == 0.0)


def test_unknown_weight_name():
    with pytest.raises(ValueError):
        make_weight(parse_group("Z4"), "euclid")


def test_weight_from_table_validation():
    g = parse_group("Z4")
    with pytest.raises(ValueError):
        weight_from_table(g, [0.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        weight_from_table(g, [0.0, -1.0, 2.0, 1.0], 1.0)


@pytest.mark.parametrize(
    "name,wname",
    [("Z12", "sym-euclid"), ("Z2xZ2xZ2", "hamming"), ("Z16", "pruefer:2"), ("Z9", "zero")],
)
def test_builtin_weights_are_subadditive(name, wname):
    g = parse_group(name)
    rep = check_subadditivity(g, make_weight(g, wname))
    assert rep["ok"]
    assert rep["worst_ratio"] <= 1.0 + 1e-12
    assert rep["mode"] == "exhaustive"


def test_subadditivity_catches_bad_table():
    g = parse_group("Z4")
    # gamma(1) + gamma(1) = 2 but gamma(2) = 10: ratio 5 with c_gamma = 1
    w = weight_from_table(g, [0.0, 1.0, 10.0, 1.0], 1.0)
    rep = check_subadditivity(g, w)
    assert not rep["ok"]
    assert rep["worst_ratio"] == pytest.approx(5.0)
    assert rep["witness"] is not None


def test_subadditivity_degenerate_violation_is_infinite():
    g = parse_group("Z4")
    # gamma vanishes at 1 and 3 but not at 1*3... wait: use 1+1=2
    w = weight_from_table(g, [0.0, 0.0, 1.0, 0.0], 1.0)
    rep = check_subadditivity(g, w)
    assert not rep["ok"]
    assert math.isinf(rep["worst_ratio"])


def _subadditivity_record(group, w, pairs, mode):
    """The ``check_subadditivity`` record of a scan of ``pairs`` (index pairs
    in scan order), kept the plain way: the first largest finite ratio and
    the first pair whose denominator is 0 below a positive numerator."""
    gam = w.values
    worst, worst_pair, degenerate_pair, count = 0.0, None, None, 0
    for i, j, k in pairs:
        count += 1
        num, den = gam[k], gam[i] + gam[j]
        if den == 0.0:
            if num > 0.0 and degenerate_pair is None:
                degenerate_pair = (i, j)
        elif num / den > worst:
            worst, worst_pair = float(num / den), (i, j)
    witness = degenerate_pair or worst_pair
    return {
        "ok": degenerate_pair is None and worst <= w.c_gamma + 1e-12,
        "worst_ratio": math.inf if degenerate_pair else worst,
        "witness": None if witness is None else [list(element_at(group, x)) for x in witness],
        "pairs_checked": count,
        "mode": mode,
    }


@pytest.mark.parametrize("name", ["Z1", "Z2", "Z7", "Z12", "Z2xZ3", "Z3xZ1xZ4", "Z2xZ2xZ2xZ2"])
@pytest.mark.parametrize("table", ["violating", "zero-heavy", "small-integers"])
def test_exhaustive_subadditivity_record_matches_a_brute_force(name, table, rng):
    g = parse_group(name)
    n = g.order
    gamma = {
        "violating": lambda: rng.random(n) * 3.0,
        "zero-heavy": lambda: np.where(rng.random(n) < 0.6, 0.0, rng.random(n)),
        "small-integers": lambda: rng.integers(1, 4, n).astype(float),  # tied ratios
    }[table]()
    w = weight_from_table(g, gamma, 0.5 if table == "small-integers" else 1.0)
    pairs = ((i, j, index_of(g, compose(g, element_at(g, i), element_at(g, j))))
             for i in range(n) for j in range(n))
    assert check_subadditivity(g, w) == _subadditivity_record(g, w, pairs, "exhaustive")


@pytest.mark.parametrize("zeros", [0.0, 0.5])
@pytest.mark.parametrize("seed", [0, 7])
def test_sampled_subadditivity_record_replays_the_seeded_draws(zeros, seed, rng):
    g = parse_group("Z5000")
    n = g.order
    gamma = np.where(rng.random(n) < zeros, 0.0, rng.random(n))
    w = weight_from_table(g, gamma, 1.0)
    draws = np.random.default_rng(seed)
    i, j = np.concatenate([[draws.integers(0, n, size=100_000), draws.integers(0, n, size=100_000)]
                           for _ in range(10)], axis=1)
    # vectorised for 10^6 pairs: the first largest ratio and the first
    # degenerate pair over the draws in order
    num, den = gamma[(i + j) % n], gamma[i] + gamma[j]
    bad = np.flatnonzero((den == 0.0) & (num > 0.0))
    ratio = np.divide(num, den, out=np.zeros(den.size), where=den > 0.0)
    first = bad[0] if bad.size else int(np.argmax(ratio))
    worst = math.inf if bad.size else float(ratio[first])
    assert check_subadditivity(g, w, seed) == {
        "ok": not bad.size and worst <= 1.0 + 1e-12,
        "worst_ratio": worst,
        "witness": [[int(i[first])], [int(j[first])]],
        "pairs_checked": 1_000_000,
        "mode": "sampled",
    }
    assert (bad.size > 0) == (zeros > 0)


_ELSEWHERE = "weight lives on a different group"


@pytest.mark.parametrize("call, message", [
    (lambda g, w: check_subadditivity(g, w), _ELSEWHERE),
    (lambda g, w: embedding_constant_sup(g, w, 1.0), _ELSEWHERE),
    (lambda g, w: embedding_constant_lalpha(g, w, 1.0, 2.0), _ELSEWHERE),
    (lambda g, w: algebra_constant(g, w, 1.0), _ELSEWHERE),
    (lambda g, w: translation_modulus(g, w, 1.0, (1, 1)), _ELSEWHERE),
    (lambda g, w: compactness_profile(g, w, 1.0), _ELSEWHERE),
    (lambda g, w: verify_scale(Signal(g, np.arange(8.0)), w, 1.0, 0.5),
     "signal and weight live on different groups"),
], ids=["check_subadditivity", "embedding_constant_sup", "embedding_constant_lalpha",
        "algebra_constant", "translation_modulus", "compactness_profile", "verify_scale"])
def test_a_weight_from_another_group_is_refused(call, message):
    # Z8 has the order of Z2xZ4, so its weight table would fit the dual
    w = make_weight(parse_group("Z8"), "sym-euclid")
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(parse_group("Z2xZ4"), w)


def test_sobolev_norm_single_mode():
    g = parse_group("Z4")
    w = make_weight(g, "sym-euclid")
    f = idft(Spectrum(g, [0.0, 1.0, 0.0, 0.0]))  # gamma = 1 at that mode
    assert sobolev_norm(f, w, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert sobolev_norm(f, w, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_sobolev_norm_skips_exact_zeros_where_the_weight_overflows():
    g = parse_group("Z4096")
    w = make_weight(g, "sym-euclid")
    with np.errstate(over="ignore"):
        assert np.isinf((1.0 + w.values**2) ** 60.0).any()
    spec = np.zeros(g.order, dtype=complex)
    spec[[1, -1]] = 0.5  # a real field's
    norm = float(sobolev_norm_batch(w, 60.0, spec))
    assert norm == pytest.approx(math.sqrt(0.5) * (1.0 + w.values[1] ** 2) ** 30.0, rel=1e-14)


def test_sobolev_norm_at_large_s_reads_tiny_and_huge_coefficients():
    # gamma = 2048 at s = 60: (1 + gamma^2)^60 is beyond float64 but its
    # square root is not, so neither coefficient may read 0 or inf
    g = parse_group("Z4096")
    w = make_weight(g, "sym-euclid")
    assert w.values[2048] == 2048.0
    for coeff, want in ((1e-300, 4.784e-102), (1e-150, 4.784e48)):
        spec = np.zeros(g.order, dtype=complex)
        spec[2048] = coeff
        norm = float(sobolev_norm_batch(w, 60.0, spec))
        assert norm == pytest.approx(coeff * (1.0 + 2048.0**2) ** 30.0, rel=1e-12, abs=0.0)
        assert norm == pytest.approx(want, rel=1e-3, abs=0.0)


def test_sobolev_norm_of_a_field_whose_transform_overflows():
    # every sample is finite, but the transform's sums overflow and leave
    # inf and NaN coefficients: the norm reads inf, with no numpy warning
    # (an error in this suite)
    g = parse_group("Z8")
    w = make_weight(g, "sym-euclid")
    f = Signal(g, [1.7e308] * 8)
    assert lp_norm(f, 2) == 1.7e308
    assert sobolev_norm(f, w, 0.5) == math.inf
    rows = np.zeros((3, 8), dtype=complex)
    rows[0, 1], rows[1, 2], rows[2, 0] = np.nan, np.inf, 1.0
    assert sobolev_norm_batch(w, 1.0, rows).tolist() == [math.inf, math.inf, 1.0]


def test_sobolev_norm_beyond_the_plain_sum_of_squares():
    # finite norms whose plain sum overflows, through |F|^2 (row 0) or
    # through a weighted term (row 1), are summed again scaled by the
    # largest weighted term; a row that does not overflow is summed plainly
    g = parse_group("Z8")
    w = make_weight(g, "sym-euclid")
    rows = np.zeros((3, 8), dtype=complex)
    rows[0, [1, 7]] = 1e200  # weight (1 + 1)^s
    rows[1, 4] = 1e150  # weight (1 + 16)^s
    rows[2, [1, 2]] = 0.5, 0.25j
    norms = sobolev_norm_batch(w, 10.0, rows)
    assert norms[0] == pytest.approx(math.sqrt(2.0) * 2.0**5 * 1e200, rel=1e-15)
    assert norms[1] == pytest.approx(17.0**5 * 1e150, rel=1e-15)
    weights = (1.0 + w.values**2) ** 10.0
    assert norms[2] == np.sqrt((weights * np.abs(rows[2]) ** 2).sum())


def test_sobolev_norm_at_zero_is_l2(rng):
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    f = Signal(g, rng.standard_normal(12) + 1j * rng.standard_normal(12))
    assert sobolev_norm(f, w, 0.0) == pytest.approx(lp_norm(f, 2), rel=1e-12)


def test_negative_smoothness_rejected():
    g = parse_group("Z4")
    w = make_weight(g, "sym-euclid")
    f = Signal(g, np.ones(4))
    with pytest.raises(ValueError):
        sobolev_norm(f, w, -0.5)


def test_lp_norm_values():
    g = parse_group("Z4")
    f = Signal(g, [1.0, -1.0, 1.0, -1.0])
    assert lp_norm(f, 2) == pytest.approx(1.0)
    assert lp_norm(f, math.inf) == pytest.approx(1.0)
    dirac = Signal(g, [4.0, 0.0, 0.0, 0.0])
    assert lp_norm(dirac, 1) == pytest.approx(1.0)  # mass (1/N)*N = 1
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_lp_norm_refuses_nan_p():
    g = parse_group("Z4")
    f = Signal(g, [1.0, -1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="needs p >= 1"):
        lp_norm(f, math.nan)
    with pytest.raises(ValueError, match="needs p >= 1"):
        lp_norm_batch(g, f.values.real, math.nan)


@pytest.mark.parametrize("scale", [1e300, 1e-200, 1e-160])
def test_lp_norm_of_extreme_finite_fields(scale):
    # the plain sum of squares overflows, underflows to 0, or goes subnormal
    g = parse_group("Z12")
    f = Signal(g, np.full(12, scale))
    assert lp_norm(f, 2) == pytest.approx(scale, rel=1e-15)
    assert lp_norm(f, 3) == pytest.approx(scale, rel=1e-15)
    rows = np.stack([np.full(12, scale), np.ones(12), np.zeros(12)])
    assert np.allclose(lp_norm_batch(g, rows, 4) / [scale, 1.0, 1.0], [1.0, 1.0, 0.0],
                       rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("p", [4, 6])
def test_power_sums_match_long_double(p, rng):
    # the solver's ball check at alpha = 2 and 3 takes these powers as
    # products of squares: each power alone (one entry per row, signed
    # bases from subnormal to 1e300) and sums over a solver-sized field stay
    # within 2 ulps of a long double reference
    from groupsobolev.sobolev import _power_sum

    if np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant:
        pytest.skip("long double is no wider than double here")
    mags = [0.0, 5e-324, 1e-310, 1e-200, 1e-60, 1e-3, 0.3, 0.99999, 1.00002, 1.7, 3.25, 1e5,
            1e40, 1e51, 1e77, 1e100, 1e300]
    single = np.array(mags + [-m for m in mags])[:, None]
    for values in (single, rng.standard_normal((8, 4096))):
        with np.errstate(over="ignore", under="ignore"):
            got = _power_sum(values, p)
            ref = (np.abs(values.astype(np.longdouble)) ** p).sum(axis=-1)
            wide = ref.astype(np.float64)
        assert np.array_equal(np.isinf(got), np.isinf(wide))
        finite = np.isfinite(wide)
        ulps = np.abs(got[finite] - ref[finite]) / np.spacing(wide[finite])
        assert ulps.max() <= 2.0


def test_lp_norm_of_real_valued_signal_reads_the_real_array(rng):
    # a real field is held as complex samples with zero imaginary parts,
    # which must not enter its sums: the solver's built-in forcings of L2
    # norm 0.3 and 0.2 read 0.30000000000000004 and 0.20000000000000007 so
    from groupsobolev.nonlinear import lowfreq_forcing

    fields = [lowfreq_forcing(parse_group("Z64"), 0.3),
              lowfreq_forcing(parse_group("x".join(["Z2"] * 12)), 0.2),
              Signal(parse_group("Z4096"), rng.standard_normal(4096))]
    for f in fields:
        values = np.ascontiguousarray(f.values.real)
        for p in (1, 2, 3, 4, 6, math.inf):
            assert lp_norm(f, p) == float(lp_norm_batch(f.group, values, p))
    assert lp_norm(fields[0], 2) == 0.3 and lp_norm(fields[1], 2) == 0.2
    g = fields[2].group
    assert lp_norm(Signal(g, values + 1e-3j), 2) == float(lp_norm_batch(g, values + 1e-3j, 2))


def test_lp_norm_of_infinite_field_is_infinite():
    g = parse_group("Z4")
    assert lp_norm_batch(g, np.array([1.0, -np.inf, 0.0, 2.0]), 2) == math.inf


def test_embedding_constant_sup_z4():
    g = parse_group("Z4")
    w = make_weight(g, "sym-euclid")
    # sum over gamma in {0,1,2,1}: 1 + 1/2 + 1/5 + 1/2 = 2.2
    assert embedding_constant_sup(g, w, 1.0) == pytest.approx(math.sqrt(2.2), rel=1e-14)


def test_embedding_constant_lalpha_z4():
    g = parse_group("Z4")
    w = make_weight(g, "sym-euclid")
    out = embedding_constant_lalpha(g, w, 1.0, 2.0)
    assert out["alpha_star"] == pytest.approx(4.0)
    expected = (1.0 + 0.25 + 1.0 / 25.0 + 0.25) ** 0.25
    assert out["constant"] == pytest.approx(expected, rel=1e-14)


def test_embedding_constant_lalpha_validation():
    g = parse_group("Z4")
    w = make_weight(g, "sym-euclid")
    with pytest.raises(ValueError):
        embedding_constant_lalpha(g, w, 1.0, 0.5)   # alpha < 1
    with pytest.raises(ValueError):
        embedding_constant_lalpha(g, w, 2.0, 2.0)   # alpha must exceed s
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            embedding_constant_lalpha(g, w, 1.0, alpha)


def test_algebra_constant_zero_weight_z2():
    g = parse_group("Z2")
    w = make_weight(g, "zero")
    # 2^s (1 + c^2)^{s/2} C with C = sqrt(2): 2 * sqrt(2) * sqrt(2) = 4
    assert algebra_constant(g, w, 1.0) == pytest.approx(4.0, rel=1e-14)


def test_algebra_inequality_random(rng):
    g = parse_group("Z8")
    w = make_weight(g, "sym-euclid")
    for s in (0.0, 0.5, 1.0, 2.0):
        d = algebra_constant(g, w, s)
        for _ in range(50):
            f = Signal(g, rng.standard_normal(8) + 1j * rng.standard_normal(8))
            h = Signal(g, rng.standard_normal(8) + 1j * rng.standard_normal(8))
            lhs = sobolev_norm(pointwise_mul(f, h), w, s)
            assert lhs <= d * sobolev_norm(f, w, s) * sobolev_norm(h, w, s) + 1e-10


def test_sup_embedding_random(rng):
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    for s in (0.0, 1.0, 2.0):
        c = embedding_constant_sup(g, w, s)
        for _ in range(50):
            f = Signal(g, rng.standard_normal(12) + 1j * rng.standard_normal(12))
            assert lp_norm(f, math.inf) <= c * sobolev_norm(f, w, s) + 1e-10


def test_translation_modulus_zero_weight_z2():
    g = parse_group("Z2")
    w = make_weight(g, "zero")
    # xi_1(1) = -1, |(-1) - 1|^2 = 4, denominator 1
    assert translation_modulus(g, w, 1.0, (1,)) == pytest.approx(4.0)
    assert translation_modulus(g, w, 1.0, (0,)) == 0.0


def test_translation_modulus_controls_shift_distance(rng):
    g = parse_group("Z12")
    w = make_weight(g, "sym-euclid")
    from groupsobolev.spectral import translate

    for s in (0.5, 1.0):
        for h in [(1,), (3,), (7,)]:
            ch = translation_modulus(g, w, s, h)
            for _ in range(20):
                f = Signal(g, rng.standard_normal(12) + 1j * rng.standard_normal(12))
                dist2 = (np.abs(translate(f, h).values - f.values) ** 2).mean()
                assert dist2 <= ch * sobolev_norm(f, w, s) ** 2 + 1e-10


@pytest.mark.parametrize("name, wname", [("Z2xZ3xZ5", "sym-euclid"), ("Z8xZ8", "zero"),
                                         ("Z2xZ2xZ2xZ2xZ2xZ2", "hamming")])
def test_translation_moduli_of_all_shifts_at_once(name, wname):
    # one vectorised pass over every shift gives each shift's modulus bit
    # for bit
    from groupsobolev.group import residue_grid
    from groupsobolev.sobolev import _translation_moduli

    g = parse_group(name)
    w = make_weight(g, wname)
    for s in (0.0, 0.5, 2.0):
        batch = _translation_moduli(g, w, s, residue_grid(g).T)
        one_by_one = [translation_modulus(g, w, s, element_at(g, k)) for k in range(g.order)]
        assert batch.tolist() == one_by_one
    with pytest.raises(ValueError):
        translation_modulus(g, w, 1.0, (7, 0, 0))


def test_compactness_profile_z16_within_torus_angle():
    g = parse_group("Z16")
    w = make_weight(g, "sym-euclid")
    rows = compactness_profile(g, w, 1.0)
    assert len(rows) == 16
    for row in rows:
        assert row.angle_bound == pytest.approx(
            2.0 * math.pi * min(row.multiple, 16 - row.multiple) / 16.0
        )
        assert row.within_bound
        assert row.sup_ratio <= row.angle_bound + 1e-12


def test_compactness_profile_unsquared_ratio():
    g = parse_group("Z2")
    rows = compactness_profile(g, make_weight(g, "zero"), 1.0)
    sup = {row.multiple: row.sup_ratio for row in rows}
    assert sup[0] == 0.0
    assert sup[1] == pytest.approx(2.0)  # |(-1) - 1| unsquared
    assert rows[1].angle_bound is None  # bound specific to sym-euclid, s >= 1/2


def test_verify_scale(rng):
    g = parse_group("Z8")
    w = make_weight(g, "sym-euclid")
    f = Signal(g, rng.standard_normal(8))
    assert verify_scale(f, w, 2.0, 1.0)
    assert verify_scale(f, w, 1.0, 1.0)
    with pytest.raises(ValueError):
        verify_scale(f, w, 1.0, 2.0)
