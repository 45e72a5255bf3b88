import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsobolev.group import (
    FiniteAbelianGroup,
    character_table,
    element_at,
    inverse_indices,
    parse_group,
    residue_grid,
)
from groupsobolev.spectral import (
    Signal,
    Spectrum,
    convolve_dual,
    dft_fast,
    dft_naive,
    dft_values,
    dual_coefficients,
    half_layout,
    idft,
    idft_values,
    pointwise_mul,
    read_signal_csv,
    read_signal_json,
    read_spectrum_csv,
    read_spectrum_json,
    translate,
    write_signal_csv,
    write_signal_json,
    write_spectrum_csv,
    write_spectrum_json,
)

ZOO = ["Z2", "Z3", "Z4", "Z7", "Z12", "Z2xZ2", "Z2xZ3xZ5", "Z8xZ8", "Z64",
       "Z2xZ2xZ2xZ2xZ2xZ2"]


def _rand_signal(group, rng):
    vals = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    return Signal(group, vals)


def test_dirac_spectrum_is_flat():
    g = parse_group("Z4")
    f = Signal(g, [1.0, 0.0, 0.0, 0.0])
    for transform in (dft_naive, dft_fast):
        spec = transform(f)
        assert np.allclose(spec.values, 0.25)


def test_constant_signal_hits_only_trivial_character():
    g = parse_group("Z2xZ3")
    spec = dft_fast(Signal(g, np.full(6, 2.5)))
    expected = np.zeros(6, dtype=complex)
    expected[0] = 2.5
    assert np.allclose(spec.values, expected, atol=1e-14)


def test_character_signal_is_single_spike():
    g = parse_group("Z5")
    xi = element_at(g, 2)
    vals = np.array([np.exp(2j * np.pi * xi[0] * x / 5) for x in range(5)])
    spec = dft_fast(Signal(g, vals))
    expected = np.zeros(5, dtype=complex)
    expected[2] = 1.0
    assert np.allclose(spec.values, expected, atol=1e-14)


@pytest.mark.parametrize("name", ZOO)
def test_fast_matches_naive(name, rng):
    g = parse_group(name)
    for _ in range(5):
        f = _rand_signal(g, rng)
        a = dft_fast(f).values
        b = dft_naive(f).values
        assert np.linalg.norm(a - b) <= 1e-10 * max(np.linalg.norm(b), 1e-30)


@pytest.mark.parametrize("name", ["Z257", "Z1009", "x".join(["Z2"] * 10), "Z720"])
def test_fast_matches_oracle_on_hard_shapes(name, rng):
    # prime lengths, many tiny factors and a highly composite length
    g = parse_group(name)
    table = character_table(g)
    f = _rand_signal(g, rng)
    ref = dft_naive(f).values
    assert np.linalg.norm(dft_values(g, f.values) - ref) <= 1e-14 * np.linalg.norm(ref)
    F = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    ref = table.T @ F  # f(x) = sum_xi F(xi) xi(x), straight from the definition
    assert np.linalg.norm(idft_values(g, F) - ref) <= 1e-14 * np.linalg.norm(ref)


def _definition(group, rows):
    """Forward and inverse transforms of each row straight from the
    definition, 256 characters at a time so no order x order table is held:
    xi_k(x) = w^P with w = exp(2 pi i / L), L = lcm(n_j), and the integer
    phase P = sum_j k_j x_j L / n_j mod L."""
    lcm = math.lcm(*group.factors)
    roots = np.exp(2j * np.pi * np.arange(lcm) / lcm)
    res = residue_grid(group).astype(np.float64)  # BLAS; phases below 2**53 stay exact
    scaled = res * np.array([lcm // n for n in group.factors])[:, None]
    fwd = np.empty(rows.shape, dtype=np.complex128)
    inv = np.empty(rows.shape, dtype=np.complex128)
    for start in range(0, group.order, 256):
        chars = roots[(scaled[:, start:start + 256].T @ res % lcm).astype(np.int64)]
        fwd[:, start:start + 256] = rows @ chars.conj().T / group.order
        inv[:, start:start + 256] = rows @ chars.T
    return fwd, inv


def _factor_table(n):
    """Z_n's character table T[k, x] = exp(2 pi i k x / n), from the integer
    phases k x mod n, as in _definition."""
    k = np.arange(n)
    return np.exp(2j * np.pi * np.arange(n) / n)[np.outer(k, k) % n]


def _axiswise(group, rows):
    """Forward and inverse transforms of each row as the Kronecker product of
    the factors' transforms: each factor's own dense table applied along its
    axis of the factor grid, O(|G| sum n_j), with no fft and none of the
    code's merged runs."""
    fwd = rows.reshape(len(rows), *group.factors).astype(np.complex128)
    inv = fwd
    for axis, n in enumerate(group.factors, start=1):
        table = _factor_table(n)
        fwd = np.moveaxis(np.tensordot(table.conj() / n, fwd, axes=(1, axis)), 0, axis)
        inv = np.moveaxis(np.tensordot(table, inv, axes=(1, axis)), 0, axis)
    return fwd.reshape(rows.shape), inv.reshape(rows.shape)


def _radix_split(group, rows, a):
    """Forward and inverse transforms of each row on a cyclic group of order
    N = a b by one radix-a step: with x = b x1 + x2 and k = k1 + a k2,
    xi_k(x) = w_a^(x1 k1) w_N^(x2 k1) w_b^(x2 k2), so a dense transform of
    order a over x1, a twiddle by integer phases and one of order b over x2
    make it, in O(N (a + b)) and with no fft."""
    (n,) = group.factors
    b = n // a
    assert a * b == n
    x2, k1 = np.arange(b), np.arange(a)
    twiddle = np.exp(2j * np.pi * np.arange(n) / n)[np.outer(k1, x2) % n]
    grid = rows.reshape(len(rows), a, b)
    fwd = (_factor_table(a).conj() @ grid * twiddle.conj()) @ _factor_table(b).conj() / n
    inv = (_factor_table(a) @ grid * twiddle) @ _factor_table(b)
    # entry (k1, k2) holds k = k1 + a k2: k2 is the slower index
    return tuple(out.transpose(0, 2, 1).reshape(rows.shape) for out in (fwd, inv))


def _transforms(group, rows):
    """Forward and inverse transforms of complex rows from references blind to
    the code's plan: the definition below order 4096; above it Sylvester's
    recursion on a 2-group (whose inverse is |G| times its forward
    transform), a radix-64 split on a cyclic group, and the factor-by-factor
    product on any other group."""
    if group.order < 4096:
        return _definition(group, rows)
    if all(n <= 2 for n in group.factors):
        fwd = _walsh(group, rows)
        return fwd, fwd * group.order
    if len(group.factors) == 1:
        return _radix_split(group, rows, 64)
    return _axiswise(group, rows)


@pytest.mark.parametrize("name, oracle", [
    ("Z2xZ3xZ5xZ7", _axiswise), ("Z6xZ10", _axiswise), ("Z4xZ4xZ4", _axiswise),
    ("Z2xZ2xZ16", _axiswise), ("Z64", lambda g, rows: _radix_split(g, rows, 8)),
    ("Z96", lambda g, rows: _radix_split(g, rows, 8)),
    ("x".join(["Z2"] * 6), lambda g, rows: (_walsh(g, rows), _walsh(g, rows) * g.order)),
])
def test_fast_oracles_match_definition(name, oracle, rng):
    g = parse_group(name)
    rows = rng.standard_normal((2, g.order)) + 1j * rng.standard_normal((2, g.order))
    for got, ref in zip(oracle(g, rows), _definition(g, rows)):
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", [
    "x".join(["Z2"] * 10), "x".join(["Z2"] * 12), "x".join(["Z3"] * 7), "x".join(["Z4"] * 6),
    "Z2xZ3xZ5xZ7", "Z2xZ2xZ1024", "Z2xZ2xZ2",
])
def test_blocked_plan_matches_definition(name, rng):
    # runs of small factors go through dense character-table blocks,
    # Z2xZ2xZ2 through blocks alone; a batch of rows transforms row by row
    g = parse_group(name)
    f = rng.standard_normal((3, g.order)) + 1j * rng.standard_normal((3, g.order))
    for transform, refs in zip((dft_values, idft_values), _transforms(g, f)):
        batch = transform(g, f)
        for row, got, ref in zip(f, batch, refs):
            alone = transform(g, row)
            assert np.linalg.norm(alone - ref) <= 1e-14 * np.linalg.norm(ref)
            assert np.linalg.norm(got - alone) <= 1e-15 * np.linalg.norm(alone)


@pytest.mark.parametrize("name", ["Z4096", "Z64xZ64", "Z16xZ16xZ16", "Z257", "Z128xZ128"])
def test_groups_without_small_runs_take_one_fftn_call(name, rng):
    g = parse_group(name)
    f = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    grid = f.reshape(g.factors)
    fwd = np.fft.fftn(grid, norm="forward").reshape(-1)
    inv = np.fft.ifftn(grid, norm="forward").reshape(-1)
    assert np.array_equal(dft_values(g, f), fwd)
    assert np.array_equal(idft_values(g, f), inv)


def test_two_group_plans_keep_no_thin_last_run():
    # a last run of order 2 or 4 joins the run before it (Z2^13 as 8, 8, 8,
    # 16): no block is a batch of thin products; 2-groups with a multiple of
    # three factors, Z2^12 among them, keep their runs of 8
    from groupsobolev.spectral import _grid_plan

    for k in range(1, 17):
        shape = _grid_plan((2,) * k).shape
        assert math.prod(shape) == 2**k
        assert shape[:-1] == (8,) * (len(shape) - 1)
        assert shape[-1] in ((2**k,) if k < 3 else (8, 16, 32))
    assert _grid_plan((2,) * 13).shape == (8, 8, 8, 16)
    assert _grid_plan((2,) * 12).shape == (8, 8, 8, 8)


# ---------------------------------------------------------------------------
# the half layout of real fields
# ---------------------------------------------------------------------------

# Z5xZ2xZ2xZ7 lays out an unhalved fft axis, a dense block and a halved axis
HALF_GROUPS = ["Z4096", "Z64xZ64", "Z16xZ16xZ16", "Z257", "x".join(["Z2"] * 12),
               "Z2xZ2xZ1024", "Z3xZ5xZ7", "Z6xZ10", "Z2xZ4xZ2xZ4", "Z2", "Z2xZ2xZ2xZ2",
               "x".join(["Z2"] * 13), "Z5xZ2xZ2xZ7"]


def _walsh(group, rows):
    """Forward transforms of rows on an elementary abelian 2-group by
    Sylvester's recursion H_2n = [[H_n, H_n], [H_n, -H_n]], one Z2 axis at a
    time: O(|G| log |G|), and blind to how the code merges factors."""
    grid = rows.reshape(len(rows), *(n for n in group.factors if n == 2))
    for axis in range(1, grid.ndim):
        even, odd = grid.take(0, axis), grid.take(1, axis)
        grid = np.stack((even + odd, even - odd), axis=axis)
    return grid.reshape(rows.shape).astype(np.complex128) / group.order


def _oracle(group, rows):
    """Forward transforms of real rows: dft_naive where its table is small,
    else those of ``_transforms``."""
    if group.order <= 1024:
        return np.array([dft_naive(Signal(group, row)).values for row in rows])
    return _transforms(group, rows.astype(np.complex128))[0]


def test_walsh_oracle_matches_definition(rng):
    g = parse_group("x".join(["Z2"] * 10))
    rows = rng.standard_normal((2, g.order))
    ref = _definition(g, rows.astype(np.complex128))[0]
    assert np.linalg.norm(_walsh(g, rows) - ref) <= 1e-14 * np.linalg.norm(ref)


def _multiplicity(layout):
    """How often each half entry counts in a sum over the dual: once where
    its partner is stored too (every entry, where no axis is halved), twice
    elsewhere."""
    if layout.paired is None:
        return np.ones(layout.size)
    mult = np.full(layout.size, 2.0)
    mult[layout.paired] = 1.0
    return mult


def _check_half_layout(g, rows):
    layout = half_layout(g)
    half = dft_values(g, rows, half=True)
    ref = _oracle(g, rows)
    # forward: the oracle's coefficients on the half entries
    want = layout.gather(ref)
    assert np.linalg.norm(half - want) <= 1e-12 * np.linalg.norm(want)
    # the Hermitian expansion reproduces the full transform
    full = layout.expand(half)
    assert np.linalg.norm(full - ref) <= 1e-12 * np.linalg.norm(ref)
    # inverse: a real field back from its half
    back = idft_values(g, half, half=True)
    assert back.dtype == np.float64
    assert np.linalg.norm(back - rows) <= 1e-12 * np.linalg.norm(rows)
    # Plancherel with multiplicities
    mult = _multiplicity(layout)
    l2 = (rows**2).mean(axis=-1)
    assert np.allclose((mult * np.abs(half) ** 2).sum(axis=-1), l2, rtol=1e-12, atol=0)
    return layout


@pytest.mark.parametrize("name", HALF_GROUPS)
def test_half_transforms_match_oracle(name, rng):
    g = parse_group(name)
    layout = _check_half_layout(g, rng.standard_normal((2, g.order)))
    assert layout.size == (g.order if layout.index is None else layout.index.size)
    if layout.index is not None:  # every full index is an entry or an entry's partner
        assert np.unique(layout.index).size == layout.size < g.order
        assert _multiplicity(layout).sum() == g.order


@pytest.mark.parametrize("name", ["Z2xZ4xZ2xZ4"])
def test_degenerate_half_layout_is_the_complex_transform(name, rng):
    # no axis to halve: the half is the full dual, transformed by exactly
    # the complex arithmetic, and the inverse returns its real part
    g = parse_group(name)
    layout = half_layout(g)
    assert layout.axis is None and layout.index is None and layout.paired is None
    assert not layout.real
    assert np.array_equal(layout.partner, inverse_indices(g))
    x = rng.standard_normal(g.order)
    coeffs = dft_values(g, x)
    assert np.array_equal(dft_values(g, x, half=True), coeffs)
    assert np.array_equal(idft_values(g, coeffs, half=True), idft_values(g, coeffs).real)
    assert layout.gather(coeffs) is coeffs and layout.expand(coeffs) is coeffs


TWO_GROUPS = {"Z1": "Z1", "Z2": "Z2", "Z2xZ2": "Z2xZ2", "Z2^4": "x".join(["Z2"] * 4),
              "Z2^12": "x".join(["Z2"] * 12)}


def _check_real_layout(g, rows):
    """On an elementary abelian 2-group: float64 coefficients on the full
    dual that match the oracle's to 1e-12 relative, with a round trip and
    Plancherel, both ways and batched."""
    layout = half_layout(g)
    assert layout.real and layout.axis is None and layout.index is None
    assert layout.size == g.order and layout.paired is None
    half = dft_values(g, rows, half=True)
    assert half.dtype == np.float64
    ref = _oracle(g, rows)
    assert np.linalg.norm(half - ref) <= 1e-12 * np.linalg.norm(ref)
    back = idft_values(g, half, half=True)
    assert back.dtype == np.float64
    assert np.linalg.norm(back - rows) <= 1e-12 * np.linalg.norm(rows)
    l2 = (rows**2).mean(axis=-1)
    assert np.allclose((half**2).sum(axis=-1), l2, rtol=1e-12, atol=0)
    for row, got in zip(rows, half):  # a batch transforms row by row
        alone = dft_values(g, row, half=True)
        assert np.linalg.norm(got - alone) <= 1e-15 * np.linalg.norm(alone)
    return layout, ref


@pytest.mark.parametrize("name", list(TWO_GROUPS.values()), ids=list(TWO_GROUPS))
def test_real_half_layout_of_2_groups(name, rng):
    # every character is real (+-1): a real field's coefficients are real,
    # held as float64 on the full dual, and every run, a lone Z2 too, is a
    # dense real block
    g = parse_group(name)
    layout, ref = _check_real_layout(g, rng.standard_normal((2, g.order)))
    assert np.array_equal(layout.partner, np.arange(g.order))  # each xi is its own inverse
    assert layout.gather(ref).dtype == np.float64  # the real part of Hermitian data
    assert np.array_equal(layout.gather(ref), ref.real)
    coeffs = dft_values(g, rng.standard_normal(g.order), half=True)
    assert layout.gather(coeffs) is coeffs and layout.expand(coeffs) is coeffs
    # the complex transform on the same group agrees with the real one
    x = rng.standard_normal(g.order)
    assert np.allclose(dft_values(g, x), dft_values(g, x, half=True), rtol=0, atol=1e-15)


@settings(max_examples=10, deadline=None)
@given(k=st.integers(1, 13), seed=st.integers(0, 2**32 - 1))
def test_real_half_layout_property(k, seed):
    g = FiniteAbelianGroup((2,) * k)
    _check_real_layout(g, np.random.default_rng(seed).standard_normal((1, g.order)))


def test_half_layout_halves_the_last_long_single_axis():
    # Z2xZ9xZ2: the axes of length 2 cannot be halved, the middle one can
    g = parse_group("Z2xZ9xZ2")
    layout = half_layout(g)
    assert layout.axis == -2 and layout.shape == (2, 5, 2)
    # the entries with coordinate 0 on the halved axis pair among themselves
    assert np.array_equal(layout.paired, np.flatnonzero(layout.index % 18 < 2))
    partners = inverse_indices(g)[layout.index[layout.paired]]
    assert np.array_equal(layout.index[layout.partner], partners)


@settings(max_examples=60, deadline=None)
@given(factors=st.lists(st.integers(1, 9), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_half_layout_property(factors, seed):
    g = FiniteAbelianGroup(tuple(factors))
    rows = np.random.default_rng(seed).standard_normal((2, g.order))
    _check_half_layout(g, rows)


LAYOUTS = {"Z12": "Z12", "Z64xZ64": "Z64xZ64", "Z2xZ4xZ2xZ4": "Z2xZ4xZ2xZ4",
           "Z2^6": "x".join(["Z2"] * 6)}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _reference_expand(layout, half):
    """Full index i reads half entry source[i], conjugated where i is not an
    entry of the layout itself."""
    if layout.index is None:
        return half
    pos = np.full(layout.inverse.size, -1)
    pos[layout.index] = np.arange(layout.size)
    conjugate = pos < 0
    full = half[..., np.where(conjugate, pos[layout.inverse], pos)]
    np.conjugate(full, out=full, where=conjugate)
    return full


@pytest.mark.parametrize("name", list(LAYOUTS.values()), ids=list(LAYOUTS))
def test_half_layout_expands_projects_and_splits(name, rng):
    g = parse_group(name)
    layout = half_layout(g)
    assert np.array_equal(layout.inverse, inverse_indices(g))

    def draw(*shape, real=False):
        z = rng.standard_normal(shape)
        return z if real else z + 1j * rng.standard_normal(shape)

    batch = draw(2, layout.size, real=layout.real)
    assert _same_bits(layout.expand(batch), _reference_expand(layout, batch))
    # a projection gives exactly Hermitian full coefficients, which split
    # hands back as they were, with no anti-Hermitian part
    half = layout.project(draw(layout.size, real=layout.real))
    full = layout.expand(half)
    assert np.array_equal(full[layout.inverse].conj(), full)
    p, q = layout.split(full)
    assert _same_bits(p, half) and q is None
    # any full coefficients are p + i q, to rounding
    full = draw(g.order)
    p, q = layout.split(full)
    assert q is not None
    back = layout.expand(p) + 1j * layout.expand(q)
    assert np.abs(back - full).max() <= 1e-15 * np.abs(full).max()


@pytest.mark.parametrize("name", ZOO + ["Z720", "Z4096", "Z3xZ5xZ7"])
def test_roundtrip_both_ways(name, rng):
    g = parse_group(name)
    f = _rand_signal(g, rng)
    back = idft(dft_fast(f))
    assert np.linalg.norm(back.values - f.values) <= 1e-10 * np.linalg.norm(f.values)
    F = Spectrum(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))
    spec_back = dft_fast(idft(F))
    assert np.linalg.norm(spec_back.values - F.values) <= 1e-10 * np.linalg.norm(F.values)


@pytest.mark.parametrize("name", ["Z8", "Z12", "Z2xZ3", "Z2xZ2xZ2"])
def test_plancherel(name, rng):
    g = parse_group(name)
    f = _rand_signal(g, rng)
    l2 = np.sqrt((np.abs(f.values) ** 2).sum() / g.order)
    dual = np.sqrt((np.abs(dft_fast(f).values) ** 2).sum())
    assert l2 == pytest.approx(dual, rel=1e-12)


@pytest.mark.parametrize("name", ["Z8", "Z12", "Z2xZ3", "Z2xZ2xZ2"])
def test_convolution_theorem(name, rng):
    """Pointwise products transform to dual convolutions."""
    g = parse_group(name)
    f, h = _rand_signal(g, rng), _rand_signal(g, rng)
    lhs = dft_fast(pointwise_mul(f, h)).values
    rhs = convolve_dual(dft_fast(f), dft_fast(h)).values
    assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))


def test_translate_on_z4_is_cyclic_shift():
    g = parse_group("Z4")
    f = Signal(g, [10.0, 20.0, 30.0, 40.0])
    assert np.allclose(translate(f, (1,)).values, [20.0, 30.0, 40.0, 10.0])
    assert np.allclose(translate(f, (3,)).values, [40.0, 10.0, 20.0, 30.0])


def test_translate_is_modulation_dually(rng):
    g = parse_group("Z3xZ4")
    f = _rand_signal(g, rng)
    h = (1, 2)
    shifted_spec = dft_fast(translate(f, h)).values
    base = dft_fast(f).values
    from groupsobolev.group import evaluate_character

    mods = np.array([evaluate_character(g, element_at(g, k), h) for k in range(g.order)])
    assert np.allclose(shifted_spec, mods * base, atol=1e-12)


def test_group_mismatch_raises(rng):
    f = _rand_signal(parse_group("Z4"), rng)
    h = _rand_signal(parse_group("Z2xZ2"), rng)
    with pytest.raises(ValueError):
        pointwise_mul(f, h)


def test_values_must_be_finite():
    g = parse_group("Z2")
    with pytest.raises(ValueError):
        Signal(g, [1.0, np.inf])
    with pytest.raises(ValueError):
        Spectrum(g, [np.nan, 0.0])


def test_a_transform_that_overflows_raises_one_error():
    # finite samples whose sum overflows: numpy's warnings are silenced (the
    # suite turns them into errors) and one ValueError says what overflowed
    g = parse_group("Z4")
    huge = np.full(g.order, 1e308)
    for transform in (dft_fast, dft_naive):
        with pytest.raises(ValueError, match="^signal is too large: its forward transform"):
            transform(Signal(g, huge))
    with pytest.raises(ValueError, match="^spectrum is too large: its inverse transform"):
        idft(Spectrum(g, huge))


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        Signal(parse_group("Z4"), [1.0, 2.0])


def test_idft_remembers_its_spectrum(rng):
    g = parse_group("Z8")
    F = Spectrum(g, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    sig = idft(F)
    assert sig.exact_dual is not None
    assert np.array_equal(sig.exact_dual, F.values)
    # a signal built from raw values carries no dual; the helper transforms
    raw = _rand_signal(g, rng)
    assert raw.exact_dual is None
    assert np.allclose(dual_coefficients(raw), dft_fast(raw).values)


def test_exact_dual_is_a_validated_field(rng):
    g = parse_group("Z8")
    F = Spectrum(g, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    sig = idft(F)
    assert not sig.exact_dual.flags.writeable
    assert "exact_dual" not in repr(sig)
    with pytest.raises(ValueError):
        Signal(g, sig.values, exact_dual=F.values[:4])
    with pytest.raises(ValueError):
        Signal(g, sig.values, exact_dual=np.full(8, np.nan))
    kept = Signal(g, sig.values, exact_dual=F.values)
    assert np.array_equal(kept.exact_dual, F.values)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_csv_roundtrip_bit_exact(tmp_path, rng):
    g = parse_group("Z12")
    vals = _rand_signal(g, rng).values.copy()
    vals[:3] = [complex(-0.0, 5e-324), complex(1e300, -1e300), complex(-5e-324, -0.0)]
    f = Signal(g, vals)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, f)
    back = read_signal_csv(path, g)
    assert np.array_equal(back.values, f.values)  # 17 digits round-trip losslessly
    assert back.values.tobytes() == f.values.tobytes()  # the signs of zeros too
    spec = dft_fast(f)
    spath = tmp_path / "spec.csv"
    write_spectrum_csv(spath, spec)
    assert np.array_equal(read_spectrum_csv(spath, g).values, spec.values)


def test_json_roundtrip_bit_exact(tmp_path, rng):
    g = parse_group("Z2xZ5")
    f = _rand_signal(g, rng)
    path = tmp_path / "sig.json"
    write_signal_json(path, f)
    back = read_signal_json(path, g)
    assert np.array_equal(back.values, f.values)
    spec = dft_fast(f)
    spath = tmp_path / "spec.json"
    write_spectrum_json(spath, spec)
    assert np.array_equal(read_spectrum_json(spath, g).values, spec.values)


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("idx,real,imag\n0,1.0,0.0\n")
    with pytest.raises(ValueError):
        read_signal_csv(path, parse_group("Z1"))


def test_csv_out_of_order_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,re,im\n1,1.0,0.0\n0,2.0,0.0\n")
    with pytest.raises(ValueError):
        read_signal_csv(path, parse_group("Z2"))


def test_csv_reader_matches_python_float(tmp_path, rng):
    # the reader parses with numpy; Python's float() is the reference
    g = parse_group("Z64")
    x = rng.standard_normal(2 * g.order) * 10.0 ** rng.integers(-300, 300, 2 * g.order)
    forms = ("{!r}", "{:.17g}", "{:.5e}", "{:.3f}", "{:E}", " {:.9g} ")
    cells = [forms[i % len(forms)].format(float(v)) for i, v in enumerate(x)]
    cells[:6] = ["-0", "5e-324", "-4.9e-324", "1e300", "-.5", "+2."]
    rows = [f"{i},{cells[2 * i]},{cells[2 * i + 1]}" for i in range(g.order)]
    path = tmp_path / "sig.csv"
    path.write_text("\n".join(["index,re,im", *rows]) + "\n")
    ref = np.array([float(c) for c in cells])
    assert read_signal_csv(path, g).values.view(np.float64).tobytes() == ref.tobytes()


def test_csv_bad_cell_names_file_and_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,re,im\n0,1.0,0.0\n1,abc,0.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv: .*'1,abc,0\.0'"):
        read_signal_csv(path, parse_group("Z2"))


def test_json_group_mismatch_rejected(tmp_path, rng):
    g = parse_group("Z4")
    f = _rand_signal(g, rng)
    path = tmp_path / "sig.json"
    write_signal_json(path, f)
    with pytest.raises(ValueError):
        read_signal_json(path, parse_group("Z2xZ2"))


@pytest.mark.parametrize("pairs", [
    "[1%s, 0]" % ("0" * 399),         # an integer past float64
    "[1e999, 0]",                     # json reads it as inf
    "[NaN, 0]",
    "[true, false]",                  # a bool is not a JSON number
    '["0.5", 0]',                     # nor is a string
], ids=["integer-past-float64", "1e999", "nan", "bool", "string"])
def test_json_reader_refuses_what_is_not_a_float64_number(tmp_path, pairs):
    path = tmp_path / "sig.json"
    path.write_text('{"group": "Z2", "values": [%s, [0, 0]]}' % pairs)
    with pytest.raises(ValueError, match=r"sig\.json: 'values' pairs must hold JSON numbers"):
        read_signal_json(path)


def test_csv_wrong_row_count_rejected(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("index,re,im\n0,1.0,0.0\n")
    with pytest.raises(ValueError):
        read_signal_csv(path, parse_group("Z4"))
