import numpy as np
import pytest

from groupsobolev.group import character_table, element_at, parse_group
from groupsobolev.spectral import (
    Signal,
    Spectrum,
    convolve_dual,
    dft_fast,
    dft_naive,
    dft_values,
    dual_coefficients,
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


def test_csv_wrong_row_count_rejected(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("index,re,im\n0,1.0,0.0\n")
    with pytest.raises(ValueError):
        read_signal_csv(path, parse_group("Z4"))
