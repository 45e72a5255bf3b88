import numpy as np
import pytest

from groupsobolev.group import (
    FiniteAbelianGroup,
    character_table,
    compose,
    compose_indices,
    element_at,
    enumerate_elements,
    evaluate_character,
    haar_weight,
    index_of,
    inverse,
    inverse_indices,
    parse_group,
)


def test_parse_single_factor():
    g = parse_group("Z4")
    assert g.factors == (4,)
    assert g.order == 4
    assert g.descriptor == "Z4"


def test_parse_product():
    g = parse_group("Z2xZ3")
    assert g.factors == (2, 3)
    assert g.order == 6
    assert g.descriptor == "Z2xZ3"


@pytest.mark.parametrize("bad", ["", "Z0", "Z-1", "Z2x", "4", "Z2*Z3", "Z", "xZ2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_group(bad)


def test_constructor_rejects_bad_factors():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0,))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, -2))


def test_enumeration_order_first_factor_most_significant():
    g = parse_group("Z2xZ3")
    elems = enumerate_elements(g)
    assert elems == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    for i, x in enumerate(elems):
        assert index_of(g, x) == i
        assert element_at(g, i) == x


def test_haar_weight_is_inverse_order():
    assert haar_weight(parse_group("Z7")) == pytest.approx(1.0 / 7.0)
    assert haar_weight(parse_group("Z2xZ2")) == pytest.approx(0.25)


def test_compose_and_inverse_componentwise():
    g = parse_group("Z4xZ6")
    assert compose(g, (3, 5), (2, 4)) == (1, 3)
    assert inverse(g, (1, 2)) == (3, 4)
    assert inverse(g, (0, 0)) == (0, 0)


def test_compose_rejects_out_of_range():
    g = parse_group("Z4")
    with pytest.raises(ValueError):
        compose(g, (4,), (0,))
    with pytest.raises(ValueError):
        compose(g, (0, 0), (1,))


@pytest.mark.parametrize("name", ["Z5", "Z8", "Z2xZ3", "Z2xZ2xZ2", "Z4xZ4"])
def test_group_axioms_exhaustive(name):
    """Associativity, identity, inverses on every triple (vectorized)."""
    g = parse_group(name)
    n = g.order
    idx = np.arange(n)
    table = compose_indices(g, idx[:, None], idx[None, :])
    # identity element is index 0
    assert np.array_equal(table[0], idx)
    assert np.array_equal(table[:, 0], idx)
    # inverses hit the identity
    inv = inverse_indices(g)
    assert np.array_equal(table[idx, inv], np.zeros(n, dtype=table.dtype))
    # commutativity and associativity
    assert np.array_equal(table, table.T)
    left = table[table]             # (a b) c
    right = table[:, table]         # a (b c)
    assert np.array_equal(left, right)


def test_compose_indices_matches_tuple_compose(rng):
    g = parse_group("Z3xZ5")
    for _ in range(25):
        i, j = rng.integers(0, g.order, size=2)
        expected = index_of(g, compose(g, element_at(g, int(i)), element_at(g, int(j))))
        assert compose_indices(g, int(i), int(j)) == expected


@pytest.mark.parametrize("factors", [(1,), (7,), (1, 3, 1), (4, 1, 5), (2,) * 12,
                                     (3, 1, 2, 1, 2, 1, 3, 1, 2, 1, 1, 2), "random"])
def test_index_tables_match_the_tuple_definitions(factors, rng):
    for _ in range(5 if factors == "random" else 1):
        if factors == "random":
            g = FiniteAbelianGroup(tuple(rng.integers(1, 6, size=rng.integers(1, 6))))
        else:
            g = FiniteAbelianGroup(factors)
        elements = enumerate_elements(g)
        i = rng.integers(0, g.order, size=40)
        j = rng.integers(0, g.order, size=40)
        expected = [index_of(g, compose(g, elements[a], elements[b])) for a, b in zip(i, j)]
        assert compose_indices(g, i, j).tolist() == expected
        table = compose_indices(g, i[:, None], j[None, :])  # broadcast
        assert table.shape == (40, 40) and table[np.arange(40), np.arange(40)].tolist() == expected
        assert compose_indices(g, int(i[0]), int(j[0])) == expected[0]
        assert inverse_indices(g).tolist() == [index_of(g, inverse(g, a)) for a in elements]


def test_character_values_on_z4():
    g = parse_group("Z4")
    assert evaluate_character(g, (1,), (1,)) == pytest.approx(1j)
    assert evaluate_character(g, (1,), (2,)) == pytest.approx(-1)
    assert evaluate_character(g, (2,), (3,)) == pytest.approx(-1)
    assert evaluate_character(g, (0,), (3,)) == pytest.approx(1)


@pytest.mark.parametrize("name", ["Z6", "Z2xZ4", "Z3xZ3"])
def test_characters_are_bilinear(name):
    g = parse_group(name)
    elems = enumerate_elements(g)
    for xi in elems:
        for x in elems:
            for y in elems:
                lhs = evaluate_character(g, xi, compose(g, x, y))
                rhs = evaluate_character(g, xi, x) * evaluate_character(g, xi, y)
                assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("name", ["Z8", "Z2xZ3", "Z2xZ2xZ2", "Z12"])
def test_character_orthogonality(name):
    g = parse_group(name)
    table = character_table(g)
    gram = table.conj() @ table.T / g.order
    assert np.allclose(gram, np.eye(g.order), atol=1e-12)


def test_character_table_matches_pointwise():
    g = parse_group("Z3xZ4")
    table = character_table(g)
    for k in range(g.order):
        for x in range(g.order):
            expected = evaluate_character(g, element_at(g, k), element_at(g, x))
            assert table[k, x] == pytest.approx(expected, abs=1e-12)


def test_repr_is_compact():
    assert "Z2xZ3" in repr(parse_group("Z2xZ3"))
