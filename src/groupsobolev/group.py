"""Finite abelian groups as explicit products of cyclic factors.

Everything downstream (transforms, Sobolev norms, the string-equation
solver) lives on a :class:`FiniteAbelianGroup`, i.e. Z_{n_1} x ... x Z_{n_d}.
Group elements and dual characters are plain tuples of residues; the dual
group is identified with the group itself through the pairing

    xi_k(x) = exp(2*pi*i * sum_j k_j * x_j / n_j).

The enumeration order -- mixed radix with the FIRST factor most
significant, so the linear index of (r_1, ..., r_d) is
sum_j r_j * prod_{k>j} n_k -- is the canonical layout for every signal,
spectrum, and serialized file in this package.

Haar measure on the group is normalized to total mass 1 (weight 1/|G| per
point); the dual carries counting measure.  This is the pairing that makes
Plancherel and Fourier inversion hold with no stray constants.
"""
from __future__ import annotations

import cmath
import itertools
import math
import re
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = [
    "FiniteAbelianGroup",
    "parse_group",
    "compose",
    "inverse",
    "evaluate_character",
    "enumerate_elements",
    "haar_weight",
    "index_of",
    "element_at",
    "compose_indices",
]

_FACTOR_RE = re.compile(r"^Z(\d+)$")


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group given as a product of cyclic factors.

    ``factors`` is the ordered tuple of cyclic moduli (n_1, ..., n_d),
    every n_j >= 1.  Trivial factors n_j = 1 are allowed and simply
    contribute nothing.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            factors = tuple(int(n) for n in self.factors)
        except TypeError as exc:
            raise ValueError("factors must be an iterable of integers") from exc
        if len(factors) == 0:
            raise ValueError("a group needs at least one cyclic factor")
        for n in factors:
            if n < 1:
                raise ValueError(f"cyclic modulus must be >= 1, got {n}")
        object.__setattr__(self, "factors", factors)

    @cached_property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def descriptor(self) -> str:
        """The canonical string form, e.g. ``"Z2xZ3xZ5"``."""
        return "x".join(f"Z{n}" for n in self.factors)

    def __repr__(self) -> str:  # keep log/debug output compact
        return f"FiniteAbelianGroup({self.descriptor})"


def parse_group(descriptor: str) -> FiniteAbelianGroup:
    """Parse a descriptor like ``"Z64"`` or ``"Z2xZ2xZ2"``.

    Raises ValueError on anything that does not match the grammar or that
    names a modulus < 1 (e.g. ``"Z0"``).
    """
    if not isinstance(descriptor, str) or not descriptor:
        raise ValueError("group descriptor must be a non-empty string")
    factors = []
    for token in descriptor.split("x"):
        m = _FACTOR_RE.match(token.strip())
        if m is None:
            raise ValueError(f"bad group descriptor {descriptor!r}: token {token!r}")
        factors.append(int(m.group(1)))
    return FiniteAbelianGroup(tuple(factors))


# ---------------------------------------------------------------------------
# element / character arithmetic
# ---------------------------------------------------------------------------

def _check_tuple(group: FiniteAbelianGroup, a, what: str) -> tuple[int, ...]:
    a = tuple(int(r) for r in a)
    if len(a) != len(group.factors):
        raise ValueError(
            f"{what} of length {len(a)} does not fit group {group.descriptor} "
            f"with {len(group.factors)} factors"
        )
    for r, n in zip(a, group.factors):
        if not 0 <= r < n:
            raise ValueError(f"{what} residue {r} out of range for factor Z{n}")
    return a


def compose(group: FiniteAbelianGroup, a, b) -> tuple[int, ...]:
    """Componentwise (a_j + b_j) mod n_j."""
    a = _check_tuple(group, a, "element")
    b = _check_tuple(group, b, "element")
    return tuple((x + y) % n for x, y, n in zip(a, b, group.factors))


def inverse(group: FiniteAbelianGroup, a) -> tuple[int, ...]:
    """The group inverse, componentwise (n_j - a_j) mod n_j."""
    a = _check_tuple(group, a, "element")
    return tuple((n - x) % n for x, n in zip(a, group.factors))


def evaluate_character(group: FiniteAbelianGroup, xi, x) -> complex:
    """Value of the character with frequency indices ``xi`` at the point ``x``.

    xi_k(x) = exp(2*pi*i * sum_j k_j x_j / n_j); unit modulus up to rounding,
    multiplicative in both arguments.
    """
    xi = _check_tuple(group, xi, "character")
    x = _check_tuple(group, x, "element")
    phase = sum(k * r / n for k, r, n in zip(xi, x, group.factors))
    return cmath.exp(2j * math.pi * phase)


def enumerate_elements(group: FiniteAbelianGroup) -> list[tuple[int, ...]]:
    """All elements in canonical order (first factor most significant)."""
    return list(itertools.product(*(range(n) for n in group.factors)))


def haar_weight(group: FiniteAbelianGroup) -> float:
    """Mass of a single point under the normalized Haar measure: 1/|G|."""
    return 1.0 / group.order


def index_of(group: FiniteAbelianGroup, a) -> int:
    """Linear enumeration index of an element (or character) tuple."""
    a = _check_tuple(group, a, "element")
    idx = 0
    for r, n in zip(a, group.factors):
        idx = idx * n + r
    return idx


def element_at(group: FiniteAbelianGroup, idx: int) -> tuple[int, ...]:
    """Inverse of :func:`index_of`."""
    idx = int(idx)
    if not 0 <= idx < group.order:
        raise ValueError(f"index {idx} out of range for group of order {group.order}")
    out = []
    for n in reversed(group.factors):
        out.append(idx % n)
        idx //= n
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# vectorized index tables
#
# These back the fast paths: transforms, convolution, translation, and the
# exhaustive property scans.  An element's index comes from its residues by
# np.ravel_multi_index over the factors, whose "wrap" mode reduces each
# residue mod n_j, so a sum or a negation of residues needs no "% n".
# Cached arrays are read-only so they can be shared freely.
# ---------------------------------------------------------------------------

@cache
def residue_grid(group: FiniteAbelianGroup) -> np.ndarray:
    """Array of shape (d, order): column i holds the residues of element i."""
    grid = np.indices(group.factors).reshape(len(group.factors), -1)
    grid.setflags(write=False)
    return grid


def compose_indices(group: FiniteAbelianGroup, i, j) -> np.ndarray:
    """Index-level composition: the enumeration index of element_i * element_j.

    ``i`` and ``j`` are integer arrays (broadcast against each other).
    """
    grid = residue_grid(group)
    return np.ravel_multi_index(tuple(axis[i] + axis[j] for axis in grid), group.factors,
                                mode="wrap")


@cache
def inverse_indices(group: FiniteAbelianGroup) -> np.ndarray:
    """inverse_indices(G)[i] = enumeration index of the inverse of element i."""
    out = np.ravel_multi_index(tuple(-residue_grid(group)), group.factors, mode="wrap")
    out.setflags(write=False)
    return out


_TABLE_MAX_ORDER = 4096


def character_table(group: FiniteAbelianGroup) -> np.ndarray:
    """Full character table T[k, x] = xi_k(x), shape (order, order).

    O(order^2) memory -- intended for small groups (the naive-transform
    oracle and exhaustive property scans), not for production transforms.
    Raises ValueError above order 4096 (a 256 MiB table), before allocating.
    """
    if group.order > _TABLE_MAX_ORDER:
        raise ValueError(
            f"character table of {group.descriptor} (order {group.order}) exceeds "
            f"the limit of order {_TABLE_MAX_ORDER}"
        )
    # the table of a product group is the Kronecker product of its factors'
    # tables (first factor most significant, as in the enumeration); each
    # factor's phase (k x mod n) / n is reduced in integers, so it stays exact
    # to one rounding whatever the order
    table = np.ones((1, 1), dtype=np.complex128)
    for n in group.factors:
        k = np.arange(n)
        table = np.kron(table, np.exp(2j * np.pi * (np.multiply.outer(k, k) % n / n)))
    return table
