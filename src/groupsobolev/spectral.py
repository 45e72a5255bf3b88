"""Fourier analysis on finite abelian groups.

Measure conventions (fixed here, relied on everywhere else):

* the group carries normalized Haar measure (mass 1, weight 1/|G| per point),
* the dual carries counting measure,
* forward transform   F(f)(xi) = (1/|G|) * sum_x conj(xi(x)) f(x),
* inverse transform   f(x) = sum_xi F(xi) xi(x).

Under this pairing Plancherel is exact, ||f||_{L^2} = ||F(f)||_{l^2}, and the
inverse really inverts, with no extra normalization constants anywhere.

Two transform paths are provided.  ``dft_naive`` is the O(|G|^2) definition,
kept as the correctness oracle.  ``dft_fast`` reshapes the values onto the
grid of cyclic factors and factors the transform as a Kronecker product
(Van Loan, *Computational Frameworks for the FFT*, sec. 3.4): runs of
consecutive factors whose product is at most ``_BLOCK_ORDER`` are merged
into one axis and transformed by one matrix product with the dense
character table of their subgroup, and every other factor goes through one
``numpy.fft.fft`` pass (pocketfft: mixed-radix Cooley-Tukey, Bluestein at
large prime lengths).  A group with no such run, a cyclic group for one, is
transformed by those passes alone.

A real field's coefficients are Hermitian, F(xi^-1) = conj F(xi), so half
of them determine the rest.  ``dft_values``/``idft_values`` with
``half=True`` transform a real field to and from its coefficients on the
:class:`HalfLayout` of :func:`half_layout`: the last single-factor axis of
length >= 3 is halved to n//2 + 1 by ``rfft``/``irfft``, the other
single-factor axes go through ``fft``/``ifft``, and the block products run
on the half grid, in the one pass sequence of every transform.  A sum over
the dual counts an entry twice but where its partner xi^-1 is stored too.
The layout owns the pairing of xi with xi^-1: it gathers a real field's
coefficients from the full dual and expands them back, projects half
coefficients onto those of a real field, and splits any full-dual
coefficients into those of two real fields, p + i q.  Only the fixed-point
map of ``nonlinear``, which steps and certifies every field, holds
coefficients on this layout, and it forms no Hermitian part itself; every
other module reads the full dual.  On an elementary abelian 2-group (every
factor Z2, or Z1) each character is its own inverse and takes the values
+-1, so a real field's coefficients are real: every run of factors, a lone
Z2 too, is a dense block (a last run of order below ``_BLOCK_ORDER`` joins
the run before it), and the half transforms are float64 products with the
+-1 tables on the full dual.  Any other group with no axis to halve (every
factor of length 3 or more merged into a block, e.g. Z2xZ4xZ2xZ4) keeps
the full dual as its half, with the complex arithmetic and no gathers.

:func:`frequency_embedding` embeds the dual of a coarse group Z_M1 x ... x
Z_Mr into a group's, axis by axis by an exact quotient or a de-aliased
truncation, and maps the coarse half layout into the group's: the solver
iterates on such a group when its source lives on a band of low
frequencies.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .group import (
    FiniteAbelianGroup,
    character_table,
    compose_indices,
    haar_weight,
    index_of,
    inverse_indices,
    parse_group,
)

__all__ = [
    "Signal",
    "Spectrum",
    "dft_naive",
    "dft_fast",
    "idft",
    "convolve_dual",
    "pointwise_mul",
    "translate",
    "write_signal_csv",
    "read_signal_csv",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_signal_json",
    "read_signal_json",
    "write_spectrum_json",
    "read_spectrum_json",
]


def _all_finite(values: np.ndarray) -> bool:
    """Whether every entry is finite.  A contiguous complex array is tested
    through its float64 view, at about two thirds of the cost of numpy's
    complex ``isfinite``."""
    if values.dtype.kind == "c" and values.flags.c_contiguous:
        values = values.view(np.float64)
    return bool(np.isfinite(values).all())


def _as_frozen_values(group: FiniteAbelianGroup, values, what: str) -> np.ndarray:
    vals = np.array(values, dtype=np.complex128, order="C").reshape(-1)  # one copy, a view reshaped
    if vals.size != group.order:
        raise ValueError(
            f"{what} has {vals.size} values but group {group.descriptor} "
            f"has order {group.order}"
        )
    if not _all_finite(vals):
        raise ValueError(f"{what} values must all be finite")
    vals.setflags(write=False)
    return vals


@dataclass(frozen=True, eq=False)
class Signal:
    """A complex-valued function on the group, in enumeration order.

    ``exact_dual`` optionally holds the dual coefficients the signal was
    synthesized from; ``idft`` always sets it, and it is left out of the
    repr.  Routines that scale coefficients by exponentially large
    multipliers use that representation when present: once a multiplier
    exceeds 1/eps, the corresponding coefficient cannot be recovered from
    the float64 values by any transform (re-transform noise ~ eps * max|f|
    swamps it), while the dual array still carries it exactly.  Plain
    transforms (``dft_fast``, ``dft_naive``) never read it.
    """

    group: FiniteAbelianGroup
    values: np.ndarray
    exact_dual: np.ndarray | None = field(default=None, repr=False, kw_only=True)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_frozen_values(self.group, self.values, "signal"))
        if self.exact_dual is not None:
            dual = _as_frozen_values(self.group, self.exact_dual, "exact dual")
            object.__setattr__(self, "exact_dual", dual)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Fourier coefficients indexed by dual characters, in enumeration order."""

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", _as_frozen_values(self.group, self.values, "spectrum")
        )


def _same_group(a, b) -> FiniteAbelianGroup:
    if a.group != b.group:
        raise ValueError(f"group mismatch: {a.group.descriptor} vs {b.group.descriptor}")
    return a.group


# ---------------------------------------------------------------------------
# core transform kernels
# ---------------------------------------------------------------------------

# Largest order of a merged block, chosen by measurement (2 vCPUs, numpy
# 2.4.6, OpenBLAS): order 8 transforms Z2^12 in about 0.1 ms against 1.9 ms
# for 12 pocketfft passes.  A block of order b costs b*|G| multiply-adds.  On
# an inner axis it is a batch of (b x b) @ (b x post) products; on the last
# grid axis (post 1) it is one 2-D product, values.reshape(-1, b) @ T, with
# the table T symmetric, instead of |G|/b matrix-vector products.  A
# 2-group's last run of order 2 or 4 joins the run before it, as one 2-D
# product of order 16 or 32: kept apart, its block before would be |G|/16
# or |G|/32 thin products (8 x 8) @ (8 x 2 or 4).  Interleaved in one
# process, the half transforms (forward/inverse) of Z2^13 took 96/94 us as
# runs 8, 8, 8, 8, 2 and 42/43 us as 8, 8, 8, 16; Z2^14's 119/116 us as
# 8, 8, 8, 8, 4 and 74/74 us as 8, 8, 8, 32; Z2^12's 30/31 us.  Importing
# the package first pins OpenBLAS to one thread (see __init__); in a process
# that loaded numpy before, OpenBLAS runs a complex product of 65536 or more
# multiply-adds on several threads: order 16 does so on groups of order 4096
# (CPU/wall about 2), order 8 only from order 8192 on, as do the real
# products of Z2^13 and Z2^14, at no gain in wall time.
_BLOCK_ORDER = 8


@dataclass(frozen=True, eq=False)
class HalfLayout:
    """The half of the dual that holds a real field's coefficients.

    A real field's coefficients satisfy F(xi^-1) = conj F(xi), so the entries
    with coordinate 0..n/2 on one grid axis of length n >= 3 (the halved
    axis, counted from the end) determine the rest.  ``index`` holds the
    full dual index of each half entry; ``paired`` lists the entries whose
    partner xi^-1 is stored too (coordinate 0 or n/2 on the halved axis) and
    ``partner`` the positions of those partners.  Every other entry stands
    for its partner as well, so a sum of |F|^2 over the dual counts it
    twice.  ``inverse`` is the inverse map of the full dual, index of xi to
    index of xi^-1.

    When no axis can be halved the half is the full dual: ``axis``,
    ``index`` and ``paired`` are None (every entry is its own half entry,
    counted once, and paired), ``partner`` is ``inverse``, and
    :meth:`expand` returns its argument.  ``real`` is set on an elementary
    abelian 2-group, whose characters are real: there a real field's
    coefficients are real, held as float64, :meth:`gather` takes the real
    part of Hermitian coefficients, elsewhere it returns its argument, and
    :meth:`project` returns its argument.
    """

    axis: int | None
    shape: tuple[int, ...]
    size: int
    index: np.ndarray | None
    paired: np.ndarray | None
    partner: np.ndarray
    inverse: np.ndarray
    real: bool = False

    def zeros(self) -> np.ndarray:
        """The coefficients of the zero field: float64 on a real layout."""
        return np.zeros(self.size, dtype=np.float64 if self.real else np.complex128)

    def gather(self, full: np.ndarray) -> np.ndarray:
        """The half entries of a real field's full-dual coefficients (last
        axis = dual)."""
        if self.index is None:
            return full.real if self.real else full
        return np.take(full, self.index, axis=-1)

    def expand(self, half: np.ndarray) -> np.ndarray:
        """The full-dual coefficients of a real field from its half entries
        (last axis = half): each half entry at its own index, and its
        conjugate at its partner's unless that is stored too."""
        if self.index is None:
            return half
        full = np.empty((*half.shape[:-1], self.inverse.size), dtype=half.dtype)
        full[..., self.inverse[self.index]] = np.conjugate(half)
        full[..., self.index] = half
        return full

    def project(self, raw: np.ndarray) -> np.ndarray:
        """The coefficients on the layout of a real field nearest to ``raw``:
        each entry whose partner is stored too (every entry where no axis is
        halved) averaged with the conjugate of its partner.  Overwrites and
        returns ``raw`` where an axis is halved, its real part (``raw``
        itself when float64) on a 2-group's real layout, and a new array
        otherwise."""
        if self.real:
            return raw.real
        sym = raw[self.partner]
        np.conjugate(sym, out=sym)
        sym += raw if self.paired is None else raw[self.paired]
        sym *= 0.5
        if self.paired is None:
            return sym
        raw[self.paired] = sym
        return raw

    def split(self, full: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Full-dual coefficients as p + i q, with p and q the half
        coefficients of two real fields: the Hermitian part of ``full`` and
        its anti-Hermitian part times -i.  Exactly Hermitian coefficients
        give (their half entries, None)."""
        partners = full[self.inverse].conj()
        if np.array_equal(partners, full):
            return self.gather(full), None
        return self.gather(0.5 * (full + partners)), self.gather(-0.5j * (full - partners))


def _half_layout(factors: tuple[int, ...], shape: tuple[int, ...], single: list[int],
                 real: bool) -> HalfLayout:
    """Halve the last of the single-factor grid axes ``single`` of length >= 3;
    ``real`` marks a 2-group, whose layout is the full dual, held real."""
    group = FiniteAbelianGroup(factors)
    inv = inverse_indices(group)
    halvable = [axis for axis in single if shape[axis] >= 3]
    if not halvable:
        return HalfLayout(None, shape, group.order, None, None, inv, inv, real)
    axis = halvable[-1]
    n, post = shape[axis], math.prod(shape[axis + 1:])
    half_shape = (*shape[:axis], n // 2 + 1, *shape[axis + 1:])
    grid = np.arange(group.order).reshape(shape)
    index = grid[(slice(None),) * axis + (slice(0, n // 2 + 1),)].reshape(-1)
    k = index // post % n
    paired = np.flatnonzero((k == 0) | (2 * k == n))
    pos = np.full(group.order, -1)
    pos[index] = np.arange(index.size)
    partner = pos[inv[index[paired]]]
    for arr in (index, paired, partner):
        arr.setflags(write=False)
    return HalfLayout(axis - len(shape), half_shape, index.size, index, paired, partner, inv)


class _GridPlan(NamedTuple):
    shape: tuple[int, ...]
    fft_axes: tuple[int, ...]
    blocks: tuple
    half: HalfLayout
    unhalved_axes: tuple[int, ...]


@lru_cache(maxsize=128)
def _grid_plan(factors: tuple[int, ...]) -> _GridPlan:
    """How ``_transform_grid`` lays a group's values out and transforms them.

    Holds the grid shape, one axis per run of consecutive factors merged
    greedily while their product stays within ``_BLOCK_ORDER`` (on a 2-group,
    a last run of smaller order joins the run before it); the axes of
    single factors for ``fft``, counted from the end so that leading batch
    axes need no offset; per merged axis, (the number of grid points after
    it on the full grid, the same on the half grid, forward matrix
    conj(T)/b, inverse matrix T), where T is the run's character table
    T[k, x] = xi_k(x), of order b and symmetric; the :class:`HalfLayout`;
    and the fft axes but the halved one.  On a 2-group every run, a lone
    factor too, is merged, and T is the float64 table of +-1 it holds in
    its real part.
    """
    real = all(n <= 2 for n in factors)
    runs: list[list[int]] = []
    for n in factors:
        if runs and math.prod(runs[-1]) * n <= _BLOCK_ORDER:
            runs[-1].append(n)
        else:
            runs.append([n])
    if real and len(runs) > 1 and math.prod(runs[-1]) < _BLOCK_ORDER:
        last = runs.pop()  # a 2-group's thin last run joins the one before it
        runs[-1] += last
    shape = tuple(math.prod(run) for run in runs)
    single = [] if real else [axis for axis, run in enumerate(runs) if len(run) == 1]
    fft_axes = tuple(axis - len(runs) for axis in single)
    half = _half_layout(factors, shape, single, real)
    blocks = []
    for axis, run in enumerate(runs):
        if real or len(run) > 1:
            table = character_table(FiniteAbelianGroup(tuple(run)))
            if real:
                table = np.ascontiguousarray(table.real)
            fwd = table.conj() / shape[axis]
            for arr in (table, fwd):
                arr.setflags(write=False)
            blocks.append((math.prod(shape[axis + 1:]), math.prod(half.shape[axis + 1:]), fwd, table))
    unhalved_axes = tuple(axis for axis in fft_axes if axis != half.axis)
    return _GridPlan(shape, fft_axes, tuple(blocks), half, unhalved_axes)


def half_layout(group: FiniteAbelianGroup) -> HalfLayout:
    """The half of ``group``'s dual that holds a real field's coefficients."""
    return _grid_plan(group.factors).half


class FrequencyEmbedding(NamedTuple):
    """A coarse group Z_M1 x ... x Z_Mr whose dual embeds into a group's:
    ``dual`` holds the group's dual index of each coarse character, in
    enumeration order; ``index`` the position in the group's half layout of
    each coarse half entry, and ``scale`` (None: all 1) the factor it takes
    there, 1/2 where a coarse entry whose partner is stored too lands on one
    that stands for its partner as well."""

    factors: tuple[int, ...]
    dual: np.ndarray
    index: np.ndarray
    scale: np.ndarray | None


def _paired_mask(layout: HalfLayout) -> np.ndarray:
    """Whether each half entry's partner is stored too."""
    if layout.paired is None:
        return np.ones(layout.size, dtype=bool)
    return np.isin(np.arange(layout.size), layout.paired)


def _smooth_size(n: int) -> int:
    """The smallest integer >= n with no prime factor above 5."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def frequency_embedding(factors: tuple[int, ...], band: np.ndarray,
                        degree: int) -> FrequencyEmbedding | None:
    """The smallest coarse group that holds the characters ``band`` (dual
    indices of the group of ``factors``, closed under inversion) and
    computes products of ``degree`` factors on them without aliasing.

    Each cyclic axis Z_n keeps the smaller of two sizes.  When the band's
    coordinates k on it lie in d Z_n, the exact quotient Z_{n/d}, with
    k' -> d k': a field with those frequencies is a field on it, and so is
    any pointwise function of one.  Otherwise a truncation Z_M, with k'
    mapped by its signed residue, of the smallest 2-3-5-smooth M >=
    (p + 1) K + 1, p = max(degree, 1), where K is the band's largest
    |signed coordinate|: a product of p fields of frequencies up to K
    aliases only beyond K (Orszag's rule).  None when some coarse half
    entry lands outside the group's half layout, or one that stands for
    its partner too lands on one whose partner is stored.
    """
    coords = np.unravel_index(band, factors)
    maps = []
    for n, k in zip(factors, coords):
        quotient = n // int(np.gcd.reduce(k, initial=n))
        width = int(np.abs(np.where(2 * k > n, k - n, k)).max(initial=0))
        size = _smooth_size((max(degree, 1) + 1) * width + 1)
        if quotient <= size:
            maps.append((n // quotient) * np.arange(quotient))
        else:
            k = np.arange(size)
            maps.append(np.where(2 * k > size, k - size + n, k))
    sizes = tuple(len(m) for m in maps)
    dual = np.ravel_multi_index(np.ix_(*maps), factors).reshape(-1)
    fine, coarse = half_layout(FiniteAbelianGroup(factors)), half_layout(FiniteAbelianGroup(sizes))
    pos = np.full(math.prod(factors), -1)
    pos[slice(None) if fine.index is None else fine.index] = np.arange(fine.size)
    index = pos[dual if coarse.index is None else dual[coarse.index]]
    if (index < 0).any():
        return None
    fine_paired, coarse_paired = _paired_mask(fine)[index], _paired_mask(coarse)
    if (fine_paired & ~coarse_paired).any():
        return None
    halved = coarse_paired & ~fine_paired
    return FrequencyEmbedding(sizes, dual, index,
                              np.where(halved, 0.5, 1.0) if halved.any() else None)


def _block_product(table: np.ndarray, grid: np.ndarray, post: int) -> np.ndarray:
    """The symmetric ``table`` applied along the grid axis of its length that
    has ``post`` grid points after it; on the last axis, one 2-D product."""
    b = len(table)
    if post == 1:
        return grid.reshape(-1, b) @ table
    return np.matmul(table, grid.reshape(-1, b, post))


def _transform_grid(
    group: FiniteAbelianGroup, values: np.ndarray, inverse: bool, half: bool = False
) -> np.ndarray:
    """The transform over the factor grid laid out by ``_grid_plan``.

    ``values`` may carry leading batch axes; the last axis must have length
    ``group.order`` and is interpreted in enumeration order, which coincides
    with C-order over the factor grid (and over the merged grid).
    ``norm="forward"`` and the 1/b of each forward block put the 1/|G| Haar
    factor on the forward transform and none on the inverse, which is
    exactly the module's convention.

    One pass sequence serves every layout.  Forward: ``rfft`` over the
    halved axis if there is one, ``fft`` over the other fft axes in
    ``fftn``'s order and bits, without its argument handling (about 10 us a
    call with numpy 2.4.6 on 2 vCPUs), then the blocks; inverse: ``ifft``,
    the blocks, ``irfft``.  With ``half`` the samples are real and the
    coefficients on the plan's :class:`HalfLayout`, float64 on a 2-group;
    with no halved axis the inverse returns the real part of the complex
    transform.
    """
    plan = _grid_plan(group.factors)
    layout = plan.half
    axis = layout.axis if half else None
    # float64 in: a real field's samples, or a 2-group's real coefficients
    real = half and (layout.real or (axis is not None and not inverse))
    vals = np.asarray(values).real if real else np.asarray(values, dtype=np.complex128)
    batch = vals.shape[:-1]
    fft_axes = plan.unhalved_axes if half else plan.fft_axes
    if inverse:
        shape = layout.shape if half else plan.shape
        grid = vals.reshape(*batch, *shape)
        for fft_axis in reversed(fft_axes):
            grid = np.fft.ifft(grid, axis=fft_axis, norm="forward")
        for post, half_post, _, inv in plan.blocks:
            grid = _block_product(inv, grid, half_post if half else post)
        if axis is not None:
            grid = np.fft.irfft(grid.reshape(*batch, *shape), plan.shape[axis], axis=axis,
                                norm="forward")
        out = grid.reshape(*batch, group.order)
        return out.real if half else out
    grid = vals.reshape(*batch, *plan.shape)
    if axis is not None:
        grid = np.fft.rfft(grid, axis=axis, norm="forward")
    for fft_axis in reversed(fft_axes):
        grid = np.fft.fft(grid, axis=fft_axis, norm="forward")
    for post, half_post, fwd, _ in plan.blocks:
        grid = _block_product(fwd, grid, half_post if half else post)
    return grid.reshape(*batch, layout.size if half else group.order)


def dft_values(group: FiniteAbelianGroup, values: np.ndarray, half: bool = False) -> np.ndarray:
    """Array-level forward transform (batch-friendly); includes the 1/|G| factor.

    With ``half`` the values must be real and the result holds their
    coefficients on :func:`half_layout`'s entries, as float64 on a 2-group."""
    return _transform_grid(group, values, inverse=False, half=half)


def idft_values(group: FiniteAbelianGroup, values: np.ndarray, half: bool = False) -> np.ndarray:
    """Array-level inverse transform (counting measure: plain sum).

    With ``half`` the values are a real field's coefficients on
    :func:`half_layout`'s entries and the result is that real field."""
    return _transform_grid(group, values, inverse=True, half=half)


def half_tables(group: FiniteAbelianGroup) -> tuple[np.ndarray, np.ndarray]:
    """The half transforms of ``group`` as two float64 matrices, for a group
    small enough that one product costs less than the passes' call overhead:
    ``values @ forward``, viewed as complex128 unless the layout is real, is
    ``dft_values(group, values, half=True)``, and ``coeffs.view(float64) @
    inverse`` is ``idft_values(group, coeffs, half=True)``, both to rounding.
    Built by those transforms of the unit fields and coefficients."""
    layout = half_layout(group)
    forward = np.ascontiguousarray(dft_values(group, np.eye(group.order), half=True))
    basis = np.eye(layout.size)
    inverse = idft_values(group, basis, half=True)
    if not layout.real:  # a coefficient's real and imaginary parts, interleaved
        forward = forward.view(np.float64)
        inverse = np.stack([inverse, idft_values(group, 1j * basis, half=True)], axis=1)
    return forward, np.ascontiguousarray(inverse.reshape(-1, group.order))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _finite_output(values: np.ndarray, what: str, direction: str) -> np.ndarray:
    """A transform's output from finite input, computed with numpy's overflow
    warnings silenced; one ValueError where it overflowed float64."""
    if not _all_finite(values):
        raise ValueError(f"{what} is too large: its {direction} transform overflows float64")
    return values


def dft_naive(f: Signal) -> Spectrum:
    """The transform straight from the definition; O(|G|^2) oracle path.

    F(f)(xi) = haar_weight * sum_x conj(xi(x)) f(x).
    """
    table = character_table(f.group)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = table.conj() @ f.values * haar_weight(f.group)
    return Spectrum(f.group, _finite_output(coeffs, "signal", "forward"))


def dft_fast(f: Signal) -> Spectrum:
    """Fast transform: ``fftn`` over the large cyclic factors and dense
    character-table blocks over runs of small ones (see the module
    docstring); agrees with dft_naive to ~1e-15 relative."""
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = dft_values(f.group, f.values)
    return Spectrum(f.group, _finite_output(coeffs, "signal", "forward"))


def idft(F: Spectrum, real: bool = False) -> Signal:
    """Inverse transform: f(x) = sum_xi F(xi) xi(x).

    The result remembers F exactly (see Signal.exact_dual).  With ``real``
    the values are projected onto their real part, which for a Hermitian F
    (F(xi^-1) = conj F(xi)) drops only rounding-level imaginary parts.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = idft_values(F.group, F.values)
    values = _finite_output(values, "spectrum", "inverse")
    return Signal(F.group, values.real if real else values, exact_dual=F.values)


def dual_coefficients(f: Signal) -> np.ndarray:
    """The best available dual representation of f.

    Returns the exact coefficients a synthesized signal was built from, or
    the forward transform of its values otherwise.
    """
    if f.exact_dual is not None:
        return f.exact_dual
    return dft_values(f.group, f.values)


def pointwise_mul(f: Signal, g: Signal) -> Signal:
    group = _same_group(f, g)
    return Signal(group, f.values * g.values)


def translate(f: Signal, h) -> Signal:
    """The shifted signal x |-> f(x * h).

    On the spectral side this is modulation:
    F(translate(f, h))(xi) = xi(h) * F(f)(xi).
    """
    group = f.group
    h_idx = index_of(group, h)
    perm = compose_indices(group, np.arange(group.order), h_idx)
    return Signal(group, f.values[perm])


def convolve_dual(u: Spectrum, v: Spectrum) -> Spectrum:
    """Convolution on the dual under counting measure.

    (u * v)(xi) = sum_eta u(xi eta^{-1}) v(eta).  This is the dual-side
    operation carried by pointwise products: F(f g) = F(f) * F(g).
    """
    group = _same_group(u, v)
    n = group.order
    inv = inverse_indices(group)
    out = np.empty(n, dtype=np.complex128)
    # blockwise so the (chunk x n) index table stays small
    chunk = max(1, (1 << 18) // n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        rows = np.arange(start, stop)
        table = compose_indices(group, rows[:, None], inv[None, :])
        out[start:stop] = (u.values[table] * v.values).sum(axis=1)
    return Spectrum(group, out)


# ---------------------------------------------------------------------------
# serialization
#
# Two formats, both with decimal floats at 17 significant digits (lossless
# double round-trip), both laid out in enumeration order:
#
#   CSV:   header "index,re,im", one row per coefficient (_read_table_csv
#          reads any "index,<columns>" table, the CLI's weight tables too);
#   JSON:  {"group": "Z64", "values": [[re, im], ...]}.
# ---------------------------------------------------------------------------

def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_rows(values: np.ndarray) -> list[str]:
    return [f"{i},{_fmt17(v.real)},{_fmt17(v.imag)}" for i, v in enumerate(values)]


def _write_values_csv(path, values: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(["index,re,im", *_csv_rows(values)]) + "\n")


def _read_table_csv(path, group: FiniteAbelianGroup, columns: tuple[str, ...]) -> np.ndarray:
    """The C-contiguous (order, len(columns)) float table of an "index,<columns>"
    CSV in enumeration order; an error names the file and the first bad row."""
    header = ",".join(("index", *columns))
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0].replace(" ", "") != header:
        raise ValueError(f"{path}: expected header {header!r}")
    rows = lines[1:]
    if len(rows) != group.order:
        raise ValueError(
            f"{path}: {len(rows)} rows but group {group.descriptor} has order {group.order}"
        )
    # an integer index refuses "1.0"; comments=None refuses, not skips, "#" rows
    dtype = np.dtype([("index", np.int64), ("values", np.float64, (len(columns),))])
    try:
        table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        for row in rows:  # quote the first row a plain reading refuses
            cells = row.split(",")
            try:
                int(cells[0]), [float(cell) for cell in cells[1:]]
                well_formed = len(cells) == len(columns) + 1
            except ValueError:
                well_formed = False
            if not well_formed:
                raise ValueError(f"{path}: malformed row {row!r}") from None
        raise ValueError(f"{path}: {exc}") from None
    bad = np.flatnonzero(table["index"] != np.arange(group.order))
    if bad.size:
        raise ValueError(f"{path}: row {rows[bad[0]]!r} is out of order (expected index {bad[0]})")
    bad = np.flatnonzero(~np.isfinite(table["values"]).all(axis=1))
    if bad.size:  # "1e999" reads as inf
        raise ValueError(f"{path}: row {rows[bad[0]]!r} has a value that is not finite")
    return np.ascontiguousarray(table["values"])


def _read_values_csv(path, group: FiniteAbelianGroup) -> np.ndarray:
    # a view, not re + 1j*im, which would turn a -0.0 real part into +0.0
    return _read_table_csv(path, group, ("re", "im")).view(np.complex128).reshape(-1)


def _write_values_json(path, group: FiniteAbelianGroup, values: np.ndarray) -> None:
    pairs = ", ".join(f"[{_fmt17(v.real)}, {_fmt17(v.imag)}]" for v in values)
    text = f'{{"group": "{group.descriptor}", "values": [{pairs}]}}\n'
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _read_json(path, parse_int=int):
    """The JSON document at ``path``, reading each integer with ``parse_int``;
    one that json refuses (malformed, an integer of more than 4300 digits)
    raises a ValueError naming the file."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return json.load(fh, parse_int=parse_int)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_values_json(path, group: FiniteAbelianGroup | None):
    # the writer's "-0" is the float -0.0, which json would read as the integer 0
    doc = _read_json(path, lambda text: -0.0 if text == "-0" else int(text))
    if not isinstance(doc, dict) or "group" not in doc or "values" not in doc:
        raise ValueError(f"{path}: expected an object with 'group' and 'values'")
    file_group = parse_group(doc["group"])
    if group is not None and file_group != group:
        raise ValueError(
            f"{path}: file is on group {file_group.descriptor}, expected {group.descriptor}"
        )
    pairs = doc["values"]
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ValueError(f"{path}: 'values' must be a list of [re, im] pairs")
    if len(pairs) != file_group.order:
        raise ValueError(f"{path}: {len(pairs)} pairs but group {file_group.descriptor} "
                         f"has order {file_group.order}")
    bad = f"{path}: 'values' pairs must hold JSON numbers that float64 can hold"
    # json reads a number as int or float; a bool or a string is not one
    if not all(type(x) in (int, float) for pair in pairs for x in pair):
        raise ValueError(bad)
    try:
        flat = np.array([x for pair in pairs for x in pair], dtype=np.float64)
    except OverflowError:  # an integer past float64
        raise ValueError(bad) from None
    if not np.isfinite(flat).all():  # 1e999, NaN, Infinity
        raise ValueError(bad)
    return file_group, flat.view(np.complex128)


def write_signal_csv(path, f: Signal) -> None:
    _write_values_csv(path, f.values)


def read_signal_csv(path, group: FiniteAbelianGroup) -> Signal:
    return Signal(group, _read_values_csv(path, group))


def write_spectrum_csv(path, F: Spectrum) -> None:
    _write_values_csv(path, F.values)


def read_spectrum_csv(path, group: FiniteAbelianGroup) -> Spectrum:
    return Spectrum(group, _read_values_csv(path, group))


def write_signal_json(path, f: Signal) -> None:
    _write_values_json(path, f.group, f.values)


def read_signal_json(path, group: FiniteAbelianGroup | None = None) -> Signal:
    file_group, vals = _read_values_json(path, group)
    return Signal(file_group, vals)


def write_spectrum_json(path, F: Spectrum) -> None:
    _write_values_json(path, F.group, F.values)


def read_spectrum_json(path, group: FiniteAbelianGroup | None = None) -> Spectrum:
    file_group, vals = _read_values_json(path, group)
    return Spectrum(file_group, vals)
