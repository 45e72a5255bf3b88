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
grid of cyclic factors and runs one ``numpy.fft.fftn`` over it (pocketfft:
mixed-radix Cooley-Tukey, Bluestein at large prime lengths).
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

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
    "dual_coefficients",
    "convolve_dual",
    "pointwise_mul",
    "translate",
    "dft_values",
    "idft_values",
    "write_signal_csv",
    "read_signal_csv",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_signal_json",
    "read_signal_json",
    "write_spectrum_json",
    "read_spectrum_json",
]


def _as_frozen_values(group: FiniteAbelianGroup, values, what: str) -> np.ndarray:
    vals = np.asarray(values, dtype=np.complex128).reshape(-1).copy()
    if vals.size != group.order:
        raise ValueError(
            f"{what} has {vals.size} values but group {group.descriptor} "
            f"has order {group.order}"
        )
    if not np.all(np.isfinite(vals)):
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

def _transform_grid(group: FiniteAbelianGroup, values: np.ndarray, inverse: bool) -> np.ndarray:
    """One multi-dimensional FFT over the cyclic factor grid.

    ``values`` may carry leading batch axes; the last axis must have length
    ``group.order`` and is interpreted in enumeration order, which coincides
    with C-order over the factor grid.  ``norm="forward"`` puts the 1/|G|
    Haar factor on the forward transform and none on the inverse, which is
    exactly the module's convention.
    """
    vals = np.asarray(values, dtype=np.complex128)
    batch = vals.shape[:-1]
    grid = vals.reshape(*batch, *group.factors)
    axes = tuple(range(len(batch), grid.ndim))
    fft = np.fft.ifftn if inverse else np.fft.fftn
    return fft(grid, axes=axes, norm="forward").reshape(*batch, group.order)


def dft_values(group: FiniteAbelianGroup, values: np.ndarray) -> np.ndarray:
    """Array-level forward transform (batch-friendly); includes the 1/|G| factor."""
    return _transform_grid(group, values, inverse=False)


def idft_values(group: FiniteAbelianGroup, values: np.ndarray) -> np.ndarray:
    """Array-level inverse transform (counting measure: plain sum)."""
    return _transform_grid(group, values, inverse=True)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def dft_naive(f: Signal) -> Spectrum:
    """The transform straight from the definition; O(|G|^2) oracle path.

    F(f)(xi) = haar_weight * sum_x conj(xi(x)) f(x).
    """
    table = character_table(f.group)
    coeffs = table.conj() @ f.values * haar_weight(f.group)
    return Spectrum(f.group, coeffs)


def dft_fast(f: Signal) -> Spectrum:
    """Fast transform over the factor grid; agrees with dft_naive to ~1e-15 relative."""
    return Spectrum(f.group, dft_values(f.group, f.values))


def idft(F: Spectrum, real: bool = False) -> Signal:
    """Inverse transform: f(x) = sum_xi F(xi) xi(x).

    The result remembers F exactly (see Signal.exact_dual).  With ``real``
    the values are projected onto their real part, which for a Hermitian F
    (F(xi^-1) = conj F(xi)) drops only rounding-level imaginary parts.
    """
    values = idft_values(F.group, F.values)
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
    return np.ascontiguousarray(table["values"])


def _read_values_csv(path, group: FiniteAbelianGroup) -> np.ndarray:
    # a view, not re + 1j*im, which would turn a -0.0 real part into +0.0
    return _read_table_csv(path, group, ("re", "im")).view(np.complex128).reshape(-1)


def _write_values_json(path, group: FiniteAbelianGroup, values: np.ndarray) -> None:
    pairs = ", ".join(f"[{_fmt17(v.real)}, {_fmt17(v.imag)}]" for v in values)
    text = f'{{"group": "{group.descriptor}", "values": [{pairs}]}}\n'
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _read_values_json(path, group: FiniteAbelianGroup | None):
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
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
    try:
        vals = np.array([complex(float(r), float(i)) for r, i in pairs], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: 'values' pairs must hold numbers ({exc})") from None
    return file_group, vals


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
