"""Weighted Sobolev norms and their embedding/algebra constants.

A weight is a nonnegative function gamma on the dual group together with a
subadditivity constant c_gamma, meaning

    gamma(alpha * beta) <= c_gamma * (gamma(alpha) + gamma(beta))

for all pairs of characters.  The Sobolev norm of smoothness s >= 0 is

    ||f||_{s,gamma} = ( sum_xi (1 + gamma(xi)^2)^s |F(f)(xi)|^2 )^{1/2},

with the transform conventions of :mod:`.spectral` (normalized Haar on the
group, counting measure on the dual).  At s = 0 this is exactly the L^2 norm.
Every norm here reads coefficients on the full dual, in enumeration order.

The module also exposes the explicit constants that make the classical
embeddings quantitative on these spaces:

* ``embedding_constant_sup``      -- sup-norm embedding into continuous
  functions, C(gamma, s) = (sum (1+gamma^2)^{-s})^{1/2};
* ``embedding_constant_lalpha``   -- embedding into L^{alpha*} with
  alpha* = 2*alpha/(alpha - s);
* ``algebra_constant``            -- pointwise products,
  ||f g|| <= D ||f|| ||g|| with D = 2^s (1 + c_gamma^2)^{s/2} C(gamma, s);
* ``translation_modulus`` and ``compactness_profile`` -- the quantitative
  translation-continuity data behind compact-embedding arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .group import (
    FiniteAbelianGroup,
    _check_tuple,
    compose_indices,
    element_at,
    residue_grid,
)
from .spectral import Signal, dft_values

__all__ = [
    "Weight",
    "make_weight",
    "weight_from_table",
    "check_subadditivity",
    "sobolev_norm",
    "lp_norm",
    "embedding_constant_sup",
    "embedding_constant_lalpha",
    "algebra_constant",
    "translation_modulus",
    "compactness_profile",
    "ShiftProfileRow",
    "verify_scale",
]


@dataclass(frozen=True, eq=False)
class Weight:
    """A dual weight gamma, materialized as a table over the finite dual.

    ``values[i]`` is gamma at the character with enumeration index i.
    """

    group: FiniteAbelianGroup
    values: np.ndarray
    c_gamma: float
    name: str

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1).copy()
        if vals.size != self.group.order:
            raise ValueError(
                f"weight table has {vals.size} entries, group order is {self.group.order}"
            )
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("weight values must be finite and nonnegative")
        if not (math.isfinite(self.c_gamma) and self.c_gamma >= 0):
            raise ValueError("c_gamma must be a finite nonnegative real")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "c_gamma", float(self.c_gamma))


def _sym_euclid_values(group: FiniteAbelianGroup) -> np.ndarray:
    grid = residue_grid(group)
    total = np.zeros(group.order, dtype=np.float64)
    for axis, n in enumerate(group.factors):
        k = grid[axis]
        total += np.minimum(k, n - k).astype(np.float64) ** 2
    return np.sqrt(total)


def _hamming_values(group: FiniteAbelianGroup) -> np.ndarray:
    if any(n != 2 for n in group.factors):
        raise ValueError(
            f"hamming weight needs all factors equal to Z2, got {group.descriptor}"
        )
    return residue_grid(group).sum(axis=0).astype(np.float64)


def _pruefer_values(group: FiniteAbelianGroup, p: int) -> np.ndarray:
    if p < 2:
        raise ValueError(f"pruefer base must be >= 2, got {p}")
    if len(group.factors) != 1:
        raise ValueError("pruefer weight is defined on a single cyclic factor")
    n = group.factors[0]
    m = n
    while m % p == 0:
        m //= p
    if m != 1:
        raise ValueError(f"pruefer:{p} needs the modulus to be a power of {p}, got Z{n}")
    k = np.arange(n)
    vals = np.array([0.0 if ki == 0 else n // math.gcd(ki, n) for ki in k])
    return vals


def make_weight(group: FiniteAbelianGroup, name: str) -> Weight:
    """Build one of the named weights: zero, sym-euclid, hamming, pruefer:<p>.

    * ``zero``       gamma == 0 (the Sobolev norm degenerates to L^2);
    * ``sym-euclid`` gamma(k) = sqrt(sum_j min(k_j, n_j - k_j)^2), the
      frequency magnitude of a discretized torus;
    * ``hamming``    number of nonzero indices, on groups with all
      factors Z2 (the Walsh case);
    * ``pruefer:p``  on a single factor Z_{p^m}: gamma(k) is the exact
      denominator of k / p^m in lowest terms (0 at k = 0).

    All four are subadditive with c_gamma = 1.
    """
    name = name.strip()
    if name == "zero":
        return Weight(group, np.zeros(group.order), 1.0, "zero")
    if name == "sym-euclid":
        return Weight(group, _sym_euclid_values(group), 1.0, "sym-euclid")
    if name == "hamming":
        return Weight(group, _hamming_values(group), 1.0, "hamming")
    if name.startswith("pruefer:"):
        try:
            p = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad weight {name!r}: p in pruefer:p must be an integer") from None
        return Weight(group, _pruefer_values(group, p), 1.0, f"pruefer:{p}")
    raise ValueError(f"unknown weight {name!r}")


def weight_from_table(
    group: FiniteAbelianGroup, values, c_gamma: float, name: str = "custom"
) -> Weight:
    """Wrap an explicit gamma table (enumeration order) as a Weight."""
    return Weight(group, values, c_gamma, name)


def _worst_ratio(num: np.ndarray, den: np.ndarray) -> tuple[float, int, int | None]:
    """The largest num/den over the entries with den > 0 (0 if there are
    none), the first flat position of that maximum, and the first flat
    position where den = 0 < num (None if there is none): the scan behind
    the weight and growth-condition checks, whose left sides are >= 0."""
    zero = den == 0.0
    degenerate = zero & (num > 0.0)
    ratio = np.where(zero, 0.0, num / np.where(zero, 1.0, den))
    pos = int(np.argmax(ratio))
    return float(ratio[pos]), pos, int(np.argmax(degenerate)) if degenerate.any() else None


def _pair_blocks(group: FiniteAbelianGroup, exhaustive: bool, seed: int):
    """The flat (i, j) index arrays of the character pairs to scan, block by
    block in scan order: all order^2 pairs row by row, about 2^20 / rank
    pairs a block (composing builds one index array per factor), or ten
    blocks of 10^5 pairs drawn uniformly with ``seed``, i before j."""
    n = group.order
    if exhaustive:
        rows = max(1, (1 << 20) // (len(group.factors) * n))
        for start in range(0, n, rows):
            yield np.divmod(np.arange(start * n, min(start + rows, n) * n), n)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(10):
            yield rng.integers(0, n, size=100_000), rng.integers(0, n, size=100_000)


def check_subadditivity(group: FiniteAbelianGroup, w: Weight, seed: int = 0) -> dict:
    """Scan pairs of characters for violations of the weight inequality.

    Exhaustive over all order^2 pairs when order <= 4096; a seeded uniform
    sample of 10^6 pairs otherwise.  Pairs with gamma(a) = gamma(b) = 0 have
    no finite ratio and instead must satisfy gamma(ab) = 0 exactly.

    Returns {"ok", "worst_ratio", "witness", "pairs_checked", "mode"};
    never raises on a violation (the witness pair is reported instead).
    """
    gam = w.values
    n = group.order
    exhaustive = n <= 4096
    worst_ratio, worst_pair, degenerate_pair = 0.0, None, None
    for i, j in _pair_blocks(group, exhaustive, seed):
        ratio, pos, bad = _worst_ratio(gam[compose_indices(group, i, j)], gam[i] + gam[j])
        if degenerate_pair is None and bad is not None:
            degenerate_pair = (int(i[bad]), int(j[bad]))
        if ratio > worst_ratio:
            worst_ratio, worst_pair = ratio, (int(i[pos]), int(j[pos]))

    witness = degenerate_pair or worst_pair
    return {
        "ok": degenerate_pair is None and worst_ratio <= w.c_gamma + 1e-12,
        "worst_ratio": float("inf") if degenerate_pair is not None else worst_ratio,
        "witness": None if witness is None else [list(element_at(group, x)) for x in witness],
        "pairs_checked": n * n if exhaustive else 1_000_000,
        "mode": "exhaustive" if exhaustive else "sampled",
    }


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _check_s(s: float) -> float:
    s = float(s)
    if not (math.isfinite(s) and s >= 0):
        raise ValueError(f"smoothness exponent must be >= 0, got {s}")
    return s


# The weight-only data below is cached per weight, as the string multiplier
# is: weights hash by identity, and a cached key keeps its weight alive, so
# an id cannot be reused while it is cached.

@lru_cache(maxsize=8)
def _sobolev_weights(w: Weight, s: float) -> np.ndarray:
    """(1 + gamma^2)^(s/2) over the dual, the factor that multiplies a
    coefficient in the Sobolev norm; read-only; inf past float64."""
    with np.errstate(over="ignore"):
        weights = (1.0 + w.values**2) ** (s / 2.0)
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=32)
def _inverse_power_sum(w: Weight, exponent: float) -> float:
    """sum_xi (1 + gamma^2)^(-exponent), behind the embedding constants."""
    return ((1.0 + w.values**2) ** (-exponent)).sum()


def sobolev_norm_batch(w: Weight, s: float, spectra: np.ndarray) -> np.ndarray:
    """Sobolev norms from already-transformed coefficients (last axis = dual):
    the l2 norm of (1 + gamma^2)^(s/2) F, rescaled as every norm here is
    (``_root_sum``), so a finite norm never reads inf or 0.

    An exactly zero coefficient adds 0, also where its weight is inf; a row
    with a coefficient that is not finite reads inf."""
    return _weighted_norm(_sobolev_weights(w, _check_s(s)), spectra)


def sobolev_norm(f: Signal, w: Weight, s: float) -> float:
    """||f||_{s,gamma}; at s = 0 equal to the L^2 norm (Plancherel).  A
    transform of the values that overflows reads inf."""
    if f.group != w.group:
        raise ValueError("signal and weight live on different groups")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(sobolev_norm_batch(w, s, dft_values(f.group, f.values)))


_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float64


def _power_sum(mag: np.ndarray, p: float) -> np.ndarray:
    """sum |v|^p along the last axis of real values; an even integer p
    squares them first, which keeps pow off signed bases, and p = 4 and 6
    (the solver's ball check at alpha = 2 and 3) are products of the
    squares, off numpy's pow loop, which costs 20-30 us per 4096 values.
    Summed in numpy, not by a BLAS dot product, which in a process that
    loaded numpy before the package (see __init__) runs on several threads
    on long vectors: one call then costs about twice its wall time in
    CPU."""
    # np.add.reduce is ndarray.sum's reduction, without its wrapper
    if p % 2:
        return np.add.reduce(np.abs(mag) ** p, axis=-1)
    sq = mag * mag
    terms = sq if p == 2 else sq * sq if p == 4 else sq * sq * sq if p == 6 else sq ** (p / 2)
    return np.add.reduce(terms, axis=-1)


def _root_sum(values: np.ndarray, p: float = 2.0, count: float = 1.0) -> np.ndarray:
    """(sum |v|^p / count)^(1/p) along the last axis: the one sum behind
    every norm of the package.  At p = 2, the l2 kernel, complex entries are
    squared through their float64 view, never through np.abs's hypot.

    A row whose plain sum overflows, or falls below the normal range, while
    its largest entry is finite and nonzero, is summed again divided by the
    largest power of two not above that entry, which rounds only entries too
    small beside it to count, so a finite row never reads inf or 0 (the
    scaled Euclidean norm of Blue, ACM TOMS 4, 1978); a row holding inf
    reads inf, one holding NaN reads NaN.  Callers silence overflow: a row
    in the normal range is summed once."""
    if values.dtype.kind == "c":
        mag = np.ascontiguousarray(values).view(np.float64) if p == 2 else np.abs(values)
    else:
        mag = values
    total = _power_sum(mag, p) / count
    if total.ndim == 0 and _TINY <= total < math.inf:  # one row, summed once
        return np.sqrt(total) if p == 2 else total ** (1.0 / p)
    scale = 1.0
    normal = (total >= _TINY) & (total < math.inf)
    if not (normal if normal.ndim == 0 else normal.all()):
        peak = np.abs(mag).max(axis=-1)
        redo = ~normal & (peak > 0.0) & (peak < math.inf)  # a NaN peak compares False
        if redo.any():
            scale = np.where(redo, np.ldexp(1.0, np.frexp(peak)[1] - 1), 1.0)
            total = np.where(redo, _power_sum(mag / scale[..., None], p) / count, total)
    return scale * (np.sqrt(total) if p == 2 else total ** (1.0 / p))


def _weighted_norm(weights: np.ndarray, coeffs: np.ndarray, norm=_root_sum):
    """``norm`` (by default ``_root_sum``, the l2 norm along the last axis)
    of weights * coeffs, where an exactly zero coefficient adds 0, also at
    an inf weight, and a row with a coefficient that is not finite reads
    inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = norm(weights * coeffs)
        nan = np.isnan(norms)  # a coefficient that is not finite, or 0 times an inf weight
        if nan.any():
            norms = norm(np.where(coeffs == 0.0, 0.0, weights * coeffs))
            nan = np.isnan(norms)
    return np.where(nan, math.inf, norms) if nan.any() else norms


def lp_norm_batch(group: FiniteAbelianGroup, values: np.ndarray, p) -> np.ndarray:
    """L^p norms along the last axis under normalized Haar measure.

    Rescaled as every norm here is (``_root_sum``): a forcing of norm 1e300
    reads 1e300 and one of norm 1e-300 reads 1e-300; a row holding inf reads
    inf.  Never warns.
    """
    values = np.asarray(values)
    if p == math.inf or p == np.inf:
        return np.abs(values).max(axis=-1)
    p = float(p)
    if not p >= 1:  # NaN too
        raise ValueError(f"lp_norm needs p >= 1 (or inf), got {p}")
    with np.errstate(over="ignore", under="ignore"):
        return _root_sum(values, p, group.order)


def lp_norm(f: Signal, p) -> float:
    """L^p norm under normalized Haar measure; p may be math.inf.  A real
    field (imaginary parts all exactly zero) is summed over its real parts
    alone, so that its norm reads as that of the real array."""
    values = f.values
    return float(lp_norm_batch(f.group, values if np.count_nonzero(values.imag) else values.real, p))


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def _float_pow(x: float, y: float) -> float:
    """x ** y for floats, inf where Python raises OverflowError."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def embedding_constant_sup(group: FiniteAbelianGroup, w: Weight, s: float) -> float:
    """C(gamma, s) = (sum_xi (1 + gamma^2)^{-s})^{1/2}.

    Every f obeys sup|f| <= C(gamma, s) * ||f||_{s,gamma}: Cauchy-Schwarz
    against the inversion formula.  Always finite on a finite dual.
    """
    s = _check_s(s)
    return float(np.sqrt(_inverse_power_sum(w, s)))


def _alpha_grid(s: float) -> list[float]:
    """The default alpha values of the L^{alpha*} embedding at smoothness s:
    those of s + 1/2, 2s + 1 and 4 with alpha >= 1 and alpha > s."""
    cands = {s + 0.5, 2 * s + 1.0, 4.0}
    return sorted(a for a in cands if a >= 1.0 and a > s)


def embedding_constant_lalpha(
    group: FiniteAbelianGroup, w: Weight, s: float, alpha: float
) -> dict:
    """The L^{alpha*} embedding data: alpha* = 2 alpha/(alpha - s) and the
    constant (sum (1+gamma^2)^{-alpha})^{s/(2 alpha)}."""
    s = _check_s(s)
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha >= 1):
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")
    if alpha <= s:
        raise ValueError(f"need alpha > s, got alpha={alpha}, s={s}")
    alpha_star = 2.0 * alpha / (alpha - s)
    constant = float(_inverse_power_sum(w, alpha) ** (s / (2.0 * alpha)))
    return {"alpha_star": alpha_star, "constant": constant}


def algebra_constant(group: FiniteAbelianGroup, w: Weight, s: float) -> float:
    """D(gamma, s) = 2^s (1 + c_gamma^2)^{s/2} C(gamma, s).

    With this constant the space is a Banach algebra under pointwise
    multiplication: ||f g||_{s,gamma} <= D ||f||_{s,gamma} ||g||_{s,gamma}.
    The Young constant for the dual-side convolution is exactly 1 under
    counting measure, so it does not appear.  Reads inf where it overflows.
    """
    s = _check_s(s)
    return (_float_pow(2.0, s) * _float_pow(1.0 + w.c_gamma * w.c_gamma, s / 2.0)
            * embedding_constant_sup(group, w, s))


# ---------------------------------------------------------------------------
# translation continuity / compactness diagnostics
# ---------------------------------------------------------------------------

def _character_column(group: FiniteAbelianGroup, h) -> np.ndarray:
    """xi(h) for every dual character xi, in enumeration order; with ``h`` a
    (k, rank) array of elements, one row per element."""
    h = np.asarray(_check_tuple(group, h, "element") if np.ndim(h) == 1 else h)
    grid = residue_grid(group)
    phase = np.zeros((*h.shape[:-1], group.order), dtype=np.float64)
    for axis, n in enumerate(group.factors):
        phase += grid[axis] * (h[..., axis, None] / n)
    return np.exp(2j * np.pi * phase)


def _translation_moduli(group: FiniteAbelianGroup, w: Weight, s: float, shifts) -> np.ndarray:
    """``translation_modulus`` at each row of the (k, rank) element array
    ``shifts``, in one vectorised pass."""
    s = _check_s(s)
    num = np.abs(_character_column(group, shifts) - 1.0) ** 2
    return (num / (1.0 + w.values**2) ** s).max(axis=-1)


def translation_modulus(group: FiniteAbelianGroup, w: Weight, s: float, h) -> float:
    """The squared translation modulus

        C(h) = max_xi |xi(h) - 1|^2 / (1 + gamma(xi)^2)^s,

    which controls the L^2 distance between f and its translate:
    integral |f(xh) - f(x)|^2 dmu <= C(h) ||f||_{s,gamma}^2.
    Zero at h = identity; nonincreasing in s.
    """
    return float(_translation_moduli(group, w, s, h))


@dataclass(frozen=True)
class ShiftProfileRow:
    """One row of a compactness profile: a coordinate shift and its sup-ratio.

    ``sup_ratio`` is the unsquared form sup_xi |xi(h)-1| / (1+gamma^2)^s.
    ``angle_bound`` is the torus-angle proxy 2*pi*min(m, n-m)/n (populated
    only in the sym-euclid case with s >= 1/2, where it is the discrete
    analogue of the bound |e^{ikh}-1|/(1+k^2)^s <= |h|), else None.
    """

    shift: tuple[int, ...]
    factor: int
    multiple: int
    sup_ratio: float
    angle_bound: float | None
    within_bound: bool | None


def compactness_profile(
    group: FiniteAbelianGroup, w: Weight, s: float
) -> list[ShiftProfileRow]:
    """Tabulate sup_xi |xi(h)-1|/(1+gamma^2)^s over coordinate shifts.

    For each cyclic factor j and each multiple m in [0, n_j), the shift
    h = m * e_j is profiled.  Uniform smallness of these ratios as h -> e is
    the quantitative hypothesis behind compact embedding into L^2.
    """
    s = _check_s(s)
    denom = (1.0 + w.values**2) ** s
    rows: list[ShiftProfileRow] = []
    bound_applies = w.name == "sym-euclid" and s >= 0.5
    for j, n in enumerate(group.factors):
        for m in range(n):
            shift = tuple(m if axis == j else 0 for axis in range(len(group.factors)))
            col = _character_column(group, shift)
            sup_ratio = float((np.abs(col - 1.0) / denom).max())
            if bound_applies:
                angle = 2.0 * math.pi * min(m, n - m) / n
                within = sup_ratio <= angle + 1e-12
            else:
                angle = None
                within = None
            rows.append(ShiftProfileRow(shift, j, m, sup_ratio, angle, within))
    return rows


def verify_scale(f: Signal, w: Weight, s: float, sigma: float) -> bool:
    """Check the scale comparison ||f||_{sigma,gamma} <= ||f||_{s,gamma}.

    Requires sigma <= s (equality allowed); raises ValueError otherwise.
    """
    s = _check_s(s)
    sigma = _check_s(sigma)
    if sigma > s:
        raise ValueError(f"scale comparison needs sigma <= s, got sigma={sigma} > s={s}")
    spec = dft_values(f.group, f.values)
    lo = float(sobolev_norm_batch(w, sigma, spec))
    hi = float(sobolev_norm_batch(w, s, spec))
    return lo <= hi + 1e-12
