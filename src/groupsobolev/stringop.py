"""The nonlocal string operator and its exact linear inverse.

The operator acts diagonally on the spectral side through the multiplier

    m(xi) = 1 + gamma(xi)^2 * exp(c * gamma(xi)^2),        c > 0,

i.e. (L u) = -F^{-1}( m(xi) * F(u)(xi) ).  Its natural domain is the space
of signals with finite weighted spectral norm

    ||u||_dom = ( sum_xi m(xi)^2 |F(u)(xi)|^2 )^{1/2},

and the linear problem L u = g has the exact unique solution
u = -F^{-1}( F(g) / m ), which satisfies the isometry  ||u||_dom = ||g||_L2.

Numerics: exp(c * gamma^2) overflows float64 once c * gamma^2 exceeds about
709.78, while the inverse problem stays perfectly conditioned (1/m just
underflows to zero).  The multiplier is therefore held in log space:
log m = logaddexp(0, c*gamma^2 + 2*log gamma)  is always finite, division by
m is exp(-log m), and a product m F where m overflows is exp(log m + log|F|)
times the phase of F.  The domain norm is the l2 norm of the product m F,
summed again scaled where its sum of squares leaves the normal range.
Applying the *forward* operator to a signal whose active coefficients sit at
unrepresentable multipliers is refused (NotInDomainError) rather than
silently saturated -- such a signal is simply not in the operator's domain.
Spectral coefficients with magnitude <= 1e-300 are treated as exact zeros;
they only arise as underflow artifacts.

Signals synthesized by idft (in particular every solve_linear output) carry
their dual coefficients exactly in the declared field Signal.exact_dual, and
the routines here use that representation when present.  This matters: once
m(xi) exceeds 1/eps, the coefficient at xi can no longer be recovered from
the float64 sample values -- any forward transform injects noise of order
eps * max|u| there, which the multiplier would amplify into garbage -- while
the dual array still holds the exact value.  For signals without a
remembered dual (file input, raw samples) the forward transform of the
values is used, which is the only information they carry.

A profile lists the overflowed entries and holds m with zeros there, so the
membership guard and the log-space products look at those entries only; a c
for which c * gamma^2 itself overflows is refused when the profile is built.
One private helper holds the log m formula: ``build_multiplier`` and
``nonlinear.size_ball`` apply it over the dual, and the fixed-point map of
``nonlinear`` over the entries it holds a real field's coefficients on; of
that profile the map keeps log m, the overflow list and m with zeros there.
``multiply_spectrum`` reads only those three, entrywise, from a profile or
from the map.  ``domain_norm`` reads the full dual, and the certificate of
``nonlinear`` the map's entries, both as the l2 norm of the product m F.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .group import FiniteAbelianGroup
from .sobolev import Weight, _root_sum
from .spectral import Signal, Spectrum, _all_finite, _finite_output, dual_coefficients, idft

__all__ = [
    "LOG_MAX_DOUBLE",
    "ACTIVE_COEFF_TOL",
    "NotInDomainError",
    "MultiplierProfile",
    "build_multiplier",
    "domain_norm",
    "domain_norm_batch",
    "multiply_spectrum",
    "apply_operator",
    "solve_linear",
]

LOG_MAX_DOUBLE = float(np.log(np.finfo(np.float64).max))  # ~709.7827
ACTIVE_COEFF_TOL = 1e-300


class NotInDomainError(ValueError):
    """A signal has spectral mass at a frequency whose multiplier overflows."""


@dataclass(frozen=True, eq=False)
class MultiplierProfile:
    """The multiplier m over the dual, in linear, log and inverse form.

    ``log_values`` are always finite; ``values`` hold exp(log_values) and
    are +inf exactly at the entries listed, ascending, in ``overflow``,
    where m is not representable in float64; ``finite_values`` are
    ``values`` with 0 there; ``inverse`` holds 1/m = exp(-log_values), the
    only place it is formed.
    """

    group: FiniteAbelianGroup
    weight_name: str
    c: float
    log_values: np.ndarray
    values: np.ndarray
    inverse: np.ndarray
    overflow: np.ndarray
    finite_values: np.ndarray

    @property
    def overflow_count(self) -> int:
        """Number of entries whose multiplier exceeds float64 range."""
        return int(self.overflow.size)


def _check_c(c: float) -> float:
    c = float(c)
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"operator scale c must be positive, got {c}")
    return c


def _log_multiplier(gam: np.ndarray, c: float, weight_name: str) -> np.ndarray:
    """log m = logaddexp(0, c gamma^2 + 2 log gamma) at each gamma, always
    finite; refuses a c for which c * gamma^2 overflows float64."""
    c = _check_c(c)
    # t = log(gamma^2 e^{c gamma^2}) = c*gamma^2 + 2*log gamma; -inf at gamma=0
    with np.errstate(divide="ignore", over="ignore"):
        t = np.where(gam > 0.0, c * gam**2 + 2.0 * np.log(np.where(gam > 0.0, gam, 1.0)), -np.inf)
    if np.isposinf(t).any():
        raise ValueError(
            f"operator scale c = {c!r} is too large for weight {weight_name!r}: "
            "c * gamma^2 overflows float64"
        )
    # logaddexp(0, t) = t + log1p(exp(-t)) rounds to t once t > 40, where
    # exp(-t) < 4.3e-18 is below half an ulp of t: only the rest needs it
    low = t <= 40.0
    t[low] = np.logaddexp(0.0, t[low])
    return t


def _multiplier_profile(
    group: FiniteAbelianGroup, weight_name: str, c: float, gam: np.ndarray
) -> MultiplierProfile:
    """The profile of m over the entries whose weights are ``gam``."""
    log_values = _log_multiplier(gam, c, weight_name)
    with np.errstate(over="ignore"):
        values = np.exp(log_values)
    inverse = np.exp(-log_values)
    overflow = np.flatnonzero(np.isinf(values))
    finite_values = values.copy()
    finite_values[overflow] = 0.0
    for arr in (log_values, values, inverse, overflow, finite_values):
        arr.setflags(write=False)
    return MultiplierProfile(group, weight_name, float(c), log_values, values, inverse, overflow,
                             finite_values)


@lru_cache(maxsize=1)  # weights hash by identity; the cached key keeps its weight alive
def build_multiplier(group: FiniteAbelianGroup, w: Weight, c: float) -> MultiplierProfile:
    """Evaluate m = 1 + gamma^2 exp(c gamma^2) stably for every dual frequency."""
    c = _check_c(c)
    if w.group != group:
        raise ValueError("weight lives on a different group")
    return _multiplier_profile(group, w.name, c, w.values)


def _guard_membership(profile: MultiplierProfile, abs_over: np.ndarray) -> None:
    """Raise NotInDomainError if an active coefficient meets an overflowed
    multiplier, given the |coefficients| ``abs_over`` at those entries."""
    active = abs_over > ACTIVE_COEFF_TOL
    if active.any():
        # report the worst offender, not merely the first one in scan order
        mags = np.where(active, abs_over, 0.0)
        worst = np.unravel_index(int(np.argmax(mags)), mags.shape)
        pos = int(profile.overflow[worst[-1]])
        raise NotInDomainError(
            "signal is not in the operator domain: dual index "
            f"{pos} has log-multiplier {profile.log_values[pos]:.6g} "
            f"(beyond float64 range) with spectral magnitude "
            f"{float(mags[worst]):.3g} > {ACTIVE_COEFF_TOL:g}"
        )


def domain_norm_batch(profile: MultiplierProfile, spectra: np.ndarray) -> np.ndarray:
    """Domain norms ||m F|| from spectral coefficients (last axis = dual):
    the l2 norm of ``multiply_spectrum``'s product, rescaled as every norm
    of the package is (``sobolev._root_sum``).

    Raises NotInDomainError where the product is refused, and where a row's
    norm is beyond float64 or NaN (a coefficient that is not a number, as an
    overflowed transform leaves)."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _root_sum(multiply_spectrum(profile, spectra))
    if not (norms < math.inf).all():  # NaN compares False
        raise NotInDomainError("domain norm exceeds float64 range or is not a number")
    return norms


def _coefficients(f: Signal) -> np.ndarray:
    """f's dual coefficients (``dual_coefficients``), computed with numpy's
    overflow warnings silenced; one ValueError where the forward transform
    of f's values overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_output(dual_coefficients(f), "signal", "forward")


def domain_norm(f: Signal, w: Weight, c: float) -> float:
    """The operator-domain norm (sum m^2 |F(f)|^2)^{1/2}.

    Raises NotInDomainError when f has spectral mass above 1e-300 at a
    frequency whose multiplier is not representable.  Uses the exact dual
    representation when f carries one; a transform of the values that
    overflows float64 raises one ValueError saying so.
    """
    profile = build_multiplier(f.group, w, c)
    return float(domain_norm_batch(profile, _coefficients(f)))


def multiply_spectrum(profile: MultiplierProfile, spectrum: np.ndarray) -> np.ndarray:
    """Pointwise m(xi) * F(xi) with the overflowed entries done in log space.

    Reads the profile's ``overflow``, ``finite_values`` and ``log_values``
    only, so it serves any object holding those three arrays, as the
    fixed-point map of ``nonlinear`` does on its layout.

    Requires every coefficient at an overflowed multiplier to be inactive
    (<= 1e-300); the nonzero ones among them are then multiplied as
    exp(log m + log|F|), which recovers e.g. the original data when F came
    out of solve_linear.  Only the overflowed entries are inspected.  Raises
    NotInDomainError if the guard fails or a product would itself overflow
    float64.
    """
    over = profile.overflow
    spec_over = np.take(spectrum, over, axis=-1)
    nonzero = spec_over.any()  # a solve leaves exact zeros where 1/m underflows
    if nonzero:
        abs_over = np.abs(spec_over)
        _guard_membership(profile, abs_over)
    out = profile.finite_values * spectrum
    if not _all_finite(out):
        raise NotInDomainError(
            "operator output exceeds float64 range or is not a number: m(xi) * F(xi) "
            "is not finite even at a representable multiplier"
        )
    if nonzero:
        *rows, cols = np.nonzero(abs_over)
        hot = (*rows, over[cols])
        mag = abs_over[(*rows, cols)]
        log_prod = profile.log_values[over[cols]] + np.log(mag)
        if (log_prod > LOG_MAX_DOUBLE).any():
            raise NotInDomainError(
                "operator output is not representable: a sub-tolerance "
                "coefficient meets a multiplier so large that even their "
                "product exceeds float64 range"
            )
        # hot coefficients are guarded <= 1e-300, possibly subnormal; scale
        # by an exact power of two before taking the phase so the division
        # never touches the subnormal range
        lift = 2.0**1000
        out[hot] += np.exp(log_prod) * (spectrum[hot] * lift / (mag * lift))
    return out


def apply_operator(u: Signal, w: Weight, c: float) -> Signal:
    """Apply L: u -> -F^{-1}(m * F(u)).

    The L^2 norm of the output equals domain_norm(u) exactly (diagonal
    operator + Plancherel), which is checked by the test suite rather than
    enforced here.  Uses u's exact dual representation when present.  A
    transform of u that overflows float64 raises one ValueError saying so.
    """
    profile = build_multiplier(u.group, w, c)
    return idft(Spectrum(u.group, -multiply_spectrum(profile, _coefficients(u))))


def solve_linear(g: Signal, w: Weight, c: float) -> Signal:
    """Exact solution of L u = g:  u = -F^{-1}(F(g) / m).

    Defined for every finite-valued g.  Division is by 1/m = exp(-log m), so
    ultraviolet frequencies underflow cleanly to zero; the isometry
    domain_norm(u) == ||g||_L2 holds to rounding whenever no active
    coefficient of g sits beyond the representable multiplier range.  The
    returned signal carries its dual coefficients exactly.  A transform of
    g or of u that overflows float64 raises one ValueError saying so.
    """
    profile = build_multiplier(g.group, w, c)
    return idft(Spectrum(g.group, -_coefficients(g) * profile.inverse))


def unrepresentable_data(g: Signal, w: Weight, c: float) -> tuple[float, float]:
    """What ``solve_linear(g, w, c)`` leaves out: the entries where m
    overflows float64 and the solution's coefficient -F(g)/m underflows to 0.

    Returns the l2 norm of g's coefficients there, and a bound on the sup
    distance of the computed solution from the exact one: that norm times
    the l2 norm of 1/m there (Cauchy-Schwarz), formed in log space."""
    profile = build_multiplier(g.group, w, c)
    coeffs = _coefficients(g)
    over = profile.overflow
    dropped = np.zeros(g.group.order, dtype=bool)
    dropped[over] = coeffs[over] * profile.inverse[over] == 0.0
    share = float(_root_sum(np.where(dropped, coeffs, 0.0)))
    if share == 0.0:
        return 0.0, 0.0
    log_m = profile.log_values[dropped]
    low = float(log_m.min())
    log_bound = math.log(share) - low + 0.5 * math.log(float(np.exp(2.0 * (low - log_m)).sum()))
    return share, math.exp(log_bound)
