"""Fixed-point solver for the nonlocal string equation  L phi = U(x, phi) - phi.

Writing V(x, y) = U(x, y) - y, the equation becomes L phi = V(., phi), and a
solution is a fixed point of the solve-then-substitute map

    G(u) = solve_linear(V(., u)).

G is one object, ``_FixedPointMap``, on the coefficients of a real field
held on the half layout of the dual (``spectral.HalfLayout``): the
coefficients F(xi) for about half of the characters, which fix F(xi^-1) =
conj F(xi) for the rest.  :func:`picard_step`, the solver and its
certificate all apply it.  The solver runs the damped Picard iteration

    phi_{k+1} = (1 - theta) phi_k + theta * G(phi_k)

on the iterate's coefficients a: one inverse transform synthesizes its
samples y, and one forward transform brings V(., y) back.  What G reads
besides the nonlinearity depends on (weight, c) alone, so the map is
cached per pair (``_plan``) and takes the nonlinearity as an argument: it
holds the layout and, on it, log m, the entries where m overflows, m with
zeros there and -1/m, and nothing else.  The weight must be symmetric,
which is checked once per weight.  A new forcing reuses the map.
``size_ball``'s two norms of L^{-1} are cached apart, per (weight, c),
and run over the whole dual for every weight.  Convergence is certified a
posteriori by the map's certificate, on half coefficients: the equation
residual ||L phi - V(., phi)||_L2 is recomputed through an independent
forward application of the operator.  The product m a of phi's
coefficients a gives both L phi, by one transform, and the domain
norm ||m a||; the Sobolev norm reads a on the layout, by the count-twice
rule of the map's norms, and the sup norm phi's samples.  The solver
certifies its own (a, y); :func:`verify_solution` takes them from a
Signal and gives the same record.  A phi that is not real is certified
as p + i q, both real fields on the layout.

Only ``spectral`` and G know the half layout: G makes real-to-half
transforms, about half the work of complex ones, on the multiplier built
from gamma gathered onto the layout, and counts an entry twice in a norm
but where its partner is stored too.  On an elementary abelian 2-group
(Z2^n, the Walsh case) every character is real, and so are a real field's
coefficients: a is float64 on the full dual, G's transforms are real
products with the +-1 character tables, and the Hermitian projection is
the identity.  A group with no axis to halve that is not a 2-group (every
factor of length 3 or more merged into a dense block, e.g. Z2xZ4xZ2xZ4)
keeps the full dual and the complex arithmetic.  The returned phi carries
its full coefficients, expanded once.

Nonlinearities are described by the growth data (alpha, beta, C, h, f):

    |U(x,y) - y|            <= C (|h(x)| + |y|^alpha),
    |d/dy (U(x,y) - y)|     <= C (|f(x)| + |y|^beta),   0 <= beta <= alpha-1.

The smallness analysis runs through a ball  Y_eps = {u : ||u||_{L^{2alpha}} <= eps}
that the map G preserves when the forcing is small.  The executable sizing
rule (the underlying theory only asserts "eps exists") is spelled out at
:func:`size_ball`: it bounds L^{-1} from L^2 to L^{2alpha} by interpolating
its exact norms into L^2, max 1/m, and into L^infinity, ||1/m||_l2.  The
string field is real-valued throughout; transforms leave only a
rounding-level anti-Hermitian part in its coefficients (on the half layout,
only where an entry's partner is stored too), which is projected away.  It
cannot be more than rounding: m is a function of gamma, and the solver's
weights are symmetric.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable

import numpy as np

from .group import FiniteAbelianGroup, element_at, inverse_indices
from .sobolev import (
    Weight,
    _check_s,
    _float_pow,
    _root_sum,
    _sobolev_weights,
    _weighted_norm,
    embedding_constant_sup,
    lp_norm,
    lp_norm_batch,
    make_weight,
)
from .spectral import (
    HalfLayout,
    Signal,
    _all_finite,
    dft_values,
    dual_coefficients,
    half_layout,
    idft_values,
)
from .stringop import (
    NotInDomainError,
    _log_multiplier,
    _multiplier_profile,
    multiply_spectrum,
)

__all__ = [
    "Nonlinearity",
    "affine_nonlinearity",
    "power_nonlinearity",
    "forced_power_nonlinearity",
    "parse_nonlinearity",
    "lowfreq_forcing",
    "eval_source",
    "picard_step",
    "SolverConfig",
    "SolveReport",
    "size_ball",
    "solve_nonlinear",
    "verify_solution",
    "check_growth_conditions",
]

_IMAG_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """A forcing nonlinearity U(x, y) with its growth certificate.

    ``u_func`` and ``du_func`` act vectorized: given the array of field
    values y over the group (enumeration order), they return U(x, y(x)) and
    dU/dy(x, y(x)) as arrays; any x-dependence is baked into the callable.
    ``h`` bounds the inhomogeneous part, ``f_env`` the derivative's.
    """

    name: str
    u_func: Callable[[np.ndarray], np.ndarray]
    du_func: Callable[[np.ndarray], np.ndarray]
    alpha: float
    beta: float
    c_growth: float
    h: Signal
    f_env: Signal

    def __post_init__(self) -> None:
        if not self.alpha > 1:
            raise ValueError(f"growth exponent alpha must exceed 1, got {self.alpha}")
        if not 0 <= self.beta <= self.alpha - 1:
            raise ValueError(
                f"need 0 <= beta <= alpha-1, got beta={self.beta}, alpha={self.alpha}"
            )
        if not self.c_growth > 0:
            raise ValueError(f"growth constant must be positive, got {self.c_growth}")
        if self.h.group != self.f_env.group:
            raise ValueError("h and f_env must live on the same group")
        for sig, label in ((self.h, "h"), (self.f_env, "f_env")):
            if np.abs(sig.values.imag).max(initial=0.0) > 1e-12:
                raise ValueError(f"envelope {label} must be real-valued")

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.h.group


def _zero_signal(group: FiniteAbelianGroup) -> Signal:
    return Signal(group, np.zeros(group.order))


def affine_nonlinearity(h: Signal) -> Nonlinearity:
    """U(x, y) = y + h(x).  V is constant in y, so one Picard step solves."""
    hv = h.values.real.copy()
    return Nonlinearity(
        name="affine",
        u_func=lambda y: y + hv,
        du_func=lambda y: np.ones_like(y),
        alpha=2.0,
        beta=0.0,
        c_growth=1.0,
        h=Signal(h.group, hv),
        f_env=_zero_signal(h.group),
    )


def _signed_power(y: np.ndarray, p: int) -> np.ndarray:
    """y^p for an integer p >= 1.  Up to p = 3 it is a product of factors y,
    within 2 ulps of it and off numpy's pow loop, which costs 20-30 us per
    4096 samples; above, a power of |y| with the sign restored for odd p, as
    numpy's ``y ** p`` drops to a scalar pow loop wherever a base is
    negative, about 20 times slower on a signed field, and a product of p
    factors would round p - 1 times."""
    if p <= 3:
        return y if p == 1 else y * y if p == 2 else y * y * y
    mag = np.abs(y) ** p
    return np.copysign(mag, y) if p % 2 else mag


def _check_power(p: int, lam: float) -> tuple[int, float]:
    p, lam = int(p), float(lam)
    if p < 2:
        raise ValueError(f"power nonlinearity needs integer p >= 2, got {p}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"coupling must be finite and positive, got {lam}")
    return p, lam


def power_nonlinearity(group: FiniteAbelianGroup, p: int, lam: float) -> Nonlinearity:
    """U(x, y) = y + lam * y^p for integer p >= 2.

    p = 2 is the classic quadratic self-interaction of bosonic string field
    theory.  Growth data is exact: alpha = p, beta = p - 1, C = p*lam, with
    zero envelopes.
    """
    p, lam = _check_power(p, lam)
    return Nonlinearity(
        name=f"power:{p},{lam!r}",
        u_func=lambda y: y + lam * _signed_power(y, p),
        du_func=lambda y: 1.0 + p * lam * _signed_power(y, p - 1),
        alpha=float(p),
        beta=float(p - 1),
        c_growth=p * lam,
        h=_zero_signal(group),
        f_env=_zero_signal(group),
    )


def forced_power_nonlinearity(p: int, lam: float, h: Signal) -> Nonlinearity:
    """U(x, y) = y + lam * y^p + h(x)."""
    p, lam = _check_power(p, lam)
    hv = h.values.real.copy()
    return Nonlinearity(
        name=f"forced-power:{p},{lam!r}",
        u_func=lambda y: y + lam * _signed_power(y, p) + hv,
        du_func=lambda y: 1.0 + p * lam * _signed_power(y, p - 1),
        alpha=float(p),
        beta=float(p - 1),
        c_growth=max(1.0, p * lam),
        h=Signal(h.group, hv),
        f_env=_zero_signal(h.group),
    )


def parse_nonlinearity(
    spec: str, group: FiniteAbelianGroup, forcing: Signal | None = None
) -> Nonlinearity:
    """Build a catalog nonlinearity from its CLI string.

    ``affine`` (needs forcing), ``power:p,lam``, ``forced-power:p,lam``
    (needs forcing).
    """
    spec = spec.strip()
    if spec == "affine":
        if forcing is None:
            raise ValueError("affine nonlinearity needs a forcing signal")
        return affine_nonlinearity(forcing)
    for prefix, forced in (("power:", False), ("forced-power:", True)):
        if spec.startswith(prefix):
            body = spec[len(prefix):]
            parts = body.split(",")
            if len(parts) != 2:
                raise ValueError(f"bad nonlinearity spec {spec!r}: expected {prefix}p,lam")
            try:
                p, lam = int(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(
                    f"bad nonlinearity spec {spec!r}: p must be an integer and lam a number"
                ) from None
            if forced:
                if forcing is None:
                    raise ValueError("forced-power nonlinearity needs a forcing signal")
                return forced_power_nonlinearity(p, lam, forcing)
            return power_nonlinearity(group, p, lam)
    raise ValueError(f"unknown nonlinearity {spec!r}")


def lowfreq_forcing(group: FiniteAbelianGroup, scale: float) -> Signal:
    """A fixed smooth forcing profile with L^2 norm ``scale``.

    Takes the three lowest nonzero frequency shells (ranked by the
    sym-euclid frequency magnitude, ties broken by enumeration index), puts
    coefficient 2^{-t} on the t-th chosen frequency and on its inverse, and
    rescales.  On Z_N this is a fixed cosine packet at wavenumbers 1, 2, 3,
    identical across refinements N -> 2N, which is what makes refinement
    studies comparable; on product groups it picks the lowest characters in
    the same canonical way.
    """
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"forcing scale must be positive, got {scale}")
    gam = make_weight(group, "sym-euclid").values
    inv = inverse_indices(group)
    order = np.lexsort((np.arange(group.order), gam))
    coeffs = np.zeros(group.order, dtype=np.complex128)
    picked = 0
    seen: set[int] = set()
    for idx in order:
        idx = int(idx)
        if gam[idx] == 0.0 or idx in seen:
            continue
        picked += 1
        coeffs[idx] = 2.0**-picked
        coeffs[int(inv[idx])] = 2.0**-picked
        seen.add(idx)
        seen.add(int(inv[idx]))
        if picked == 3:
            break
    if picked == 0:
        raise ValueError(
            f"group {group.descriptor} has no nonzero frequencies for the built-in forcing"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs *= scale / float(_root_sum(coeffs))  # Plancherel: the l2 norm of the coefficients
        values = idft_values(group, coeffs)
    if not _all_finite(values):
        raise ValueError(f"forcing scale {scale!r} is too large: its samples overflow float64")
    return Signal(group, values.real)


# ---------------------------------------------------------------------------
# the fixed-point map
# ---------------------------------------------------------------------------

def _real_values(nl: Nonlinearity, u: Signal) -> np.ndarray:
    """u's samples as a real array; u must live on nl's group and be
    real-valued to within _IMAG_TOL."""
    if u.group != nl.group:
        raise ValueError("field lives on a different group than the nonlinearity")
    worst_imag = float(np.abs(u.values.imag).max(initial=0.0))
    if worst_imag > _IMAG_TOL:
        raise ValueError(
            f"field has imaginary magnitude {worst_imag:.3g} beyond tolerance {_IMAG_TOL:g}"
        )
    return u.values.real


def eval_source(nl: Nonlinearity, u: Signal) -> Signal:
    """V(., u) = U(., u) - u, evaluated pointwise on a real-valued field."""
    y = _real_values(nl, u)
    return Signal(u.group, nl.u_func(y) - y)


# Keyed by (weight, c): the benchmark's solve workload asks for 12 cells;
# weights hash by identity.
@lru_cache(maxsize=16)
def _ball_constants(w: Weight, c: float) -> tuple[float, float]:
    """The two exact norms of L^{-1} that ``size_ball`` interpolates, taken
    over the whole dual: max 1/m, from L^2 to L^2, and ||1/m||_l2, from L^2
    to L^infinity."""
    inverse = np.exp(-_log_multiplier(w.values, c, w.name))
    return float(inverse.max()), float(_root_sum(inverse))


@lru_cache(maxsize=16)  # every solve asks; weights hash by identity, as in _plan
def _symmetric(w: Weight) -> bool:
    """Whether gamma(xi) = gamma(xi^-1) at every xi, as the solver needs:
    the half layout holds gamma on one entry of each pair only."""
    return np.array_equal(w.values, w.values[inverse_indices(w.group)])


@dataclass(frozen=True, eq=False)
class _FixedPointMap:
    """G(u) = L^{-1} V(., u) for one (weight, c) on the coefficients of u on
    the group's half layout, for a symmetric weight; the methods that read V
    take the nonlinearity.  Besides the weight and the layout, the map holds
    one read-only array per fact about m on the layout, all fixed per
    (weight, c): ``log_values`` (log m), ``overflow`` (the entries where m
    is not representable in float64) and ``finite_values`` (m with zeros
    there), which ``multiply_spectrum`` reads as it reads a profile's, and
    ``neg_inverse`` (-1/m), which ``step`` reads.
    Callers silence numpy's overflow and invalid warnings: a blown-up
    iterate reads inf or nan, which the solver treats as divergence."""

    weight: Weight
    layout: HalfLayout
    log_values: np.ndarray
    overflow: np.ndarray
    finite_values: np.ndarray
    neg_inverse: np.ndarray

    def source_hat(self, nl: Nonlinearity, y: np.ndarray) -> np.ndarray | None:
        """Coefficients of the source V(., y), or None when they are not
        finite, as they are not where V is: the mean coefficient sums every
        sample."""
        v_hat = dft_values(self.weight.group, nl.u_func(y) - y, half=True)
        return v_hat if _all_finite(v_hat) else None

    def step(self, v_hat: np.ndarray) -> np.ndarray:
        """Coefficients of G's output, -v_hat / m, each entry ``paired`` (all
        of them where no axis is halved) averaged with the conjugate of its
        partner, stored at ``partner``, so that the field they synthesize is
        exactly real.  m and -1/m are functions of gamma, which the weight
        holds alike at xi and xi^-1, so the projection removes rounding only.
        On a 2-group's ``real`` layout each entry is real and its own
        partner, and the projection is the identity."""
        raw = v_hat * self.neg_inverse
        layout = self.layout
        if layout.real:
            return raw
        sym = raw[layout.partner]
        np.conjugate(sym, out=sym)
        sym += raw if layout.paired is None else raw[layout.paired]
        sym *= 0.5
        if layout.paired is None:
            return sym
        raw[layout.paired] = sym
        return raw

    def residual(self, a: np.ndarray, v_hat: np.ndarray | None) -> float:
        """||L phi - V(., phi)||_L2 = ||m a + v_hat||_l2 for phi of
        coefficients a and source coefficients v_hat; inf out of range."""
        if v_hat is None:
            return math.inf
        try:
            m_a = multiply_spectrum(self, a)
        except NotInDomainError:
            return math.inf
        m_a += v_hat
        return self.norm(m_a)

    def norm(self, coeffs: np.ndarray) -> float:
        """The l2 norm over the dual of the real field whose coefficients on
        the layout are ``coeffs``: each entry counts twice but those
        ``paired``, whose partners are stored too."""
        whole = float(_root_sum(coeffs))
        paired = self.layout.paired
        if paired is None or not 0.0 < whole < math.inf:
            return whole
        ratio = float(_root_sum(coeffs[paired])) / whole
        return whole * math.sqrt(2.0 - ratio * ratio)

    def samples(self, a: np.ndarray) -> np.ndarray:
        """The real field synthesized from coefficients a."""
        return idft_values(self.weight.group, a, half=True)

    def certificate(self, nl: Nonlinearity, p: np.ndarray, q: np.ndarray | None,
                    y: np.ndarray | None, sup: float, s: float, residual_tol: float) -> dict:
        """:func:`verify_solution`'s record for phi = p + i q under nl, from the
        coefficients p and q (None: 0) of two real fields on the layout, the
        samples y of Re phi (None: not real to within _IMAG_TOL, residual
        inf) and sup |phi|.  The residual synthesizes L p from m p, one
        transform, and evaluates V on y; the domain norm is ||m p||, inf where
        m p is not representable.  V is not defined on q, but L keeps real
        fields real, so ||L q|| = ||m q|| adds to both in quadrature.  The
        Sobolev norm is ``norm`` of (1 + gamma^2)^(s/2) p and of the same
        times q, in quadrature: the weight is symmetric, so their cross
        terms cancel over the dual."""
        w = self.weight
        group = w.group
        # a diverged field may overflow these norms; inf is the honest report
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                m_p = multiply_spectrum(self, p)
                # ||L q||, which adds in quadrature to ||L p|| and to the residual
                lq = 0.0 if q is None else self.norm(multiply_spectrum(self, q))
                dom = math.hypot(self.norm(m_p), lq)  # hypot(x, 0.0) is x
            except NotInDomainError:
                m_p, dom = None, math.inf
            residual = math.inf
            if m_p is not None and y is not None:
                lp = self.samples(np.negative(m_p, out=m_p))
                if np.isfinite(lp).all():
                    lp -= nl.u_func(y) - y
                    residual = math.hypot(float(_root_sum(lp, count=group.order)), lq)
            weights = self.layout.gather(_sobolev_weights(w, _check_s(s)))
            sob = float(_weighted_norm(weights, p, self.norm))
            if q is not None:
                sob = math.hypot(sob, float(_weighted_norm(weights, q, self.norm)))
        constant = embedding_constant_sup(group, w, s)
        residual_ok = residual <= residual_tol
        continuity_ok = sup <= constant * sob + 1e-10
        return {
            "residual_eq": residual,
            "residual_ok": bool(residual_ok),
            "sup_norm": sup,
            "sobolev_norm": sob,
            "continuity_constant": constant,
            "continuity_ok": bool(continuity_ok),
            "domain_norm": dom,
            "domain_finite": math.isfinite(dom),
            "all_ok": bool(residual_ok and continuity_ok and math.isfinite(dom)),
        }


# The benchmark's solve workload cycles 12 (weight, c) cells, which 16 entries
# hold; a sweep over c uses each map once.  Weights hash by identity, and a
# cached key keeps its weight alive.
@lru_cache(maxsize=16)
def _plan(w: Weight, c: float) -> _FixedPointMap:
    layout = half_layout(w.group)
    # the profile's m with inf where it overflows and its 1/m, which -1/m
    # repeats, are dropped: no application of the map reads them
    m = _multiplier_profile(w.group, w.name, c, layout.gather(w.values))
    neg_inverse = np.negative(m.inverse)
    neg_inverse.setflags(write=False)
    return _FixedPointMap(w, layout, m.log_values, m.overflow, m.finite_values, neg_inverse)


def _fixed_point_map(nl: Nonlinearity, w: Weight, c: float) -> _FixedPointMap:
    """The cached G of (w, c), checked against nl: the weight must live on
    nl's group and be symmetric."""
    if w.group != nl.group:
        raise ValueError("weight lives on a different group than the nonlinearity")
    if not _symmetric(w):
        raise ValueError(
            f"weight {w.name!r} is not symmetric under xi -> xi^-1: the solver needs "
            "gamma(xi) = gamma(xi^-1) so that real fields stay real"
        )
    return _plan(w, c)


def picard_step(u: Signal, nl: Nonlinearity, w: Weight, c: float) -> Signal:
    """One application of the map G: solve the linear problem with source
    V(., u), by one forward and one inverse transform on the half layout.
    The result is real, its coefficients projected onto Hermitian ones, which
    must be a rounding-level projection only, and carries them."""
    y = _real_values(nl, u)
    fmap = _fixed_point_map(nl, w, c)
    with np.errstate(over="ignore", invalid="ignore"):
        v_hat = fmap.source_hat(nl, y)
        if v_hat is None:
            raise ValueError("source values are not finite (field overflow)")
        step = fmap.step(v_hat)
    return Signal(u.group, fmap.samples(step), exact_dual=fmap.layout.expand(step))


# ---------------------------------------------------------------------------
# solver configuration / reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    theta: float = 1.0          # damping; 1 = undamped Picard
    tol: float = 1e-10          # stop when the L2 update or residual is below
    max_iter: int = 500
    epsilon_ball: float | None = None   # None: apply the sizing rule
    initial: Signal | None = None       # None: start from zero
    s: float = 1.0              # smoothness used for the continuity certificate

    def __post_init__(self) -> None:
        if not 0 < self.theta <= 1:
            raise ValueError(f"damping must be in (0, 1], got {self.theta}")
        if not self.tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter}")
        if self.epsilon_ball is not None and not self.epsilon_ball > 0:
            raise ValueError(f"ball radius must be positive, got {self.epsilon_ball}")
        _check_s(self.s)


@dataclass(frozen=True)
class SolveReport:
    status: str                          # converged | max_iter | diverged
    converged: bool
    iterations: int
    residual_history: tuple[float, ...]  # ||phi_{k+1} - phi_k||_L2 per step
    final_residual_eq: float             # independently recomputed ||L phi - V||_L2
    norms: dict                          # l2, l2alpha, domain, sup
    ball_respected: bool
    ball_radius: float                   # eps (inf if the small-data rule failed)
    small_data_ok: bool
    continuity_constant: float           # sup-embedding constant at config.s
    theta_used: float
    verification: dict                   # the certificate; not in as_dict

    def as_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "verification"}
        return {**doc, "residual_history": list(self.residual_history), "norms": dict(self.norms)}


def size_ball(group: FiniteAbelianGroup, w: Weight, c: float, nl: Nonlinearity) -> dict:
    """Executable sizing of the invariant ball Y_eps in L^{2 alpha}.

    1. E bounds ||L^{-1}||, from L^2 to L^{2 alpha}, by interpolating its two
       exact norms.  For u = L^{-1} f, whose coefficients are f_hat / m,
       ||u||_inf <= sum |f_hat| / m <= ||1/m||_l2 ||f||_L2 (Cauchy-Schwarz
       and Plancherel; equality at f_hat = 1/m), and ||u||_L2 <= max(1/m)
       ||f||_L2.  On the probability space G, ||u||_{2 alpha}^{2 alpha} <=
       ||u||_inf^{2 alpha - 2} ||u||_L2^2, so

           E = max(1/m)^{1/alpha} * ||1/m||_l2^{1 - 1/alpha},

       Riesz-Thorin between L^2 and L^inf (Grafakos, Classical Fourier
       Analysis, Thm 1.3.4).  The two norms run over the whole dual for every
       weight, symmetric or not, and are cached per (weight, c), apart from
       the solver's fixed-point map; alpha enters only here.
    2. With D' = 2 C^2 E^2 the map G sends Y_eps into itself whenever
       D'(||h||_L2^2 + eps^{2 alpha}) <= eps^2, since ||G(u)||_{2 alpha} <=
       E C (||h||_L2 + ||u||_{2 alpha}^alpha); the smallest such eps is
       found by bisection below the minimizer eps* = (alpha D')^{-1/(2alpha-2)}.

    Returns {"epsilon", "ok", "embedding_const", "contraction_coeff"};
    ok=False (and epsilon=inf) when the forcing is too large for any
    admissible ball, or D' overflows.  When D' underflows to 0 every ball is
    invariant: epsilon=inf and ok=True; so too when eps* overflows, where
    only balls narrower than sqrt(D') ||h|| < 1e-154 ||h|| are not.
    """
    if w.group != group:
        raise ValueError("weight lives on a different group")
    if nl.group != group:
        raise ValueError("nonlinearity lives on a different group")
    a = nl.alpha
    inverse_max, inverse_l2 = _ball_constants(w, c)
    e_const = inverse_max ** (1.0 / a) * inverse_l2 ** (1.0 - 1.0 / a)
    h_norm = lp_norm(nl.h, 2)
    # squares by multiplication read inf past float64, where ** would raise
    d_prime = 2.0 * (nl.c_growth * nl.c_growth) * (e_const * e_const)

    def gap(eps: float) -> float:
        grow = _float_pow(eps, 2 * a)
        if grow < math.inf:
            return d_prime * (h_norm * h_norm + grow) - eps**2
        # d' eps^(2a) = eps^2 * d' eps^(2a-2), whose last factor stays below
        # 1/a up to eps*
        return d_prime * h_norm * h_norm + eps * eps * (d_prime * _float_pow(eps, 2 * a - 2) - 1.0)

    base = {"embedding_const": e_const, "contraction_coeff": d_prime}
    if d_prime == math.inf:
        return {"epsilon": math.inf, "ok": False, **base}
    eps_star = math.inf if d_prime == 0.0 else _float_pow(1.0 / (a * d_prime), 1.0 / (2.0 * a - 2.0))
    if h_norm == 0.0 or eps_star == math.inf:
        return {"epsilon": eps_star if h_norm == 0.0 else math.inf, "ok": True, **base}
    if gap(eps_star) > 0.0:
        return {"epsilon": math.inf, "ok": False, **base}
    lo, hi = 0.0, eps_star
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # until lo and hi are adjacent floats
        if gap(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return {"epsilon": hi, "ok": True, **base}


def solve_nonlinear(
    nl: Nonlinearity, w: Weight, c: float, cfg: SolverConfig
) -> tuple[Signal, SolveReport]:
    """Damped Picard iteration for L phi = V(., phi).

    Stops as converged when either the L2 update size or the (cheaply
    monitored) equation residual drops below cfg.tol.  Divergence --
    an iterate leaving the ball while the update size grows for 10
    consecutive steps, or going non-finite -- triggers a restart with the
    damping halved, at most twice, before reporting status "diverged".
    "max_iter" reports budget exhaustion.  No status raises: sweeps treat
    them as data.  The report's ``verification`` is the fixed-point map's
    certificate of the solver's own coefficients and samples, at cfg.s and
    ``residual_tol = 10 * cfg.tol``: the record :func:`verify_solution`
    gives for the returned phi.  Its residual, domain and sup norms and
    continuity constant are the report's.  An initial field whose
    coefficients overflow float64 is refused with a ValueError before the
    first iteration.
    """
    group = nl.group
    fmap = _fixed_point_map(nl, w, c)
    layout = fmap.layout
    ball = size_ball(group, w, c, nl)
    eps = cfg.epsilon_ball if cfg.epsilon_ball is not None else ball["epsilon"]
    two_alpha = 2.0 * nl.alpha
    # blown-up iterates read as inf or nan, which the loop below turns into
    # status "diverged"; numpy's warnings about them are silenced throughout
    with np.errstate(over="ignore", invalid="ignore"):
        # the iterate is held twice: as its coefficients a on the half layout,
        # which stay exact where the multiplier is too large for the samples
        # to carry them, and as the real samples y = idft(a), which the
        # nonlinearity needs
        if cfg.initial is None:
            a0 = np.zeros(layout.size, dtype=np.float64 if layout.real else np.complex128)
            y0 = np.zeros(group.order)
        else:
            y0 = _real_values(nl, cfg.initial)
            d0 = dual_coefficients(cfg.initial)
            a0 = layout.gather(0.5 * (d0 + np.conj(d0[inverse_indices(group)])))
            if not _all_finite(a0):
                raise ValueError("initial field is too large: its coefficients overflow float64")
        v_hat0 = fmap.source_hat(nl, y0)
        if cfg.initial is not None and v_hat0 is not None:
            # samples fix their dual coefficients only to within their rounding,
            # about eps * ||y0||; where the equation's own coefficient -V_hat/m
            # lies within 4x that, take it.  Damping keeps (1 - theta)^k of the
            # difference, and m times it, which overflows at high frequencies,
            # would swamp the residual and the domain norm.
            eq = fmap.step(v_hat0)
            rounding = 4.0 * np.finfo(np.float64).eps * float(_root_sum(y0, count=group.order))
            a0 = np.where(np.abs(a0 - eq) <= rounding, eq, a0)

        for theta in (cfg.theta, cfg.theta / 2.0, cfg.theta / 4.0):
            a, y, v_hat = a0, y0, v_hat0
            history: list[float] = []
            ball_ok = True
            grow_streak = 0
            status = "max_iter"
            for _ in range(cfg.max_iter):
                if v_hat is None:
                    status = "diverged"
                    break
                # the samples are synthesized from the damped coefficients, so
                # (a, y) stays the exact pair that phi returns
                a_new = fmap.step(v_hat)
                if theta < 1.0:  # undamped, the step is the new iterate
                    a_new *= theta
                    a_new += (1.0 - theta) * a
                y_new = fmap.samples(a_new)
                # the L2 norm; y is finite: a non-finite y_new reads inf or nan
                diff = float(_root_sum(y_new - y, count=group.order))
                if not diff < math.inf and not np.isfinite(y_new).all():
                    status = "diverged"
                    break
                grow_streak = grow_streak + 1 if history and diff > history[-1] else 0
                history.append(diff)
                if ball_ok and math.isfinite(eps):
                    # ||y_new||_{2 alpha}, lp_norm_batch's sum without its call overhead
                    ball_ok = float(_root_sum(y_new, two_alpha, group.order)) <= eps * (1.0 + 1e-12)
                a, y = a_new, y_new
                if diff < cfg.tol:
                    status = "converged"
                    break
                # the monitored residual's V_hat is the next step's source, so
                # it costs no extra transform.  Catches one-step exact cases
                # (affine).
                v_hat = fmap.source_hat(nl, y)
                if fmap.residual(a, v_hat) < cfg.tol:
                    status = "converged"
                    break
                if not ball_ok and grow_streak >= 10:
                    status = "diverged"
                    break
            if status != "diverged":
                break
        phi = Signal(group, y, exact_dual=layout.expand(a))

        # the a posteriori certificate goes through the forward operator
        sup = float(lp_norm_batch(group, y, math.inf))
        record = fmap.certificate(nl, a, None, y, sup, cfg.s, residual_tol=10 * cfg.tol)
        norms = {
            "l2": float(lp_norm_batch(group, y, 2)),
            "l2alpha": float(lp_norm_batch(group, y, two_alpha)),
            "domain": record["domain_norm"],
            "sup": sup,
        }
    report = SolveReport(
        status=status,
        converged=status == "converged",
        iterations=len(history),
        residual_history=tuple(history),
        final_residual_eq=record["residual_eq"],
        norms=norms,
        ball_respected=ball_ok,
        ball_radius=float(eps),
        small_data_ok=bool(ball["ok"]),
        continuity_constant=record["continuity_constant"],
        theta_used=theta,
        verification=record,
    )
    return phi, report


def verify_solution(
    phi: Signal,
    nl: Nonlinearity,
    w: Weight,
    c: float,
    s: float,
    residual_tol: float = 1e-10,
) -> dict:
    """Independent verification record for a candidate solution.

    Recomputes the equation residual from scratch, checks the sup-norm
    continuity certificate sup|phi| <= C(gamma, s) * ||phi||_{s,gamma}, and
    reports whether phi has finite domain norm.  phi = p + i q is certified
    by the fixed-point map's certificate on the half coefficients of the
    real fields p and q: the Hermitian and the anti-Hermitian part of
    ``phi.exact_dual`` (times -i), or else the transforms of Re phi and
    Im phi.  The residual synthesizes L p from m p and evaluates V on Re phi;
    the domain norm is ||m p||_l2, inf where m p is not representable;
    ||L q|| = ||m F(q)|| adds to both in quadrature.  A phi with Hermitian
    ``exact_dual`` (every solver output) has no q and costs one transform,
    the synthesis of L phi, and its record is the solver's own.
    """
    group = phi.group
    if w.group != group:
        raise ValueError("signal and weight live on different groups")
    fmap = _fixed_point_map(nl, w, c)
    layout = fmap.layout
    dual = phi.exact_dual
    values = phi.values
    worst_imag = float(np.abs(values.imag).max(initial=0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        if dual is None:
            p = dft_values(group, values.real, half=True)
            q = dft_values(group, values.imag, half=True) if worst_imag else None
        elif np.array_equal(partners := dual[inverse_indices(group)].conj(), dual):
            p, q = layout.gather(dual), None
        else:
            p, q = layout.gather(0.5 * (dual + partners)), layout.gather(-0.5j * (dual - partners))
    # |x + 0j| is |x|: a real phi's sup reads its real parts, bit for bit
    sup = float(np.abs(values.real if worst_imag == 0.0 else values).max())
    y = np.ascontiguousarray(values.real) if worst_imag <= _IMAG_TOL else None
    return fmap.certificate(nl, p, q, y, sup, s, residual_tol=residual_tol)


def check_growth_conditions(nl: Nonlinearity, y_samples) -> dict:
    """Sweep the growth inequalities over the group and the given y values.

    Checks |U - y| <= C(|h| + |y|^alpha) and |d/dy(U - y)| <= C(|f| + |y|^beta)
    at every point; reports the worst ratio of each and a witness.  Points
    where the right side vanishes require the left side to vanish too.
    """
    y_samples = [float(y) for y in y_samples]
    if not y_samples:
        raise ValueError("need at least one sample value")
    group = nl.group
    habs = np.abs(nl.h.values.real)
    fabs = np.abs(nl.f_env.values.real)
    worst_val, worst_val_at = 0.0, None
    worst_der, worst_der_at = 0.0, None
    degenerate: list = []
    for y in y_samples:
        yarr = np.full(group.order, y)
        lhs_val = np.abs(nl.u_func(yarr) - yarr)
        rhs_val = nl.c_growth * (habs + abs(y) ** nl.alpha)
        lhs_der = np.abs(nl.du_func(yarr) - 1.0)
        rhs_der = nl.c_growth * (fabs + abs(y) ** nl.beta)
        for lhs, rhs, tag in ((lhs_val, rhs_val, "value"), (lhs_der, rhs_der, "derivative")):
            zero = rhs == 0.0
            if np.any(zero & (lhs > 0.0)):
                xi = int(np.argmax(zero & (lhs > 0.0)))
                degenerate.append({"kind": tag, "x": list(element_at(group, xi)), "y": y})
            ratio = np.where(zero, 0.0, lhs / np.where(zero, 1.0, rhs))
            pos = int(np.argmax(ratio))
            if tag == "value" and ratio[pos] > worst_val:
                worst_val = float(ratio[pos])
                worst_val_at = {"x": list(element_at(group, pos)), "y": y}
            if tag == "derivative" and ratio[pos] > worst_der:
                worst_der = float(ratio[pos])
                worst_der_at = {"x": list(element_at(group, pos)), "y": y}
    ok = not degenerate and worst_val <= 1.0 + 1e-12 and worst_der <= 1.0 + 1e-12
    return {
        "ok": bool(ok),
        "worst_value_ratio": worst_val,
        "worst_value_witness": worst_val_at,
        "worst_derivative_ratio": worst_der,
        "worst_derivative_witness": worst_der_at,
        "degenerate_violations": degenerate,
    }
