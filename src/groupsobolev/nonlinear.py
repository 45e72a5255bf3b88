"""Fixed-point solver for the nonlocal string equation  L phi = U(x, phi) - phi.

Writing V(x, y) = U(x, y) - y, the equation becomes L phi = V(., phi), and a
solution is a fixed point of the solve-then-substitute map

    G(u) = solve_linear(V(., u)).

That map is realized here as a damped Picard iteration

    phi_{k+1} = (1 - theta) phi_k + theta * G(phi_k),

with convergence certified a posteriori: the reported equation residual
||L phi - V(., phi)||_L2 is recomputed through an independent forward
application of the operator, never taken from the iteration's own arithmetic.

Nonlinearities are described by the growth data (alpha, beta, C, h, f):

    |U(x,y) - y|            <= C (|h(x)| + |y|^alpha),
    |d/dy (U(x,y) - y)|     <= C (|f(x)| + |y|^beta),   0 <= beta <= alpha-1.

The smallness analysis runs through a ball  Y_eps = {u : ||u||_{L^{2alpha}} <= eps}
that the map G preserves when the forcing is small.  The executable sizing
rule (the underlying theory only asserts "eps exists") is spelled out at
:func:`size_ball`.  The string field is real-valued throughout; transforms
introduce only rounding-level imaginary parts, which are projected away and
asserted tiny.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .group import FiniteAbelianGroup, element_at, inverse_indices
from .sobolev import (
    Weight,
    embedding_constant_lalpha,
    embedding_constant_sup,
    lp_norm,
    lp_norm_batch,
    make_weight,
    sobolev_norm,
)
from .spectral import Signal, Spectrum, dft_values, dual_coefficients, idft, idft_values
from .stringop import (
    NotInDomainError,
    apply_operator,
    build_multiplier,
    domain_norm,
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


def power_nonlinearity(group: FiniteAbelianGroup, p: int, lam: float) -> Nonlinearity:
    """U(x, y) = y + lam * y^p for integer p >= 2.

    p = 2 is the classic quadratic self-interaction of bosonic string field
    theory.  Growth data is exact: alpha = p, beta = p - 1, C = p*lam, with
    zero envelopes.
    """
    p = int(p)
    lam = float(lam)
    if p < 2:
        raise ValueError(f"power nonlinearity needs integer p >= 2, got {p}")
    if not lam > 0:
        raise ValueError(f"coupling must be positive, got {lam}")
    return Nonlinearity(
        name=f"power:{p},{lam!r}",
        u_func=lambda y: y + lam * y**p,
        du_func=lambda y: 1.0 + p * lam * y ** (p - 1),
        alpha=float(p),
        beta=float(p - 1),
        c_growth=p * lam,
        h=_zero_signal(group),
        f_env=_zero_signal(group),
    )


def forced_power_nonlinearity(p: int, lam: float, h: Signal) -> Nonlinearity:
    """U(x, y) = y + lam * y^p + h(x)."""
    p = int(p)
    lam = float(lam)
    if p < 2:
        raise ValueError(f"power nonlinearity needs integer p >= 2, got {p}")
    if not lam > 0:
        raise ValueError(f"coupling must be positive, got {lam}")
    hv = h.values.real.copy()
    return Nonlinearity(
        name=f"forced-power:{p},{lam!r}",
        u_func=lambda y: y + lam * y**p + hv,
        du_func=lambda y: 1.0 + p * lam * y ** (p - 1),
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
            p, lam = int(parts[0]), float(parts[1])
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
    norm = float(np.sqrt((np.abs(coeffs) ** 2).sum()))  # Plancherel: l2 of coeffs
    coeffs *= scale / norm
    values = idft_values(group, coeffs)
    return Signal(group, values.real)


# ---------------------------------------------------------------------------
# the fixed-point map
# ---------------------------------------------------------------------------

def eval_source(nl: Nonlinearity, u: Signal) -> Signal:
    """V(., u) = U(., u) - u, evaluated pointwise on a real-valued field."""
    worst_imag = float(np.abs(u.values.imag).max(initial=0.0))
    if worst_imag > _IMAG_TOL:
        raise ValueError(
            f"field has imaginary magnitude {worst_imag:.3g} beyond tolerance {_IMAG_TOL:g}"
        )
    y = u.values.real
    return Signal(u.group, nl.u_func(y) - y)


def _source_hat(nl: Nonlinearity, group: FiniteAbelianGroup, y: np.ndarray) -> np.ndarray | None:
    """Dual coefficients of the source V(., y), or None when V or its
    transform is not finite, which the iteration treats as divergence."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = nl.u_func(y) - y
        if not np.isfinite(v).all():
            return None
        v_hat = dft_values(group, v)
    return v_hat if np.isfinite(v_hat).all() else None


def _real_step(v_hat: np.ndarray, inv_m: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Dual coefficients of G's output, -v_hat / m, Hermitian-symmetrized so
    that the field they synthesize is exactly real.

    The symmetrization must be a rounding-level projection; a larger
    anti-Hermitian part (compared in L2, by Plancherel) means the
    multiplier/weight pair does not preserve real fields.
    """
    raw = -v_hat * inv_m
    sym = 0.5 * (raw + np.conj(raw[inv]))
    with np.errstate(over="ignore", invalid="ignore"):  # a blown-up step passes
        worst_imag = _l2_dual(raw - sym)
        scale = max(1.0, _l2_dual(sym))
    if worst_imag > _IMAG_TOL * scale:
        raise ValueError(
            f"linear solve returned relative imaginary magnitude "
            f"{worst_imag / scale:.3g}; the multiplier/weight pair does not "
            "preserve real fields"
        )
    return sym


def picard_step(u: Signal, nl: Nonlinearity, w: Weight, c: float) -> Signal:
    """One application of the map G: solve the linear problem with source
    V(., u).  The result is projected to its real part, which must be a
    rounding-level projection only, and carries its dual coefficients."""
    eval_source(nl, u)  # enforce the real-field contract on the input
    v_hat = _source_hat(nl, u.group, u.values.real)
    if v_hat is None:
        raise ValueError("source values are not finite (field overflow)")
    step = _real_step(v_hat, build_multiplier(u.group, w, c).inverse, inverse_indices(u.group))
    return idft(Spectrum(u.group, step), real=True)


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
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.epsilon_ball is not None and not self.epsilon_ball > 0:
            raise ValueError(f"ball radius must be positive, got {self.epsilon_ball}")


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
    delta: float                         # summability exponent used by the rule
    s_embed: float                       # smoothness used inside the ball rule
    continuity_constant: float           # sup-embedding constant at config.s
    theta_used: float
    verification: dict                   # the certificate; not in as_dict

    def as_dict(self) -> dict:
        doc = {**asdict(self), "residual_history": list(self.residual_history)}
        del doc["verification"]
        return doc


def size_ball(group: FiniteAbelianGroup, w: Weight, c: float, nl: Nonlinearity) -> dict:
    """Executable sizing of the invariant ball Y_eps in L^{2 alpha}.

    Chain of constants:

    1. delta = smallest exponent in {1.25, 1.5, 2, 3, 4} with
       S(delta) = sum (1+gamma^2)^{-delta} <= 10 (finite duals make every
       exponent admissible; the threshold picks a scale-stable one).  Falls
       back to 4 if none qualifies.
    2. s = midpoint of the admissible window (delta - delta/alpha, delta).
    3. E = [sup_xi (1+gamma^2)^{s/2} / m(xi)] * S(delta)^{s/(2 delta)}:
       the norm of the chain  domain -> H^s -> L^{alpha*} -> L^{2 alpha}
       (the last inclusion is norm-1 on a probability space since
       alpha* >= 2 alpha inside the window).
    4. With D' = 2 C^2 E^2 the map G sends Y_eps into itself whenever
       D'(||h||_L2^2 + eps^{2 alpha}) <= eps^2; the smallest such eps is
       found by bisection below the minimizer eps* = (alpha D')^{-1/(2alpha-2)}.

    Returns {"epsilon", "ok", "delta", "s_embed", "embedding_const",
    "contraction_coeff"}; ok=False (and epsilon=inf) when the forcing is too
    large for any admissible ball.
    """
    gam2 = w.values**2
    delta = None
    for cand in (1.25, 1.5, 2.0, 3.0, 4.0):
        if ((1.0 + gam2) ** (-cand)).sum() <= 10.0:
            delta = cand
            break
    if delta is None:
        delta = 4.0
    s_embed = delta - delta / (2.0 * nl.alpha)

    profile = build_multiplier(group, w, c)
    log_ratio = (s_embed / 2.0) * np.log1p(gam2) - profile.log_values
    c_chain = float(np.exp(log_ratio.max()))
    e_const = c_chain * embedding_constant_lalpha(group, w, s_embed, delta)["constant"]

    h_norm = lp_norm(nl.h, 2)
    d_prime = 2.0 * nl.c_growth**2 * e_const**2
    a = nl.alpha

    def gap(eps: float) -> float:
        return d_prime * (h_norm**2 + eps ** (2 * a)) - eps**2

    eps_star = (1.0 / (a * d_prime)) ** (1.0 / (2.0 * a - 2.0))
    base = {
        "delta": delta,
        "s_embed": s_embed,
        "embedding_const": e_const,
        "contraction_coeff": d_prime,
    }
    if h_norm == 0.0:
        return {"epsilon": eps_star, "ok": True, **base}
    if gap(eps_star) > 0.0:
        return {"epsilon": math.inf, "ok": False, **base}
    lo, hi = 0.0, eps_star
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return {"epsilon": hi, "ok": True, **base}


def _l2(group: FiniteAbelianGroup, values: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # norms of blown-up fields read as inf
        return float(np.sqrt((np.abs(values) ** 2).sum() / group.order))


def _l2_dual(values: np.ndarray) -> float:
    """l2 norm under counting measure on the dual.  Summed in numpy, not
    through np.linalg.norm, whose BLAS dot product starts its own threads
    on long vectors: one call then costs about twice its wall time in CPU."""
    return float(np.sqrt((np.abs(values) ** 2).sum()))


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
    them as data.  The report's ``verification`` is :func:`verify_solution`
    at cfg.s and ``residual_tol = 10 * cfg.tol``; its residual, domain and
    sup norms and continuity constant are the report's.
    """
    group = nl.group
    if w.group != group:
        raise ValueError("weight lives on a different group than the nonlinearity")
    inv = inverse_indices(group)
    if not np.array_equal(w.values, w.values[inv]):
        raise ValueError(
            f"weight {w.name!r} is not symmetric under xi -> xi^-1: the solver needs "
            "gamma(xi) = gamma(xi^-1) so that real fields stay real"
        )
    ball = size_ball(group, w, c, nl)
    eps = cfg.epsilon_ball if cfg.epsilon_ball is not None else ball["epsilon"]
    two_alpha = 2.0 * nl.alpha
    profile = build_multiplier(group, w, c)
    # the iterate is held twice: as dual coefficients a, which stay exact
    # where the multiplier is too large for the samples to carry them, and
    # as real samples y, which the nonlinearity needs
    if cfg.initial is None:
        a0 = np.zeros(group.order, dtype=np.complex128)
        y0 = np.zeros(group.order)
    else:
        d0 = dual_coefficients(cfg.initial)
        a0 = 0.5 * (d0 + np.conj(d0[inv]))
        y0 = cfg.initial.values.real
    v_hat0 = _source_hat(nl, group, y0)

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
            # G is linear in the source, so the damped samples follow from
            # one inverse transform of the step alone
            step = _real_step(v_hat, profile.inverse, inv)
            with np.errstate(over="ignore", invalid="ignore"):
                y_new = (1.0 - theta) * y + theta * idft_values(group, step).real
            if not np.isfinite(y_new).all():
                status = "diverged"
                break
            a = (1.0 - theta) * a + theta * step
            diff = _l2(group, y_new - y)
            grow_streak = grow_streak + 1 if history and diff > history[-1] else 0
            history.append(diff)
            if math.isfinite(eps):
                with np.errstate(over="ignore"):  # blown-up iterates read as inf
                    in_ball = float(lp_norm_batch(group, y_new, two_alpha)) <= eps * (1.0 + 1e-12)
                ball_ok = ball_ok and in_ball
            y = y_new
            if diff < cfg.tol:
                status = "converged"
                break
            # residual monitor ||L phi - V||_L2 = ||m a + V_hat||_l2 by
            # Plancherel; its V_hat is the next step's source, so it costs
            # no extra transform.  Catches one-step exact cases (affine).
            v_hat = _source_hat(nl, group, y)
            try:
                with np.errstate(over="ignore"):
                    resid = (
                        math.inf if v_hat is None
                        else _l2_dual(multiply_spectrum(profile, a) + v_hat)
                    )
            except NotInDomainError:
                resid = math.inf
            if resid < cfg.tol:
                status = "converged"
                break
            if not ball_ok and grow_streak >= 10:
                status = "diverged"
                break
        if status != "diverged":
            break
    phi = idft(Spectrum(group, a), real=True)

    # the a posteriori certificate goes through the forward operator
    record = verify_solution(phi, nl, w, c, cfg.s, residual_tol=10 * cfg.tol)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged field reads inf
        norms = {
            "l2": lp_norm(phi, 2),
            "l2alpha": lp_norm(phi, two_alpha),
            "domain": record["domain_norm"],
            "sup": record["sup_norm"],
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
        delta=float(ball["delta"]),
        s_embed=float(ball["s_embed"]),
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
    reports whether phi has finite domain norm.
    """
    group = phi.group
    # a diverged field may overflow these norms; inf is the honest report
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            residual = _l2(
                group, apply_operator(phi, w, c).values - eval_source(nl, phi).values
            )
            residual_ok = residual <= residual_tol
        except (NotInDomainError, ValueError):
            residual = math.inf
            residual_ok = False
        sup = lp_norm(phi, math.inf)
        sob = sobolev_norm(phi, w, s)
        try:
            dom = domain_norm(phi, w, c)
        except NotInDomainError:
            dom = math.inf
    constant = embedding_constant_sup(group, w, s)
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
