"""Independent reference computations used to check the program's outputs.

Nothing here imports groupsobolev.  Transforms go through numpy.fft over the
factor grid, and the weights and the string multiplier are rebuilt from
their defining formulas, so a fault in the program's own transform, weight
or log-space code cannot hide itself from these checks.

Conventions match the program's: normalized Haar measure on the group
(L^2 norms are root-mean-square), counting measure on the dual, forward
transform F(f)(xi) = mean_x conj(xi(x)) f(x), enumeration in C order over the
factor grid.
"""
from __future__ import annotations

import json
import math

import numpy as np

# A fixed-point residual or sweep residual may be at most this multiple of
# the solver tolerance; the CLI uses the same factor for its verification.
RESIDUAL_FACTOR = 10.0
# Relative slack for inequalities that are exact in real arithmetic.
INEQ_RTOL = 1e-12
# Relative agreement asked of the program's norms and constants with the
# reference ones; the two transforms differ by about 1e-14.
FIGURE_RTOL = 1e-12


def parse_factors(descriptor: str) -> tuple[int, ...]:
    return tuple(int(tok.strip()[1:]) for tok in descriptor.split("x"))


def fft_forward(factors, values: np.ndarray) -> np.ndarray:
    """F(f) in enumeration order, including the 1/|G| factor."""
    n = math.prod(factors)
    grid = np.asarray(values, dtype=np.complex128).reshape(*factors)
    return np.fft.fftn(grid).reshape(n) / n


def fft_inverse(factors, coeffs: np.ndarray) -> np.ndarray:
    """f(x) = sum_xi F(xi) xi(x) in enumeration order."""
    n = math.prod(factors)
    grid = np.asarray(coeffs, dtype=np.complex128).reshape(*factors)
    return np.fft.ifftn(grid).reshape(n) * n


def gamma(factors, weight: str) -> np.ndarray:
    """The dual weight gamma over the dual, from its defining formula."""
    res = np.indices(factors).reshape(len(factors), -1)
    n = np.asarray(factors)[:, None]
    if weight == "sym-euclid":
        return np.sqrt((np.minimum(res, n - res).astype(np.float64) ** 2).sum(axis=0))
    if weight == "hamming":
        return (res != 0).sum(axis=0).astype(np.float64)
    if weight.startswith("pruefer:") and len(factors) == 1:
        k = res[0]
        return np.where(k == 0, 0.0, factors[0] / np.gcd(k, factors[0]))
    raise ValueError(f"no reference weight {weight!r} on {factors}")


def log_multiplier(gam: np.ndarray, c: float) -> np.ndarray:
    """log m = log(1 + gamma^2 exp(c gamma^2)), finite for every gamma."""
    safe = np.where(gam > 0, gam, 1.0)
    t = np.where(gam > 0, c * gam**2 + 2.0 * np.log(safe), -np.inf)
    return np.logaddexp(0.0, t)


def l2(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(values) ** 2)))


def make_forcing(rng, factors, gam: np.ndarray, c: float, l2_norm: float,
                 log_m_max: float = 40.0) -> np.ndarray:
    """A real forcing with L^2 norm ``l2_norm``.

    Its coefficients are Gaussian, damped by (1 + gamma^2)^{-1}, and zero
    wherever log m(xi) exceeds ``log_m_max``, so no forcing mass sits where
    the multiplier is beyond double range.  They are also zero at gamma = 0,
    where m = 1 damps least: with forcing there, cells with lam = 2 diverge.
    """
    n = gam.size
    band = (log_multiplier(gam, c) <= log_m_max) & (gam > 0)
    coeffs = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / (1.0 + gam**2)
    coeffs = np.where(band, coeffs, 0.0)
    # Hermitian symmetry a(-xi) = conj a(xi) makes the field real.
    neg = np.indices(factors).reshape(len(factors), -1)
    neg = np.ravel_multi_index(tuple((-neg) % np.asarray(factors)[:, None]), factors)
    coeffs = 0.5 * (coeffs + np.conj(coeffs[neg]))
    values = fft_inverse(factors, coeffs).real
    return values * (l2_norm / l2(values))


def check_solve(problem: dict, phi: np.ndarray, report: dict, verification: dict,
                tol: float, s: float = 1.0) -> tuple[list[str], float]:
    """Every reason the solve output is wrong (none when it holds), and the
    independent fixed-point residual.

    ``problem`` holds factors, weight, c, p, lam and the forcing values h.
    """
    errors = []
    if not report["converged"]:
        errors.append(f"status {report['status']}")
    if not verification["all_ok"]:
        errors.append("verify_solution not all_ok")
    factors = problem["factors"]
    gam = gamma(factors, problem["weight"])
    phi = np.asarray(phi)
    if np.abs(phi.imag).max() > 1e-9:
        errors.append("solution is not real")
    y = phi.real
    source = problem["lam"] * y ** problem["p"] + problem["h"]
    step = fft_inverse(factors, fft_forward(factors, source)
                       * np.exp(-log_multiplier(gam, problem["c"])))
    resid = l2(y + step)
    if not resid <= RESIDUAL_FACTOR * tol:
        errors.append(f"fixed-point residual {resid:.3e} > {RESIDUAL_FACTOR * tol:.1e}")
    spec = fft_forward(factors, y)
    sob = math.sqrt(float(((1.0 + gam**2) ** s * np.abs(spec) ** 2).sum()))
    const = math.sqrt(float(((1.0 + gam**2) ** (-s)).sum()))
    sup = float(np.abs(y).max())
    for key, want in (("sobolev_norm", sob), ("continuity_constant", const), ("sup_norm", sup)):
        got = verification[key]
        if not abs(got - want) <= FIGURE_RTOL * abs(want):
            errors.append(f"verification {key} {got:.17g}, reference {want:.17g}")
    if not sup <= const * sob * (1 + INEQ_RTOL):
        errors.append(f"sup {sup:.6e} above embedding bound {const * sob:.6e}")
    norms = report["norms"]
    if not norms["l2"] <= norms["l2alpha"] * (1 + INEQ_RTOL):
        errors.append("report norms: l2 > l2alpha")
    if not norms["l2alpha"] <= norms["sup"] * (1 + INEQ_RTOL):
        errors.append("report norms: l2alpha > sup")
    return errors, resid


def check_check_doc(doc: dict, suites: list[str]) -> list[str]:
    """Reasons a run_checks document is wrong: a failed or missing suite."""
    errors = []
    if not doc.get("all_passed"):
        errors.append("all_passed is false")
    names = [s["name"] for s in doc.get("suites", [])]
    if names != suites:
        errors.append(f"suites {names} != {suites}")
    failing = [s["name"] for s in doc.get("suites", []) if not s["passed"]]
    if failing:
        errors.append(f"failing suites {failing}")
    return errors


def check_json_text(doc: dict) -> str:
    """The check document as the CLI serializes it."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


SWEEP_HEADER = ("param,value,status,converged,iterations,final_residual_eq,"
                "norm_l2,norm_l2alpha,norm_domain,norm_sup,ball_respected,ball_radius")


def check_sweep_csv(text: str, param: str, grid: list[float], tol: float) -> list[str]:
    """Reasons a sweep CSV is wrong: order, convergence, residual, norms."""
    lines = text.strip().split("\n")
    if lines[0] != SWEEP_HEADER:
        return ["bad header"]
    rows = [dict(zip(SWEEP_HEADER.split(","), ln.split(","))) for ln in lines[1:]]
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for {len(grid)} grid points"]
    errors = []
    for i, (row, value) in enumerate(zip(rows, grid)):
        if row["param"] != param or float(row["value"]) != value:
            errors.append(f"row {i} is {row['param']}={row['value']}, expected {value}")
        if row["status"] != "converged" or row["converged"] != "true":
            errors.append(f"row {i} status {row['status']}")
        if not float(row["final_residual_eq"]) <= RESIDUAL_FACTOR * tol:
            errors.append(f"row {i} residual {row['final_residual_eq']}")
        l2n, l2a, sup = (float(row[k]) for k in ("norm_l2", "norm_l2alpha", "norm_sup"))
        if not (l2n <= l2a * (1 + INEQ_RTOL) and l2a <= sup * (1 + INEQ_RTOL)):
            errors.append(f"row {i} norms out of order: {l2n}, {l2a}, {sup}")
    return errors
