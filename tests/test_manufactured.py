"""Manufactured solutions: the solver must find an answer it never computed.

A real trigonometric polynomial phi* on the lowest-gamma characters is
chosen first, and the forcing h = L phi* - lam phi*^p is built from it with a
test-local reference: numpy.fft on the factor grid (on Z2^n, a Walsh sum),
the closed-form gamma and log m, and L acting on phi*'s exact coefficients,
where it multiplies by -m.  None of the package's transforms, weights or
multipliers build h, so the solve is judged against an answer that none of
its own parts produced (Roache, "Code verification by the method of
manufactured solutions", J. Fluids Eng. 124, 2002).
"""
import math

import numpy as np
import pytest

from groupsobolev.group import parse_group
from groupsobolev.nonlinear import SolverConfig, forced_power_nonlinearity, solve_nonlinear
from groupsobolev.sobolev import make_weight
from groupsobolev.spectral import Signal


def _gamma(factors, weight):
    """gamma over the dual in C order over the factor grid."""
    res = np.indices(factors).reshape(len(factors), -1)
    n = np.asarray(factors)[:, None]
    if weight == "sym-euclid":
        return np.sqrt((np.minimum(res, n - res) ** 2).sum(axis=0).astype(np.float64))
    if weight == "hamming":
        return (res != 0).sum(axis=0).astype(np.float64)
    k = res[0]  # pruefer:p on one cyclic factor: the order of k
    return np.where(k == 0, 0.0, factors[0] / np.gcd(k, factors[0]))


def _manufactured(factors, weight, c, p, lam):
    """(phi*, h): phi*'s samples, of sup norm 0.25, on the eight or so
    lowest-gamma characters but none past the first where m > e^10 (h, about
    m times phi*, stays far from float64's range), and h = L phi* - lam phi*^p."""
    n = math.prod(factors)
    gam = _gamma(factors, weight)
    with np.errstate(divide="ignore"):  # log 0 at gamma = 0, where m = 1
        log_m = np.logaddexp(0.0, c * gam**2 + 2.0 * np.log(gam))
    res = np.indices(factors).reshape(len(factors), -1)
    neg = np.ravel_multi_index(tuple((-res) % np.asarray(factors)[:, None]), factors)
    coeffs = np.zeros(n, dtype=np.complex128)
    picked = set()
    for xi in np.lexsort((np.arange(n), gam)):
        if len(picked) >= 8 or (picked and log_m[xi] > 10.0):
            break
        if xi not in picked:
            picked |= {int(xi), int(neg[xi])}
            coeffs[xi] = complex(1.0 + 0.3 * len(picked), 0.7 - 0.2 * len(picked)) / len(picked)
    coeffs = 0.5 * (coeffs + np.conj(coeffs[neg]))  # Hermitian: phi* is real
    phi = (np.fft.ifftn(coeffs.reshape(factors)) * n).real.reshape(n)
    scale = 0.25 / np.abs(phi).max()
    coeffs *= scale
    phi *= scale
    # L multiplies phi*'s coefficients by -m, on their support only: m
    # overflows float64 at high frequencies
    on = np.flatnonzero(coeffs)
    l_hat = np.zeros(n, dtype=np.complex128)
    l_hat[on] = -np.exp(log_m[on]) * coeffs[on]
    l_phi = (np.fft.ifftn(l_hat.reshape(factors)) * n).real.reshape(n)
    return phi, l_phi - lam * phi**p


@pytest.mark.parametrize("descriptor, weight, c, p", [
    ("Z4096", "sym-euclid", 1.0, 2),
    ("Z4096", "pruefer:2", 1.0, 2),
    ("Z64xZ64", "sym-euclid", 0.5, 2),
    ("Z16xZ16xZ16", "sym-euclid", 1.0, 3),
    ("x".join(["Z2"] * 12), "hamming", 0.5, 2),
    ("Z257", "sym-euclid", 1.0, 3),
    ("Z12", "sym-euclid", 0.5, 2),
    ("Z729", "pruefer:3", 0.5, 2),
])
def test_solver_recovers_a_manufactured_solution(descriptor, weight, c, p):
    g = parse_group(descriptor)
    factors = tuple(g.factors)
    phi_star, h = _manufactured(factors, weight, c, p, lam=1.0)
    assert 0.2 <= np.abs(phi_star).max() <= 0.3
    nl = forced_power_nonlinearity(p, 1.0, Signal(g, h))
    phi, rep = solve_nonlinear(nl, make_weight(g, weight), c, SolverConfig())
    assert rep.converged
    assert np.abs(phi.values.real - phi_star).max() <= 1e-9
