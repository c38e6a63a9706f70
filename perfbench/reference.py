"""Independent reference values of the demo chart solution.

Nothing here calls qgevrey's numerics.  For a first-order problem with one
right-hand term ``k = 0, m0, m1`` and constant coefficient ``b`` and
initial datum ``w0`` (the shipped demo: ``m0 = 1, m1 = 2, b = w0 = 1``),
the recursion has the closed form

    W_h(eps, tau) = w0 (b tau^m0 / ((tau + 1) eps^m0))^h q^{-m1 h (h-1) / 2},

and the chart solution is

    X = (log q / pi_q) * integral sum_h W_h(eps, q^s lam) z^h / h!
                                 / theta(q^s lam / (eps t)) ds.

The reference sums the two-sided theta series directly in log space
around its largest term, takes ``pi_q`` as a plain product, and applies
the trapezoid rule with step 1/16 on ``s`` in [-30, 30]; the integrand is
analytic in a strip and Gaussian-decaying, so that rule is accurate far
below the solver's ``abs_tol``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

STEP = 1.0 / 16.0
S_MAX = 30.0
THETA_HALF_WIDTH = 12  # terms on each side of the largest theta term
CHUNK = 32             # points evaluated together (bounds memory)


def closed_form_params(cfg) -> tuple[int, int, complex, complex]:
    """``(m0, m1, b, w0)`` of a config the closed form covers, else ValueError."""
    terms = cfg.problem.terms
    if cfg.problem.s_order != 1 or len(terms) != 1:
        raise ValueError("closed form needs a first-order single-term problem")
    term = terms[0]
    if term.k != 0 or len(term.coeffs) != 1 or term.coeffs[0][0] != 0 \
            or len(term.coeffs[0][1]) != 1:
        raise ValueError("closed form needs k = 0 and a constant b_{0,0}")
    (w0_term,) = cfg.initial.components[0]
    if (w0_term.a, w0_term.b, w0_term.r) != (0, 0, 0):
        raise ValueError("closed form needs constant initial data")
    return term.m0, term.m1, complex(term.coeffs[0][1][0]), complex(w0_term.c)


def pi_q(log_q: complex) -> complex:
    prod = 1.0 + 0j
    n = 1
    while True:
        term = cmath.exp(-n * log_q)
        prod /= 1.0 - term
        if abs(term) < 1e-18:
            return log_q * prod
        n += 1


def inv_theta(x: np.ndarray, log_q: complex) -> np.ndarray:
    """``1 / theta(x)`` from ``sum_n q^{-n(n-1)/2} x^n``, summed outward from
    the largest term ``n = c`` with term ratios ``x q^-n`` (up) and
    ``q^(n-1) / x`` (down); the peak term itself is taken in log space."""
    log_x = np.log(x)
    c = np.rint(log_x.real / log_q.real + 0.5)
    log_peak = -0.5 * c * (c - 1.0) * log_q + c * log_x
    up = x * np.exp(-c * log_q)   # t_{c+1} / t_c
    down = 1.0 / up               # t_{c-1} / t_c * q
    total = np.ones_like(x)
    t_up = np.ones_like(x)
    t_down = np.ones_like(x)
    for k in range(THETA_HALF_WIDTH):
        t_up *= up * cmath.exp(-k * log_q)
        t_down *= down * cmath.exp(-(k + 1) * log_q)
        total += t_up + t_down
    return np.exp(-log_peak) / total


def chart_values(params, log_q: complex, beta_max: int, lam, eps, t, z
                 ) -> np.ndarray:
    """Reference ``X(eps, t, z)`` for arrays of points (one direction each)."""
    m0, m1, b, w0 = params
    lam, eps, t, z = (np.asarray(v, dtype=complex)[:, None]
                      for v in (lam, eps, t, z))
    s = np.arange(-S_MAX, S_MAX + STEP / 2, STEP)
    weights = np.full(s.size, STEP)
    weights[[0, -1]] *= 0.5
    tau = lam * np.exp(s * log_q)
    ratio = b * tau**m0 / ((tau + 1.0) * eps**m0)
    series = np.zeros_like(tau)
    step = ratio * z
    term = np.full_like(tau, w0)  # W_h z^h / h!
    for h in range(beta_max + 1):
        series += term
        term *= step * (cmath.exp(-m1 * h * log_q) / (h + 1))
    integrand = series * inv_theta(tau / (eps * t), log_q)
    return (log_q / pi_q(log_q)) * (integrand @ weights)


def solution_values(cfg, lam, eps, t, z) -> np.ndarray:
    """Reference values for every point, in chunks of ``CHUNK``."""
    params = closed_form_params(cfg)
    log_q = cfg.base.log_q
    out = np.empty(len(eps), dtype=complex)
    for i in range(0, len(eps), CHUNK):
        sl = slice(i, i + CHUNK)
        out[sl] = chart_values(params, log_q, cfg.beta_max, lam[sl], eps[sl],
                               t[sl], z[sl])
    return out
