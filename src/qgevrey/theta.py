"""Jacobi theta function for ``|q| > 1`` and the kernel normalization constant.

The two-sided series

    theta(x) = sum_{n in Z} q^{-n(n-1)/2} x^n,   x != 0,

satisfies ``theta(q x) = q x theta(x)`` and more generally
``theta(q^m x) = q^{m(m+1)/2} x^m theta(x)``.  One series core,
:func:`log_theta`, serves scalars and arrays alike: it reduces the argument
to the fundamental annulus ``1 <= |x0| < |q|`` with that shift relation,
sums the series there to a uniform truncation order, and keeps the
accumulated rescaling in log space.  :func:`theta` is its exponential.

The zeros of theta sit on the spiral ``-q^Z``; all growth/lower-bound
diagnostics live relative to ``exp(log^2|x| / (2 log|q|))``, the scale the
series actually attains away from the zeros.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, ThetaOverflowError
from .qgeometry import QBase, _points

_EXP_MAX = 700.0  # log of largest double, with margin
_TOL = 1e-15  # truncation tolerance of the series on the annulus


def _annulus_terms(base: QBase) -> int:
    """Uniform truncation order valid on the whole fundamental annulus."""
    L = base.log_abs_q
    # |q|^{-n(n-1)/2} |x0|^n <= exp(L(-n(n-1)/2 + n)); solve the tail < _TOL
    target = -math.log(0.25 * _TOL) / L
    n = int(math.ceil(1.5 + math.sqrt(max(2.25 + 2.0 * target, 0.0)))) + 2
    return n


@lru_cache(maxsize=8)
def _horner_table(base: QBase) -> tuple[complex, tuple]:
    """Coefficients of the annulus sum, ordered for Horner's scheme.

    With ``N = _annulus_terms(base)``, ``a_n = q^{-n(n-1)/2}`` the
    coefficient of ``x^n`` and ``b_n = q^{-n(n+1)/2}`` that of ``x^-n``,
    returns ``a_N`` and the pairs ``(a_{n-1}, b_n)`` for ``n = N, ..., 1``.
    """
    n = np.arange(_annulus_terms(base) + 1.0)
    a = np.exp(-0.5 * n * (n - 1.0) * base.log_q).tolist()
    b = np.exp(-0.5 * n * (n + 1.0) * base.log_q).tolist()
    return a[-1], tuple(zip(a[-2::-1], b[:0:-1]))


def _shift_exponent(x, base: QBase):
    """The ``m`` of ``x = q^m x0`` with ``x0`` in the fundamental annulus."""
    return np.floor(np.log(np.abs(x)) / base.log_abs_q)


def log_theta(x, base: QBase):
    """``log theta(x)`` (a branch of it; exact under exp) at a scalar or array.

    Safe for arguments of any magnitude: the quadratically growing part of
    log theta is kept symbolic, so ``exp(-log_theta(x))`` underflows to 0
    gracefully instead of overflowing where theta is astronomically large.
    Where the annulus sum cancels to exactly 0 the value is ``-inf``.  A zero
    or non-finite entry of ``x`` raises :class:`DomainError`.
    """
    x = np.asarray(x, dtype=complex)
    with np.errstate(divide="ignore"):
        m = _shift_exponent(x, base)
        if not np.isfinite(m).all():  # some entry is 0, non-finite or huge
            _points(x, "theta is undefined at 0")
            raise DomainError("|x| overflows double range", membership="finite")
        # log_q leads each product with m: Python complex times float64
        # stays on the fast scalar path for 0-d input
        x0 = x * np.exp(base.log_q * -m)
        y0 = 1.0 / x0
        # core = sum_{n=0}^N a_n x0^n + sum_{n=1}^N b_n y0^n
        lead, pairs = _horner_table(base)
        acc_pos, acc_neg = lead, 0.0
        for a, b in pairs:
            acc_pos = acc_pos * x0 + a
            acc_neg = (acc_neg + b) * y0
        log_core = np.log(acc_pos + acc_neg)
    return base.log_q * (m * (m + 1) / 2.0) + m * np.log(x0) + log_core


def theta(x: complex, base: QBase) -> complex:
    """Theta value at ``x``: ``exp(log_theta(x))``.

    Returns ``0j`` where the series cancels to exactly 0.  Raises
    :class:`ThetaOverflowError` (carrying the reduction exponent) when the
    value leaves double range.
    """
    lg = log_theta(x, base)
    if lg.real > _EXP_MAX:
        m = int(_shift_exponent(x, base))
        raise ThetaOverflowError(
            "theta rescaling overflows double range (reduction exponent %d)" % m,
            exponent=m)
    return cmath.exp(lg)


@lru_cache(maxsize=32)
def pi_q(base: QBase) -> complex:
    """Normalization constant ``log(q) * prod_{n>=0} (1 - q^{-n-1})^{-1}``.

    Factors are accumulated until the multiplicative update is within
    1e-15 of one; convergence is geometric since ``|q^{-n-1}| -> 0``.
    """
    prod = 1.0 + 0j
    factor_base = cmath.exp(-base.log_q)
    term = factor_base
    for _ in range(100000):
        update = 1.0 / (1.0 - term)
        prod *= update
        term *= factor_base
        if abs(update - 1.0) < 1e-15:
            break
    else:
        raise ConvergenceError("pi_q product did not settle", last=prod)
    return base.log_q * prod


def theta_lower_ratio(x: complex, base: QBase, xi: float) -> float:
    """``|theta(x)| / exp(xi log^2|x| / (2 log|q|))``.

    On theta-safe samples this ratio is bounded below by a positive
    constant depending on (xi, delta); computed in log space so huge
    arguments do not overflow.
    """
    lg = log_theta(x, base)
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie in (0, 1)")
    expo = lg.real - xi * math.log(abs(x)) ** 2 / (2.0 * base.log_abs_q)
    if expo < -_EXP_MAX:
        return 0.0
    return math.exp(expo)
