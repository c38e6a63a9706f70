"""Laplace-type summation along a q-direction with the theta kernel.

For a function ``F`` holomorphic on the spiral ``{q^s lam : s real}`` with
at most ``exp(mbar log^2|x|)`` growth, the transform along direction
``lam`` evaluated at ``z`` is

    (log q / pi_q) * integral_{-inf}^{inf} F(q^s lam) / theta(q^s lam / z) ds,

well defined whenever ``z`` is theta-safe for ``(lam, delta)`` and
``mbar < 1 / (2 log|q|)``.  One core serves scalar ``F`` here and the
all-orders block in :mod:`qgevrey.solution`: :func:`path_window` truncates
the path by an analytic Gaussian-tail bound on the integrand majorant,
widened until the integrand is negligible at both ends, and
:func:`path_integral` halves the step on nested trapezoid nodes until every
integrand row has settled.  On such a window the trapezoid rule converges
exponentially and settles first; where an end of the window is live (the
split at ``s = 0``), composite Simpson built from the same sums settles
first and is returned instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .qgeometry import QBase, in_theta_safe, qpow
from .theta import log_theta, pi_q


@dataclass(frozen=True)
class QuadSettings:
    """Controls for the path integral: the tolerance on the change between
    halvings (trapezoid first, Simpson as the fallback), the largest first
    step, the number of halvings and the window padding."""

    abs_tol: float = 1e-10
    initial_step: float = 0.25
    max_halvings: int = 14
    s_pad: float = 2.0

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.initial_step > 0.5:
            raise ValueError("initial_step must be at most 0.5")
        if self.max_halvings < 3:
            raise ValueError("max_halvings must be at least 3")
        if self.s_pad <= 0:
            raise ValueError("s_pad must be positive")


@dataclass(frozen=True)
class GrowthCertificate:
    """Growth bound ``|F(x)| <= c1 exp(mbar log^2 |x|)`` on the path."""

    c1: float
    mbar: float

    def __post_init__(self):
        if not self.c1 > 0 or not self.mbar > 0:
            raise ValueError("certificate constants must be positive")


def default_majorant_xi(cert: GrowthCertificate, base: QBase) -> float:
    """Midpoint between the smallest admissible xi and 1."""
    return 0.5 * (2.0 * cert.mbar * base.log_abs_q + 1.0)


def _check_admissible(cert: GrowthCertificate, base: QBase, xi: float) -> None:
    L = base.log_abs_q
    if cert.mbar >= 1.0 / (2.0 * L):
        raise ValueError(
            "growth type %.6g reaches the kernel limit 1/(2 log|q|) = %.6g; "
            "the transform is not certifiably convergent" % (cert.mbar, 0.5 / L))
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie in (0, 1)")
    if cert.mbar >= xi / (2.0 * L):
        raise ValueError(
            "majorant requires mbar < xi/(2 log|q|): %.6g >= %.6g"
            % (cert.mbar, xi / (2.0 * L)))


def truncation_window(cert: GrowthCertificate, lam: complex, z: complex,
                      base: QBase, xi: float, tol: float,
                      s_pad: float = 0.0, theta_floor: float = 1.0
                      ) -> tuple[float, float]:
    """Window ``[s_lo, s_hi]`` outside which the integrand majorant sums below tol.

    The majorant (growth numerator over the theta lower bound, including
    the transform prefactor) is a Gaussian in ``x = log|q^s lam|``; each
    tail is solved from ``A exp(-a u^2) / (2 a u) <= tol/2`` by a short
    fixed-point iteration, then ``s_pad`` is added.
    """
    _check_admissible(cert, base, xi)
    L = base.log_abs_q
    a = xi / (2.0 * L) - cert.mbar
    pref = abs(base.log_q / pi_q(base))
    # exponent of the majorant: -a x^2 + 2 b x - c with b, c from |z|
    g = xi / (2.0 * L)
    lz = math.log(abs(z))
    x_c = g * lz / a
    e_max = g * lz * lz * (g / a - 1.0)
    amp = pref * cert.c1 / theta_floor * math.exp(min(e_max, 700.0)) / L
    if amp <= 0.25 * tol:
        u = 1.0
    else:
        u = 1.0
        for _ in range(4):
            u = math.sqrt(max(math.log(max(amp / (tol * a * u), 1.0001)), 0.25) / a)
        u += 0.5  # swallow the fixed-point slack
    x_lo, x_hi = x_c - u, x_c + u
    l_lam = math.log(abs(lam))
    s_lo = (x_lo - l_lam) / L - s_pad
    s_hi = (x_hi - l_lam) / L + s_pad
    return s_lo, s_hi


def majorant(cert: GrowthCertificate, lam: complex, z: complex, base: QBase,
             xi: float, s, theta_floor: float = 1.0):
    """Value of the truncation majorant at path parameter(s) ``s``."""
    L = base.log_abs_q
    pref = abs(base.log_q / pi_q(base))
    x = np.asarray(s, dtype=float) * L + math.log(abs(lam))
    expo = cert.mbar * x**2 - xi / (2.0 * L) * (x - math.log(abs(z))) ** 2
    return pref * cert.c1 / theta_floor * np.exp(np.minimum(expo, 700.0))


def require_theta_safe(z: complex, lam: complex, base: QBase,
                       delta: float) -> None:
    """Raise :class:`DomainError` unless ``z`` is theta-safe for
    ``(lam, delta)``."""
    if not in_theta_safe(z, lam, base, delta):
        raise DomainError(
            "z = %s is not theta-safe for direction %s at delta = %g"
            % (z, lam, delta), membership="theta_safe")


def path_window(rows, cert: GrowthCertificate, lam: complex, z: complex,
                base: QBase, settings: QuadSettings, xi: float, tol: float
                ) -> tuple[float, float]:
    """Window from :func:`truncation_window`, widened until the integrand
    ``rows`` (every row) is below ``tol / width`` at both endpoints."""
    s_lo, s_hi = truncation_window(cert, lam, z, base, xi, tol,
                                   s_pad=settings.s_pad)
    for _ in range(12):
        edge = np.max(np.abs(rows(np.array([s_lo, s_hi]))))
        if edge <= tol / max(s_hi - s_lo, 1.0):
            break
        pad = max(4.0 * settings.s_pad, 0.15 * (s_hi - s_lo))
        s_lo -= pad
        s_hi += pad
    return s_lo, s_hi


def path_integral(rows, s_lo: float, s_hi: float,
                  settings: QuadSettings) -> np.ndarray:
    """Integral of ``rows`` over ``[s_lo, s_hi]``, one value per row.

    ``rows(s)`` returns an array whose last axis runs over the nodes ``s``.
    The trapezoid sums ``T(h)`` are nested, so each halving evaluates only
    the new midpoints; the step starts at most ``initial_step``.  After each
    halving the loop returns ``T(h)`` once every row moved by less than
    ``abs_tol`` from ``T(2h)``: on an analytic integrand that is negligible
    at both ends the trapezoid error falls like ``exp(-c / h)``, so this
    test settles first.  Otherwise it returns composite Simpson,
    ``(4 T(h) - T(2h)) / 3``, once every row moved by less than ``abs_tol``
    between Simpson levels; that test settles first where an end of the
    window is live and the trapezoid error is only ``O(h^2)``.
    """
    n = max(int(math.ceil((s_hi - s_lo) / (2.0 * settings.initial_step))), 1)
    h = (s_hi - s_lo) / n
    vals = rows(np.linspace(s_lo, s_hi, n + 1))
    acc = vals.sum(axis=-1) - 0.5 * (vals[..., 0] + vals[..., -1])
    trap = h * acc
    prev = cur = None
    for _ in range(settings.max_halvings + 1):
        acc = acc + rows(s_lo + h * (np.arange(n) + 0.5)).sum(axis=-1)
        n *= 2
        h *= 0.5
        trap, coarse = h * acc, trap
        if np.max(np.abs(trap - coarse)) < settings.abs_tol:
            return trap
        prev, cur = cur, (4.0 * trap - coarse) / 3.0
        if prev is not None and np.max(np.abs(cur - prev)) < settings.abs_tol:
            return cur
    raise ConvergenceError(
        "path integral did not converge to %g within %d halvings"
        % (settings.abs_tol, settings.max_halvings),
        last=cur, previous=prev)


def _scalar_path(F, lam, z, base, cert, settings, xi, delta):
    """Integrand rows of the transform of scalar ``F`` and their window."""
    require_theta_safe(z, lam, base, delta)
    pref = base.log_q / pi_q(base)

    def rows(s: np.ndarray) -> np.ndarray:
        pts = qpow(base, s) * lam
        try:
            num = np.asarray(F(pts), dtype=complex)
            if num.shape != pts.shape:
                raise TypeError
        except TypeError:
            num = np.array([F(p) for p in pts], dtype=complex)
        return pref * num * np.exp(-log_theta(pts / z, base))

    if xi is None:
        xi = default_majorant_xi(cert, base)
    return rows, path_window(rows, cert, lam, z, base, settings, xi,
                             settings.abs_tol)


def q_laplace(F, lam: complex, z: complex, base: QBase,
              cert: GrowthCertificate, settings: QuadSettings = QuadSettings(),
              xi: float = None, delta: float = 0.05) -> complex:
    """Transform of ``F`` along direction ``lam``, evaluated at ``z``.

    ``F`` is called with an ndarray of path points (a scalar fallback is
    attempted).  ``z`` must be theta-safe for ``(lam, delta)``; violations
    raise :class:`DomainError` before any integration.
    """
    rows, (s_lo, s_hi) = _scalar_path(F, lam, z, base, cert, settings, xi,
                                      delta)
    return complex(path_integral(rows, s_lo, s_hi, settings))


def q_laplace_split(F, lam: complex, z: complex, base: QBase,
                    cert: GrowthCertificate,
                    settings: QuadSettings = QuadSettings(),
                    xi: float = None, delta: float = 0.05
                    ) -> tuple[complex, complex]:
    """Outward (s >= 0) and inward (s <= 0) halves of the transform.

    Their sum equals the unsplit transform within twice the quadrature
    tolerance.
    """
    rows, (s_lo, s_hi) = _scalar_path(F, lam, z, base, cert, settings, xi,
                                      delta)
    s_hi = max(s_hi, settings.initial_step)
    s_lo = min(s_lo, -settings.initial_step)
    return (complex(path_integral(rows, 0.0, s_hi, settings)),
            complex(path_integral(rows, s_lo, 0.0, settings)))
