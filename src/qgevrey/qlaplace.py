"""Laplace-type summation along a q-direction with the theta kernel.

For a function ``F`` holomorphic on the spiral ``{q^s lam : s real}`` with
at most ``exp(mbar log^2|x|)`` growth, the transform along direction
``lam`` evaluated at ``z`` is

    (log q / pi_q) * integral_{-inf}^{inf} F(q^s lam) / theta(q^s lam / z) ds,

well defined whenever ``z`` is theta-safe for ``(lam, delta)`` and
``mbar < 1 / (2 log|q|)``: then the kernel's decay, like
``exp(-log^2|x| / (2 log|q|))``, beats the growth, and the integrand is
negligible far enough out on both sides, which is all the window probe
needs.  Nothing here takes ``mbar`` as an input.  Beyond that limit the
integrand is not negligible at any window's ends (or not finite there),
and :func:`path_window` raises :class:`ConvergenceError` before any
halving.  One core serves array functions ``F`` here and the all-orders
blocks in :mod:`qgevrey.solution`, and it runs a batch of blocks
(windows) at once.  :func:`truncation_window` starts each block's window
from the kernel's own Gaussian; :func:`path_window` widens each window
until the integrand is negligible at both its ends, and
:func:`path_integral` halves each block's step on nested trapezoid nodes
until every one of its integrand rows has settled.  On such a window the
trapezoid rule converges exponentially (Trefethen and Weideman, SIAM
Review 56(3), 2014).
The halvings add midpoints only on the support the coarse pass measured,
where the integrand is above the same negligibility threshold as the
window ends, so the omitted ones stay within the same ``tol``.  All nodes
lie on one dyadic s-lattice, on which :func:`kernel` sums the theta
series once per block and residue of ``s mod 1``, each block with its own
direction ``lam`` and point ``z``.  Each block keeps its own window,
halvings and stopping test, but every probe round and halving
level evaluates the nodes of all blocks still open in as few integrand
calls as hold ``BLOCK // 2`` values (a larger block is split), so the
per-call cost of the integrand is paid once per level, not once per
block.  ``q_laplace`` is a batch of one block.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .qgeometry import BLOCK, QBase, in_theta_safe, qpow
from .theta import log_theta, log_theta_shifted, pi_q


@dataclass(frozen=True)
class QuadSettings:
    """Controls for the path integral: the tolerance on the change between
    trapezoid halvings, the largest first step, the number of halvings and
    the window padding."""

    abs_tol: float = 1e-10
    initial_step: float = 0.25
    max_halvings: int = 14
    s_pad: float = 2.0

    def __post_init__(self):
        for name in ("abs_tol", "initial_step", "max_halvings", "s_pad"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if not 0 < self.initial_step <= 0.5:
            raise ValueError("initial_step must lie in (0, 0.5]")
        if self.max_halvings < 3:
            raise ValueError("max_halvings must be at least 3")
        if self.s_pad <= 0:
            raise ValueError("s_pad must be positive")


def truncation_window(lam: complex, z: complex, base: QBase, tol: float,
                      s_pad: float = 0.0) -> tuple[float, float]:
    """The first window ``[s_lo, s_hi]`` of a transform block: outside it
    the kernel's own Gaussian, with unit numerator and the transform
    prefactor, sums below ``tol``; then ``s_pad`` is added on each side.

    In ``x = log|q^s lam|`` the Gaussian is centred at ``log|z|`` and
    decays at half the kernel's rate, ``1/(4 log|q|)``, so an integrand
    whose numerator grows like ``exp(mbar log^2|x|)``, ``mbar`` below that
    rate, still decays as fast as the window assumes.  At the kernel's
    full rate the demo's flatness and asympt blocks need a second probe
    round, and asympt's more nodes in all.  Each tail is solved from
    ``A exp(-a u^2) / (2 a u) <= tol/2`` by a short fixed-point iteration.
    Nothing here bounds the numerator: :func:`path_window` probes the ends
    and widens the window until the integrand is negligible there.
    """
    L = base.log_abs_q
    a = 0.25 / L
    amp = abs(base.log_q / pi_q(base)) / L
    u = 1.0
    if amp > 0.25 * tol:
        for _ in range(4):
            u = math.sqrt(max(math.log(max(amp / (tol * a * u), 1.0001)), 0.25) / a)
        u += 0.5  # swallow the fixed-point slack
    x_c = math.log(abs(z)) - math.log(abs(lam))
    return (x_c - u) / L - s_pad, (x_c + u) / L + s_pad


def require_theta_safe(z, lam: complex, base: QBase, delta: float) -> None:
    """Raise :class:`DomainError` unless ``z`` is theta-safe for
    ``(lam, delta)``; for a list of ``z``, tested in one array call, the
    error names the first unsafe one."""
    safe = in_theta_safe(z, lam, base, delta)
    if not np.all(safe):
        bad = z if np.ndim(safe) == 0 else z[int(np.argmin(safe))]
        raise DomainError(
            "z = %s is not theta-safe for direction %s at delta = %g"
            % (bad, lam, delta), membership="theta_safe")


def _sweep(rows, blocks, nodes, n_rows: int, reduce, combine) -> list:
    """``reduce`` of the integrand values on ``nodes(b)``, for each block
    ``b`` of ``blocks`` in order.

    Nodes are packed in order into as few ``rows(s, block)`` calls as hold
    at most ``BLOCK // 2`` complex values (``n_rows`` per node): whole
    blocks while they fit, and a block larger than that cap in pieces of at
    most the cap, one call each.  ``reduce(vals, first, last)`` reduces a
    block's contiguous slice of a call's values right away, told whether
    the slice holds the block's first and last node, and ``combine`` joins
    the pieces of a split block; a block without nodes gets ``None``.
    Nodes are built as their block is packed, and values do not outlive
    their call.
    """
    cap = max(BLOCK // 2 // n_rows, 1)
    out = [None] * len(blocks)

    def call(group):
        sizes = [piece.size for _, _, piece, _, _ in group]
        vals = rows(np.concatenate([piece for _, _, piece, _, _ in group]),
                    np.repeat([b for _, b, _, _, _ in group], sizes))
        a = 0
        for (i, _, _, first, last), size in zip(group, sizes):
            part = reduce(vals[..., a:a + size], first, last)
            out[i] = part if first else combine(out[i], part)
            a += size

    group, columns = [], 0
    for i, b in enumerate(blocks):
        s = nodes(b)
        for a in range(0, s.size, cap):
            piece = s[a:a + cap]
            if group and columns + piece.size > cap:
                call(group)
                group, columns = [], 0
            group.append((i, b, piece, a == 0, a + cap >= s.size))
            columns += piece.size
    if group:
        call(group)
    return out


def _edge(vals: np.ndarray, first: bool, last: bool) -> float:
    return np.max(np.abs(vals))


def _coarse(vals: np.ndarray, first: bool, last: bool) -> tuple:
    """The coarse sum, with the trapezoid end weights (half of the block's
    first and last node), and each node's envelope ``max over rows
    |value|``."""
    ends = vals[..., [0] * first + [-1] * last]
    envelope = np.max(np.abs(vals), axis=tuple(range(vals.ndim - 1)))
    return vals.sum(axis=-1) - 0.5 * ends.sum(axis=-1), envelope


def _join(a: tuple, b: tuple) -> tuple:
    return a[0] + b[0], np.concatenate((a[1], b[1]))


def _sum(vals: np.ndarray, first: bool, last: bool) -> np.ndarray:
    return vals.sum(axis=-1)


def _coarse_step(settings: QuadSettings) -> float:
    """``h0``, the coarse grid step: the largest power of two at most
    ``2 initial_step``, so the first halving's step ``h0 / 2`` is at most
    ``initial_step``."""
    return math.ldexp(0.5, math.frexp(2.0 * settings.initial_step)[1])


def _on_lattice(s_lo: float, s_hi: float, h0: float) -> tuple[float, float]:
    """``[s_lo, s_hi]`` rounded outward to multiples of ``h0``."""
    return math.floor(s_lo / h0) * h0, math.ceil(s_hi / h0) * h0


def _negligible(tol: float, s_lo: float, s_hi: float) -> float:
    """The integrand value below which a node of the window ``[s_lo,
    s_hi]`` is negligible: ``tol`` over the window's width (at least 1)."""
    return tol / max(s_hi - s_lo, 1.0)


PROBE_ROUNDS = 12


def path_window(rows, windows, settings: QuadSettings, tol: float,
                n_rows: int = 1) -> list[tuple[float, float]]:
    """A batch of windows on the lattice ``h0 Z`` (:func:`_coarse_step`),
    each widened until the integrand (every row) is below ``tol`` over the
    window's width at both its endpoints.

    ``windows`` holds one :func:`truncation_window` per block and
    ``rows(s, block)`` evaluates the nodes ``s``, of the blocks ``block``,
    ``n_rows`` values per node.  Each round probes the endpoints of every
    block not yet negligible there, packed into as few calls as
    :func:`_sweep` allows, and widens each such block on its own.  The
    probed ends are the ends :func:`path_integral` integrates over.  A
    block whose ends are still not negligible (a NaN end never is) in the
    last of :data:`PROBE_ROUNDS` rounds raises :class:`ConvergenceError`
    naming it and its window: its numerator grows as fast as the kernel
    decays, or overflows.
    """
    h0 = _coarse_step(settings)
    windows = [_on_lattice(s_lo, s_hi, h0) for s_lo, s_hi in windows]
    pending = list(range(len(windows)))
    for round_ in range(PROBE_ROUNDS):
        edges = _sweep(rows, pending, lambda i: np.array(windows[i]), n_rows,
                       _edge, max)
        still = [(i, edge) for i, edge in zip(pending, edges)
                 if not edge <= _negligible(tol, *windows[i])]
        if not still:
            return windows
        if round_ == PROBE_ROUNDS - 1:
            break
        for i, _ in still:
            s_lo, s_hi = windows[i]
            pad = max(4.0 * settings.s_pad, 0.15 * (s_hi - s_lo))
            windows[i] = _on_lattice(s_lo - pad, s_hi + pad, h0)
        pending = [i for i, _ in still]
    i, edge = still[0]
    raise ConvergenceError(
        "integrand of block %d is not negligible at the ends of its window "
        "[%.6g, %.6g] after %d probe rounds (largest end value %.3g, "
        "threshold %.3g): it grows as fast as the kernel decays or is not "
        "finite there" % (i, *windows[i], PROBE_ROUNDS, edge,
                          _negligible(tol, *windows[i])), block=i)


class _Path:
    """Nested-node state of one block of :func:`path_integral`: its
    window, and the ``m`` cells of step ``h`` from ``a`` that it halves."""

    def __init__(self, s_lo: float, s_hi: float, h0: float):
        self.s_lo, self.s_hi = _on_lattice(s_lo, s_hi, h0)
        self.a, self.h = self.s_lo, h0
        self.m = max(round((self.s_hi - self.s_lo) / h0), 1)
        self.acc = self.trap = self.coarse = None

    def grid(self) -> np.ndarray:
        return self.s_lo + self.h * np.arange(self.m + 1.0)

    def confine(self, envelope: np.ndarray, tol: float) -> None:
        """Halve only the coarse cells from one cell before the first node
        above :func:`_negligible` to one cell after the last (none if no
        node is above it)."""
        above = np.flatnonzero(envelope > _negligible(tol, self.s_lo,
                                                      self.s_hi))
        if above.size == 0:
            self.m = 0
            return
        lo, hi = max(above[0] - 1, 0), min(above[-1] + 1, self.m)
        self.a, self.m = self.s_lo + lo * self.h, hi - lo

    def midpoints(self) -> np.ndarray:
        return self.a + self.h * (np.arange(self.m) + 0.5)


def path_integral(rows, windows, settings: QuadSettings, tol: float,
                  n_rows: int = 1):
    """Integrals of ``rows`` over a batch of windows, one value per row.

    ``rows(s, block)``, ``windows`` and ``tol`` are as in
    :func:`path_window`; the last axis of ``rows``' result runs over the
    nodes.  Yields ``(block, integral)`` as each block settles; a settled
    block leaves the batch.  Each block keeps its own nested trapezoid sums
    ``T(h)``, so each halving evaluates only new midpoints.  Its window is
    rounded outward to the coarse lattice ``h0 Z`` (:func:`_coarse_step`),
    so halving ``l`` adds odd multiples of ``h0 2^-l``: one dyadic
    s-lattice for every block.  The coarse sum runs over the whole window,
    but halvings add only the midpoints of the block's measured support:
    the coarse cells from one cell before its first node whose envelope
    (``max over rows |value|``) exceeds ``tol`` over the window's width to
    one cell after its last.  The omitted midpoints lie beyond nodes that
    are negligible in this sense, so, times ``h``, they sum to at most
    ``tol`` (``0.01 abs_tol`` for the transform blocks), the budget the
    window's ends already use.  Every round evaluates one level of all
    blocks still in the batch, packed into as few calls as :func:`_sweep`
    allows.  After each halving a block settles
    on ``T(h)`` once every row moved by less than ``abs_tol`` from
    ``T(2h)``: on an analytic integrand that is negligible at both ends of
    the window, as :func:`path_window` makes it, the trapezoid error falls
    like ``exp(-c / h)``.  A block still open after ``max_halvings``
    halvings raises :class:`ConvergenceError` naming it, its window and the
    halvings, and carrying its last two levels ``T(h)`` and ``T(2h)``,
    after the blocks settled by then were yielded.
    """
    h0 = _coarse_step(settings)
    paths = [_Path(s_lo, s_hi, h0) for s_lo, s_hi in windows]
    active = list(range(len(paths)))
    coarse = _sweep(rows, active, lambda i: paths[i].grid(), n_rows,
                    _coarse, _join)
    for p, (acc, envelope) in zip(paths, coarse):
        p.acc = acc
        p.trap = p.h * acc
        p.confine(envelope, tol)
    for _ in range(settings.max_halvings + 1):
        sums = _sweep(rows, active, lambda i: paths[i].midpoints(), n_rows,
                      _sum, operator.add)
        still = []
        for i, part in zip(active, sums):
            p = paths[i]
            if part is not None:  # None: no midpoint in the support
                p.acc = p.acc + part
            p.m *= 2
            p.h *= 0.5
            p.trap, p.coarse = p.h * p.acc, p.trap
            if np.max(np.abs(p.trap - p.coarse)) < settings.abs_tol:
                yield i, p.trap
            else:
                still.append(i)
        active = still
        if not active:
            return
    i = active[0]
    p = paths[i]
    raise ConvergenceError(
        "path integral of block %d on [%.6g, %.6g] did not converge to %g "
        "within %d halvings" % (i, p.s_lo, p.s_hi, settings.abs_tol,
                                settings.max_halvings),
        last=p.trap, previous=p.coarse, block=i)


def kernel(base: QBase, lams, zs):
    """The kernel ``1 / theta(q^s lam_b / z_b)`` as a function ``kern(s,
    block)`` of lattice nodes ``s`` of blocks ``b``, ``lam_b = lams[b]``
    and ``z_b = zs[b]``: one direction and one point per block, so blocks
    of several charts share a call.

    With ``s = j + r``, ``j`` an integer and ``0 <= r < 1``, :func:`log_theta`
    runs once per block and residue at ``y = q^{r + a_b} lam_b / z_b`` and
    each node is assembled by :func:`log_theta_shifted`, ``m = j - a_b``;
    the anchor ``a_b = floor(log|z_b / lam_b| / log|q|)`` keeps ``m`` small
    where the kernel is large.  Each block's nodes in a call must be one
    contiguous arithmetic progression, as :func:`_sweep` passes them: if
    its step ``h`` has ``1 / h`` an integer P, node ``k`` shares the residue
    of node ``k mod P``, else (an edge probe) each node is its own.
    """
    lams = np.asarray(lams, dtype=complex)
    zs = np.asarray(zs, dtype=complex)
    anchor = np.floor(np.log(np.abs(zs / lams)) / base.log_abs_q)

    def kern(s: np.ndarray, block: np.ndarray) -> np.ndarray:
        # each block's run of nodes: its start, size and residue period P
        start = np.flatnonzero(np.concatenate(([True],
                                               block[1:] != block[:-1])))
        size = np.append(start[1:], s.size) - start
        step = s[np.minimum(start + 1, s.size - 1)] - s[start]
        per = 1.0 / np.where(size > 1, step, 2.0)  # one node: 1/2, its own
        period = np.repeat(np.where(per % 1.0 == 0.0, per, size), size)
        # node k of a run is summed if k < P, and k reads node k mod P
        first = np.repeat(start, size)
        k = np.arange(s.size) - first
        own = k < period
        slot = (np.cumsum(own) - 1)[first + (k % period).astype(np.intp)]
        j = np.floor(s)
        b_own = block[own]
        y = (qpow(base, s[own] - j[own] + anchor[b_own]) * lams[b_own]
             / zs[b_own])
        return np.exp(-log_theta_shifted(j - anchor[block], np.log(y)[slot],
                                         log_theta(y, base)[slot], base))

    return kern


def _scalar_path(F, lam, z, base, settings):
    """Integrand rows of the transform of ``F`` and their window."""
    require_theta_safe(z, lam, base, 0.05)
    pref = base.log_q / pi_q(base)
    kern = kernel(base, [lam], [z])

    def rows(s: np.ndarray, block: np.ndarray) -> np.ndarray:
        num = np.asarray(F(qpow(base, s) * lam), dtype=complex)
        return pref * num * kern(s, block)

    window = truncation_window(lam, z, base, settings.abs_tol,
                               s_pad=settings.s_pad)
    return rows, path_window(rows, [window], settings, settings.abs_tol)[0]


def q_laplace(F, lam: complex, z: complex, base: QBase,
              settings: QuadSettings = QuadSettings()) -> complex:
    """Transform of ``F`` along direction ``lam``, evaluated at ``z``.

    ``F`` is called with an ndarray of path points.  ``z`` must be
    theta-safe for ``(lam, 0.05)``; violations raise :class:`DomainError`
    before any integration.
    """
    rows, window = _scalar_path(F, lam, z, base, settings)
    [(_, value)] = path_integral(rows, [window], settings, settings.abs_tol)
    return complex(value)
