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
from the kernel's own Gaussian; :func:`path_window` pads each window by
the fixed margin :data:`S_PAD` and widens it until the integrand is
negligible at both its ends, and :func:`path_integral` halves each
block's step on nested trapezoid nodes until the change between halvings
is below ``abs_tol``, or its decay predicts the next change below it.
On such a window the trapezoid rule converges exponentially (Trefethen
and Weideman, SIAM Review 56(3), 2014), so the changes contract
geometrically or faster.
The halvings add midpoints only on the support the coarse pass measured,
where the integrand is above the same negligibility threshold as the
window ends, so the omitted ones stay within the same ``tol``.  All nodes
lie on one dyadic s-lattice, on which :func:`kernel` sums the theta
series once per block and residue of ``s mod 1``, each block with its own
direction ``lam`` and point ``z``.  A batch is one array state: each
block keeps its own window, halvings and stopping test in per-block
arrays, and every probe round and halving level evaluates the nodes of
all blocks still open in as few integrand calls as hold ``4 BLOCK``
values, 2 MiB of complex values (a larger block is split at
block-relative multiples of the cap), each reduced with one segmented sum
per quantity.  So a level costs a fixed number of array operations per
integrand call, not per block.  ``q_laplace`` is a batch of one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .qgeometry import BLOCK, QBase, in_theta_safe, qpow
from .theta import log_theta, log_theta_shifted, pi_q


@dataclass(frozen=True)
class QuadSettings:
    """Controls for the path integral: the tolerance on the change between
    trapezoid halvings, the largest first step and the number of
    halvings."""

    abs_tol: float = 1e-10
    initial_step: float = 0.25
    max_halvings: int = 14

    def __post_init__(self):
        for name in ("abs_tol", "initial_step", "max_halvings"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if not 0 < self.initial_step <= 0.5:
            raise ValueError("initial_step must lie in (0, 0.5]")
        if self.max_halvings < 3:
            raise ValueError("max_halvings must be at least 3")


def truncation_window(lam: complex, z: complex, base: QBase,
                      tol: float) -> tuple[float, float]:
    """The first window ``[s_lo, s_hi]`` of a transform block: outside it
    the kernel's own Gaussian, with unit numerator and the transform
    prefactor, sums below ``tol``.

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
    return (x_c - u) / L, (x_c + u) / L


def theta_unsafe(z, lam, delta: float) -> DomainError:
    """The :class:`DomainError` for a ``z`` that is not theta-safe for
    ``(lam, delta)``."""
    return DomainError("z = %s is not theta-safe for direction %s at delta "
                       "= %g" % (z, lam, delta), membership="theta_safe")


def _sweep(rows, blocks, start, step, count, n_rows: int):
    """The integrand values on the nodes ``start[b] + step[b] k``, ``k <
    count[b]``, of each block ``b`` of ``blocks`` in order, one
    ``rows(s, block)`` call at a time.

    Each block is cut at multiples of ``cap = 4 BLOCK // n_rows`` nodes
    into pieces, and the pieces are packed in order into as few calls as
    hold at most ``cap`` nodes (``n_rows`` complex values each, so at most
    2 MiB a call): whole pieces while they fit, so a piece of the cap is a
    call of its own.  A block's pieces do not depend on the blocks around
    it.  Yields ``(vals, block, k, seg)`` per call: its values as
    ``(n_rows, nodes)``, each node's block and block-relative index ``k``,
    and the first node of each piece, for segmented reductions
    (``np.add.reduceat``).  No block appears twice in one call.  Nodes are
    built per call, and values do not outlive their call, so ``rows`` may
    return them in one buffer that it reuses.
    """
    cap = max(BLOCK * 4 // n_rows, 1)
    count = count[blocks]
    n_pieces = -(-count // cap)
    owner = np.repeat(blocks, n_pieces)
    first = np.cumsum(n_pieces) - n_pieces
    off = cap * (np.arange(owner.size) - np.repeat(first, n_pieces))
    size = np.minimum(np.repeat(count, n_pieces) - off, cap)
    end = np.cumsum(size)
    i = 0
    while i < owner.size:
        j = int(np.searchsorted(end, end[i] - size[i] + cap, "right"))
        seg = end[i:j] - end[i] + size[i] - size[i:j]
        block = np.repeat(owner[i:j], size[i:j])
        k = np.arange(block.size) - np.repeat(seg - off[i:j], size[i:j])
        vals = rows(start[block] + step[block] * k, block)
        yield vals.reshape(n_rows, -1), block, k, seg
        i = j


def _envelope(vals: np.ndarray) -> np.ndarray:
    """``max over rows |value|`` per node of an ``(n_rows, nodes)`` call,
    taken one row at a time into node-sized arrays (NaN propagates)."""
    env = np.abs(vals[0])
    row_abs = np.empty_like(env)
    for row in vals[1:]:
        np.maximum(env, np.abs(row, out=row_abs), out=env)
    return env


def _coarse_step(settings: QuadSettings) -> float:
    """``h0``, the coarse grid step: the largest power of two at most
    ``2 initial_step``, so the first halving's step ``h0 / 2`` is at most
    ``initial_step``."""
    return math.ldexp(0.5, math.frexp(2.0 * settings.initial_step)[1])


def _on_lattice(s_lo, s_hi, h0: float) -> tuple[np.ndarray, np.ndarray]:
    """``[s_lo, s_hi]`` rounded outward to multiples of ``h0``."""
    return np.floor(s_lo / h0) * h0, np.ceil(s_hi / h0) * h0


def _negligible(tol: float, s_lo, s_hi):
    """The integrand value below which a node of the window ``[s_lo,
    s_hi]`` is negligible: ``tol`` over the window's width (at least 1)."""
    return tol / np.maximum(s_hi - s_lo, 1.0)


PROBE_ROUNDS = 12
S_PAD = 2.0  # the margin, in s, path_window adds on each side of a window


def path_window(rows, windows, settings: QuadSettings, tol: float,
                n_rows: int = 1) -> np.ndarray:
    """A batch of windows on the lattice ``h0 Z`` (:func:`_coarse_step`),
    each widened until the integrand (every row) is below ``tol`` over the
    window's width at both its endpoints, as an ``(n, 2)`` array.

    ``windows`` holds one :func:`truncation_window` per block, padded by
    :data:`S_PAD` on both sides before it is rounded onto the lattice, and
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
    s_lo, s_hi = np.reshape(windows, (-1, 2)).T
    s_lo, s_hi = _on_lattice(s_lo - S_PAD, s_hi + S_PAD, h0)
    pending = np.arange(s_lo.size)
    two = np.full(s_lo.size, 2)
    for round_ in range(PROBE_ROUNDS):
        edge = np.zeros(s_lo.size)
        for vals, block, _, seg in _sweep(rows, pending, s_lo, s_hi - s_lo,
                                          two, n_rows):
            ends = np.maximum.reduceat(_envelope(vals), seg)
            edge[block[seg]] = np.maximum(edge[block[seg]], ends)
        still = pending[~(edge[pending] <= _negligible(tol, s_lo[pending],
                                                       s_hi[pending]))]
        if not still.size:
            return np.column_stack((s_lo, s_hi))
        if round_ == PROBE_ROUNDS - 1:
            break
        pad = np.maximum(4.0 * S_PAD, 0.15 * (s_hi - s_lo)[still])
        s_lo[still], s_hi[still] = _on_lattice(s_lo[still] - pad,
                                               s_hi[still] + pad, h0)
        pending = still
    i = still[0]
    raise ConvergenceError(
        "integrand of block %d is not negligible at the ends of its window "
        "[%.6g, %.6g] after %d probe rounds (largest end value %.3g, "
        "threshold %.3g): it grows as fast as the kernel decays or is not "
        "finite there" % (i, s_lo[i], s_hi[i], PROBE_ROUNDS, edge[i],
                          _negligible(tol, s_lo[i], s_hi[i])), block=int(i))


def path_integral(rows, windows, settings: QuadSettings, tol: float,
                  n_rows: int = 1):
    """Integrals of ``rows`` over a batch of windows, one value per row.

    ``windows`` are :func:`path_window`'s, and ``rows(s, block)`` and
    ``tol`` are as there; the last axis of ``rows``' result runs over the
    nodes.  Yields ``(block, integral)`` as each block settles, the
    integral an array of ``n_rows``; a settled block leaves the batch.

    The batch is one array state: per block its window, the ``m`` cells
    from ``a`` that it halves and its running sum ``acc`` of every row,
    and one step ``h`` for all blocks, which halve in lockstep.  Windows
    are rounded outward to the coarse lattice ``h0 Z``
    (:func:`_coarse_step`), so halving ``l`` adds odd multiples of
    ``h0 2^-l``: one dyadic s-lattice for every block.  The coarse pass and
    each halving evaluate the new nodes of all blocks still open, packed
    by :func:`_sweep`, and reduce each call with one segmented sum, so the
    nested trapezoid sums ``T(h) = h acc`` cost a fixed number of array
    operations per call, not per block.  The coarse sum runs over the
    whole window (ends half-weighted), but halvings add only the midpoints
    of the block's measured support: the coarse cells from one cell before
    its first node whose envelope (``max over rows |value|``) exceeds
    ``tol`` over the window's width to one cell after its last.  The
    omitted midpoints lie beyond nodes that are negligible in this sense,
    so, times ``h``, they sum to at most ``tol`` (``0.01 abs_tol`` for the
    transform blocks), the budget the window's ends already use.

    After halving ``l`` a block settles on ``T(h)`` once ``d_l``, the
    largest change of any row from ``T(2h)``, is below ``abs_tol``, or, from
    ``l = 2`` on, once ``d_l < d_{l-1}`` and ``d_l^2 < abs_tol d_{l-1}``:
    on an analytic integrand that is negligible at both ends of the
    window, as :func:`path_window` makes it, the trapezoid error falls
    like ``exp(-c / h)``, geometrically or faster from level to level, and
    then ``d_l^2 / d_{l-1}`` bounds the next change.  A block still open
    after ``max_halvings`` halvings raises :class:`ConvergenceError` naming
    it, its window and the halvings, and carrying its last two levels
    ``T(h)`` and ``T(2h)``, after the blocks settled by then were yielded.
    """
    abs_tol = settings.abs_tol
    h = _coarse_step(settings)
    s_lo, s_hi = _on_lattice(*np.reshape(windows, (-1, 2)).T, h)
    n = s_lo.size
    m = np.maximum(np.rint((s_hi - s_lo) / h), 1).astype(np.intp)
    acc = np.zeros((n_rows, n), dtype=complex)
    big = np.iinfo(np.intp).max
    lo, hi = np.full(n, big), np.full(n, -1)
    threshold = _negligible(tol, s_lo, s_hi)
    for vals, block, k, seg in _sweep(rows, np.arange(n), s_lo, np.full(n, h),
                                      m + 1, n_rows):
        b = block[seg]
        # the support: the first and last node above the threshold
        above = _envelope(vals) > threshold[block]
        lo[b] = np.minimum(lo[b], np.minimum.reduceat(np.where(above, k, big),
                                                      seg))
        hi[b] = np.maximum(hi[b], np.maximum.reduceat(np.where(above, k, -1),
                                                      seg))
        acc[:, b] += np.add.reduceat(vals, seg, axis=-1)
        # the trapezoid end weights: half of each block's first and last
        ends = np.flatnonzero((k == 0) | (k == m[block]))
        np.subtract.at(acc, (slice(None), block[ends]), 0.5 * vals[:, ends])
    trap, coarse = h * acc, np.zeros_like(acc)
    # halve only the coarse cells from one before the support to one after
    # (none without a node above the threshold: lo is then beyond hi)
    lo, hi = np.maximum(lo - 1, 0), np.minimum(hi + 1, m)
    a = s_lo + lo * h
    m = np.maximum(hi - lo, 0)
    d_prev = np.zeros(n)  # no d_0: the first halving settles on d_1 alone
    open_ = np.arange(n)
    for _ in range(settings.max_halvings):
        for vals, block, _, seg in _sweep(rows, open_, a + 0.5 * h,
                                          np.full(n, h), m, n_rows):
            acc[:, block[seg]] += np.add.reduceat(vals, seg, axis=-1)
        m *= 2
        h *= 0.5
        coarse[:, open_] = trap[:, open_]
        trap[:, open_] = h * acc[:, open_]
        d = np.abs(trap[:, open_] - coarse[:, open_]).max(axis=0)
        d_last = d_prev[open_]
        settled = (d < abs_tol) | ((d < d_last) & (d * d < abs_tol * d_last))
        d_prev[open_] = d
        for i in open_[settled]:
            yield int(i), trap[:, i].copy()
        open_ = open_[~settled]
        if not open_.size:
            return
    i = open_[0]
    raise ConvergenceError(
        "path integral of block %d on [%.6g, %.6g] did not converge to %g "
        "within %d halvings" % (i, s_lo[i], s_hi[i], abs_tol,
                                settings.max_halvings),
        last=trap[:, i].copy(), previous=coarse[:, i].copy(), block=int(i))


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
        # each block's run of nodes: its start, size and residue period P,
        # 1 / step where that is an integer (at most the run), else the run
        start = np.flatnonzero(np.concatenate(([True],
                                               block[1:] != block[:-1])))
        size = np.append(start[1:], s.size) - start
        per = 1.0 / (s[start + (size > 1)] - s[start] + (size == 1))
        period = np.where(per % 1.0 == 0.0, np.minimum(per, size),
                          size).astype(np.intp)
        # node k of a run reads slot (run's first slot + k mod P); the
        # first P nodes of each run are summed, in slot order
        k = np.arange(s.size) - np.repeat(start, size)
        k_mod = k % np.repeat(period, size)
        slot = k_mod + np.repeat(np.cumsum(period) - period, size)
        own = np.flatnonzero(k == k_mod)
        j = np.floor(s)
        b_own = block[own]
        y = (qpow(base, s[own] - j[own] + anchor[b_own]) * lams[b_own]
             / zs[b_own])
        return np.exp(-log_theta_shifted(j - anchor[block], np.log(y)[slot],
                                         log_theta(y, base)[slot], base))

    return kern


def _scalar_path(F, lam, z, base, settings):
    """Integrand rows of the transform of ``F`` and their window."""
    if not in_theta_safe(z, lam, base, 0.05):
        raise theta_unsafe(z, lam, 0.05)
    pref = base.log_q / pi_q(base)
    kern = kernel(base, [lam], [z])

    def rows(s: np.ndarray, block: np.ndarray) -> np.ndarray:
        num = np.asarray(F(qpow(base, s) * lam), dtype=complex)
        return pref * num * kern(s, block)

    window = truncation_window(lam, z, base, settings.abs_tol)
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
    return complex(value[0])
