"""Laplace-type summation along a q-direction with the theta kernel.

For a function ``F`` holomorphic on the spiral ``{q^s lam : s real}`` with
at most ``exp(mbar log^2|x|)`` growth, the transform along direction
``lam`` evaluated at ``z`` is

    (log q / pi_q) * integral_{-inf}^{inf} F(q^s lam) / theta(q^s lam / z) ds,

well defined whenever ``z`` is theta-safe for ``(lam, delta)`` and
``mbar < 1 / (2 log|q|)``: then the kernel's decay, like
``exp(-log^2|x| / (2 log|q|))``, beats the growth, and the integrand is
negligible far enough out on both sides, which is all the window needs.
Nothing here takes ``mbar`` as an input.  Beyond that limit the integrand
is not negligible at any window's ends (or not finite there), and
:func:`path_integral` raises :class:`ConvergenceError` before any
halving.  One driver, :func:`transform`, runs every transform: it tests
theta-safety and builds the prefactor, the kernel and the integrand
buffer for any numerator rows, those of array functions ``F`` here
(:func:`q_laplace_batch`, several rows on several blocks, and
:func:`q_laplace`, its one-block, one-row call) and the all-orders blocks
of :mod:`qgevrey.solution`.  :func:`truncation_window` starts all of a
batch's windows from the kernel's own Gaussian in one array expression;
:func:`path_integral` pads them by :data:`S_PAD`, its coarse pass widens a
window, evaluating only the new cells, until the integrand is negligible
at both its end nodes, and it then halves each block's step on nested
trapezoid nodes, on the support the coarse pass measured, until the
change between halvings is below ``abs_tol``, or its decay predicts the
next change below it.  On such a window the trapezoid rule converges
exponentially (Trefethen and Weideman, SIAM Review 56(3), 2014).  All
nodes lie on one dyadic s-lattice, on which :func:`kernel` sums the theta
series once per block and residue of ``s mod 1``.  A batch is one array
state: each block keeps its own direction, point, window, halvings and
stopping test in per-block arrays, and every coarse round and halving
level evaluates the nodes of all blocks still open in as few integrand
calls as hold ``4 BLOCK`` values (2 MiB), each reduced with one segmented
sum: a fixed number of array operations per call, not per block.
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


def truncation_window(lam, z, base: QBase, tol: float):
    """The first windows ``(s_lo, s_hi)`` of transform blocks, one per
    pair of ``lam`` and ``z`` (arrays broadcast): outside it the kernel's
    own Gaussian, with unit numerator and the transform prefactor, sums
    below ``tol``.

    In ``x = log|q^s lam|`` the Gaussian is centred at ``log|z|`` and
    decays at half the kernel's rate, ``1/(4 log|q|)``, so an integrand
    whose numerator grows like ``exp(mbar log^2|x|)``, ``mbar`` below that
    rate, still decays as fast as the window assumes (at the full rate the
    demo's flatness and asympt blocks need a widening round).  The
    half-width depends only on ``base`` and ``tol``: each tail is solved
    once from ``A exp(-a u^2) / (2 a u) <= tol/2`` by a short fixed-point
    iteration.  :func:`path_integral` widens a window until the integrand
    is negligible at its ends.
    """
    L = base.log_abs_q
    a = 0.25 / L
    amp = abs(base.log_q / pi_q(base)) / L
    u = 1.0
    if amp > 0.25 * tol:
        for _ in range(4):
            u = math.sqrt(max(math.log(max(amp / (tol * a * u), 1.0001)), 0.25) / a)
        u += 0.5  # swallow the fixed-point slack
    x_c = np.log(np.abs(z)) - np.log(np.abs(lam))
    return (x_c - u) / L, (x_c + u) / L


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


def _negligible(tol: float, s_lo, s_hi):
    """The integrand value below which a node of the window ``[s_lo,
    s_hi]`` is negligible: ``tol`` over the window's width (at least 1)."""
    return tol / np.maximum(s_hi - s_lo, 1.0)


PROBE_ROUNDS = 12
S_PAD = 2.0  # the margin, in s, added on each side of a first window


def path_integral(rows, windows, settings: QuadSettings, tol: float,
                  n_rows: int = 1):
    """Integrals of ``rows`` over a batch of windows, one value per row.

    ``windows`` is ``(s_lo, s_hi)``, one entry per block, as
    :func:`truncation_window` gives them, and ``rows(s, block)`` evaluates
    the nodes ``s`` of the blocks ``block``, ``n_rows`` values per node
    along the last axis.  Yields ``(block, integral)`` as each block
    settles, the integral an array of ``n_rows``.

    Each window is padded by :data:`S_PAD` on both sides and rounded
    outward to the lattice ``h0 Z`` (:func:`_coarse_step`), and all blocks
    halve their step in lockstep, so halving ``l`` adds odd multiples of
    ``h0 2^-l``.  Each round and halving evaluates the new nodes of all
    blocks still open, packed by :func:`_sweep`, and reduces each call
    with one segmented sum.  The coarse pass widens its own windows: its
    first round evaluates every node, and a block whose envelope (``max
    over rows |value|``) is not below ``tol`` over the window's width at
    both end nodes (a NaN end never is) widens by ``max(4 S_PAD, 0.15
    width)`` on each side, onto the lattice; the next round evaluates only
    the new cells, one sweep per side.  A block still not negligible at
    its ends in the last of :data:`PROBE_ROUNDS` rounds raises
    :class:`ConvergenceError` naming it and its window, before any
    halving.  Halvings add only the midpoints of the block's support, from
    one cell before its first node above the final window's threshold to
    one cell after its last: the omitted ones, beyond negligible nodes,
    sum to at most ``tol`` times ``h``.

    After halving ``l`` a block settles on ``T(h) = h acc`` once ``d_l``,
    the largest change of any row from ``T(2h)``, is below ``abs_tol``, or,
    from ``l = 2`` on, once ``d_l < d_{l-1}`` and ``d_l^2 < abs_tol
    d_{l-1}``: on an analytic integrand negligible at both window ends the
    trapezoid error falls like ``exp(-c / h)``, and then ``d_l^2 /
    d_{l-1}`` bounds the next change.  A block still open after
    ``max_halvings`` halvings raises :class:`ConvergenceError` naming it,
    its window and the halvings, and carrying its last two levels, after
    the blocks settled by then were yielded.
    """
    abs_tol = settings.abs_tol
    h = _coarse_step(settings)
    # windows as lattice indices: node j of a block is s = j h
    j_lo = np.floor((np.ravel(windows[0]) - S_PAD) / h).astype(np.intp)
    j_hi = np.ceil((np.ravel(windows[1]) + S_PAD) / h).astype(np.intp)
    n = j_lo.size
    step = np.full(n, h)
    acc = np.zeros((n_rows, n), dtype=complex)
    ends = np.zeros((2, n_rows, n), dtype=complex)  # each window's end nodes
    seen = []  # (envelope, block, j, seg) of each coarse call
    # (blocks, first node, nodes): whole windows, then each round's new
    # cells on either side
    sweeps = [(np.arange(n), j_lo.copy(), j_hi - j_lo + 1)]
    for round_ in range(PROBE_ROUNDS):
        edge = np.zeros(n)
        for blocks, first, count in sweeps:
            for vals, block, k, seg in _sweep(rows, blocks, first * h, step,
                                              count, n_rows):
                env = _envelope(vals)
                j = first[block] + k
                seen.append((env, block, j, seg))
                # a non-finite value fails its block: at the window's ends
                # below, else in the halvings' stopping test
                with np.errstate(invalid="ignore", over="ignore"):
                    acc[:, block[seg]] += np.add.reduceat(vals, seg, axis=-1)
                for side, j_end in enumerate((j_lo, j_hi)):
                    at = np.flatnonzero(j == j_end[block])
                    ends[side][:, block[at]] = vals[:, at]
                    edge[block[at]] = np.maximum(edge[block[at]], env[at])
        threshold = _negligible(tol, j_lo * h, j_hi * h)
        wide = np.flatnonzero(~(edge <= threshold))
        if not wide.size:
            break
        if round_ == PROBE_ROUNDS - 1:
            i = wide[0]
            raise ConvergenceError(
                "integrand of block %d is not negligible at the ends of its "
                "window [%.6g, %.6g] after %d probe rounds (largest end value "
                "%.3g, threshold %.3g): it grows as fast as the kernel decays "
                "or is not finite there" % (i, j_lo[i] * h, j_hi[i] * h,
                                            PROBE_ROUNDS, edge[i],
                                            threshold[i]), block=int(i))
        pad = np.maximum(4.0 * S_PAD, 0.15 * (j_hi - j_lo) * h)
        new_lo = np.floor((j_lo * h - pad) / h).astype(np.intp)
        new_hi = np.ceil((j_hi * h + pad) / h).astype(np.intp)
        sweeps = [(wide, new_lo, j_lo - new_lo),
                  (wide, j_hi + 1, new_hi - j_hi)]
        j_lo[wide], j_hi[wide] = new_lo[wide], new_hi[wide]
    acc -= 0.5 * ends[0]
    acc -= 0.5 * ends[1]
    trap, coarse = h * acc, np.zeros_like(acc)
    # the support on the final windows: the first and last node above
    # their threshold (none: lo is then beyond hi)
    s_lo, s_hi, m = j_lo * h, j_hi * h, j_hi - j_lo
    big = np.iinfo(np.intp).max
    lo, hi = np.full(n, big), np.full(n, -1)
    for env, block, j, seg in seen:
        b, k = block[seg], j - j_lo[block]
        above = env > threshold[block]
        lo[b] = np.minimum(lo[b], np.minimum.reduceat(np.where(above, k, big),
                                                      seg))
        hi[b] = np.maximum(hi[b], np.maximum.reduceat(np.where(above, k, -1),
                                                      seg))
    # halve only the coarse cells from one before the support to one after
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
    progression on the dyadic lattice, of step ``1 / P``, P an integer, as
    :func:`_sweep` passes them: node ``k`` shares node ``k mod P``'s residue.
    """
    lams = np.asarray(lams, dtype=complex)
    zs = np.asarray(zs, dtype=complex)
    anchor = np.floor(np.log(np.abs(zs / lams)) / base.log_abs_q)

    def kern(s: np.ndarray, block: np.ndarray) -> np.ndarray:
        # each block's run of nodes: its start, size and residue period P,
        # 1 / step (at most the run)
        start = np.flatnonzero(np.concatenate(([True],
                                               block[1:] != block[:-1])))
        size = np.append(start[1:], s.size) - start
        per = 1.0 / (s[start + (size > 1)] - s[start] + (size == 1))
        period = np.minimum(per, size).astype(np.intp)
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


def transform(numerator, lams, zs, deltas, base: QBase,
              settings: QuadSettings, tol: float, n_rows: int) -> np.ndarray:
    """Transforms of the ``n_rows`` rows of ``numerator``, one block per
    direction ``lams[b]`` and point ``zs[b]``, as an ``(n_blocks, n_rows)``
    array: one :func:`path_integral` batch at ``tol``, in which a block's
    rows share nodes and settle together.  ``numerator(tau, block, out)``
    writes the rows at path points ``tau`` of blocks ``block`` into the
    ``(n_rows, points)`` array ``out`` and returns it.  A ``z`` not
    theta-safe for its ``(lam, delta)`` (``deltas`` one per block or one
    for all, one :func:`in_theta_safe` call per distinct delta) raises
    :class:`DomainError` for the first one before any integration.
    """
    lams = np.asarray(lams, dtype=complex)
    zs = np.asarray(zs, dtype=complex)
    deltas = np.broadcast_to(deltas, zs.shape)
    safe = np.empty(zs.size, dtype=bool)
    for delta in dict.fromkeys(deltas.tolist()):
        mine = deltas == delta
        safe[mine] = in_theta_safe(zs[mine], lams[mine], base, delta)
    if not safe.all():
        i = int(np.argmin(safe))
        raise DomainError("z = %s is not theta-safe for direction %s at "
                          "delta = %g" % (zs[i], lams[i], deltas[i]),
                          membership="theta_safe")
    pref = base.log_q / pi_q(base)
    kern = kernel(base, lams, zs)
    # one buffer per batch, grown to the largest call: values never
    # outlive their call, and a fresh 2 MiB array per call is mapped and
    # page-faulted anew.  Powers of two allocate the 2 MiB cap only once
    buf = np.empty(0, dtype=complex)

    def rows(s: np.ndarray, block: np.ndarray) -> np.ndarray:
        nonlocal buf
        size = n_rows * s.size
        if buf.size < size:
            buf = np.empty(1 << (size - 1).bit_length(), dtype=complex)
        out = numerator(qpow(base, s) * lams[block], block,
                        buf[:size].reshape(n_rows, s.size))
        # pref * numerator * kern in place: complex products are not
        # bitwise commutative (fused multiply-add), so pref stays left
        np.multiply(pref, out, out=out)
        # far out on a window inf times 0 gives NaN, which path_integral
        # reports as a non-finite end value: numpy need not warn too
        with np.errstate(invalid="ignore"):
            out *= kern(s, block)
        return out

    out = np.empty((lams.size, n_rows), dtype=complex)
    for i, value in path_integral(
            rows, truncation_window(lams, zs, base, tol), settings, tol,
            n_rows):
        out[i] = value
    return out


def q_laplace_batch(F, lams, zs, base: QBase,
                    settings: QuadSettings = QuadSettings(),
                    n_rows: int = 1) -> np.ndarray:
    """Transforms of the ``n_rows`` rows of ``F(x, block)``, an ``(n_rows,
    points)`` array at path points ``x`` of blocks ``block``, one block per
    direction ``lams[b]`` and point ``zs[b]``, as an ``(n_blocks,
    n_rows)`` array: :func:`transform` at ``tol = abs_tol``, every ``z``
    tested for theta-safety at ``delta = 0.05``.
    """
    def numerator(x, block, out):
        out[...] = F(x, block)
        return out

    return transform(numerator, lams, zs, 0.05, base, settings,
                     settings.abs_tol, n_rows)


def q_laplace(F, lam: complex, z: complex, base: QBase,
              settings: QuadSettings = QuadSettings()) -> complex:
    """Transform of ``F`` (called with an ndarray of path points) along
    direction ``lam``, evaluated at ``z``: the one-block, one-row
    :func:`q_laplace_batch`."""
    return complex(q_laplace_batch(lambda x, block: F(x), [lam], [z], base,
                                   settings)[0, 0])
