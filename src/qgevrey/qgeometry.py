"""Complex q-power arithmetic and membership tests for q-spiral domains.

Everything downstream is parameterized by a base :class:`QBase` holding a
deformation parameter ``q`` with ``|q| > 1`` and a fixed (principal) branch
of ``log q``.  Three families of domains appear:

* discrete q-spirals ``U q^-N = {u q^-n : u in U, n = 0, 1, ...}`` spiraling
  toward the origin from a chart patch ``U``,
* continuous q-spirals ``V q^R = {v q^l : v in V, l real}`` through a
  direction patch ``V``: no membership test here, they enter only through
  the arguments at which they cross the unit circle
  (:mod:`qgevrey.covering`: ``direction_clearances``, ``validate_family``),
* the theta-safe set of a direction ``lam``: the z for which the two-sided
  spiral ``{lam q^-k / z : k in R}`` keeps distance > delta from ``-1``,
  i.e. where the reciprocal theta kernel stays controlled.

A chart patch is written ``u, v -> exp(2*pi*i*u) * q**v`` with ``u`` in
turns, so multiplication by ``q`` shifts ``v`` by one and leaves ``u``
fixed.  Membership tests reduce to interval arithmetic in the ``(u, v)``
coordinates.

The discrete-spiral membership test (:func:`spiral_coordinates`,
:func:`in_discrete_spiral`) and the clearance
(:func:`spiral_min_distance`) are array-valued: one call tests a whole
array of points, and a scalar point still gives a scalar answer.  Batched
intermediates are capped at ``BLOCK`` elements and built without BLAS.
A zero or non-finite point raises :class:`DomainError`.

At a real base (``Im log q = 0``) the clearance is in closed form:
``w q^-k`` runs over the open ray through ``w``, which comes nearest to
-1 at ``|Im w| / |w|`` when ``Re w < 0``.  Only a complex ``log q``
(a complex ``q``, or a real one given a non-principal logarithm such as
``log 2 + 2 pi i``) makes a true spiral, and only there is it scanned.

The clearance scan finds the grid minima of ``|1 + w q^-k|^2`` on a
k-grid without evaluating the whole grid.  The grid spacing is ``step``
along the spiral's logarithm ``log(w q^-k)``, so ``step / |log q|`` in k:
the grid length depends on the base only through ``|log q| / log|q|``
(1,547 grid values at ``delta = 0.2`` and ``q = 1.5 e^{0.2i}``, 6,799 at
``e^{1/16 + 0.3i}``).  A coarse pass evaluates every
``STRIDE``-th grid value; a bound on the second derivative says how far
the values between two coarse ones can dip below the lesser of them, so
every coarse cell that cannot reach below the least coarse value is
skipped, and only the kept cells are swept in full.  The same bound over
one grid spacing says how far the minimum between two grid points can lie
below them: every grid minimum within that bound of the row's least value
is refined (the tie rule), so a basin whose minimum falls between grid
points is refined even when another basin holds the least grid value.
The candidates are those of a sweep of the whole grid.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import DomainError
from .records import record

TWO_PI = 2.0 * math.pi

#: Largest number of elements of one batched intermediate array: sweeps
#: over more points run in row blocks of at most this size.
BLOCK = 1 << 15

#: Grid-index stride of the coarse pass of :func:`spiral_min_distance`.
STRIDE = 64
# cap on the elements of one intermediate of the clearance scan's passes
# (no value depends on it; BLOCK // 8 and BLOCK were slower)
_SCAN_VALUES = BLOCK // 2

# nested-grid refinement of the scan minimum in spiral_min_distance: each
# level shrinks the bracket (_REFINE_POINTS - 1) / 2 = 16 times
_REFINE_POINTS = 33
_REFINE_LEVELS = 4

# relative margin of the closed form at a real base, three machine
# epsilons: the rounding of hypot (< 1 ulp), of the division and of the
# product by 1 - _RAY_MARGIN (0.5 ulp each) lifts a value by less, so the
# result never exceeds the exact capped minimum and lies within
# 2 _RAY_MARGIN below it
_RAY_MARGIN = 3.0 * 2.0 ** -52


@record(frozen=True)
class QBase:
    """Deformation parameter ``q`` (``|q| > 1``) with its fixed logarithm."""

    q: complex
    log_q: complex = None  # type: ignore[assignment]

    def __post_init__(self):
        q = complex(self.q)
        if abs(q) <= 1.0:
            raise ValueError("base requires |q| > 1, got |q| = %g" % abs(q))
        lq = cmath.log(q) if self.log_q is None else complex(self.log_q)
        if abs(cmath.exp(lq) - q) > 1e-14 * abs(q):
            raise ValueError("log_q is not a logarithm of q")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "log_q", lq)

    @property
    def log_abs_q(self) -> float:
        return self.log_q.real


@record(frozen=True)
class ChartBase:
    """Patch ``{exp(2*pi*i*u) q^v : u in i1, v in i2}``, intervals in turns/levels.

    Both intervals must be shorter than 1/4.
    """

    i1: tuple[float, float]
    i2: tuple[float, float]

    def __post_init__(self):
        for name, (lo, hi) in (("i1", self.i1), ("i2", self.i2)):
            if not hi > lo:
                raise ValueError("%s is empty" % name)
            if hi - lo >= 0.25:
                raise ValueError("%s must be shorter than 1/4 (got %g)" % (name, hi - lo))

    @property
    def u_mid(self) -> float:
        return 0.5 * (self.i1[0] + self.i1[1])

    @property
    def v_mid(self) -> float:
        return 0.5 * (self.i2[0] + self.i2[1])


@record(frozen=True)
class ContinuousBase:
    """Bounded patch in C*: modulus interval x argument interval (radians)."""

    mod: tuple[float, float]
    arg: tuple[float, float]

    def __post_init__(self):
        if not 0.0 < self.mod[0] < self.mod[1] < math.inf:
            raise ValueError("modulus interval must satisfy 0 < lo < hi < inf")
        if not self.arg[0] < self.arg[1]:
            raise ValueError("argument interval is empty")
        if self.arg[1] - self.arg[0] > TWO_PI:
            raise ValueError("argument interval longer than a full turn")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n points, log-uniform in modulus, uniform in argument."""
        b = np.array([(math.log(self.mod[0]), math.log(self.mod[1])),
                      self.arg])
        log_mod, arg = rng.uniform(b[:, :1], b[:, 1:], (2, n))
        return np.exp(log_mod) * np.exp(1j * arg)


def qpow(base: QBase, t) -> complex:
    """``q**t`` along the fixed branch: exp(t * log q).

    Accepts a scalar or ndarray exponent; continuous in ``t`` with
    ``qpow(b, 0) == 1`` and ``qpow(b, 1) == q``.
    """
    if isinstance(t, np.ndarray):
        return np.exp(t * base.log_q)
    return cmath.exp(t * base.log_q)


def _points(x, zero_message: str) -> np.ndarray:
    """``x`` as a complex array; a zero or non-finite entry is a DomainError."""
    p = np.asarray(x, dtype=complex)
    if not np.isfinite(p).all():
        raise DomainError("points must be finite", membership="finite")
    if not p.all():
        raise DomainError(zero_message, membership="nonzero")
    return p


def spiral_coordinates(point, base: QBase):
    """Unique ``(u, v)`` with ``point = exp(2*pi*i*u) q^v`` and u in [0, 1).

    Array-valued: an array of points gives two arrays of its shape, a
    scalar gives two floats.
    """
    p = _points(point, "origin has no spiral coordinates")
    v = np.log(np.abs(p)) / base.log_abs_q
    u = _frac((np.angle(p) - v * base.log_q.imag) / TWO_PI)
    if p.ndim == 0:
        return float(u), float(v)
    return u, v


def in_discrete_spiral(eps, chart: ChartBase, base: QBase):
    """Whether ``eps`` lies on the discrete spiral ``U_chart q^-N``.

    True iff ``eps * q^n`` lands in the chart patch for some integer
    ``n >= 0``; in spiral coordinates this means ``u`` is in the open
    interval ``i1`` modulo one and ``v + n`` hits the open interval ``i2``.
    Array-valued: an array of points gives a boolean array of its shape, a
    scalar gives a ``bool``.
    """
    u, v = spiral_coordinates(eps, base)
    du = _frac(u - chart.i1[0])
    lo, hi = chart.i2
    n = np.ceil(lo - v)
    n = n + (lo - v == n)  # open interval: v + n must exceed lo strictly
    inside = ((0.0 < du) & (du < chart.i1[1] - chart.i1[0])
              & (n >= 0) & (v + n < hi))
    return bool(inside) if np.ndim(inside) == 0 else inside


def _frac(x):
    """``x % 1.0``, bit for bit at every finite float, without numpy's
    float modulo (about 20 times slower on 10,000 values).  For ``x >= 0``
    both are exact; for a negative non-integer both round the exact
    ``(x - trunc(x)) + 1`` once; an integer, ``-0.0`` too, gives ``+0.0``."""
    return x - np.floor(x)


def _band(delta: float) -> tuple[float, float]:
    """Modulus band ``[m_lo, m_hi]`` of :func:`spiral_min_distance`: a
    point ``x`` with ``|x|`` outside it has ``|1 + x|`` at least
    ``min(1 - m_lo, m_hi - 1)``, the band cap."""
    return max(1.0 - 3.0 * delta, 0.5 * (1.0 - delta)), 1.0 + 3.0 * delta


def _ray_min_distance(wa: np.ndarray, delta: float):
    """:func:`spiral_min_distance` at a real base, in closed form.

    With ``Im log q = 0`` the points ``w q^-k`` run over the open ray
    through ``w``, and ``|1 + r e^{ia}|^2 = 1 + 2 r cos a + r^2`` is least
    at ``r = -cos a`` when ``cos a < 0``, where it is
    ``sin^2 a = (Im w / |w|)^2``; else its infimum, 1, lies above the
    band cap.  The capped minimum is
    ``min(|Im w| / |w|, cap)`` for ``Re w < 0`` and ``cap`` otherwise,
    lowered by the relative margin ``_RAY_MARGIN``.
    """
    m_lo, m_hi = _band(delta)
    cap = min(1.0 - m_lo, m_hi - 1.0)
    best = np.where(wa.real < 0.0, np.abs(wa.imag) / np.abs(wa), cap)
    best = np.minimum(best, cap) * (1.0 - _RAY_MARGIN)
    return float(best) if wa.ndim == 0 else best


@functools.lru_cache(maxsize=2)
def _scan_tables(base: QBase, delta: float, step: float):
    """Modulus band and k-grid tables of :func:`spiral_min_distance`.

    Only moduli ``|w q^-k|`` in ``[m_lo, m_hi]`` can come closer to -1 than
    ``outside = min(1 - m_lo, m_hi - 1)``.  With ``k1`` the level at which
    ``|w q^-k1| = m_hi`` and ``phi = arg w - k1 Im(log q)``, the grid
    ``k_j = k1 + j step`` gives

        |1 + w q^-k_j|^2 = A_j + cos(phi) B_j + sin(phi) C_j,

    ``A_j = 1 + rho_j^2``, ``B_j = 2 rho_j cos(j step Im(log q))``,
    ``C_j = 2 rho_j sin(j step Im(log q))``, ``rho_j = m_hi |q|^(-j step)``,
    so the tables depend on ``(base, delta, step)`` only.  They are cached
    and read-only.  ``step`` is the spacing in k here:
    :func:`spiral_min_distance` passes its ``step / |log q|``.
    """
    m_lo, m_hi = _band(delta)
    n = math.ceil(((math.log(m_hi) - math.log(m_lo)) / base.log_abs_q + step)
                  / step)
    ks = step * np.arange(n)
    rho = m_hi * np.exp(-ks * base.log_abs_q)
    turn = ks * base.log_q.imag
    tables = (1.0 + rho * rho, 2.0 * rho * np.cos(turn),
              2.0 * rho * np.sin(turn))
    for t in tables:
        t.flags.writeable = False
    return (m_lo, m_hi) + tables


@functools.lru_cache(maxsize=2)
def _scan_cells(base: QBase, delta: float, step: float):
    """Coarse cells of the k-grid of :func:`spiral_min_distance`.

    With ``n`` grid points and ``s = min(STRIDE, n - 1)``, the cell ends
    are the grid indices ``0, s, 2 s, ...`` and ``n - 1``.  Returns the
    tables ``A, B, C`` at the cell ends, each cell's window start
    ``min(c s, n - 1 - s)``, read-only views of every ``s + 1``
    consecutive values of ``A, B, C`` (the window at a start holds its
    whole cell; the last one may reach back into the previous cell, and
    no table value is copied), ``tie``: the most the minimum between two
    neighbouring grid points can lie below the lesser of them, and
    ``drop``: the most a grid value inside a cell can lie below the lesser
    of the cell's end values, plus ``tie``.
    """
    m_hi, A, B, C = _scan_tables(base, delta, step)[1:]
    n = A.size
    s = min(STRIDE, n - 1)
    ends = np.append(np.arange(0, n - 1, s), n - 1)
    starts = np.minimum(ends[:-1], n - 1 - s)
    windows = tuple(np.lib.stride_tricks.sliding_window_view(t, s + 1)
                    for t in (A, B, C))
    # rounding in the values: a few ulps of (1 + m_hi)^2, plus the rounding
    # of the turn k Im(log q) times the 2 m_hi of B and C
    margin = 1e-12 * (1.0 + m_hi) ** 2 * (1.0 + abs(base.log_q.imag)
                                          * step * n)
    tie = _curvature_drop(base, m_hi, step) + margin
    drop = _curvature_drop(base, m_hi, s * step) + tie
    return (A[ends], B[ends], C[ends], starts) + windows + (drop, tie)


def _scan_candidates(cos_w, sin_w, cells):
    """Rows and grid indices of the grid minima that may hold a row's minimum.

    ``cells`` is :func:`_scan_cells`; the grid values of a row are
    ``A + cos_w B + sin_w C``.  A coarse pass evaluates the cell ends; a
    cell whose lesser end value, lowered by ``drop``, exceeds the least
    end value of its row holds no candidate and is skipped.  The kept
    cells' windows are swept in full, each giving its least value and the
    first index holding it.  A window is a candidate when its least value
    lies within ``tie`` of its row's least value: the continuous minimum
    of a window outside that band lies above a grid value of the row, so
    it cannot be the row's minimum.  The candidates are those of a sweep
    of the whole grid, in (row, index) order, each row at least once and
    no pair twice.
    """
    A, B, C, starts, Aw, Bw, Cw, drop, tie = cells
    found_rows = [np.empty(0, dtype=np.intp)]
    found_at = [np.empty(0, dtype=np.intp)]
    rows = max(1, _SCAN_VALUES // A.size)
    pairs = max(1, _SCAN_VALUES // Aw.shape[1])
    for r in range(0, cos_w.size, rows):
        cw = cos_w[r:r + rows, None]
        sw = sin_w[r:r + rows, None]
        sq = cw * B
        sq += sw * C
        sq += A
        lo = np.minimum(sq[:, :-1], sq[:, 1:])
        lo -= drop
        row, cell = np.divmod(
            np.flatnonzero(lo <= sq.min(axis=1, keepdims=True)), lo.shape[1])
        # each kept (row, cell) window: its least value and the first
        # index holding it; the windows come in (row, index) order
        least = np.empty(row.size)
        at = starts[cell]
        for p in range(0, row.size, pairs):
            rp, sp = row[p:p + pairs], at[p:p + pairs]
            f = cw[rp] * Bw[sp]
            f += sw[rp] * Cw[sp]
            f += Aw[sp]
            least[p:p + pairs] = f.min(axis=1)
            at[p:p + pairs] += f.argmin(axis=1)
        first = np.searchsorted(row, np.arange(cw.shape[0]))
        near = least <= np.minimum.reduceat(least, first)[row] + tie
        # neighbouring windows share an end: an index found by both
        # comes twice in a row, with the same value
        near[1:] &= (at[1:] != at[:-1]) | (row[1:] != row[:-1])
        found_rows.append(row[near] + r)
        found_at.append(at[near])
    return np.concatenate(found_rows), np.concatenate(found_at)


def _curvature_drop(base: QBase, rho: float, h: float) -> float:
    """``M h^2 / 8``: the most ``|1 + w q^-k|^2`` can dip below the lesser
    of its values at two points ``h`` apart in k.

    ``M = 2 |log q|^2 rho (2 rho + 1)`` bounds its second derivative in k
    wherever ``|w q^-k| <= rho``.
    """
    return (abs(base.log_q) * 0.5 * h) ** 2 * rho * (2.0 * rho + 1.0)


@functools.lru_cache(maxsize=2)
def _refine_powers(base: QBase, step: float) -> np.ndarray:
    """``q^(-h j)`` for ``j = -1, ..., _REFINE_POINTS - 1``, one row per
    nested-grid level of :func:`spiral_min_distance`: level ``l`` spaces
    its points ``h = step (2 / (_REFINE_POINTS - 1))^(l + 1)`` apart.
    Cached and read-only."""
    h = step * (2.0 / (_REFINE_POINTS - 1)) ** np.arange(
        1.0, _REFINE_LEVELS + 1)
    powers = np.exp(h[:, None] * np.arange(-1.0, _REFINE_POINTS)
                    * -base.log_q)
    powers.flags.writeable = False
    return powers


def spiral_min_distance(w, base: QBase, delta: float, step: float = 1e-3):
    """Lower bound on the min over real k of ``|1 + w q^-k|``.

    Only the modulus band ``|w q^-k|`` near 1 can produce values below
    the band cap ``min(3*delta, (1+delta)/2)``, and the result is at most
    the cap.

    At a real base (``base.log_q.imag == 0``) ``w q^-k`` runs over the
    open ray through ``w``, and the result is the capped minimum in closed
    form: ``min(|Im w| / |w|, cap)`` for ``Re w < 0`` and ``cap``
    otherwise, lowered by the relative margin ``_RAY_MARGIN`` (three
    machine epsilons) that covers its rounding; ``step`` is not used.

    At a complex ``log q`` the band is scanned on a k-grid (through the
    cached tables of :func:`_scan_tables`), then the grid minima that
    may hold the minimum are refined on nested grids of exact values.
    ``step`` is the grid spacing along the spiral's logarithm
    ``log(w q^-k)``, that is ``step / |log q|`` in k, so the grid costs
    as much near ``|q| = 1`` as at ``q = 2``.  At ``delta = 0.2`` the band
    spans ``log 4`` in ``log|w q^-k|``: a base takes
    ``1,388 |log q| / log|q|`` grid values (1,547 at ``1.5 e^{0.2i}``,
    1,777 at ``1.0645 e^{0.05i}``, 6,799 at ``e^{1/16 + 0.3i}``, which
    turns 0.3 rad per level).

    The scan is pruned.  A coarse pass evaluates every ``STRIDE``-th grid
    value.  ``M = 2 |log q|^2 m_hi (2 m_hi + 1)`` bounds the second
    derivative of ``|1 + w q^-k|^2`` in k on the band, so inside a coarse
    cell of width ``h`` no value lies more than ``M h^2 / 8`` (plus a
    rounding margin) below the lesser end value; a cell that cannot reach
    below the least coarse value is skipped, and the kept cells are swept
    in full.

    Ties are refined too.  Between two neighbouring grid points the
    minimum lies at most ``tie = M step^2 / 8`` (k units, plus the rounding
    margin) below the lesser of them, so every window whose least grid
    value is within ``tie`` of its row's least value is a candidate: near
    an angle where two basins are equally deep the deeper one need not
    hold the least grid value.  Each candidate's bracket (its two
    neighbouring grid cells) is refined on nested grids; the values
    ``w q^-(k_lo + h j)`` are ``(w q^-k_lo) (q^-h)^j``, one complex
    exponential per candidate and one table of powers per level.  A row
    takes the least value over its candidates.

    That value is lowered by the curvature bound on the last nested grid
    (the most the minimum can lie below it between two points of that
    grid).  On either path ``> delta`` is a safe decision for any delta in
    (0, 1): the result stays within ~1e-15 of the minimum where the
    minimum is away from 0, and is 0 where the spiral passes through -1.
    The path is chosen from ``base`` alone.  Array-valued: an
    array of ``w`` gives an array of its shape, swept in blocks of at most
    ``BLOCK`` elements; a scalar gives a float.  A ``delta`` outside
    ``(0, 1)`` raises ``ValueError`` before any other check.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    wa = _points(w, "spiral base must be nonzero")
    if base.log_q.imag == 0.0:
        return _ray_min_distance(wa, float(delta))
    step = float(step) / abs(base.log_q)  # k units from here on
    m_lo, m_hi = _scan_tables(base, float(delta), step)[:2]
    flat = wa.ravel()
    k1 = (np.log(np.abs(flat)) - math.log(m_hi)) / base.log_abs_q
    phi = np.angle(flat) - k1 * base.log_q.imag
    row, i = _scan_candidates(np.cos(phi), np.sin(phi),
                              _scan_cells(base, float(delta), step))
    # exact values on nested grids around each candidate: a level spaces
    # _REFINE_POINTS points over the bracket of the previous minimum's two
    # neighbouring cells (a bracket may stick out of the band; any real k
    # is a valid point).  powers[l, a] moves the bracket start by a - 1
    # points of level l.
    powers = _refine_powers(base, step)
    least = np.empty(row.size)
    rows = _SCAN_VALUES // _REFINE_POINTS
    z = np.empty((min(rows, row.size), _REFINE_POINTS), dtype=complex)
    g = np.empty(z.shape)
    for c in range(0, row.size, rows):
        rc = row[c:c + rows]
        zc, gc, lc = z[:rc.size], g[:rc.size], least[c:c + rows]
        # complex products out of place: numpy rounds an in-place product
        # of one element differently, and a row's value must not depend
        # on the batch around it
        start = flat[rc] * np.exp((k1[rc] + step * (i[c:c + rows] - 1))
                                  * -base.log_q)
        lc[:] = np.inf
        for p in powers:
            np.multiply(start[:, None], p[1:], out=zc)
            zc += 1.0
            np.abs(zc, out=gc)
            a = gc.argmin(axis=1)
            np.minimum(lc, gc[np.arange(rc.size), a], out=lc)
            start = start * p[a]
    # each row is a candidate at least once: its least refined value
    best = np.minimum.reduceat(least,
                               np.searchsorted(row, np.arange(flat.size)))
    # rho = |w q^-k| <= m_hi |q|^step on every bracket, and the minimum
    # lies within half a last-grid spacing of a last-grid point
    rho = m_hi * math.exp(step * base.log_abs_q)
    h_last = step * (2.0 / (_REFINE_POINTS - 1)) ** _REFINE_LEVELS
    slack = _curvature_drop(base, rho, h_last)
    np.square(best, out=best)
    best -= slack
    np.sqrt(np.maximum(best, 0.0, out=best), out=best)
    np.minimum(best, min(1.0 - m_lo, m_hi - 1.0), out=best)
    return float(best[0]) if wa.ndim == 0 else best.reshape(wa.shape)


def in_theta_safe(z, lam: complex, base: QBase, delta: float,
                  step: float = 1e-3):
    """Whether ``|1 + lam / (z q^k)| > delta`` for every real ``k``.

    Decided by the certified lower bound of :func:`spiral_min_distance`:
    in closed form at a real base, else by its scan, whose ``step`` is the
    grid spacing along the spiral's logarithm, so the test costs the same
    near ``|q| = 1`` as at ``q = 2``.  Array-valued in
    ``z`` and ``lam``, which broadcast against each other: arrays give a
    boolean array of their shape, decided in one
    :func:`spiral_min_distance` call, and scalars give a ``bool``.  Each
    ``lam / z`` is the quotient of two Python complex scalars, so an
    entry's answer does not depend on the arrays around it.  A zero
    ``lam``, or a zero or non-finite ``z``, raises :class:`DomainError`.
    """
    message = "theta-safe test needs z != 0 and lam != 0"
    la = np.asarray(lam, dtype=complex)
    if not la.all():
        raise DomainError(message, membership="nonzero")
    za, la = np.broadcast_arrays(_points(z, message), la)
    w = np.array([l / x for l, x in zip(la.ravel().tolist(),
                                         za.ravel().tolist())],
                 dtype=complex).reshape(za.shape)
    return spiral_min_distance(w, base, delta, step=step) > delta
