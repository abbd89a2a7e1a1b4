"""Kernel functions, Gram matrices, Gram operators and RKHS norms.

The built-in kernel is the first-order Sobolev kernel on [0, 1],
``K(x, t) = min(x, t) - x*t``, whose RKHS is the space of absolutely
continuous functions vanishing at both endpoints with inner product
``<f, g> = int f' g'``.  Custom kernels plug in through :class:`Kernel`
with a vectorized evaluation rule and a supremum bound ``kappa``.

Products with the Gram matrices of fixed anchors go through a
:class:`KernelOperator`, which holds every block of a partition level at
once (:func:`level_operator`; :func:`kernel_operator` gives the level of
one block).  Other kernels get a dense operator, one Gram matrix per
block; the built-in kernel has one O(n) structured operator,
:class:`BlockLayoutOperator`: ``min(x, t) - x*t`` is the Brownian-bridge
covariance, so an expansion in it is piecewise linear with kinks at the
anchors, and prefix sums over the sorted anchors give its values, its
derivative and the O(n) solves of its shifted systems ``(G + c I) a = y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

# How far below zero rounding may take a quadratic form that cannot be
# negative, as an absolute value: ``a' G a`` in `rkhs_norm_sq` and the
# squared error of `rkhs_error_sq` are clamped to 0 above -PSD_TOLERANCE
# and raise below it (a kernel that is not positive semidefinite).
PSD_TOLERANCE = 1e-10

# Values a ``cross`` evaluates at once (blocks x points on the block
# layout, anchors x points of a dense block): its temporaries stay far
# below glibc's mmap threshold, so they reuse heap memory instead of
# faulting in fresh pages on every chunk.
CROSS_CHUNK = 8192

# Level values' worth of shifts a shifted solve takes at once: the 40
# oracle shifts at n = 131072 peak at 66 MiB of numpy memory, the (40, n)
# result included, not 414 MiB (tracemalloc).  Larger chunks make fewer
# numpy calls but keep more bytes live.
SHIFT_CHUNK = 2 ** 15


@dataclass(frozen=True)
class Kernel:
    """A symmetric positive semidefinite kernel on [0, 1]; inputs outside
    it are rejected.

    Parameters
    ----------
    fn : callable
        Vectorized evaluation ``fn(x, t)``; must broadcast and satisfy
        ``fn(x, t) == fn(t, x)``.
    kappa : float
        Supremum bound ``sup_x sqrt(K(x, x))``.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kappa: float


def _sobolev_min_fn(x, t):
    return np.minimum(x, t) - x * t


def sobolev_min() -> Kernel:
    """The kernel ``min(x, t) - x*t`` on [0, 1]; ``kappa = 1/2``.

    ``K(x, x) = x - x**2`` peaks at 1/4, hence the bound.
    """
    return Kernel(_sobolev_min_fn, 0.5)


def user_kernel(fn, kappa) -> Kernel:
    """Wrap a custom positive semidefinite kernel with its sup bound."""
    if not 0 < kappa < np.inf:
        raise ValueError(f"kappa must be finite and positive, got {kappa}")
    return Kernel(fn, float(kappa))


def _check_domain(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("kernel inputs must be finite")
    if a.size and (a.min() < 0.0 or a.max() > 1.0):
        raise ValueError("input outside kernel domain [0.0, 1.0]")
    return a


def gram(kernel: Kernel, points) -> np.ndarray:
    """Dense Gram matrix ``G[..., i, j] = K(x_i, x_j)`` of the anchors on
    the last axis of `points`; leading axes stack anchor sets of one size,
    each with its own Gram matrix from one broadcast evaluation.

    The result is exactly symmetric: floating-point asymmetry of the
    evaluation rule is averaged out, and a rule that is symmetric in
    floating point (the built-in) comes out bit for bit unchanged.  For a
    rule that acts elementwise, a stacked matrix equals the one of its
    anchors alone, bit for bit.
    """
    pts = np.atleast_1d(_check_domain(points))
    if pts.shape[-1] == 0:
        raise ValueError("gram requires at least one point")
    G = kernel.fn(pts[..., :, None], pts[..., None, :])
    return 0.5 * (G + np.swapaxes(G, -1, -2))


class KernelOperator:
    """The Gram matrices ``G_i[j, k] = K(x_j, x_k)`` of the blocks of a
    partition level, as one operator (one block is a level of one):
    `points` holds the blocks' anchors one after another, `sizes` their
    counts.  Built by :func:`level_operator`, which validates the anchors
    once.

    ``matvec``, ``cross`` and ``quad_form`` take flat ``(..., n)`` vectors
    over `points`, with each block's own Gram matrix; ``cross`` sums the
    blocks' expansions.  Only ``level_matvec`` takes an ``(..., m, s)``
    level vector, ``s`` the largest block size, on which the level
    iteration steps with no scatter; ``layout`` and ``blocks`` map
    between the two.
    """

    def __init__(self, kernel: Kernel, points: np.ndarray, sizes: np.ndarray):
        self.kernel, self.points = kernel, points
        self.m, self.sizes = sizes.size, sizes[:, None]

    def matvec(self, v) -> np.ndarray:
        """Every block's ``G_i @ v_i``."""
        return self.blocks(self.level_matvec(self.layout(v)))

    def cross(self, coef, t) -> np.ndarray:
        """``sum_j coef[j] * K(x_j, t)`` at the 1-D array of points `t`,
        the blocks' expansions added in ascending block order.

        A 2-D `coef` holds one expansion per row and gives one row of
        values per expansion, ``(len(coef), len(t))``: the kernel is
        evaluated against `t` once for all of them.
        """
        raise NotImplementedError

    def quad_form(self, a) -> float:
        """``a' G a``, summed over the blocks."""
        return float(a @ self.matvec(a))

    def _split(self, values) -> list:
        """Each block's part of the last axis of flat `values`."""
        return np.split(values, np.cumsum(self.sizes[:-1, 0]), axis=-1)


class DenseOperator(KernelOperator):
    """Any kernel: each block's dense Gram matrix, formed on the first
    product and kept.  Row i of a level vector holds block i's values in
    index order, then zeros up to length ``s``."""

    @cached_property
    def _real(self) -> np.ndarray:
        # the slots of each row that hold a block's values
        return np.arange(self.sizes.max()) < self.sizes

    @cached_property
    def _grams(self) -> list:
        return [gram(self.kernel, p) for p in self._split(self.points)]

    def layout(self, values) -> np.ndarray:
        """Flat values as a zero-padded level vector."""
        values = np.asarray(values, dtype=float)
        level = np.zeros(values.shape[:-1] + self._real.shape)
        level[..., self._real] = values
        return level

    def blocks(self, a) -> np.ndarray:
        """The flat values of a level vector: :meth:`layout` inverted, in
        C order (a boolean index gives several rows in Fortran order, and
        a strided row's dot product rounds differently)."""
        return np.ascontiguousarray(a[..., self._real])

    def level_matvec(self, v) -> np.ndarray:
        """Every block's ``G_i @ v_i``, for a level vector `v`, block by
        block.  A stacked matrix-vector product rounds as one vector's
        does; ``v @ G`` or a product with ``V.T`` would not."""
        out = np.zeros(np.shape(v))
        for i, G in enumerate(self._grams):
            s = len(G)
            out[..., i, :s] = (G @ v[..., i, :s, None])[..., 0]
        return out

    def cross(self, coef, t):
        """The blocks' ``a_i @ K(x_i, t)`` added in ascending block order,
        each evaluated against `CROSS_CHUNK` values' worth of `t` at a
        time: the pieces depend on the block's size alone, so a level's
        sums are its blocks' own ``cross``s, bit for bit."""
        out = np.zeros(np.shape(coef)[:-1] + t.shape)
        for a, p in zip(self._split(coef), self._split(self.points)):
            step = max(1, CROSS_CHUNK // p.size)
            for lo in range(0, t.size, step):
                out[..., lo:lo + step] += a @ self.kernel.fn(
                    p[:, None], t[None, lo:lo + step])
        return out


def _bridge_sums(xs, a):
    """Prefix ``P`` and slope ``D`` of the expansions with weights `a` at
    the ascending anchors `xs`, per segment r (the points t with r anchors
    <= t) along the last axis.  Each row is added in order, so its sums
    are bit for bit those of that row alone."""
    shape = a.shape[:-1] + (a.shape[-1] + 1,)
    prefix = np.zeros(shape)
    np.add.accumulate(xs * a, axis=-1, out=prefix[..., 1:])
    slope = np.zeros(shape)
    # sum_{q >= r} a_q
    np.add.accumulate(a[..., ::-1], axis=-1, out=slope[..., -2::-1])
    slope -= prefix[..., -1:]
    return prefix, slope


def _bridge_values(sums, t, seg):
    """The expansions ``P + t D`` at the segments `seg` of the last axis
    of the sums.  ``take`` gathers about twice as fast as ``[..., seg]``."""
    prefix, slope = sums
    return prefix.take(seg, axis=-1) + t * slope.take(seg, axis=-1)


def _tridiagonal_solve(diag, off, rhs):
    """Solve symmetric tridiagonal systems by cyclic reduction.

    Position runs along the last axis: `diag` has N entries, `off` (the
    entries ``A[i, i+1]``) N - 1 and `rhs` N; the leading axes broadcast
    and index independent systems, each with its own reduction and bits.
    Each level eliminates the even positions and halves the system, so
    the work is O(N) in O(log N) numpy passes.  An even N needs no pad:
    its last odd position has no right neighbour.  Stable without
    pivoting for diagonally dominant matrices (Heller, SIAM J. Numer.
    Anal. 13, 1976).
    """
    n = diag.shape[-1]
    if n == 1:
        return rhs / diag
    # odd positions, and those of them with a right neighbour
    half, inner = n // 2, (n - 1) // 2
    even = diag[..., ::2]
    lo, up = off[..., ::2], off[..., 1::2]     # A[2j+1, 2j], A[2j+1, 2j+2]
    left, right = lo / even[..., :half], up / even[..., 1:]
    reduced = diag[..., 1::2] - left * lo
    reduced[..., :inner] -= right * up
    rhs_odd = rhs[..., 1::2] - left * rhs[..., :2 * half:2]
    rhs_odd[..., :inner] -= right * rhs[..., 2::2]
    odd = _tridiagonal_solve(reduced, -right[..., :half - 1] * lo[..., 1:],
                             rhs_odd)
    x = np.empty(odd.shape[:-1] + (n,))
    x[..., 1::2] = odd
    xe = x[..., ::2]
    xe[...] = rhs[..., ::2] / even
    xe[..., :half] -= lo * odd / even[..., :half]
    xe[..., 1:] -= up * odd[..., :inner] / even[..., 1:]
    return x


def _row_order(values, pad_ties):
    """Flat indices sorting each row of the ``(m, s)`` array `values`
    ascending, and the sorted rows, as a stable sort orders them.

    With no tie, the ascending order is unique, so numpy's default sort
    finds it: 60 us for a row of 4096 values against 330 us for the
    stable sort (timsort; x86-64 with AVX-512).  The rows are sorted
    again stably when more than `pad_ties` adjacent sorted values are
    equal: the caller's pads, values that no result reads the order of,
    may tie among themselves, and any other tie may come out reordered.
    """
    offsets = np.arange(0, values.size, values.shape[1])[:, None]
    for kind in (None, "stable"):      # the second pass only after a tie
        order = np.argsort(values, axis=1, kind=kind)
        order += offsets
        srt = values.ravel()[order]
        if np.count_nonzero(srt[:, 1:] == srt[:, :-1]) <= pad_ties:
            break
    return order, srt


def _shifts_at_once(size: int, shifts: int) -> int:
    """Shifts of `size` level values each that one chunk of a shifted
    solve takes: `SHIFT_CHUNK` values' worth, at least one, at most
    `shifts`."""
    return max(1, min(shifts, SHIFT_CHUNK // size))


def kernel_operator(kernel: Kernel, points) -> KernelOperator:
    """Gram operator of `kernel` at `points`: the level of one block
    (:func:`level_operator`)."""
    return level_operator(kernel, points, [np.arange(np.size(points))])


class BlockLayoutOperator(KernelOperator):
    """``min(x, t) - x*t`` without forming G, for every block of a
    partition level at once (one block is a level of one): O(n) per
    product after one sort.  ``f = sum_j a_j K(x_j, .)`` is ``f(t) = P(t)
    + t * D(t)`` with ``P(t) = sum_{x_j <= t} x_j a_j`` and ``D(t) =
    sum_{x_j > t} a_j - sum_j x_j a_j``, where ``D`` is also ``f'``
    between anchors.

    Row i of one ``(m, s)`` array, ``s`` the largest block size, holds
    block i's anchors sorted stably, then anchors at 1 up to length ``s``
    (:func:`_row_order`).
    Those pads have ``K(1, .) = 0``; products hold their coefficients at
    ``-0.0``, the additive identity, so every prefix sum of a row is its
    block's alone, bit for bit.  Segment r of a row holds the points with
    r of its anchors at or below them, and products read segments by
    position: slot j reads segment j + 1.  At a tie both branches of
    ``min`` agree, so an anchor tied to the next one may read its own
    segment; only the last bits of its value depend on which.
    """

    def __init__(self, kernel: Kernel, points: np.ndarray, sizes: np.ndarray):
        super().__init__(kernel, points, sizes)
        m, s = self.m, int(sizes.max())
        # the slots of each row that hold anchors, before and after the
        # sort: it keeps the pads, at 1, last after any anchor at 1
        real = np.arange(s) < self.sizes
        self._pad = None if real.all() else ~real
        unsorted = np.ones((m, s))
        unsorted[real] = points
        # pairs of adjacent pads: the ties a row may have without an
        # anchor tying another or a pad
        pad_ties = int(np.maximum(s - 1 - sizes, 0).sum())
        order, self._sorted = _row_order(unsorted, pad_ties)
        inverse = np.empty(m * s, dtype=np.intp)
        inverse[order.ravel()] = np.arange(m * s)
        self._slot = inverse.reshape(m, s)[real]   # slot of each flat value
        flat = np.zeros((m, s), dtype=np.intp)
        flat[real] = np.arange(points.size)
        self._source = flat.ravel()[order]         # flat index per slot

    def layout(self, values) -> np.ndarray:
        """Flat values as a level vector (pads: copies, which sums mask)."""
        return np.asarray(values, dtype=float).take(self._source, axis=-1)

    def blocks(self, a) -> np.ndarray:
        """The flat values of a level vector: :meth:`layout` inverted."""
        return np.reshape(a, np.shape(a)[:-2] + (-1,)).take(self._slot, -1)

    def _sums(self, level):
        """:func:`_bridge_sums` of each level row, pads masked: ``(..., m,
        s + 1)``, segment r of row i at ``[..., i, r]``."""
        if self._pad is not None:
            level = np.where(self._pad, -0.0, level)
        return _bridge_sums(self._sorted, level)

    def level_matvec(self, v) -> np.ndarray:
        """Every block's ``G @ v``, for a level vector `v`: slot j of a row
        reads segment j + 1."""
        prefix, slope = self._sums(v)
        return prefix[..., 1:] + self._sorted * slope[..., 1:]

    def cross(self, coef, t):
        """The sum of the blocks' expansions at `t`, added in ascending
        block order, a chunk of about `CROSS_CHUNK` values at a time."""
        t = np.asarray(t, dtype=float)
        prefix, slope = self._sums(self.layout(coef))
        flat = prefix.shape[:-2] + (-1,)
        sums = prefix.reshape(flat), slope.reshape(flat)
        if self.m == 1:                        # no sort of t: as one row
            return _bridge_values(sums, t, np.searchsorted(
                self._sorted[0], t, side="right"))
        m, s = self._sorted.shape
        order = np.argsort(t, kind="stable")
        ts = t[order]
        # row i's segment at ts[j] is its anchors with at most j points
        # below them: segment k over the ts[j] with g[k - 1] <= j < g[k]
        g = np.searchsorted(ts, self._sorted, side="left")
        runs = np.diff(g, axis=1, prepend=0, append=ts.size)
        at = np.arange(m)[:, None] * (s + 1) + np.arange(s + 1)
        step = max(1, CROSS_CHUNK // max(ts.size, 1))
        for lo in range(0, m, step):
            first = at[lo:lo + step]
            seg = np.repeat(first, runs[lo:lo + step].ravel())
            rows = _bridge_values(sums, ts, seg.reshape(len(first), ts.size))
            if lo:
                rows[..., 0, :] += total
            # accumulate adds row after row, as a loop over the rows does
            total = np.add.accumulate(rows, axis=-2)[..., -1, :]
        out = np.empty_like(total)
        out[..., order] = total
        return out

    @cached_property
    def _gaps(self):
        # lengths of each row's s + 1 segments between 0, anchors and 1
        return np.diff(self._sorted, axis=1, prepend=0.0, append=1.0).ravel()

    def quad_form(self, a):
        """``int f'^2`` over every block: exact, and never negative."""
        _, slope = self._sums(self.layout(a))
        return float(self._gaps @ slope.ravel() ** 2)

    def solve_shifted(self, c, y) -> np.ndarray:
        """``(G_i + c_li I)^{-1} y_i`` for every block i and each shift
        ``c_li > 0``, as the flat rows of a ``(len(c), n)`` array, O(n) per
        shift: `c` is ``(L, m, 1)``, a shift per block (``lam * kappa**2 *
        |block|``), or 1-D, each shift for every block.

        This is the linear smoothing spline (Reinsch's algorithm; Wahba,
        *Spline Models for Observational Data*, 1990), solved in
        covariance form, for each block:

        - anchors at 0 or 1 have a zero Gram row: ``alpha_i = y_i / c``;
        - tied interior anchors share a Gram row and are merged into the
          distinct points ``u`` with multiplicities ``d``:
          ``(G_u + c/d) beta = ybar`` (group means of y), then
          ``alpha_i = beta_k / d_k + (y_i - ybar_k) / c``.  The merge is
          for accuracy: on 4096 anchors on a 0.1 grid the merged solve
          is within 1.9e-16 of the largest coefficient of the exact one,
          and a solve that takes the tied anchors as gaps of zero misses
          by 4e-14 to 7.5e-14 (four shifts from 1 to 1e-14 times
          ``kappa**2 n``, six draws);
        - the bridge is Brownian motion pinned at 1, so the merged system
          is Brownian motion's at ``u_1, ..., u_N`` and ``u_{N+1} = 1``,
          the last point with shift 0 and output 0 (an exact observation
          of ``f(1) = 0``): the first N entries of its solution are
          ``beta``.  Its covariance ``min(u_j, u_k)`` is ``S diag(g) S'``,
          with ``S`` the lower-triangular ones matrix and ``g`` the N + 1
          gaps ``0 -> u_1, ..., u_N -> 1``; with ``D = S^{-1}`` the first
          difference, ``(diag(g) + D diag(c/d, 0) D') b = D [ybar; 0]`` and
          ``beta_k = b_k - b_{k+1}``.
        - that matrix is tridiagonal and strictly diagonally dominant by
          the gaps, and no entry divides by a gap, which is why near-tied
          anchors lose no accuracy here while the tridiagonal inverse of
          ``G`` (entries ``1/g``) does.

        Blocks with the same count N of distinct interior anchors form
        one call of :func:`_tridiagonal_solve` on one right-hand side,
        with the blocks and the shifts on its leading axes: each system
        keeps its own reduction and bits, and uniform data makes at most
        two calls per chunk of shifts.  What no shift changes is set up
        once; then `SHIFT_CHUNK` values' worth of shifts at a time are
        solved into the one result, whatever ``len(c)``.
        """
        c = np.asarray(c, dtype=float)
        if not ((c.ndim == 1 or c.shape[1:] == self.sizes.shape)
                and np.isfinite(c).all() and (c > 0).all()):
            raise ValueError("shifts must be a 1-D array or one column per "
                             "block of finite positive values")
        ys = np.asarray(y, dtype=float)
        if ys.shape != self.points.shape:
            raise ValueError(f"got {ys.size} outputs for "
                             f"{self.points.size} anchors")
        m, s = self._sorted.shape
        level = self.layout(ys)
        xs = self._sorted
        inner = (xs > 0) & (xs < 1)            # the pads are at 1
        at = np.flatnonzero(inner)
        first = inner.copy()
        first[:, 1:] &= xs[:, 1:] != xs[:, :-1]
        # the distinct interior points u, row after row
        start = np.flatnonzero(first.ravel()[at])
        d = np.diff(np.append(start, at.size))
        group = np.repeat(np.arange(start.size), d)
        ybar = np.add.reduceat(level.ravel()[at], start) / d
        u = xs.ravel()[at[start]]
        block = at[start] // s                 # of each distinct point
        count = np.bincount(block, minlength=m)  # N of each block
        systems = []
        for N in sorted(set(count.tolist()) - {0}):
            k = np.flatnonzero(count[block] == N).reshape(-1, N)  # by block
            zero = np.zeros((len(k), 1))       # faster than diff's prepend=
            gaps = np.diff(np.concatenate([zero, u[k], zero + 1.0], axis=1))
            # the right-hand side D [ybar; 0], by block
            rhs = np.diff(np.concatenate([zero, ybar[k], zero], axis=1))
            systems.append((k, block[k[:, 0]], gaps, d[k][:, None, :],
                            rhs[:, None]))
        mean = np.zeros(m * s)
        mean[at] = ybar[group]
        resid = level - mean.reshape(m, s)     # y - ybar
        result = np.empty((len(c), self.points.size))
        step = _shifts_at_once(m * s, len(c))
        for lo in range(0, len(c), step):
            cl = c[lo:lo + step]
            cb = np.broadcast_to(cl.reshape(len(cl), -1).T,
                                 (m, len(cl)))  # block, shift
            beta_d = np.empty((len(cl), start.size))   # beta / d
            for k, rows, gaps, dk, rhs in systems:
                # blocks and shifts along the leading axes, position along
                # the last: diag(g) + D diag(w, 0) D', w = c / d
                w = cb[rows][..., None] / dk           # (rows, L, N)
                diag = gaps[:, None].repeat(len(cl), axis=1)
                diag[..., :-1] += w
                diag[..., 1:] += w
                b = _tridiagonal_solve(diag, -w, rhs)
                beta = b[..., :-1] - b[..., 1:]
                beta_d[:, k] = np.moveaxis(beta / dk, 1, 0)
            # (y - ybar) / c, which is alpha at the anchors at 0 or 1
            out = resid / cb.T[:, :, None]
            out.reshape(len(cl), -1)[:, at] += beta_d[:, group]
            result[lo:lo + step] = self.blocks(out)
        return result


def level_operator(kernel: Kernel, x, blocks) -> KernelOperator:
    """The operator of the blocks ``x[ix]``, `ix` in `blocks`, its flat
    points the blocks one after another: block-layout for the built-in
    kernel, dense for any other.  Rejects empty, non-finite or
    out-of-domain anchors in any block.  Only this tells the built-in
    kernel apart; the fits ask the operator what it can do."""
    sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
    if not sizes.all():
        raise ValueError("a kernel operator needs at least one anchor")
    values = np.asarray(x, dtype=float).ravel()[np.concatenate(blocks)]
    cls = (BlockLayoutOperator if kernel.fn is _sobolev_min_fn
           else DenseOperator)
    return cls(kernel, _check_domain(values), sizes)


def rkhs_norm_sq(expansion) -> float:
    """Squared RKHS norm ``alpha' G alpha`` of a kernel expansion: of a
    level's average, one expansion by its ``as_expansion()``.  Rounding
    below zero is clamped; below ``-PSD_TOLERANCE`` raises.
    """
    expansion = expansion.as_expansion()
    val = expansion.operator.quad_form(
        np.asarray(expansion.coefficients, dtype=float))
    if val < 0:
        if val < -PSD_TOLERANCE:
            raise ArithmeticError(f"Gram quadratic form is negative: {val}")
        val = 0.0
    return val


def rkhs_error_sq(quad: float, alpha, f_values, f_norm_sq: float) -> float:
    """``||f_hat - f||^2 = a' G a - 2 a . f(x) + ||f||^2`` by the reproducing
    property, for the expansion with weights `alpha` at anchors x, from
    ``quad = a' G a`` and ``f_values = f(x)``.  Rounding below zero is
    clamped; below ``-PSD_TOLERANCE`` (a kernel that is not PSD) raises."""
    sq = quad - 2.0 * float(alpha @ f_values) + f_norm_sq
    if sq < -PSD_TOLERANCE:
        raise ArithmeticError(f"negative squared error {sq}")
    return max(sq, 0.0)
