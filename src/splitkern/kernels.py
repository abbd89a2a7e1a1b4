"""Kernel functions, Gram matrices, Gram operators and RKHS norms.

The built-in kernel is the first-order Sobolev kernel on [0, 1],
``K(x, t) = min(x, t) - x*t``, whose RKHS is the space of absolutely
continuous functions vanishing at both endpoints with inner product
``<f, g> = int f' g'``.  Custom kernels plug in through :class:`Kernel`
with a vectorized evaluation rule and a supremum bound ``kappa``.

Products with the Gram matrix of fixed anchors go through a
:class:`KernelOperator` from :func:`kernel_operator`.  The built-in kernel
gets an O(n) structured operator: ``min(x, t) - x*t`` is the
Brownian-bridge covariance, so an expansion in it is piecewise linear
with kinks at the anchors, and prefix sums over the sorted anchors give
its values and its derivative; its shifted systems ``(G + c I) a = y``
are solved in O(n) as well.  Other kernels get a dense operator.  The
blocks of one partition level of the built-in kernel can share one
:class:`BlockLayoutOperator` from :func:`level_operator`, whose products
act on every block at once.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

# Eigenvalues this far below zero (relative to the largest) are treated as
# floating-point noise and clamped before any spectral filter is applied.
PSD_TOLERANCE = 1e-10

# Values a block-layout operator evaluates at once (blocks x points): its
# temporaries stay far below glibc's mmap threshold, so they reuse heap
# memory instead of faulting in fresh pages on every chunk.
CROSS_CHUNK = 8192


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
    if not 0 <= kappa < np.inf:
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa}")
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
    """The Gram matrix ``G[i, j] = K(x_i, x_j)`` of fixed anchors, as an
    operator.  Built by :func:`kernel_operator`, which validates the
    anchors once."""

    def __init__(self, kernel: Kernel, points: np.ndarray):
        self.kernel = kernel
        self.points = points

    def matvec(self, v) -> np.ndarray:
        """``G @ v``."""
        raise NotImplementedError

    def cross(self, coef, t) -> np.ndarray:
        """``sum_j coef[j] * K(x_j, t)`` at the 1-D array of points `t`.

        A 2-D `coef` holds one expansion per row and gives one row of
        values per expansion, ``(len(coef), len(t))``: the kernel is
        evaluated against `t` once for all of them.
        """
        raise NotImplementedError

    def quad_form(self, a) -> float:
        """``a' G a``."""
        return float(a @ self.matvec(a))

    def _reordered(self, index) -> "KernelOperator":
        """The operator of the anchors ``points[index]``, `index` a
        permutation of them."""
        return type(self)(self.kernel, self.points[index])


class DenseOperator(KernelOperator):
    """Any kernel: the dense Gram matrix, formed on first product and kept."""

    @cached_property
    def _G(self) -> np.ndarray:
        return gram(self.kernel, self.points)

    def matvec(self, v):
        return self._G @ v

    def cross(self, coef, t):
        return coef @ self.kernel.fn(self.points[:, None], t[None, :])


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


class SobolevMinOperator(KernelOperator):
    """``min(x, t) - x*t`` without forming G: O(n) per product after one sort.

    ``f = sum_j a_j K(x_j, .)`` is ``f(t) = P(t) + t * D(t)`` with
    ``P(t) = sum_{x_j <= t} x_j a_j`` and ``D(t) = sum_{x_j > t} a_j -
    sum_j x_j a_j``, where ``D`` is also ``f'`` between anchors.  Tied
    anchors need no special case: at a tie both branches of ``min`` agree.
    """

    def __init__(self, kernel, points):
        super().__init__(kernel, points)
        self._order = np.argsort(points, kind="stable")
        self._sorted = points[self._order]
        # segment of each anchor: the number of anchors <= it
        self._rank = np.empty(points.size, dtype=np.intp)
        self._rank[self._order] = np.searchsorted(self._sorted, self._sorted,
                                                  side="right")
        # lengths of the n + 1 segments between 0, sorted anchors and 1
        self._gaps = np.diff(np.concatenate(([0.0], self._sorted, [1.0])))

    def _reordered(self, index):
        """This operator's sort, reindexed for the anchors ``points[index]``
        (`index` a permutation): no second sort.  Exactly tied anchors keep
        this operator's order among themselves, where a sort of the
        reordered anchors would take theirs, so their sums may then differ
        in the last bits."""
        op = copy.copy(self)
        op.points = self.points[index]
        inverse = np.empty_like(index)
        inverse[index] = np.arange(index.size)
        op._order = inverse[self._order]
        op._rank = self._rank[index]
        return op

    def _sums(self, coef):
        return _bridge_sums(self._sorted, np.asarray(coef, dtype=float).take(
            self._order, axis=-1))

    def matvec(self, v):
        return _bridge_values(self._sums(v), self.points, self._rank)

    def cross(self, coef, t):
        seg = np.searchsorted(self._sorted, t, side="right")
        return _bridge_values(self._sums(coef), t, seg)

    def quad_form(self, a):
        """``int f'^2``: exact, and never negative."""
        _, slope = self._sums(a)
        return float(self._gaps @ slope ** 2)

    def solve_shifted(self, c, y) -> np.ndarray:
        """``(G + c_l I)^{-1} y`` for each shift ``c_l > 0`` of the 1-D array
        `c`, as the rows of a ``(len(c), n)`` array; O(n) per shift.

        This is the linear smoothing spline (Reinsch's algorithm; Wahba,
        *Spline Models for Observational Data*, 1990), solved in
        covariance form:

        - anchors at 0 or 1 have a zero Gram row: ``alpha_i = y_i / c``;
        - tied interior anchors share a Gram row and are merged into the
          distinct points ``u`` with multiplicities ``d``:
          ``(G_u + c/d) beta = ybar`` (group means of y), then
          ``alpha_i = beta_k / d_k + (y_i - ybar_k) / c``;
        - ``G_u = S (H - h h') S'``, with ``S`` the lower-triangular ones
          matrix, ``h`` the Brownian-bridge increments (gaps
          ``0 -> u_1, ..., u_{N-1} -> u_N``) and ``H = diag(h)``.  So
          ``beta = D' (A - h h')^{-1} D ybar``, where ``D`` is the first
          difference and ``A = H + D diag(c/d) D'`` is tridiagonal and
          strictly diagonally dominant.  No entry of ``A`` divides by a
          gap, which is why near-tied anchors lose no accuracy here while
          the tridiagonal inverse of ``G`` (entries ``1/h``) does.
        - ``A`` is solved by cyclic reduction and ``-h h'`` by
          Sherman-Morrison.  Its denominator ``1 - h' A^{-1} h`` equals
          ``(1 - u_N) + (c/d_N) (A^{-1} h)_N`` (from ``A 1 = h + (c/d_N)
          e_N``), a sum of positive terms, so it is formed without
          cancellation.
        """
        c = np.asarray(c, dtype=float)
        if c.ndim != 1 or not (np.isfinite(c).all() and (c > 0).all()):
            raise ValueError("shifts must be a 1-D array of finite "
                             "positive values")
        ys = np.asarray(y, dtype=float)
        if ys.shape != self.points.shape:
            raise ValueError(f"got {ys.size} outputs for "
                             f"{self.points.size} anchors")
        ys = ys[self._order]
        xs = self._sorted
        out = ys / c[:, None]                  # right for anchors at 0 or 1
        inner = np.flatnonzero((xs > 0) & (xs < 1))
        if inner.size:
            xi, yi = xs[inner], ys[inner]
            start = np.flatnonzero(np.r_[True, xi[1:] != xi[:-1]])
            d = np.diff(np.r_[start, xi.size])
            group = np.repeat(np.arange(start.size), d)
            ybar = np.add.reduceat(yi, start) / d
            gaps = np.diff(np.r_[0.0, xi[start], 1.0])
            h = gaps[:-1]
            # position along axis 0; shifts, then the two right-hand
            # sides D ybar and h, along the trailing axes
            w = c / d[:, None]                 # (N, L)
            diag = h[:, None] + w
            diag[1:] += w[:-1]
            rhs = np.stack([np.diff(np.r_[0.0, ybar]), h], axis=-1)
            z = _tridiagonal_solve(diag[..., None], -w[:-1, :, None],
                                   rhs[:, None, :])
            zb, zh = z[..., 0], z[..., 1]      # A^{-1} D ybar, A^{-1} h
            denom = gaps[-1] + w[-1] * zh[-1]
            # h' zb shift by shift, the same call as in a one-shift solve
            hz = np.concatenate([h @ zb[:, i:i + 1] for i in range(c.size)])
            v = zb + zh * (hz / denom)
            beta = v.copy()
            beta[:-1] -= v[1:]                 # D' v
            out[:, inner] = (beta / d[:, None])[group].T \
                + (yi - ybar[group]) / c[:, None]
        alpha = np.empty_like(out)
        alpha[:, self._order] = out
        return alpha


def _tridiagonal_solve(diag, off, rhs):
    """Solve symmetric tridiagonal systems by cyclic reduction.

    Position runs along axis 0: `diag` has N rows, `off` (the entries
    ``A[i, i+1]``) N - 1 and `rhs` N; the trailing axes broadcast and
    index independent systems.  Each level eliminates the even positions
    and halves the system, so the work is O(N) in O(log N) numpy passes.
    Stable without pivoting for diagonally dominant matrices (Heller,
    SIAM J. Numer. Anal. 13, 1976).
    """
    n = diag.shape[0]
    if n == 1:
        return rhs / diag
    if n % 2 == 0:                             # pad with a decoupled row
        x = _tridiagonal_solve(np.concatenate([diag, np.ones_like(diag[:1])]),
                               np.concatenate([off, np.zeros_like(off[:1])]),
                               np.concatenate([rhs, np.zeros_like(rhs[:1])]))
        return x[:n]
    even = diag[::2]
    lo, up = off[::2], off[1::2]               # A[2j+1, 2j], A[2j+1, 2j+2]
    left, right = lo / even[:-1], up / even[1:]
    odd = _tridiagonal_solve(diag[1::2] - left * lo - right * up,
                             -right[:-1] * lo[1:],
                             rhs[1::2] - left * rhs[:-1:2]
                             - right * rhs[2::2])
    x = np.empty(np.broadcast_shapes(rhs.shape, diag.shape))
    x[1::2] = odd
    x[::2] = rhs[::2] / even
    x[:-1:2] -= lo * odd / even[:-1]
    x[2::2] -= up * odd / even[1:]
    return x


def kernel_operator(kernel: Kernel, points) -> KernelOperator:
    """Gram operator of `kernel` at `points`: structured for the built-in
    kernel, dense otherwise.  Rejects empty, non-finite or out-of-domain
    anchors.  Only this and :func:`level_operator` tell the built-in kernel
    apart; the fits ask the operator what it can do."""
    pts = _check_domain(points).ravel()
    if pts.size == 0:
        raise ValueError("a kernel operator needs at least one anchor")
    if kernel.fn is _sobolev_min_fn:
        return SobolevMinOperator(kernel, pts)
    return DenseOperator(kernel, pts)


class BlockLayoutOperator:
    """The :class:`SobolevMinOperator` products of every block of one
    partition level at once, as one ``(m, s)`` array, ``s`` the largest
    block size.  Built by :func:`level_operator`.

    Row i holds block i's anchors sorted (stably, as the block operator
    sorts them), then anchors at 1 up to length ``s``.  Those pads have
    ``K(1, .) = 0``; products hold their coefficients at ``-0.0``, the
    additive identity, so every prefix sum of a row is the block
    operator's, bit for bit.  A vector of the level is an ``(..., m, s)``
    array in this layout: :meth:`layout` and :meth:`blocks` map between it
    and the blocks' values one after another, each block in its index
    order.
    """

    def __init__(self, kernel: Kernel, values: np.ndarray, sizes: np.ndarray):
        self.kernel = kernel
        m, s = sizes.size, int(sizes.max())
        row = np.repeat(np.arange(m), sizes)
        col = np.arange(values.size) - np.repeat(np.cumsum(sizes) - sizes,
                                                 sizes)
        unsorted = np.ones((m, s))
        unsorted[row, col] = values
        order = np.argsort(unsorted, axis=1, kind="stable")
        self.points = np.take_along_axis(unsorted, order, axis=1)
        self.sizes = sizes[:, None]
        inverse = np.empty_like(order)
        np.put_along_axis(inverse, order, np.arange(s)[None, :], axis=1)
        # position in the layout of each block value
        self._slot = row * s + inverse[row, col]
        # the stable sort keeps the pads last, after any anchor at 1
        self._pad = np.arange(s) >= self.sizes
        # segment of each anchor: the anchors <= it in its row, pads too
        end = np.ones((m, s), dtype=bool)
        end[:, :-1] = self.points[:, 1:] != self.points[:, :-1]
        ends = np.where(end, np.arange(1, s + 1), s)
        rank = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
        # segment r of row i is entry i (s + 1) + r of the flat row sums
        self._first = np.arange(m)[:, None] * (s + 1)
        self._at = self._first + rank

    @property
    def m(self) -> int:
        return len(self.points)

    def layout(self, values) -> np.ndarray:
        """``(..., n)`` block values, blocks one after another, as an
        ``(..., m, s)`` level vector with ``-0.0`` at the pads."""
        values = np.asarray(values, dtype=float)
        out = np.full(values.shape[:-1] + self.points.shape, -0.0)
        out.reshape(values.shape[:-1] + (-1,))[..., self._slot] = values
        return out

    def blocks(self, a) -> np.ndarray:
        """The block values of a level vector, blocks one after another:
        the inverse of :meth:`layout`."""
        a = np.asarray(a)
        return a.reshape(a.shape[:-2] + (-1,))[..., self._slot]

    def _sums(self, coef):
        """:func:`_bridge_sums` of each row with its pads masked, flat:
        segment r of row i is entry ``i (s + 1) + r``."""
        prefix, slope = _bridge_sums(self.points,
                                     np.where(self._pad, -0.0, coef))
        flat = prefix.shape[:-2] + (-1,)
        return prefix.reshape(flat), slope.reshape(flat)

    def matvec(self, v) -> np.ndarray:
        """Every block's ``G @ v``, for a level vector `v`."""
        return _bridge_values(self._sums(v), self.points, self._at)

    def _row_chunks(self, coef, ts):
        """Every block's expansion at the ascending points `ts`, a chunk of
        blocks at a time: ``(..., rows, len(ts))`` arrays, blocks in
        order, each of about `CROSS_CHUNK` values at most."""
        m, s = self.points.shape
        # row i's segment at ts[j] is its anchors with at most j points
        # below them: segment k over the ts[j] with g[k - 1] <= j < g[k]
        g = np.searchsorted(ts, self.points, side="left")
        runs = np.diff(g, axis=1, prepend=0, append=ts.size)
        at = self._first + np.arange(s + 1)
        sums = self._sums(coef)
        step = max(1, CROSS_CHUNK // max(ts.size, 1))
        for lo in range(0, m, step):
            rows = slice(lo, lo + step)
            seg = np.repeat(at[rows], runs[rows].ravel())
            yield _bridge_values(sums, ts,
                                 seg.reshape(len(at[rows]), ts.size))

    def mean_cross(self, coef, t) -> np.ndarray:
        """The mean of the blocks' expansions at the 1-D array of points
        `t`, ``(..., len(t))``: each block's values added one after
        another, in ascending block order, a chunk of blocks at a time."""
        t = np.asarray(t, dtype=float)
        order = np.argsort(t, kind="stable")
        total = None
        for rows in self._row_chunks(coef, t[order]):
            if total is not None:
                rows[..., 0, :] += total
            # accumulate adds row after row, as a loop over the rows does
            total = np.add.accumulate(rows, axis=-2)[..., -1, :]
        out = np.empty_like(total)
        out[..., order] = total
        return out / self.m


def level_operator(kernel: Kernel, x, blocks) -> BlockLayoutOperator | None:
    """The built-in kernel's Gram operators of the blocks ``x[ix]``, `ix`
    in `blocks`, as one :class:`BlockLayoutOperator`; ``None`` for a
    kernel with no block layout (any other).  Rejects what
    :func:`kernel_operator` rejects in any block."""
    if kernel.fn is not _sobolev_min_fn:
        return None
    sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
    if not sizes.all():
        raise ValueError("a kernel operator needs at least one anchor")
    values = np.asarray(x, dtype=float).ravel()[np.concatenate(blocks)]
    return BlockLayoutOperator(kernel, _check_domain(values), sizes)


def rkhs_norm_sq(expansion) -> float:
    """Squared RKHS norm ``alpha' G alpha`` of a kernel expansion.

    Accepts any object with ``coefficients`` and an ``operator`` on its
    anchors.  Tiny negative values from rounding are clamped to zero.
    """
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
    clamped; below -1e-10 (a kernel that is not PSD) raises."""
    sq = quad - 2.0 * float(alpha @ f_values) + f_norm_sq
    if sq < -1e-10:
        raise ArithmeticError(f"negative squared error {sq}")
    return max(sq, 0.0)
