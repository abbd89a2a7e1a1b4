"""Property tests of the built-in kernel's structured operator.

Anchor sets are drawn with the cases the hand-picked tests in
``test_kernels.py`` single out: forced ties, anchors exactly at 0 and 1,
and pairs 1e-13 apart.  The solve is held to the bound those tests
state; products to the same 1e-12, of the scale they round at
(``_term_scale``).
"""

import numpy as np
import pytest

from splitkern.kernels import (gram, kernel_operator, level_operator,
                               sobolev_min)
from test_kernels import _exact_solve

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

KERNEL = sobolev_min()
# deterministic examples and no example database: tier-1 stays repeatable
PROPERTY = hypothesis.settings(max_examples=60, deadline=None,
                               derandomize=True, database=None)


@st.composite
def anchor_sets(draw, max_base=32):
    """Up to `max_base` floats in [0, 1], plus up to 3 ties, 3 points
    1e-13 above a drawn one and 2 anchors at 0 or 1, in a drawn order."""
    base = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=max_base))
    ties = draw(st.lists(st.sampled_from(base), max_size=3))
    near = [min(v + 1e-13, 1.0)
            for v in draw(st.lists(st.sampled_from(base), max_size=3))]
    ends = draw(st.lists(st.sampled_from([0.0, 1.0]), max_size=2))
    return np.array(draw(st.permutations(base + ties + near + ends)))


seeds = st.integers(0, 2 ** 32 - 1)


def _term_scale(x, t):
    """``min(x_i, t_j) + x_i t_j``: the size of the two terms whose
    difference is ``K(x_i, t_j)``.  Near 1 they cancel, and both the
    operator and ``gram`` round at this scale, not at |K|."""
    return np.minimum.outer(x, t) + np.outer(x, t)


@PROPERTY
@given(anchor_sets(), seeds)
@hypothesis.example(np.array([0.99999]), 0)
@hypothesis.example(np.array([0.99999]), 112)
@hypothesis.example(np.array([5e-324]), 4)
def test_products_match_gram(pts, seed):
    # to 1e-12 of the rounding scale of each result, taken over the
    # uncancelled terms (``_term_scale``); errors below the smallest normal
    # float are underflow.  The examples broke the |G| |a| scale of
    # test_kernels.py: their errors are 1.3e-12 and 6.9e-12 of it near 1,
    # and 5e-324 against a scale that underflows to 0
    rng = np.random.default_rng(seed)
    op = kernel_operator(KERNEL, pts)
    G = gram(KERNEL, pts)
    t = np.concatenate([rng.random(20), pts, [0.0, 1.0]])
    K = KERNEL.fn(pts[:, None], t[None, :])
    a = rng.standard_normal(pts.size)
    tiny = np.finfo(float).smallest_normal
    scale = np.max(_term_scale(pts, pts) @ np.abs(a))
    assert np.max(np.abs(op.matvec(a) - G @ a)) <= 1e-12 * scale + tiny
    scale = np.max(np.abs(a) @ _term_scale(pts, t))
    assert np.max(np.abs(op.cross(a, t) - a @ K)) <= 1e-12 * scale + tiny
    scale = float(np.abs(a) @ _term_scale(pts, pts) @ np.abs(a))
    assert abs(op.quad_form(a) - float(a @ G @ a)) <= 1e-12 * scale + tiny


@PROPERTY
@given(anchor_sets(max_base=4), seeds,
       st.sampled_from([1.0, 1e-2, 1e-4, 1e-6]))
def test_solve_shifted_matches_exact_solve(pts, seed, shift):
    # at most 12 anchors, to 1e-13 of the largest coefficient
    y = np.random.default_rng(seed).standard_normal(pts.size)
    c = shift * KERNEL.kappa ** 2 * pts.size
    got = kernel_operator(KERNEL, pts).solve_shifted(np.array([c]), y)[0]
    ref = _exact_solve(pts, c, y)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@PROPERTY
@given(anchor_sets(), seeds,
       st.lists(st.floats(1e-12, 10.0), min_size=1, max_size=8))
def test_lattice_rows_are_one_shift_solves(shift_chunks, pts, seed, shifts):
    # whatever the chunk of shifts solved at once
    y = np.random.default_rng(seed).standard_normal(pts.size)
    c = np.array(shifts)
    op = kernel_operator(KERNEL, pts)
    for chunk in shift_chunks(pts.size):
        with chunk:
            rows = op.solve_shifted(c, y)
            for i in range(c.size):
                one = op.solve_shifted(c[i:i + 1], y)[0]
                assert rows[i].tobytes() == one.tobytes()


def _stable_layout(pts, sizes):
    """``_sorted``, ``_slot`` and ``_source`` of a level laid out as
    documented, by one stable sort of every row: the anchors of block i,
    then pads at 1 up to the longest block."""
    m, s = sizes.size, int(sizes.max())
    real = np.arange(s) < sizes[:, None]
    unsorted = np.ones((m, s))
    unsorted[real] = pts
    order = np.argsort(unsorted, axis=1, kind="stable")
    order += np.arange(0, m * s, s)[:, None]
    inverse = np.empty(m * s, dtype=np.intp)
    inverse[order.ravel()] = np.arange(m * s)
    flat = np.zeros((m, s), dtype=np.intp)
    flat[real] = np.arange(pts.size)
    return (unsorted.ravel()[order], inverse.reshape(m, s)[real],
            flat.ravel()[order])


@st.composite
def block_layouts(draw):
    """Anchors (drawn, or all equal) and block sizes of any split of them
    into one or more blocks, so that the shorter blocks' rows get pads."""
    pts = draw(anchor_sets())
    if draw(st.booleans()):
        pts = np.full(pts.size, pts[0])
    cuts = draw(st.sets(st.integers(1, pts.size - 1), max_size=5)
                if pts.size > 1 else st.just(set()))
    return pts, np.diff([0, *sorted(cuts), pts.size])


_DISTINCT = np.random.default_rng(5).random(300)


@PROPERTY
@given(block_layouts())
@hypothesis.example((_DISTINCT, np.array([300])))
@hypothesis.example((_DISTINCT[:40], np.array([17, 3, 20])))
@hypothesis.example((np.array([0.5, 0.2, 0.9, 1.0, 0.0]), np.array([4, 1])))
@hypothesis.example((np.r_[_DISTINCT, 1.0, 0.4], np.array([300, 2])))
@hypothesis.example((np.array([0.4, 1.0, 0.4, 0.1, 0.3]), np.array([3, 2])))
@hypothesis.example((np.full(30, 0.25), np.array([13, 17])))
def test_sort_is_the_stable_sort(layout):
    # the default sort, redone stably only after a tie other than between
    # pads, lays every level out as one stable sort does: exact ties, rows
    # of one value, anchors at 0 and 1, and an anchor at 1 before pads
    pts, sizes = layout
    blocks = np.split(np.arange(pts.size), np.cumsum(sizes)[:-1])
    op = level_operator(KERNEL, pts, blocks)
    ref_sorted, ref_slot, ref_source = _stable_layout(pts, sizes)
    assert op._sorted.tobytes() == ref_sorted.tobytes()
    assert np.array_equal(op._slot, ref_slot)
    assert np.array_equal(op._source, ref_source)
