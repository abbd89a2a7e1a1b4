"""Property tests of the level operators and the level fit.

A partition level is fitted at once on one ``(m, s)`` level vector: the
built-in kernel's ``kernels.BlockLayoutOperator`` and, for the built-in
rule wrapped as a user kernel, ``kernels.DenseOperator``; a single block
is a level of one.  Each block's coefficients, products, values and
shifted solves on the level must equal those of its own level of one exactly:
compared by ``tobytes()``, so signed zeros count too.  Anchor sets are
drawn as in ``test_operator_properties.py`` (ties, anchors at 0 and 1, near
ties), and partitions with any block count, shuffled or not.
"""

import numpy as np
import pytest

from splitkern import kernels
from splitkern.adaptivity import fit_lattice
from splitkern.distributed import fit_distributed, partition
from splitkern.estimator import fit_iterative, fit_spectral
from splitkern.filters import landweber, nu_method, tikhonov
from splitkern.kernels import (gram, kernel_operator, level_operator,
                               sobolev_min, user_kernel)
from reference import block_fits
from test_operator_properties import PROPERTY, _term_scale, anchor_sets, seeds

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

KERNEL = sobolev_min()
# the built-in rule as a user kernel: its level is the dense operator's
KERNELS = [KERNEL, user_kernel(lambda x, t: np.minimum(x, t) - x * t, 0.5)]
FILTERS = [nu_method(), nu_method(2.5), landweber()]


@st.composite
def levels(draw):
    """Anchors, and a partition of them: any block count from 1 to n
    (n not divisible by m, and m = n, included), shuffled or not."""
    x = draw(anchor_sets())
    m = draw(st.integers(1, x.size))
    shuffle = draw(st.one_of(st.none(), seeds))
    return x, partition(x.size, m, shuffle)


def _outputs(kind, seed, n):
    """Standard normal outputs, or y = 0 with either sign of zero."""
    if kind == "normal":
        return np.random.default_rng(seed).standard_normal(n)
    return np.full(n, 0.0 if kind == "zero" else -0.0)


def _lambda(filt, k):
    return 1.0 / k if filt.kind == "landweber" else float(k) ** -2


@PROPERTY
@given(levels(), seeds, st.sampled_from(["normal", "zero", "minus-zero"]),
       st.sampled_from(FILTERS), st.integers(1, 12), st.sampled_from(KERNELS))
def test_level_fit_is_per_block_fit_iterative(level, seed, kind, filt, k,
                                              kernel):
    x, part = level
    y = _outputs(kind, seed, x.size)
    lam = _lambda(filt, k)
    est = fit_distributed(kernel, filt, lam, x, y, part)
    assert est.operator.m == part.m
    for ix, block in zip(part.blocks, block_fits(est), strict=True):
        ref = fit_iterative(kernel, filt, lam, x[ix], y[ix])
        assert block.coefficients.tobytes() == ref.coefficients.tobytes()
        assert block.points.tobytes() == ref.points.tobytes()


@PROPERTY
@given(levels(), seeds, st.sampled_from(["normal", "zero", "minus-zero"]),
       st.sampled_from([1, 50, kernels.CROSS_CHUNK]), st.sampled_from(KERNELS))
def test_level_products_are_block_products(level, seed, kind, chunk, kernel):
    # matvec and the mean of the blocks' expansions, against each block's
    # own operator; the points include the anchors, 0 and 1, unsorted, and
    # are evaluated one block at a time, a few blocks at a time, or all at
    # once (the block-layout operator's chunks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CROSS_CHUNK", chunk)
        _check_products(*level, seed, kind, kernel)


def _check_products(x, part, seed, kind, kernel=KERNEL):
    rng = np.random.default_rng(seed)
    op = level_operator(kernel, x, part.blocks)
    v = _outputs(kind, seed, x.size)[np.concatenate(part.blocks)]
    t = rng.permutation(np.concatenate([rng.random(17), x, [0.0, 1.0]]))
    blocks = [kernel_operator(kernel, x[ix]) for ix in part.blocks]
    split = np.cumsum([len(ix) for ix in part.blocks])[:-1]
    coefs = np.split(v, split)
    products = np.split(op.blocks(op.level_matvec(op.layout(v))), split)
    total = blocks[0].cross(coefs[0], t)
    for i, (block, a) in enumerate(zip(blocks, coefs)):
        assert products[i].tobytes() == block.matvec(a).tobytes()
        if i:
            total = total + block.cross(a, t)
    mean = op.cross(v, t) / part.m
    assert mean.tobytes() == (total / part.m).tobytes()


@pytest.mark.parametrize("shuffle", [None, 5], ids=["contiguous", "shuffled"])
@pytest.mark.parametrize("m", [1, 7, 64])
def test_heavily_tied_level_products(m, shuffle):
    # 2048 anchors on the grid 0, 0.01, ..., 1, both ends included: about
    # 20 ties per grid point, and ties within most blocks.  Each block's
    # products are its level of one's bit for bit, and all of them are
    # within test_products_match_gram's 1e-12 of the scale they round at
    rng = np.random.default_rng(m)
    x = rng.integers(0, 101, 2048) / 100
    x[:2] = 0.0, 1.0
    part = partition(x.size, m, shuffle)
    _check_products(x, part, m, "normal")
    op = level_operator(KERNEL, x, part.blocks)
    a = rng.standard_normal(x.size)
    t = np.concatenate([rng.random(20), np.arange(101) / 100])
    tiny = np.finfo(float).smallest_normal
    split = np.cumsum(op.sizes[:-1, 0])
    products = op.matvec(a), op.blocks(op.level_matvec(op.layout(a)))
    quad = quad_scale = 0.0
    for p, ai, *got in zip(np.split(op.points, split), np.split(a, split),
                           *(np.split(v, split) for v in products)):
        Ga = gram(KERNEL, p) @ ai
        scale = np.max(_term_scale(p, p) @ np.abs(ai))
        for g in got:
            assert np.max(np.abs(g - Ga)) <= 1e-12 * scale + tiny
        quad += float(ai @ Ga)
        quad_scale += float(np.abs(ai) @ _term_scale(p, p) @ np.abs(ai))
    assert abs(op.quad_form(a) - quad) <= 1e-12 * quad_scale + tiny
    K = KERNEL.fn(op.points[:, None], t[None, :])
    scale = np.max(np.abs(a) @ _term_scale(op.points, t))
    assert np.max(np.abs(op.cross(a, t) - a @ K)) <= 1e-12 * scale + tiny


@PROPERTY
@given(levels(), seeds, st.sampled_from(FILTERS), st.sampled_from(KERNELS))
def test_level_estimator_is_the_block_average(level, seed, filt, kernel):
    # the level's prediction, and its average's weights and anchors, equal
    # those of the per-block fits, added in block order and divided by m;
    # the level's own coefficients are the blocks' weights, concatenated
    x, part = level
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(x.size)
    lam = _lambda(filt, 5)
    est = fit_distributed(kernel, filt, lam, x, y, part)
    fits = [fit_iterative(kernel, filt, lam, x[ix], y[ix])
            for ix in part.blocks]
    t = np.concatenate([rng.random(9), x[:3], [0.0, 1.0]])
    for at in (t, t[0]):
        total = fits[0](at)
        for fit in fits[1:]:
            total = total + fit(at)
        assert np.asarray(est(at)).tobytes() == \
            np.asarray(total / part.m).tobytes()
    coefs = np.concatenate([f.coefficients for f in fits])
    assert est.coefficients.tobytes() == coefs.tobytes()
    avg = est.as_expansion()
    assert avg.coefficients.tobytes() == (coefs / part.m).tobytes()
    points = np.concatenate([f.points for f in fits])
    assert est.points.tobytes() == points.tobytes()
    assert avg.points.tobytes() == points.tobytes()


lattices = st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=4)


@PROPERTY
@given(levels(), seeds, st.sampled_from(["normal", "zero", "minus-zero"]),
       lattices)
def test_level_solve_is_per_block_solve(shift_chunks, level, seed, kind,
                                        lams):
    # one shifted solve of the whole level, with each block's own shifts
    # lam * kappa**2 * |block|, against each block's level of one, whatever
    # the chunk of shifts solved at once (the level and a block of it cut
    # their shifts into different chunks)
    x, part = level
    y = _outputs(kind, seed, x.size)
    op = level_operator(KERNEL, x, part.blocks)
    lams = np.array(lams)
    scale = KERNEL.kappa ** 2 * op.sizes
    split = np.cumsum(op.sizes[:-1, 0])
    for chunk in shift_chunks(x.size):
        with chunk:
            rows = op.solve_shifted(lams[:, None, None] * scale,
                                    y[np.concatenate(part.blocks)])
            for ix, got in zip(part.blocks, np.split(rows, split, axis=1),
                               strict=True):
                c = lams * (KERNEL.kappa ** 2 * ix.size)
                ref = kernel_operator(KERNEL, x[ix]).solve_shifted(c, y[ix])
                assert got.tobytes() == ref.tobytes()


@PROPERTY
@given(levels(), seeds, lattices)
def test_tikhonov_level_fits_are_fit_spectral(level, seed, lams):
    # fit_distributed at one lambda and fit_lattice at each lambda of a
    # lattice (contiguous blocks), block by block
    x, part = level
    y = np.random.default_rng(seed).standard_normal(x.size)
    est = fit_distributed(KERNEL, tikhonov(), lams[0], x, y, part)
    for ix, block in zip(part.blocks, block_fits(est), strict=True):
        ref = fit_spectral(KERNEL, tikhonov(), lams[0], x[ix], y[ix])
        assert block.coefficients.tobytes() == ref.coefficients.tobytes()
        assert block.points.tobytes() == ref.points.tobytes()
    fits = fit_lattice(KERNEL, tikhonov(), lams, x, y, part.m, 1)
    blocks = partition(x.size, part.m).blocks
    for lam, row in zip(lams, fits, strict=True):
        for ix, block in zip(blocks, block_fits(row), strict=True):
            ref = fit_spectral(KERNEL, tikhonov(), lam, x[ix], y[ix])
            assert block.coefficients.tobytes() == ref.coefficients.tobytes()


@pytest.mark.parametrize("m", [1, 2, 7, 64, 181, 1000])
def test_level_solve_makes_at_most_two_reductions(monkeypatch, m):
    # uniform anchors have no ties and none at 0 or 1, so every block's
    # count of distinct interior anchors is its size; sizes differ by at
    # most one, so the blocks form at most two systems of one size each
    depths, depth = [], [0]
    real = kernels._tridiagonal_solve

    def counted(*a):
        # the reduction recurses through the module name: count the calls
        # from outside it
        depths.append(depth[0])
        depth[0] += 1
        try:
            return real(*a)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(kernels, "_tridiagonal_solve", counted)
    rng = np.random.default_rng(m)
    x, y = rng.random(1000), rng.standard_normal(1000)
    fit_distributed(KERNEL, tikhonov(), 1e-4, x, y, partition(1000, m))
    assert 1 <= depths.count(0) <= 2
