"""Property tests of the block-layout operator and the level fit.

A partition level of the built-in kernel is fitted at once on one
``(m, s)`` array (``kernels.BlockLayoutOperator``).  Each block's
coefficients, products and values must equal those of its own
``SobolevMinOperator`` exactly: compared by ``tobytes()``, so signed
zeros count too.  Anchor sets are drawn as in
``test_operator_properties.py`` (ties, anchors at 0 and 1, near ties), and
partitions with any block count, shuffled or not.
"""

import numpy as np
import pytest

from splitkern import kernels
from splitkern.distributed import AveragedEstimator, fit_distributed, partition
from splitkern.estimator import fit_iterative
from splitkern.filters import landweber, nu_method
from splitkern.kernels import kernel_operator, level_operator, sobolev_min
from test_operator_properties import PROPERTY, anchor_sets, seeds

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

KERNEL = sobolev_min()
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
       st.sampled_from(FILTERS), st.integers(1, 12))
def test_level_fit_is_per_block_fit_iterative(level, seed, kind, filt, k):
    x, part = level
    y = _outputs(kind, seed, x.size)
    lam = _lambda(filt, k)
    est = fit_distributed(KERNEL, filt, lam, x, y, part)
    assert est.m == part.m
    for ix, block in zip(part.blocks, est.block_fits, strict=True):
        ref = fit_iterative(KERNEL, filt, lam, x[ix], y[ix])
        assert block.coefficients.tobytes() == ref.coefficients.tobytes()
        assert block.points.tobytes() == ref.points.tobytes()


@PROPERTY
@given(levels(), seeds, st.sampled_from(["normal", "zero", "minus-zero"]),
       st.sampled_from([1, 50, kernels.CROSS_CHUNK]))
def test_level_products_are_block_products(level, seed, kind, chunk):
    # matvec and the mean of the blocks' expansions, against each block's
    # own operator; the points include the anchors, 0 and 1, unsorted, and
    # are evaluated one block at a time, a few blocks at a time, or all at
    # once
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CROSS_CHUNK", chunk)
        _check_products(*level, seed, kind)


def _check_products(x, part, seed, kind):
    rng = np.random.default_rng(seed)
    op = level_operator(KERNEL, x, part.blocks)
    v = _outputs(kind, seed, x.size)[np.concatenate(part.blocks)]
    t = rng.permutation(np.concatenate([rng.random(17), x, [0.0, 1.0]]))
    blocks = [kernel_operator(KERNEL, x[ix]) for ix in part.blocks]
    split = np.cumsum([len(ix) for ix in part.blocks])[:-1]
    coefs = np.split(v, split)
    products = np.split(op.blocks(op.matvec(op.layout(v))), split)
    total = blocks[0].cross(coefs[0], t)
    for i, (block, a) in enumerate(zip(blocks, coefs)):
        assert products[i].tobytes() == block.matvec(a).tobytes()
        if i:
            total = total + block.cross(a, t)
    mean = op.mean_cross(op.layout(v), t)
    assert mean.tobytes() == (total / part.m).tobytes()


@PROPERTY
@given(levels(), seeds, st.sampled_from(FILTERS))
def test_level_estimator_is_the_block_average(level, seed, filt):
    # prediction, averaged weights and anchors of the level estimator equal
    # those of the average of per-block fits
    x, part = level
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(x.size)
    lam = _lambda(filt, 5)
    est = fit_distributed(KERNEL, filt, lam, x, y, part)
    ref = AveragedEstimator(fit_iterative(KERNEL, filt, lam, x[ix], y[ix])
                            for ix in part.blocks)
    t = np.concatenate([rng.random(9), x[:3], [0.0, 1.0]])
    assert est(t).tobytes() == ref(t).tobytes()
    assert est(t[0]) == ref(t[0])
    assert est.coefficients.tobytes() == ref.coefficients.tobytes()
    assert est.points.tobytes() == ref.points.tobytes()
