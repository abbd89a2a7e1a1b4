"""References that tests check the package against and no package module
reads: the filter axioms on a grid, a level's blocks as expansions, and
the derivatives of the built-in targets."""

import math

import numpy as np

from splitkern.estimator import KernelExpansion
from splitkern.filters import filter_values
from splitkern.kernels import kernel_operator


def axiom_maxima(filt, lambda_grid, t_grid, q=None) -> dict:
    """``{name: (grid maximum, bound)}`` of the four defining bounds:
    ``|t g| <= Dprime``, ``|g| lam <= E``, ``|1 - t g| <= gamma0`` and
    ``|1 - t g| t^q / lam^q <= gamma_q`` at one ``q <= qualification``
    (default ``min(qualification, 1)``).  An iterative filter's lam is the
    effective one of its step count.  A NaN maximum fails its bound."""
    if q is None:
        q = min(filt.qualification, 1.0)
    if not 0 < q <= filt.qualification + 1e-12:
        raise ValueError(f"{filt.kind} has qualification "
                         f"{filt.qualification}, requested exponent {q}")
    if filt.kind == "landweber":
        gamma_q = 1.0 if q <= 1 else q ** q
    elif filt.kind == "nu-method":
        # calibrated bound, tight within a small factor on dense grids;
        # interpolated below the full qualification via |r| <= 1
        gamma_q = max(1.0, filt.nu ** (2.0 * filt.nu)) ** (q / filt.nu)
    else:
        gamma_q = 1.0
    lams = np.asarray(lambda_grid, dtype=float).ravel()
    ts = np.asarray(t_grid, dtype=float).ravel()
    lam_eff = (filt.step_lambda([filt.steps(lam) for lam in lams])
               if filt.iterative else lams)
    gv = filter_values(filt, lams, ts)          # a row per lambda
    rv = np.abs(1.0 - ts * gv)
    return {"t*g": (np.max(np.abs(ts * gv)), filt.Dprime),
            "g*lambda": (np.max(np.max(np.abs(gv), axis=1) * lam_eff),
                         filt.E),
            "residual": (np.max(rv), filt.gamma0),
            "qualification": (np.max(np.max(rv * ts ** q, axis=1)
                                     / lam_eff ** q), gamma_q)}


def block_fits(expansion) -> tuple:
    """Each block of a level's `expansion` on its own one-block operator."""
    op = expansion.operator
    return tuple(KernelExpansion(a, kernel_operator(op.kernel, p))
                 for a, p in zip(op._split(expansion.coefficients),
                                 op._split(op.points)))


# The derivative of each built-in target, by its name: the RKHS norm of
# the Sobolev kernel's space is ``int f'^2``.
DERIVATIVES = {
    "quadratic-bump": lambda x: 0.5 - x,
    "scaled-sine": lambda x: np.cos(2.0 * math.pi * x),
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
}
