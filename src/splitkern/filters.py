"""Spectral regularization filters with qualification metadata.

Four built-in families: Tikhonov (`1/(lam + t)`), Landweber (truncated
Neumann series, i.e. gradient descent with unit step), the semi-iterative
nu-method, and hard spectral cut-off.  Each filter `g_lam` acts on the
spectrum of a normalized operator with eigenvalues in (0, 1] and carries
the constants of the defining axioms:

    sup |t g_lam(t)|          <= Dprime
    sup |g_lam(t)|            <= E / lam
    sup |1 - t g_lam(t)|      <= gamma0
    sup |1 - t g_lam(t)| t^q  <= gamma_q * lam^q   for q <= qualification

No fit reads the bounds; the tests check all four for every family on a
grid of lambda and t, and hold the table of gamma_q.

Iterative families are indexed by an integer step count rather than a
continuous parameter: a requested `lam` maps to `k = ceil(1/lam)` steps
for Landweber and `k = ceil(lam**-0.5)` for the nu-method, and the axiom
bounds hold with respect to the effective parameter (`1/k`, `k**-2`) of
the step actually taken.  `ceil` errs toward less smoothing, so the
effective parameter never exceeds the request.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

ITERATIVE_KINDS = ("landweber", "nu-method")


def _steps_from(value: float) -> int:
    # guard against 1/lam landing epsilon above an integer
    return max(1, int(math.ceil(value * (1.0 - 1e-12))))


@dataclass(frozen=True)
class FilterSpec:
    """One regularization family and its documented constants."""

    kind: str
    nu: float = 1.0
    Dprime: float = 1.0
    E: float = 1.0
    gamma0: float = 1.0
    qualification: float = 1.0

    @property
    def iterative(self) -> bool:
        return self.kind in ITERATIVE_KINDS

    def steps(self, lam: float) -> int:
        """Iteration count induced by a requested parameter."""
        check_lambda(lam)
        if self.kind == "landweber":
            return _steps_from(1.0 / lam)
        if self.kind == "nu-method":
            return _steps_from(lam ** -0.5)
        raise ValueError(f"{self.kind} has no iteration count")

    def step_lambda(self, k):
        """Effective parameter of `k` steps, or of an array of counts."""
        if not self.iterative:
            raise ValueError(f"{self.kind} has no iteration count")
        kf = np.asarray(k, dtype=float)
        return 1.0 / kf if self.kind == "landweber" else kf ** -2.0


def tikhonov() -> FilterSpec:
    return FilterSpec(kind="tikhonov", Dprime=1.0, E=1.0, gamma0=1.0,
                      qualification=1.0)


def landweber() -> FilterSpec:
    return FilterSpec(kind="landweber", Dprime=1.0, E=1.0, gamma0=1.0,
                      qualification=math.inf)


def nu_method(nu: float = 1.0) -> FilterSpec:
    """Semi-iterative accelerated family of order `nu` (default 1).

    First polynomial is `g_1 = (4 nu + 2)/(4 nu + 1)`, which also equals
    the supremum of |t g_k(t)| over all steps.
    """
    if not 0 < nu < math.inf:
        raise ValueError(f"nu must be finite and positive, got {nu}")
    return FilterSpec(kind="nu-method", nu=float(nu),
                      Dprime=(4 * nu + 2) / (4 * nu + 1), E=2.0,
                      gamma0=1.0, qualification=float(nu))


def spectral_cutoff() -> FilterSpec:
    return FilterSpec(kind="cutoff", Dprime=1.0, E=1.0, gamma0=1.0,
                      qualification=math.inf)


_BY_NAME = {
    "tikhonov": tikhonov,
    "ridge": tikhonov,
    "landweber": landweber,
    "nu-method": nu_method,
    "nu": nu_method,
    "cutoff": spectral_cutoff,
    "spectral-cutoff": spectral_cutoff,
}


def by_name(name: str, nu: float = 1.0) -> FilterSpec:
    """Look up a built-in filter by its CLI/config name."""
    key = name.strip().lower().replace("_", "-")
    if key not in _BY_NAME:
        raise ValueError(f"unknown filter {name!r}; "
                         f"choose from {sorted(set(_BY_NAME))}")
    ctor = _BY_NAME[key]
    return ctor(nu) if ctor is nu_method else ctor()


# Smallest accepted lambda.  Spectrum entries below 1e-14 are rounding
# noise (``estimator.EIGENVALUE_FLOOR``), so a smaller lambda regularizes
# nothing a fit can resolve; and coefficients grow like 1/lambda (a
# Tikhonov fit of the built-in kernel divides by lam * kappa**2 * n, which
# underflows to 0 for subnormal lambda), so the floor keeps every accepted
# lambda's coefficients finite.
LAMBDA_MIN = 1e-14


# Most steps an iterative fit runs: the Landweber count at the default
# oracle grid floor, 1e-6.  The closed forms (`FilterSpec.steps`,
# `filter_values`) take any count; an iteration of 1e14 steps, which
# Landweber at LAMBDA_MIN asks for, would never finish.  Also the most
# points of an oracle lambda grid and of an `adapt` lattice.
MAX_STEPS = 10 ** 6


def check_lambda(lam: float) -> float:
    """Return `lam` if it lies in ``[LAMBDA_MIN, 1]``, else raise."""
    if not (LAMBDA_MIN <= lam <= 1.0):
        raise ValueError(
            f"lambda must lie in [{LAMBDA_MIN:g}, 1], got {lam}")
    return lam


def check_steps(k: int) -> int:
    """Return the step count `k` if it lies in ``[1, MAX_STEPS]``, else
    raise: before any step is taken or any per-step array allocated."""
    if not 1 <= k <= MAX_STEPS:
        raise ValueError(f"{k} iterative steps requested; an iterative "
                         f"fit runs 1 to {MAX_STEPS} steps")
    return k


def _landweber_values(k: int, t: np.ndarray) -> np.ndarray:
    # (1 - (1-t)^k)/t evaluated via expm1/log1p; the naive form loses
    # ~1e-12 relative accuracy near t = 0
    out = np.full_like(t, float(k))
    pos = t > 0
    with np.errstate(divide="ignore"):
        lg = np.log1p(-t[pos])
    out[pos] = -np.expm1(k * lg) / t[pos]
    return out


def iterate(filt: FilterSpec, b, apply):
    """Yield ``alpha_k = g_k(A) b`` for k = 1, 2, ... of an iterative
    filter, where ``apply(v) = A v`` and A has its spectrum in [0, 1].

    Landweber steps ``alpha + (b - A alpha)`` from ``alpha_1 = b``; the
    nu-method runs Brakhage's three-term recurrence (Engl, Hanke &
    Neubauer, *Regularization of Inverse Problems*, 1996, ch. 6).  Each
    step after the first calls `apply` once, on the iterate it advances
    from, and every iterate is a new array.  This is the one place the
    iterations are written: filter values (``A = diag(t)``, ``b = 1``),
    coefficient-space fits and the oracle's error curves all step here.
    """
    if filt.kind == "landweber":
        alpha = b.copy()
        while True:
            yield alpha
            alpha = alpha + (b - apply(alpha))
    if filt.kind != "nu-method":
        raise ValueError(f"{filt.kind} has no iterative form")
    nu = filt.nu
    prev = np.zeros_like(b)
    alpha = (4 * nu + 2) / (4 * nu + 1) * b
    for j in itertools.count(2):
        yield alpha
        mu = ((j - 1) * (2 * j - 3) * (2 * j + 2 * nu - 1)
              / ((j + 2 * nu - 1) * (2 * j + 4 * nu - 1)
                 * (2 * j + 2 * nu - 3)))
        om = (4 * (2 * j + 2 * nu - 1) * (j + nu - 1)
              / ((j + 2 * nu - 1) * (2 * j + 4 * nu - 1)))
        alpha, prev = (alpha + mu * (alpha - prev)
                       + om * (b - apply(alpha))), alpha


def filter_values(filt: FilterSpec, lam, t) -> np.ndarray:
    """Vectorized `g_lam` on `t` in [0, 1], continuously extended at 0.

    An array `lam` gives one row per value (shape ``lam.shape +
    t.shape``), each equal to the call with that value alone; the
    nu-method fills every row from one pass of its recurrence to the
    largest step count.  This is the single source of truth for every
    filter; the iterative fitting paths are required (and tested) to
    reproduce it.
    """
    lams = np.asarray(lam, dtype=float)
    for v in lams.flat:
        check_lambda(v)
    t = np.asarray(t, dtype=float)
    if t.size and (t.min() < 0 or t.max() > 1):
        raise ValueError("filter argument must lie in [0, 1]")
    col = lams.reshape(lams.shape + (1,) * t.ndim)
    if filt.kind == "tikhonov":
        return 1.0 / (col + t)
    if filt.kind == "cutoff":
        return np.where(t >= col, 1.0 / np.where(t > 0, t, 1.0), 0.0)
    if not filt.iterative:
        raise ValueError(f"unknown filter kind {filt.kind!r}")
    ks = [filt.steps(v) for v in lams.flat]
    if filt.kind == "landweber":
        rows = [_landweber_values(k, t) for k in ks]
    else:
        kept = dict.fromkeys(ks)
        steps = iterate(filt, np.ones_like(t), lambda u: t * u)
        for k, u in enumerate(itertools.islice(steps, max(ks, default=0)),
                              start=1):
            if k in kept:
                kept[k] = u
        rows = [kept[k] for k in ks]
    return np.array(rows).reshape(lams.shape + t.shape)
