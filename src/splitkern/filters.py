"""Spectral regularization filters with qualification metadata.

Four built-in families: Tikhonov (`1/(lam + t)`), Landweber (truncated
Neumann series, i.e. gradient descent with unit step), the semi-iterative
nu-method, and hard spectral cut-off.  Each filter `g_lam` acts on the
spectrum of a normalized operator with eigenvalues in (0, 1] and carries
the constants of the defining axioms:

    sup |t g_lam(t)|          <= Dprime
    sup |g_lam(t)|            <= E / lam
    sup |1 - t g_lam(t)|      <= gamma0
    sup |1 - t g_lam(t)| t^q  <= gamma_q(q) * lam^q   for q <= qualification

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

    def effective_lambda(self, lam: float) -> float:
        """Parameter actually realized (equals `lam` for non-iterative)."""
        if self.iterative:
            return float(self.step_lambda(self.steps(lam)))
        return check_lambda(lam)

    def gamma_q(self, q: float) -> float:
        """Constant in the qualification bound for exponent `q`."""
        if q <= 0:
            raise ValueError("exponent must be positive")
        if q > self.qualification + 1e-12:
            raise ValueError(
                f"{self.kind} has qualification {self.qualification}, "
                f"requested exponent {q}")
        if self.kind == "landweber":
            return 1.0 if q <= 1 else q ** q
        if self.kind == "nu-method":
            # calibrated bound, tight within a small factor on dense grids;
            # interpolated below the full qualification via |r| <= 1
            base = max(1.0, self.nu ** (2.0 * self.nu))
            return base ** (q / self.nu)
        return 1.0


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
    if nu <= 0:
        raise ValueError("nu must be positive")
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
# Landweber at LAMBDA_MIN asks for, would never finish.
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


def g(filt: FilterSpec, lam: float, t):
    """Scalar filter value `g_lam(t)` for `t` in (0, 1]."""
    ts = np.asarray(t, dtype=float)
    if ts.size and ts.min() <= 0:
        raise ValueError("t must lie in (0, 1]")
    out = filter_values(filt, lam, ts)
    return float(out) if np.isscalar(t) else out


def residual(filt: FilterSpec, lam: float, t):
    """Residual `1 - t * g_lam(t)`, the damping left after filtering."""
    ts = np.asarray(t, dtype=float)
    return (1.0 - ts * g(filt, lam, t)) if not np.isscalar(t) \
        else float(1.0 - t * g(filt, lam, t))


@dataclass
class AxiomReport:
    """Grid maxima of the four filter axioms; `violations` names each one
    above the filter's documented bound."""

    max_tg: float
    max_g_scaled: float       # sup |g| * lam_eff
    max_residual: float
    max_qualification: float  # sup |r| t^q / lam_eff^q
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_axioms(filt: FilterSpec, lambda_grid, t_grid,
                  q: float | None = None) -> AxiomReport:
    """Check the four defining bounds of `filt` over a parameter grid.

    For iterative filters the bounds are checked against the effective
    parameter of the induced step count.  Returns a report; violations
    (beyond 1e-12) are listed, not raised.
    """
    lams = np.asarray(lambda_grid, dtype=float)
    ts = np.asarray(t_grid, dtype=float)
    if lams.size == 0 or ts.size == 0:
        raise ValueError("grids must be nonempty")
    if ts.min() <= 0 or ts.max() > 1:
        raise ValueError("t grid must lie in (0, 1]")
    if q is None:
        q = min(filt.qualification, 1.0)
    gq = filt.gamma_q(q)

    max_tg = max_gs = max_r = max_quali = 0.0
    for lam, gv in zip(lams, filter_values(filt, lams, ts)):
        lam_eff = filt.effective_lambda(lam)
        rv = 1.0 - ts * gv
        max_tg = max(max_tg, float(np.max(np.abs(ts * gv))))
        max_gs = max(max_gs, float(np.max(np.abs(gv))) * lam_eff)
        max_r = max(max_r, float(np.max(np.abs(rv))))
        max_quali = max(max_quali,
                        float(np.max(np.abs(rv) * ts ** q)) / lam_eff ** q)

    checks = [
        ("t*g", max_tg, filt.Dprime),
        ("g*lambda", max_gs, filt.E),
        ("residual", max_r, filt.gamma0),
        (f"qualification(q={q:g})", max_quali, gq),
    ]
    return AxiomReport(max_tg, max_gs, max_r, max_quali, [
        f"{label}: {value:.15g} exceeds bound {bound:g}"
        for label, value, bound in checks if value > bound + 1e-12])
