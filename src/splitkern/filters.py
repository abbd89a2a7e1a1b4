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

import math
from dataclasses import dataclass, field

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

    def effective_lambda(self, lam: float) -> float:
        """Parameter actually realized (equals `lam` for non-iterative)."""
        if self.kind == "landweber":
            return 1.0 / self.steps(lam)
        if self.kind == "nu-method":
            return float(self.steps(lam)) ** -2
        check_lambda(lam)
        return lam

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


def check_lambda(lam: float) -> float:
    """Return `lam` if it lies in ``[LAMBDA_MIN, 1]``, else raise."""
    if not (LAMBDA_MIN <= lam <= 1.0):
        raise ValueError(
            f"lambda must lie in [{LAMBDA_MIN:g}, 1], got {lam}")
    return lam


def _landweber_values(k: int, t: np.ndarray) -> np.ndarray:
    # (1 - (1-t)^k)/t evaluated via expm1/log1p; the naive form loses
    # ~1e-12 relative accuracy near t = 0
    out = np.full_like(t, float(k))
    pos = t > 0
    with np.errstate(divide="ignore"):
        lg = np.log1p(-t[pos])
    out[pos] = -np.expm1(k * lg) / t[pos]
    return out


def _nu_values(k: int, t: np.ndarray, nu: float) -> np.ndarray:
    u_prev = np.zeros_like(t)
    if k < 1:
        return u_prev
    u = np.full_like(t, (4 * nu + 2) / (4 * nu + 1))
    for j in range(2, k + 1):
        mu = ((j - 1) * (2 * j - 3) * (2 * j + 2 * nu - 1)
              / ((j + 2 * nu - 1) * (2 * j + 4 * nu - 1)
                 * (2 * j + 2 * nu - 3)))
        om = (4 * (2 * j + 2 * nu - 1) * (j + nu - 1)
              / ((j + 2 * nu - 1) * (2 * j + 4 * nu - 1)))
        u, u_prev = u + mu * (u - u_prev) + om * (1.0 - t * u), u
    return u


def filter_values(filt: FilterSpec, lam: float, t) -> np.ndarray:
    """Vectorized `g_lam` on `t` in [0, 1], continuously extended at 0.

    This is the single source of truth for every filter; the iterative
    fitting paths are required (and tested) to reproduce it.
    """
    check_lambda(lam)
    t = np.asarray(t, dtype=float)
    if t.size and (t.min() < 0 or t.max() > 1):
        raise ValueError("filter argument must lie in [0, 1]")
    if filt.kind == "tikhonov":
        return 1.0 / (lam + t)
    if filt.kind == "cutoff":
        return np.where(t >= lam, 1.0 / np.where(t > 0, t, 1.0), 0.0)
    if filt.kind == "landweber":
        return _landweber_values(filt.steps(lam), t)
    if filt.kind == "nu-method":
        return _nu_values(filt.steps(lam), t, filt.nu)
    raise ValueError(f"unknown filter kind {filt.kind!r}")


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
    """Grid maxima of the four filter axioms against documented bounds."""

    kind: str
    q: float
    max_tg: float
    max_g_scaled: float       # sup |g| * lam_eff
    max_residual: float
    max_qualification: float  # sup |r| t^q / lam_eff^q
    bound_tg: float
    bound_g_scaled: float
    bound_residual: float
    bound_qualification: float
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_axioms(filt: FilterSpec, lambda_grid, t_grid,
                  q: float | None = None, slack: float = 1e-12) -> AxiomReport:
    """Check the four defining bounds of `filt` over a parameter grid.

    For iterative filters the bounds are checked against the effective
    parameter of the induced step count.  Returns a report; violations
    (beyond `slack`) are listed, not raised.
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
    for lam in lams:
        check_lambda(lam)
        lam_eff = filt.effective_lambda(lam)
        gv = filter_values(filt, lam, ts)
        rv = 1.0 - ts * gv
        max_tg = max(max_tg, float(np.max(np.abs(ts * gv))))
        max_gs = max(max_gs, float(np.max(np.abs(gv))) * lam_eff)
        max_r = max(max_r, float(np.max(np.abs(rv))))
        max_quali = max(max_quali,
                        float(np.max(np.abs(rv) * ts ** q)) / lam_eff ** q)

    report = AxiomReport(
        kind=filt.kind, q=q,
        max_tg=max_tg, max_g_scaled=max_gs, max_residual=max_r,
        max_qualification=max_quali,
        bound_tg=filt.Dprime, bound_g_scaled=filt.E,
        bound_residual=filt.gamma0, bound_qualification=gq)
    checks = [
        ("t*g", max_tg, filt.Dprime),
        ("g*lambda", max_gs, filt.E),
        ("residual", max_r, filt.gamma0),
        (f"qualification(q={q:g})", max_quali, gq),
    ]
    for label, value, bound in checks:
        if value > bound + slack:
            report.violations.append(
                f"{label}: {value:.15g} exceeds bound {bound:g}")
    return report
