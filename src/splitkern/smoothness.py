"""Source-condition diagnostics for targets on [0, 1].

A target in the Sobolev RKHS (functions vanishing at 0 and 1, inner
product ``<f, g> = int f' g'``) is expanded against the orthonormal
basis ``e_j(x) = sqrt(2)/(pi j) * sin(pi j x)``.  The decay of the
coefficients determines the largest source exponent the target admits:
with ``|c_j| ~ j**-p`` the series ``sum j**(4r) c_j**2`` converges
exactly for ``r < (2p - 1)/4``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ENDPOINT_TOL = 1e-9
ZERO_COEFF_TOL = 1e-10


@dataclass(frozen=True)
class TargetFunction:
    """A regression target with whatever analytic structure is known."""

    name: str
    fn: Callable
    rkhs_norm_sq: float | None = None
    coefficient_rule: Callable | None = None  # j-array -> coefficients
    derivative: Callable | None = None

    def __call__(self, x):
        return self.fn(x)


def _bump_coeffs(j):
    j = np.asarray(j, dtype=float)
    odd = np.asarray(j, dtype=int) % 2 == 1
    return np.where(odd, 2.0 * math.sqrt(2.0) / (math.pi * j) ** 2, 0.0)


def quadratic_bump() -> TargetFunction:
    """``x (1 - x) / 2``: coefficients decay like ``j**-2`` (odd j only).

    Squared norm ``int (1 - 2x)^2 / 4 = 1/12``.
    """
    return TargetFunction(
        name="quadratic-bump",
        fn=lambda x: 0.5 * x * (1.0 - x),
        rkhs_norm_sq=1.0 / 12.0,
        coefficient_rule=_bump_coeffs,
        derivative=lambda x: 0.5 - x,
    )


def _sine_coeffs(j):
    j = np.asarray(j)
    return np.where(j == 2, 1.0 / math.sqrt(2.0), 0.0)


def scaled_sine() -> TargetFunction:
    """``sin(2 pi x)/(2 pi)``: a single basis mode.  Squared norm 1/2."""
    return TargetFunction(
        name="scaled-sine",
        fn=lambda x: np.sin(2.0 * math.pi * x) / (2.0 * math.pi),
        rkhs_norm_sq=0.5,
        coefficient_rule=_sine_coeffs,
        derivative=lambda x: np.cos(2.0 * math.pi * x),
    )


def zero_target() -> TargetFunction:
    return TargetFunction(name="zero", fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                          rkhs_norm_sq=0.0,
                          coefficient_rule=lambda j: np.zeros(np.shape(j)),
                          derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)))


_TARGETS = {
    "quadratic-bump": quadratic_bump,
    "bump": quadratic_bump,
    "low": quadratic_bump,
    "scaled-sine": scaled_sine,
    "sine": scaled_sine,
    "high": scaled_sine,
    "zero": zero_target,
}


def target_by_name(name: str) -> TargetFunction:
    key = name.strip().lower().replace("_", "-")
    if key not in _TARGETS:
        raise ValueError(f"unknown target {name!r}; "
                         f"choose from {sorted(set(_TARGETS))}")
    return _TARGETS[key]()


def fourier_coefficients(target: TargetFunction, J: int) -> np.ndarray:
    """Basis coefficients ``c_1 .. c_J`` of the target.

    Uses the analytic rule when the target carries one, otherwise
    Gauss-Legendre quadrature, on ``max(128, 4 J)`` nodes, of ``sqrt(2) pi
    j int f(x) sin(pi j x) dx`` (the integrated-by-parts form, so no
    derivative is needed).
    """
    if J < 1:
        raise ValueError("J must be positive")
    js = np.arange(1, J + 1)
    if target.coefficient_rule is not None:
        return np.asarray(target.coefficient_rule(js), dtype=float)
    f0, f1 = float(target(0.0)), float(target(1.0))
    if abs(f0) > ENDPOINT_TOL or abs(f1) > ENDPOINT_TOL:
        raise ValueError(
            f"target must vanish at both endpoints (f(0)={f0:g}, f(1)={f1:g})")
    xg, wg = np.polynomial.legendre.leggauss(int(max(128, 4 * J)))
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    fw = wg * np.asarray(target(xg), dtype=float)
    sines = np.sin(math.pi * js[:, None] * xg[None, :])
    return math.sqrt(2.0) * math.pi * js * (sines @ fw)


@dataclass
class SmoothnessReport:
    """Outcome of the coefficient-decay analysis."""

    r_max: float                     # math.inf when the support is finite
    decay_exponent: float | None     # fitted p in |c_j| ~ j**-p
    indices_used: np.ndarray
    fit_rms: float | None
    parseval_sum: float
    verdict: str
    notes: list = field(default_factory=list)


def max_smoothness(coefficients) -> SmoothnessReport:
    """Largest admissible source exponent from a coefficient sequence.

    Fits ``log |c_j| = const - p log j`` over the nonzero coefficients
    (which automatically skips parity gaps) and reports
    ``r_max = (2p - 1)/4``, the divergence boundary of
    ``sum j**(4r) c_j**2``.  A finitely supported sequence gets
    ``r_max = inf``.

    ``r_max`` is a least-squares estimate, not an exact value: for
    ``quadratic_bump`` it is 0.7499999999999997, so
    ``theory.alpha_bound`` there is 0.49999999999999994.  Compare
    thresholds derived from it with a little slack.
    """
    c = np.asarray(coefficients, dtype=float)
    J = c.size
    js = np.arange(1, J + 1)
    nz = np.abs(c) > ZERO_COEFF_TOL
    parseval = float(np.sum(c ** 2))

    count = int(nz.sum())
    last = int(js[nz][-1]) if count else 0
    if last <= J // 2:
        return SmoothnessReport(
            r_max=math.inf, decay_exponent=None,
            indices_used=js[nz], fit_rms=None, parseval_sum=parseval,
            verdict="r = inf",
            notes=[f"finite support: {count} nonzero coefficients, "
                   f"none beyond j={last}" if count
                   else "degenerate input: all coefficients zero"])
    if count < 8:
        raise ValueError("need at least 8 nonzero coefficients "
                         "(or a finitely supported sequence) for a decay fit")

    lj = np.log(js[nz].astype(float))
    lc = np.log(np.abs(c[nz]))
    slope, intercept = np.polyfit(lj, lc, 1)
    p = -float(slope)
    resid = lc - (slope * lj + intercept)
    r_max = (2.0 * p - 1.0) / 4.0
    return SmoothnessReport(
        r_max=r_max, decay_exponent=p,
        indices_used=js[nz], fit_rms=float(np.sqrt(np.mean(resid ** 2))),
        parseval_sum=parseval,
        verdict=f"source condition holds for r < {r_max:.4g}")


def tail_sum(coefficients, r: float) -> np.ndarray:
    """Partial sums of ``j**(4r) c_j**2``; bounded iff r is admissible."""
    c = np.asarray(coefficients, dtype=float)
    js = np.arange(1, c.size + 1, dtype=float)
    return np.cumsum(js ** (4.0 * r) * c ** 2)
