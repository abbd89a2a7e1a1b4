"""Closed-form rate and parameter formulas, plus their empirical checks.

The problem class is parametrized by a source-condition exponent `r`
(smoothness of the target relative to the kernel), an eigenvalue decay
exponent `b > 1` with scale `beta` (``mu_j <= beta / j**b``), a norm
interpolation index `s` in [0, 1/2] (0 = reconstruction norm, 1/2 =
prediction norm), noise level `sigma` and source radius `R`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SOBOLEV_DECAY_SCALE = 4.0 / math.pi ** 2  # eigenvalues 4/(pi j)^2 of the
                                          # normalized Sobolev-kernel operator


@dataclass(frozen=True)
class TheoryParams:
    r: float
    b: float
    s: float = 0.0
    sigma: float = 1.0
    R: float = 1.0
    n: int = 1

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("r must be positive")
        if self.b <= 1:
            raise ValueError("b must exceed 1")
        if self.sigma <= 0 or self.R <= 0:
            raise ValueError("scales must be positive")
        if not 0.0 <= self.s <= 0.5:
            raise ValueError("s must lie in [0, 1/2]")
        if self.n < 1:
            raise ValueError("n must be positive")


def lambda_choice(p: TheoryParams) -> float:
    """A-priori regularization parameter from the global sample size."""
    base = p.sigma ** 2 / (p.R ** 2 * p.n)
    return min(base ** (p.b / (2 * p.b * p.r + p.b + 1)), 1.0)


def rate(p: TheoryParams) -> float:
    """Error rate in the `s`-interpolation norm at the choice above."""
    base = p.sigma ** 2 / (p.R ** 2 * p.n)
    return p.R * base ** (p.b * (p.r + p.s) / (2 * p.b * p.r + p.b + 1))


def alpha_bound(p: TheoryParams, which: str = "combined") -> float:
    """Largest partition-growth exponent compatible with the full rate.

    `which` selects the condition: "combined" (the headline bound),
    "approximation" (bias part only) or "sample" (variance part only).
    """
    denom = 2 * p.b * p.r + p.b + 1
    if which == "combined":
        return min(2 * p.b * p.r, p.b + 1) / denom
    if which == "approximation":
        return 2 * p.b * min(p.r, 1.0) / denom
    if which == "sample":
        return 2 * p.b * p.r / denom
    raise ValueError(f"unknown bound variant {which!r}")


def _power_tail(a: float, b: float, lam: float, X: float) -> float:
    # integral over [X, inf) of (a x^-b) / (a x^-b + lam), via the
    # alternating series in a*X^-b/lam (valid well below 1)
    z = a / lam
    ratio = z * X ** -b
    if ratio >= 0.5:
        raise ValueError("truncation too early for the tail series")
    total = 0.0
    sign = 1.0
    for i in range(1, 60):
        term = sign * z ** i * X ** (1.0 - i * b) / (i * b - 1.0)
        total += term
        if abs(term) <= 1e-18:
            break
        sign = -sign
    return total


def effective_dimension(eigenvalues, lam: float) -> float:
    """``N(lam) = sum_j mu_j / (mu_j + lam)`` over the positive values of
    an (empirical) eigenvalue sequence, summed in descending order."""
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    mu = np.asarray(eigenvalues, dtype=float)
    mu = np.sort(mu[mu > 0.0])[::-1]
    return float(np.sum(mu / (mu + lam)))


def power_effective_dimension(scale: float, b: float, lam: float) -> float:
    """``N(lam)`` of the power-decay spectrum ``mu_j = scale * j**-b``.

    Summed up to a truncation chosen so the midpoint tail-integral
    correction is accurate to 1e-8; the correction is added to the
    partial sum.
    """
    if scale <= 0 or b <= 1:
        raise ValueError("need scale > 0 and b > 1")
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    J = max(
        2048,
        int(math.ceil((b * scale / (24.0 * lam * 1e-8))
                      ** (1.0 / (b + 1.0)))),
        4 * int(math.ceil((scale / lam) ** (1.0 / b))),
    )
    j = np.arange(1, J + 1, dtype=float)
    mu = scale * j ** -b
    head = float(np.sum(mu / (mu + lam)))
    return head + _power_tail(scale, b, lam, J + 0.5)


def effective_dimension_bracket(b: float, beta: float, kappa: float,
                                lam: float) -> tuple[float, float]:
    """Lower/upper envelope ``(1/2, beta*b/(b-1) * (kappa^2 lam)^(-1/b))``."""
    if b <= 1:
        raise ValueError("b must exceed 1")
    return 0.5, beta * b / (b - 1.0) * (kappa ** 2 * lam) ** (-1.0 / b)


def b_quantity(n_block: float, lam: float, n_lambda: float) -> float:
    """Stability factor ``1 + (2/(n lam) + sqrt(N(lam)/(n lam)))**2``."""
    if n_block <= 0 or lam <= 0 or n_lambda < 0:
        raise ValueError("inputs must be positive")
    nl = n_block * lam
    return 1.0 + (2.0 / nl + math.sqrt(n_lambda / nl)) ** 2

