"""Monte-Carlo harness: synthetic data, error metrics, oracle sweeps.

Sampling model: inputs uniform on [0, 1], outputs ``f(x) + eps`` with
Gaussian noise.  Errors are measured in the RKHS norm (reconstruction)
and in L2 (prediction).  The oracle selects, over a parameter grid, the
value minimizing the root-mean squared RKHS error across `runs`
independent repetitions on the full sample.

RNG discipline: one master seed; the stream of run `r` is spawned as
``SeedSequence(seed, spawn_key=(r,))``, so results never depend on the
worker count and any run can be regenerated in isolation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import theory
from ._parallel import parallel_map
from .distributed import AveragedEstimator, fit_distributed, partition
from .estimator import KernelExpansion, coefficient_solver
from .filters import FilterSpec, by_name as filter_by_name
from .kernels import Kernel, kernel_operator, rkhs_norm_sq, sobolev_min
from .smoothness import TargetFunction, target_by_name

RESULT_HEADER = "n,m,alpha,lambda,k,run,hk_error,l2_error,wall_ms"
SUMMARY_HEADER = "n,m,alpha,lambda,k,runs,hk_mean,hk_se,l2_mean,l2_se"


@dataclass
class ExperimentConfig:
    """One Monte-Carlo study; field names double as config-file keys."""

    target: str = "quadratic-bump"
    filter: str = "nu-method"
    nu: float = 1.0
    n: int = 1024
    alpha: float = 0.0
    m: int | None = None            # overrides alpha when set
    sigma: float = 0.005
    lam: str | float = "oracle"     # "oracle" | "theory" | explicit value
    runs: int = 30
    seed: int = 0
    workers: int | None = None
    shuffle: bool = False
    grid_min: float = 1e-6
    grid_size: int = 40
    k_max: int | None = None
    quad_nodes: int = 512
    timing: bool = False            # wall_ms is not reproducible; off by default
    # parameters of the theory rule for lam="theory"
    r: float = 0.5
    b: float = 2.0
    R: float = 1.0

    def resolved_m(self, n=None) -> int:
        n = self.n if n is None else n
        if self.m is not None:
            return int(self.m)
        return max(1, int(round(n ** self.alpha)))

    @staticmethod
    def from_mapping(mapping) -> "ExperimentConfig":
        cfg = ExperimentConfig()
        casts = {
            "target": str, "filter": str, "nu": float, "n": int,
            "alpha": float, "m": int, "sigma": float, "runs": int,
            "seed": int, "workers": int, "shuffle": _parse_bool,
            "grid_min": float, "grid_size": int, "k_max": int,
            "quad_nodes": int, "timing": _parse_bool,
            "r": float, "b": float,
        }
        for key, raw in mapping.items():
            k = key.strip()
            if k == "R":  # case matters: r is the source exponent
                cfg.R = float(raw)
                continue
            k = k.lower()
            if k in ("lambda", "lam"):
                cfg.lam = _parse_lambda(raw)
            elif k in casts:
                setattr(cfg, k, casts[k](raw))
            else:
                raise ValueError(f"unknown config key {key!r}")
        return cfg


def _parse_bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    s = str(raw).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_lambda(raw):
    if isinstance(raw, (int, float)):
        return float(raw)
    s = str(raw).strip().lower()
    if s in ("oracle", "theory"):
        return s
    return float(s)


def run_rng(seed: int, run: int) -> np.random.Generator:
    """Independent, reproducible random stream for one Monte-Carlo run."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(run,)))


def gen_data(target, n: int, sigma: float, seed):
    """Draw ``(x, y)`` with uniform inputs and Gaussian output noise.

    `seed` may be an integer or a Generator.  ``sigma = 0`` yields exact
    function values.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and nonnegative")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    x = rng.random(n)
    y = np.asarray(target(x), dtype=float) + sigma * rng.standard_normal(n)
    return x, y


# ---------------------------------------------------------------------------
# error metrics


def _as_expansion(est) -> KernelExpansion:
    if isinstance(est, AveragedEstimator):
        return est.as_expansion()
    return est


def _target_norm_sq(target) -> float:
    nrm = getattr(target, "rkhs_norm_sq", None)
    if nrm is None:
        raise ValueError("target must carry its squared RKHS norm")
    return float(nrm)


def hk_error(est, target) -> float:
    """RKHS-norm error ``||est - target||`` via the reproducing property.

    ``||f_hat - f||^2 = a' G a - 2 sum_j a_j f(x_j) + ||f||^2`` where `a`
    are the (averaged) expansion weights.
    """
    exp = _as_expansion(est)
    nrm = _target_norm_sq(target)
    alpha, pts = exp.coefficients, exp.points
    sq = rkhs_norm_sq(exp) \
        - 2.0 * float(alpha @ np.asarray(target(pts), dtype=float)) + nrm
    if sq < -1e-10:
        raise ArithmeticError(f"negative squared error {sq}")
    return math.sqrt(max(sq, 0.0))


@lru_cache(maxsize=None)
def _gl_nodes(quad_nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1], cached and read-only."""
    xg, wg = np.polynomial.legendre.leggauss(int(quad_nodes))
    nodes, weights = 0.5 * (xg + 1.0), 0.5 * wg
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def l2_error(est, target, quad_nodes: int = 512) -> float:
    """Gauss-Legendre L2([0,1]) distance between estimator and target."""
    if quad_nodes < 64:
        raise ValueError("quad_nodes must be at least 64")
    xg, wg = _gl_nodes(quad_nodes)
    diff = np.asarray(est(xg), dtype=float) - np.asarray(target(xg), dtype=float)
    return math.sqrt(max(float(np.sum(wg * diff ** 2)), 0.0))


# ---------------------------------------------------------------------------
# per-run error curves over a parameter grid


@dataclass
class ErrorCurves:
    """Squared RKHS and L2 errors of one run along the parameter grid."""

    lambdas: np.ndarray           # effective regularization per grid point
    steps: np.ndarray | None      # iteration counts (iterative filters)
    hk_sq: np.ndarray
    l2: np.ndarray


def _curves_iterative(kernel, filt, x, y, target, k_max, quad_nodes):
    n = x.size
    scale = 1.0 / (kernel.kappa ** 2 * n)
    b = scale * y
    fvec = np.asarray(target(x), dtype=float)
    nrm = _target_norm_sq(target)
    xg, wg = _gl_nodes(quad_nodes)
    op = kernel_operator(kernel, x)
    fg = np.asarray(target(xg), dtype=float)

    hk_sq = np.empty(k_max)
    l2 = np.empty(k_max)

    def record(k, alpha, Galpha):
        hk_sq[k - 1] = float(alpha @ Galpha) - 2.0 * float(alpha @ fvec) + nrm
        resid = op.cross(alpha, xg) - fg
        l2[k - 1] = math.sqrt(max(float(np.sum(wg * resid ** 2)), 0.0))

    if filt.kind == "landweber":
        alpha = b.copy()
        for k in range(1, k_max + 1):
            Galpha = op.matvec(alpha)
            record(k, alpha, Galpha)
            if k < k_max:
                alpha = alpha + b - scale * Galpha
        lam_eff = 1.0 / np.arange(1, k_max + 1, dtype=float)
    elif filt.kind == "nu-method":
        nu = filt.nu
        prev = np.zeros(n)
        alpha = (4 * nu + 2) / (4 * nu + 1) * b
        for k in range(1, k_max + 1):
            Galpha = op.matvec(alpha)
            record(k, alpha, Galpha)
            if k < k_max:
                j = k + 1
                mu = ((j - 1) * (2 * j - 3) * (2 * j + 2 * nu - 1)
                      / ((j + 2 * nu - 1) * (2 * j + 4 * nu - 1)
                         * (2 * j + 2 * nu - 3)))
                om = (4 * (2 * j + 2 * nu - 1) * (j + nu - 1)
                      / ((j + 2 * nu - 1) * (2 * j + 4 * nu - 1)))
                alpha, prev = (alpha + mu * (alpha - prev)
                               + om * (b - scale * Galpha)), alpha
        lam_eff = np.arange(1, k_max + 1, dtype=float) ** -2.0
    else:
        raise ValueError(f"{filt.kind} is not iterative")

    return ErrorCurves(lambdas=lam_eff,
                       steps=np.arange(1, k_max + 1),
                       hk_sq=np.maximum(hk_sq, 0.0), l2=l2)


def _curves_spectral(kernel, filt, x, y, target, lam_grid, quad_nodes):
    fvec = np.asarray(target(x), dtype=float)
    nrm = _target_norm_sq(target)
    xg, wg = _gl_nodes(quad_nodes)
    op = kernel_operator(kernel, x)
    fg = np.asarray(target(xg), dtype=float)

    hk_sq = np.empty(len(lam_grid))
    l2 = np.empty(len(lam_grid))
    alphas = coefficient_solver(kernel, filt, x)(lam_grid, y)
    for i, alpha in enumerate(alphas):
        hk_sq[i] = op.quad_form(alpha) - 2.0 * float(alpha @ fvec) + nrm
        resid = op.cross(alpha, xg) - fg
        l2[i] = math.sqrt(max(float(np.sum(wg * resid ** 2)), 0.0))
    return ErrorCurves(lambdas=np.asarray(lam_grid, dtype=float), steps=None,
                       hk_sq=np.maximum(hk_sq, 0.0), l2=l2)


def _resolve_pieces(cfg: ExperimentConfig):
    return (sobolev_min(), filter_by_name(cfg.filter, cfg.nu),
            target_by_name(cfg.target))


def _default_grid(cfg: ExperimentConfig, filt: FilterSpec):
    """Oracle grid: k = 1..k_max for iterative filters, else descending
    log-spaced lambdas (first grid entry = strongest regularization, so
    argmin tie-breaking errs toward more smoothing)."""
    if filt.iterative:
        k_max = cfg.k_max if cfg.k_max else filt.steps(cfg.grid_min)
        return np.arange(1, int(k_max) + 1)
    return np.logspace(0.0, math.log10(cfg.grid_min), cfg.grid_size)


@dataclass
class OracleSelection:
    """Outcome of a grid sweep for the error-minimizing parameter."""

    lam: float                   # effective parameter of the winner
    k: int | None                # its iteration count, when iterative
    index: int
    lambdas: np.ndarray
    steps: np.ndarray | None
    rms_curve: np.ndarray        # root-mean squared RKHS error per grid point
    hk_sq_runs: np.ndarray       # runs x grid
    l2_runs: np.ndarray
    runs: int


def oracle_select(cfg: ExperimentConfig, grid=None) -> OracleSelection:
    """Pick the grid parameter minimizing root-mean RKHS error at m = 1.

    Ties break toward stronger regularization (larger lambda / fewer
    steps).  The full per-run error curves are returned for reuse.
    """
    kernel, filt, target = _resolve_pieces(cfg)
    if grid is None:
        grid = _default_grid(cfg, filt)
    grid = np.asarray(grid)
    if grid.size == 0:
        raise ValueError("empty parameter grid")
    if filt.iterative:
        ks = np.unique(grid.astype(int))           # ascending: fewest steps first
        if ks[0] < 1:
            raise ValueError("step grid must be positive")
        k_top = int(ks[-1])
    else:
        grid = np.sort(grid.astype(float))[::-1]   # descending: largest lambda first

    def one_run(r: int) -> ErrorCurves:
        x, y = gen_data(target, cfg.n, cfg.sigma, run_rng(cfg.seed, r))
        if filt.iterative:
            return _curves_iterative(kernel, filt, x, y, target, k_top,
                                     cfg.quad_nodes)
        return _curves_spectral(kernel, filt, x, y, target, grid,
                                cfg.quad_nodes)

    curves = parallel_map(one_run, range(cfg.runs), cfg.workers)
    hk_sq = np.stack([c.hk_sq for c in curves])
    l2 = np.stack([c.l2 for c in curves])
    lam_eff = curves[0].lambdas
    steps = curves[0].steps
    if filt.iterative:                             # keep only requested steps
        cols = ks - 1
        hk_sq, l2 = hk_sq[:, cols], l2[:, cols]
        lam_eff, steps = lam_eff[cols], ks
    rms = np.sqrt(hk_sq.mean(axis=0))
    best = int(np.argmin(rms))
    return OracleSelection(
        lam=float(lam_eff[best]),
        k=int(steps[best]) if steps is not None else None,
        index=best, lambdas=lam_eff, steps=steps, rms_curve=rms,
        hk_sq_runs=hk_sq, l2_runs=l2, runs=cfg.runs)


# ---------------------------------------------------------------------------
# assessment runs


@dataclass(frozen=True)
class RunResult:
    n: int
    m: int
    alpha: float
    lam: float
    k: int | None
    run: int
    hk_error: float
    l2_error: float
    wall_ms: float | None


def resolve_lambda(cfg: ExperimentConfig) -> tuple[float, int | None]:
    """Turn the config's lambda policy into a concrete parameter."""
    kernel, filt, target = _resolve_pieces(cfg)
    if cfg.lam == "oracle":
        sel = oracle_select(cfg)
        return sel.lam, sel.k
    if cfg.lam == "theory":
        p = theory.TheoryParams(r=cfg.r, b=cfg.b, sigma=cfg.sigma,
                                R=cfg.R, n=cfg.n)
        lam = theory.lambda_choice(p)
    else:
        lam = float(cfg.lam)
    k = filt.steps(lam) if filt.iterative else None
    return lam, k


def _alpha_of(n: int, m: int) -> float:
    if m <= 1 or n <= 1:
        return 0.0
    return math.log(m) / math.log(n)


def _levels_for(n: int, alphas) -> list[tuple[float, int]]:
    """(alpha label, block count) pairs for the requested exponents."""
    return [(float(a), max(1, int(round(n ** a)))) for a in alphas]


def _assess_run(cfg, kernel, filt, target, lam, run, levels, n=None):
    """Fit (and score) one seeded run at every requested partition level.

    `levels` is a list of (alpha label, m) pairs; the same generated data
    underlies each, so comparisons across levels are paired.
    """
    n = cfg.n if n is None else n
    rng = run_rng(cfg.seed, run)
    x, y = gen_data(target, n, cfg.sigma, rng)
    method = "iterative" if filt.iterative else "spectral"
    k = filt.steps(lam) if filt.iterative else None
    results = []
    for a, m in levels:
        t0 = time.perf_counter()
        shuffle_seed = rng.spawn(1)[0] if cfg.shuffle else None
        part = partition(n, m, shuffle_seed)
        est = fit_distributed(kernel, filt, lam, x, y, part, method=method,
                              workers=1)
        hk = hk_error(est, target)
        l2 = l2_error(est, target, cfg.quad_nodes)
        wall = (time.perf_counter() - t0) * 1e3 if cfg.timing else None
        results.append(RunResult(
            n=n, m=m, alpha=a, lam=lam, k=k, run=run,
            hk_error=hk, l2_error=l2, wall_ms=wall))
    return results


def simulate(cfg: ExperimentConfig) -> list[RunResult]:
    """Monte-Carlo repetitions of one configuration."""
    kernel, filt, target = _resolve_pieces(cfg)
    lam, _ = resolve_lambda(cfg)
    m = cfg.resolved_m()
    levels = [(cfg.alpha if cfg.m is None else _alpha_of(cfg.n, m), m)]
    per_run = parallel_map(
        lambda r: _assess_run(cfg, kernel, filt, target, lam, r, levels),
        range(cfg.runs), cfg.workers)
    return [row for rows in per_run for row in rows]


@dataclass
class SweepResult:
    rows: list
    summary: list                  # GroupStat records
    lam: float
    k: int | None
    slopes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GroupStat:
    n: int
    m: int
    alpha: float
    lam: float
    k: int | None
    runs: int
    hk_mean: float
    hk_se: float
    l2_mean: float
    l2_se: float


def _group_stats(rows) -> list[GroupStat]:
    keys = sorted({(r.n, r.alpha, r.m) for r in rows})
    out = []
    for n, a, m in keys:
        sel = [r for r in rows if (r.n, r.alpha, r.m) == (n, a, m)]
        hk = np.array([r.hk_error for r in sel])
        l2 = np.array([r.l2_error for r in sel])
        se = (lambda v: float(v.std(ddof=1) / math.sqrt(v.size))
              if v.size > 1 else 0.0)
        out.append(GroupStat(
            n=n, m=m, alpha=a, lam=sel[0].lam, k=sel[0].k, runs=len(sel),
            hk_mean=float(hk.mean()), hk_se=se(hk),
            l2_mean=float(l2.mean()), l2_se=se(l2)))
    return out


def sweep_alpha(cfg: ExperimentConfig, alphas) -> SweepResult:
    """Errors of the averaged estimator across partition-growth exponents.

    The regularization parameter is resolved once from the full sample
    (m = 1) and shared by every alpha, as the averaging analysis
    prescribes.  Runs are paired: the same seeded data underlies every
    alpha column.
    """
    levels = _levels_for(cfg.n, alphas)
    kernel, filt, target = _resolve_pieces(cfg)
    lam, k = resolve_lambda(cfg)
    per_run = parallel_map(
        lambda r: _assess_run(cfg, kernel, filt, target, lam, r, levels),
        range(cfg.runs), cfg.workers)
    rows = [row for rows_ in per_run for row in rows_]
    return SweepResult(rows=rows, summary=_group_stats(rows), lam=lam, k=k)


def sweep_n(cfg: ExperimentConfig, ns, alphas=(0.0,)) -> SweepResult:
    """Errors across sample sizes at fixed alphas, with log-log slopes.

    The parameter is re-resolved per sample size (fresh oracle at each
    n).  The slope of mean RKHS error against n is fitted per alpha.
    """
    ns = [int(n) for n in ns]
    alphas = [float(a) for a in alphas]
    kernel, filt, target = _resolve_pieces(cfg)
    rows = []
    lam_last, k_last = None, None
    for n in ns:
        cfg_n = replace(cfg, n=n)
        lam, k = resolve_lambda(cfg_n)
        lam_last, k_last = lam, k
        levels = _levels_for(n, alphas)
        per_run = parallel_map(
            lambda r: _assess_run(cfg_n, kernel, filt, target, lam, r,
                                  levels, n=n),
            range(cfg.runs), cfg.workers)
        rows.extend(row for rows_ in per_run for row in rows_)
    summary = _group_stats(rows)
    slopes = {}
    for a in alphas:
        pts = [(g.n, g.hk_mean) for g in summary if g.alpha == a]
        if len(pts) >= 2 and all(v > 0 for _, v in pts):
            ln = np.log([p[0] for p in pts])
            lv = np.log([p[1] for p in pts])
            slopes[a] = float(np.polyfit(ln, lv, 1)[0])
    return SweepResult(rows=rows, summary=_group_stats(rows),
                       lam=lam_last, k=k_last, slopes=slopes)


# ---------------------------------------------------------------------------
# CSV output (byte-reproducible: shortest round-trip float formatting)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def results_csv(rows) -> str:
    lines = [RESULT_HEADER]
    for r in rows:
        lines.append(",".join([
            _fmt(r.n), _fmt(r.m), _fmt(r.alpha), _fmt(r.lam), _fmt(r.k),
            _fmt(r.run), _fmt(r.hk_error), _fmt(r.l2_error), _fmt(r.wall_ms),
        ]))
    return "\n".join(lines) + "\n"


def summary_csv(summary, slopes=None) -> str:
    lines = [SUMMARY_HEADER]
    for g in summary:
        lines.append(",".join([
            _fmt(g.n), _fmt(g.m), _fmt(g.alpha), _fmt(g.lam), _fmt(g.k),
            _fmt(g.runs), _fmt(g.hk_mean), _fmt(g.hk_se),
            _fmt(g.l2_mean), _fmt(g.l2_se),
        ]))
    for a, s in sorted((slopes or {}).items()):
        lines.append(f"# hk_loglog_slope alpha={_fmt(a)}: {_fmt(s)}")
    return "\n".join(lines) + "\n"
