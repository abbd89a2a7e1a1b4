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
from dataclasses import astuple, dataclass, replace
from functools import lru_cache
from itertools import count, islice

import numpy as np

from . import theory
from ._parallel import _pool_workers, parallel_map
from ._quadrature import gauss_legendre
from .distributed import (_check_block_count, _target_norm_sq,
                          fit_distributed, partition)
from .estimator import KernelExpansion, _solve_level
from .filters import LAMBDA_MIN, MAX_STEPS, FilterSpec, check_steps, iterate
from .filters import by_name as filter_by_name
from .kernels import kernel_operator, rkhs_error_sq, rkhs_norm_sq, sobolev_min
from .smoothness import target_by_name

RESULT_HEADER = "n,m,alpha,lambda,k,run,hk_error,l2_error,wall_ms"
SUMMARY_HEADER = "n,m,alpha,lambda,k,runs,hk_mean,hk_se,l2_mean,l2_se"


@dataclass
class ExperimentConfig:
    """One Monte-Carlo study; its fields are the `SETTINGS` keys, with
    `lam` as "lambda"."""

    target: str = "quadratic-bump"
    filter: str = "nu-method"
    nu: float = 1.0
    n: int = 1024
    alpha: float = 0.0
    sigma: float = 0.005
    lam: str | float = "oracle"     # "oracle" | "theory" | explicit value
    runs: int = 30
    seed: int = 0
    workers: int | None = None
    grid_min: float = 1e-6
    grid_size: int = 40
    k_max: int | None = None
    quad_nodes: int = 512
    timing: bool = False            # wall_ms is not reproducible; off by default
    # parameters of the theory rule for lam="theory"
    r: float = 0.5
    b: float = 2.0
    R: float = 1.0

    @staticmethod
    def from_mapping(mapping) -> "ExperimentConfig":
        cfg = ExperimentConfig()
        for key, raw in mapping.items():
            k = key.strip()
            if k != "R":  # case matters: r is the source exponent
                k = k.lower()
            k = "lambda" if k == "lam" else k
            if k not in SETTINGS:
                raise ValueError(f"unknown config key {key!r}")
            try:
                value = SETTINGS[k][0](raw)
            except ValueError as exc:
                raise ValueError(f"bad value for {k}: {exc}") from None
            setattr(cfg, "lam" if k == "lambda" else k, value)
        return cfg


def _parse_bool(raw) -> bool:
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


# The one list of experiment settings: config-file keys and, with "_" as
# "-", the flags of every experiment subcommand.  key -> (cast, help)
SETTINGS = {
    "target": (str, "target function name"),
    "filter": (str, "filter name (tikhonov|landweber|nu-method|cutoff)"),
    "nu": (float, "order of the nu-method"),
    "n": (int, "sample size"),
    "alpha": (float, "partition-growth exponent (m = round(n**alpha))"),
    "sigma": (float, "noise standard deviation"),
    "lambda": (_parse_lambda, "'oracle', 'theory', or an explicit value"),
    "runs": (int, "Monte-Carlo repetitions"),
    "seed": (int, "master seed"),
    "workers": (int, "most threads for the Monte-Carlo runs (default: the "
                     "usable CPUs); small runs go on one"),
    "grid_min": (float, "smallest lambda of the oracle grid"),
    "grid_size": (int, "points in the oracle lambda grid"),
    "k_max": (int, "largest step count swept for iterative filters"),
    "quad_nodes": (int, "Gauss-Legendre nodes for the L2 error"),
    "timing": (_parse_bool, "record wall_ms (not byte-reproducible)"),
    "r": (float, "source exponent for the theory rule"),
    "b": (float, "eigenvalue decay exponent for the theory rule"),
    "R": (float, "source radius for the theory rule"),
}


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
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    y = np.asarray(target(x), dtype=float) + sigma * rng.standard_normal(n)
    return x, y


# ---------------------------------------------------------------------------
# error metrics


def hk_error(est, target) -> float:
    """RKHS-norm error ``||est - target||`` of an expansion (a level's
    average), by :func:`kernels.rkhs_error_sq` on its averaged weights."""
    exp = est.as_expansion()
    return math.sqrt(rkhs_error_sq(
        rkhs_norm_sq(exp), exp.coefficients,
        np.asarray(target(exp.points), dtype=float), _target_norm_sq(target)))


# Most Gauss-Legendre nodes an L2 error takes.  ``gauss_legendre`` runs the
# N-step Legendre recurrence three times over N/2 nodes: 4096 nodes take
# 60-90 ms and 0.2 MiB (one core, x86-64), and the time grows like N**2.
QUAD_NODES_MAX = 4096


@lru_cache(maxsize=None)
def _gl_nodes(quad_nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1], cached and read-only."""
    if not 64 <= quad_nodes <= QUAD_NODES_MAX:
        raise ValueError(f"quad_nodes must lie in [64, {QUAD_NODES_MAX}], "
                         f"got {quad_nodes}")
    xg, wg = gauss_legendre(int(quad_nodes))
    nodes, weights = 0.5 * (xg + 1.0), 0.5 * wg
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def l2_error(est, target, quad_nodes: int = 512) -> float:
    """Gauss-Legendre L2([0,1]) distance between estimator and target."""
    xg, wg = _gl_nodes(quad_nodes)
    diff = np.asarray(est(xg), dtype=float) - np.asarray(target(xg), dtype=float)
    return math.sqrt(max(float(np.sum(wg * diff ** 2)), 0.0))


# ---------------------------------------------------------------------------
# per-run error curves over a parameter grid


def _error_curves(kernel, filt, x, y, target, grid):
    """Squared RKHS errors of one run's fits to ``(x, y)`` at every grid
    point, as a 1-D array: the ascending distinct step counts `grid` of an
    iterative filter, or the lambdas `grid` of any other.

    An iterative filter is stepped once to the largest count; each
    product ``G alpha`` of a step also gives that iterate's ``alpha' G
    alpha``, and one more product scores the last step.  Only the
    requested steps are scored.
    """
    fvec = np.asarray(target(x), dtype=float)
    nrm = _target_norm_sq(target)
    if not filt.iterative:
        fits = _solve_level(kernel, filt, grid, x, y[None],
                            [np.arange(x.size)], 1)
        return np.asarray([rkhs_error_sq(fits.operator.quad_form(a), a, fvec,
                                         nrm) for a in fits.coefficients])
    op = kernel_operator(kernel, x)
    ks = np.asarray(grid)
    scale = 1.0 / (kernel.kappa ** 2 * x.size)
    wanted = np.zeros(int(ks[-1]) + 1, dtype=bool)
    wanted[ks] = True
    step = count(1)
    hk_sq = []

    def apply(alpha):
        Galpha = op.matvec(alpha)
        if wanted[next(step)]:
            hk_sq.append(rkhs_error_sq(float(alpha @ Galpha), alpha, fvec,
                                       nrm))
        return scale * Galpha

    steps = iterate(filt, scale * y, apply)
    apply(next(islice(steps, int(ks[-1]) - 1, None)))
    return np.asarray(hk_sq)


def _resolve_pieces(cfg: ExperimentConfig):
    """Kernel, filter and target of `cfg`, whose run count and seed are
    checked here: every study, oracle and lambda rule starts with this
    call."""
    if cfg.runs < 1:
        raise ValueError(f"runs must be at least 1, got {cfg.runs}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {cfg.seed}")
    return (sobolev_min(), filter_by_name(cfg.filter, cfg.nu),
            target_by_name(cfg.target))


def _default_grid(cfg: ExperimentConfig, filt: FilterSpec):
    """Oracle grid: k = 1..k_max for iterative filters, else descending
    log-spaced lambdas (first grid entry = strongest regularization, so
    argmin tie-breaking errs toward more smoothing).  A setting is checked
    only where it is read: an explicit `k_max` leaves `grid_min` unread."""
    if filt.iterative and cfg.k_max is not None:
        return np.arange(1, check_steps(int(cfg.k_max)) + 1)
    if not LAMBDA_MIN <= cfg.grid_min <= 1.0:
        raise ValueError(f"grid_min: lambda must lie in [{LAMBDA_MIN:g}, 1],"
                         f" got {cfg.grid_min}")
    if filt.iterative:
        return np.arange(1, check_steps(filt.steps(cfg.grid_min)) + 1)
    if cfg.grid_size < 1:
        raise ValueError(f"grid_size must be at least 1, got {cfg.grid_size}")
    if cfg.grid_size > MAX_STEPS:
        raise ValueError(f"grid_size must be at most {MAX_STEPS}, got "
                         f"{cfg.grid_size}")
    return np.logspace(0.0, math.log10(cfg.grid_min), cfg.grid_size)


def _run_workers(cfg: ExperimentConfig, filt: FilterSpec) -> int:
    """Threads for a study's runs at ``cfg.n``, by the size of one run's
    largest numpy call (:func:`_parallel._pool_workers`): n level values
    for an iterative filter, n**2 for cut-off's ``eigh``.  Tikhonov's
    shifted solve is many short numpy calls at any n, so its runs count
    as one value, below any threshold that keeps small runs inline."""
    n = cfg.n
    values = (n if filt.iterative else n * n if filt.kind == "cutoff"
              else 1)
    return _pool_workers(cfg.workers, values)


@dataclass
class OracleSelection:
    """Outcome of a grid sweep for the error-minimizing parameter."""

    lam: float                   # effective parameter of the winner
    k: int | None                # its iteration count, when iterative
    index: int
    lambdas: np.ndarray
    steps: np.ndarray | None
    rms_curve: np.ndarray        # root-mean squared RKHS error per grid point


def oracle_select(cfg: ExperimentConfig) -> OracleSelection:
    """Pick the point of the oracle grid (:func:`_default_grid`)
    minimizing root-mean RKHS error at m = 1.

    Ties break toward stronger regularization (larger lambda / fewer
    steps), which the grid lists first.
    """
    kernel, filt, target = _resolve_pieces(cfg)
    grid = _default_grid(cfg, filt)
    steps, lambdas = ((grid, filt.step_lambda(grid)) if filt.iterative
                      else (None, grid))

    def one_run(r: int) -> np.ndarray:
        x, y = gen_data(target, cfg.n, cfg.sigma, run_rng(cfg.seed, r))
        return _error_curves(kernel, filt, x, y, target, grid)

    hk_sq = np.stack(parallel_map(one_run, range(cfg.runs),
                                  _run_workers(cfg, filt)))
    rms = np.sqrt(hk_sq.mean(axis=0))
    best = int(np.argmin(rms))
    return OracleSelection(
        lam=float(lambdas[best]),
        k=int(steps[best]) if steps is not None else None,
        index=best, lambdas=lambdas, steps=steps, rms_curve=rms)


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


def resolve_lambda(cfg: ExperimentConfig) -> float:
    """Turn the config's lambda policy into a concrete parameter."""
    _resolve_pieces(cfg)
    if cfg.lam == "oracle":
        return oracle_select(cfg).lam
    if cfg.lam == "theory":
        return theory.lambda_choice(theory.TheoryParams(
            r=cfg.r, b=cfg.b, sigma=cfg.sigma, R=cfg.R, n=cfg.n))
    return float(cfg.lam)


def _levels_for(n: int, alphas) -> list[tuple[float, int]]:
    """(alpha label, block count) pairs for the requested exponents, m =
    round(n**alpha): the one rule from alpha to m."""
    _check_block_count(n, 1)            # a negative n has no real power
    for a in alphas:
        if not 0 <= a < math.inf:
            raise ValueError(f"alpha must be finite and nonnegative, got {a}")
    return [(float(a), int(round(n ** a))) for a in alphas]


def _assess_run(cfg, kernel, filt, target, lam, run, levels):
    """Fit (and score) one seeded run at every requested partition level.

    `levels` is a list of (alpha label, m) pairs; the same generated data
    underlies each, so comparisons across levels are paired.  The rows
    follow `levels`.

    A level is m consecutive blocks (:func:`distributed.partition`), so
    its blocks hold the sample in its own order, and its average is
    scored, in RKHS and in L2, as one expansion on the Gram operator of
    the run's whole sample: x is sorted once per run.  A level of one
    block is that expansion itself, and is fitted first, as its fit's
    operator is that one.
    """
    x, y = gen_data(target, cfg.n, cfg.sigma, run_rng(cfg.seed, run))
    k = filt.steps(lam) if filt.iterative else None
    op, results = None, [None] * len(levels)
    for i in sorted(range(len(levels)), key=lambda i: levels[i][1] != 1):
        a, m = levels[i]
        t0 = time.perf_counter()
        est = fit_distributed(kernel, filt, lam, x, y, partition(cfg.n, m))
        if op is None:
            op = est.operator if m == 1 else kernel_operator(kernel, x)
        # est.as_expansion() without its sort
        exp = est if m == 1 else KernelExpansion(est.coefficients / m, op)
        hk = hk_error(exp, target)
        l2 = l2_error(exp, target, cfg.quad_nodes)
        wall = (time.perf_counter() - t0) * 1e3 if cfg.timing else None
        results[i] = RunResult(
            n=cfg.n, m=m, alpha=a, lam=lam, k=k, run=run,
            hk_error=hk, l2_error=l2, wall_ms=wall)
    return results


def simulate(cfg: ExperimentConfig) -> SweepResult:
    """Monte-Carlo repetitions of one configuration."""
    levels = _levels_for(cfg.n, [cfg.alpha])
    return _study(cfg, [cfg.n], lambda n: levels)


@dataclass
class SweepResult:
    rows: list
    summary: list                  # GroupStat records
    slopes: dict


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


def _study(cfg: ExperimentConfig, ns, levels_of) -> SweepResult:
    """For each sample size n, `cfg.runs` paired runs at the partition
    levels ``levels_of(n)`` with one parameter resolved at n; log-log
    slopes for each alpha seen at two or more sizes."""
    kernel, filt, target = _resolve_pieces(cfg)
    _gl_nodes(cfg.quad_nodes)     # once here, not once per pool thread
    levels_at = [(int(n), levels_of(int(n))) for n in ns]
    for n, levels in levels_at:         # every level before any oracle
        for _, m in levels:
            _check_block_count(n, m)
    rows = []
    for n, levels in levels_at:
        cfg_n = replace(cfg, n=n)
        lam = resolve_lambda(cfg_n)
        per_run = parallel_map(
            lambda r: _assess_run(cfg_n, kernel, filt, target, lam, r,
                                  levels),
            range(cfg.runs), _run_workers(cfg_n, filt))
        rows.extend(row for rows_ in per_run for row in rows_)
    summary = _group_stats(rows)
    slopes = {}
    for a in sorted({g.alpha for g in summary}):
        pts = [(g.n, g.hk_mean) for g in summary if g.alpha == a]
        if len(pts) >= 2 and all(v > 0 for _, v in pts):
            ln = np.log([p[0] for p in pts])
            lv = np.log([p[1] for p in pts])
            slopes[a] = float(np.polyfit(ln, lv, 1)[0])
    return SweepResult(rows=rows, summary=summary, slopes=slopes)


def _distinct(name: str, values) -> list:
    """`values` as a list.  Empty, it would make an empty table; with a
    repeated value, a summary would count each run of a group twice."""
    values = list(values)
    if not values or len(set(values)) < len(values):
        raise ValueError(f"{name} must be a nonempty list of distinct "
                         f"values, got {values}")
    return values


def sweep_alpha(cfg: ExperimentConfig, alphas) -> SweepResult:
    """Errors of the averaged estimator across partition-growth exponents.

    The regularization parameter is resolved once from the full sample
    (m = 1) and shared by every alpha, as the averaging analysis
    prescribes.  Runs are paired: the same seeded data underlies every
    alpha column.
    """
    alphas = _distinct("alphas", alphas)
    return _study(cfg, [cfg.n], lambda n: _levels_for(n, alphas))


def sweep_n(cfg: ExperimentConfig, ns, alphas=(0.0,)) -> SweepResult:
    """Errors across sample sizes at fixed alphas, with log-log slopes.

    The parameter is re-resolved per sample size (fresh oracle at each
    n).  The slope of mean RKHS error against n is fitted per alpha.
    """
    ns, alphas = _distinct("ns", ns), _distinct("alphas", alphas)
    return _study(cfg, ns, lambda n: _levels_for(n, alphas))


# ---------------------------------------------------------------------------
# CSV output (byte-reproducible: shortest round-trip float formatting)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def csv_table(header: str, rows, footer=()) -> str:
    """CSV text: the `header` line, a line of `_fmt` values per row (a
    tuple in header order), then the `footer` lines as given.  This is
    the one writer of every table."""
    lines = [header]
    lines += [",".join(map(_fmt, row)) for row in rows]
    lines += footer
    return "\n".join(lines) + "\n"


def results_csv(rows) -> str:
    # RunResult's fields are in RESULT_HEADER order
    return csv_table(RESULT_HEADER, map(astuple, rows))


def summary_csv(summary, slopes) -> str:
    # GroupStat's fields are in SUMMARY_HEADER order
    return csv_table(SUMMARY_HEADER, map(astuple, summary), [
        f"# hk_loglog_slope alpha={_fmt(a)}: {_fmt(s)}"
        for a, s in sorted(slopes.items())])
