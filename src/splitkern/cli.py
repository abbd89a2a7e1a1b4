"""Command-line interface.

Subcommands:
  theory       rate/parameter formula table over a (n, m) grid
  smoothness   coefficient-decay report for a built-in target
  oracle       error-vs-parameter sweep and oracle choice
  simulate     Monte-Carlo runs of one configuration
  sweep-alpha  errors across partition-growth exponents
  sweep-n      errors across sample sizes, with fitted slopes
  adapt        hold-out adaptive parameter selection

Experiment commands accept ``--config FILE`` (INI; keys of the
``[experiment]`` section mirror the ExperimentConfig fields) with
command-line flags taking precedence.  CSV goes to ``--out`` (plus a
``.summary.csv`` sibling where applicable) or stdout.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from pathlib import Path

import numpy as np

from . import adaptivity, experiments, filters, kernels, smoothness, theory
from .experiments import ExperimentConfig, _fmt


def _emit(text: str, out: str | None, label: str = "") -> None:
    if out:
        Path(out).write_text(text)
        print(f"wrote {label or 'csv'} to {out}")
    else:
        sys.stdout.write(text)


def _summary_path(out: str) -> str:
    p = Path(out)
    return str(p.with_suffix(".summary.csv")) if p.suffix else out + ".summary.csv"


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_lattice(text: str) -> np.ndarray:
    """Either 'v1,v2,...' or 'log:<min>:<max>:<count>'."""
    if text.startswith("log:"):
        _, lo, hi, count = text.split(":")
        return np.logspace(math.log10(float(lo)), math.log10(float(hi)),
                           int(count))
    return np.asarray(_parse_floats(text))


# ---------------------------------------------------------------------------
# experiment config assembly


_CONFIG_FLAGS = [
    ("--target", str, "target function name"),
    ("--filter", str, "filter name (tikhonov|landweber|nu-method|cutoff)"),
    ("--nu", float, "order of the nu-method"),
    ("--n", int, "sample size"),
    ("--alpha", float, "partition-growth exponent (m = round(n**alpha))"),
    ("--m", int, "explicit number of blocks (overrides --alpha)"),
    ("--sigma", float, "noise standard deviation"),
    ("--lambda", str, "'oracle', 'theory', or an explicit value"),
    ("--runs", int, "Monte-Carlo repetitions"),
    ("--seed", int, "master seed"),
    ("--workers", int, "parallel workers (default: cpu count)"),
    ("--grid-min", float, "smallest lambda of the oracle grid"),
    ("--grid-size", int, "points in the oracle lambda grid"),
    ("--k-max", int, "largest step count swept for iterative filters"),
    ("--quad-nodes", int, "Gauss-Legendre nodes for the L2 error"),
    ("--r", float, "source exponent for the theory rule"),
    ("--b", float, "eigenvalue decay exponent for the theory rule"),
    ("--R", float, "source radius for the theory rule"),
]


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI file with an [experiment] section")
    for flag, typ, help_ in _CONFIG_FLAGS:
        sub.add_argument(flag, type=typ, help=help_, default=None)
    sub.add_argument("--shuffle", action="store_true", default=None,
                     help="shuffle before partitioning")
    sub.add_argument("--timing", action="store_true", default=None,
                     help="record wall_ms (not byte-reproducible)")
    sub.add_argument("--out", help="CSV output path (default: stdout)")


def _config_from_args(args) -> ExperimentConfig:
    mapping: dict = {}
    if args.config:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keep 'R' and 'r' distinct
        read = parser.read(args.config)
        if not read:
            raise ValueError(f"cannot read config file {args.config!r}")
        if parser.has_section("experiment"):
            mapping.update(dict(parser.items("experiment")))
        else:
            mapping.update(dict(parser.defaults()))
    for flag, _typ, _help in _CONFIG_FLAGS:
        name = flag.lstrip("-").replace("-", "_")
        key = "lambda" if name == "lambda" else name
        value = getattr(args, name, None)
        if value is not None:
            mapping[key] = value
    if args.shuffle is not None:
        mapping["shuffle"] = args.shuffle
    if args.timing is not None:
        mapping["timing"] = args.timing
    return ExperimentConfig.from_mapping(mapping)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_theory(args) -> int:
    ns = _parse_ints(args.ns)
    ms = _parse_ints(args.ms)
    spectrum = theory.SpectrumModel.power_decay(args.beta, args.b)
    lines = ["n,m,b,r,s,sigma,R,lambda_n,a_n,alpha_max,N_lambda,B_block"]
    for n in ns:
        p = theory.TheoryParams(r=args.r, b=args.b, beta=args.beta, s=args.s,
                                sigma=args.sigma, R=args.R, n=n)
        lam = theory.lambda_choice(p)
        a_n = theory.rate(p)
        a_max = theory.alpha_bound(p)
        n_lam = theory.effective_dimension(spectrum, lam)
        for m in ms:
            bb = theory.b_quantity(n / m, lam, n_lam)
            lines.append(",".join([
                str(n), str(m), _fmt(args.b), _fmt(args.r), _fmt(args.s),
                _fmt(args.sigma), _fmt(args.R), _fmt(lam), _fmt(a_n),
                _fmt(a_max), _fmt(n_lam), _fmt(bb)]))
    _emit("\n".join(lines) + "\n", args.out, "theory table")
    return 0


def _cmd_smoothness(args) -> int:
    target = smoothness.target_by_name(args.target)
    coeffs = smoothness.fourier_coefficients(target, args.max_j)
    report = smoothness.max_smoothness(coeffs)
    print(f"target: {target.name}")
    print(f"coefficients: {args.max_j} computed, "
          f"{len(report.indices_used)} nonzero")
    if report.decay_exponent is not None:
        print(f"decay exponent p: {report.decay_exponent:.6g} "
              f"(fit rms {report.fit_rms:.3g})")
    print(f"parseval sum: {report.parseval_sum:.12g}"
          + (f" (target norm^2 {target.rkhs_norm_sq:.12g})"
             if target.rkhs_norm_sq is not None else ""))
    print(f"verdict: {report.verdict}")
    for note in report.notes:
        print(f"note: {note}")
    lines = ["j,c_j"] + [
        f"{j},{_fmt(c)}" for j, c in enumerate(coeffs, start=1)]
    _emit("\n".join(lines) + "\n", args.out, "coefficients")
    return 0


def _cmd_oracle(args) -> int:
    cfg = _config_from_args(args)
    sel = experiments.oracle_select(cfg)
    if sel.k is not None:
        print(f"oracle steps: k = {sel.k} (lambda = {sel.lam:.6g})")
    else:
        print(f"oracle lambda = {sel.lam:.6g}")
    print(f"rms reconstruction error at the oracle: "
          f"{sel.rms_curve[sel.index]:.6g} over {sel.runs} runs")
    lines = ["lambda,k,rms_hk"]
    for i in range(len(sel.lambdas)):
        kval = sel.steps[i] if sel.steps is not None else None
        lines.append(f"{_fmt(sel.lambdas[i])},{_fmt(kval)},"
                     f"{_fmt(sel.rms_curve[i])}")
    _emit("\n".join(lines) + "\n", args.out, "oracle curve")
    return 0


def _print_summary(summary) -> None:
    print(f"{'n':>7} {'m':>6} {'alpha':>6} {'hk_mean':>12} {'hk_se':>10} "
          f"{'l2_mean':>12}")
    for g in summary:
        print(f"{g.n:>7} {g.m:>6} {g.alpha:>6.2f} {g.hk_mean:>12.6g} "
              f"{g.hk_se:>10.3g} {g.l2_mean:>12.6g}")


def _emit_rows(rows, summary, slopes, args) -> None:
    csv = experiments.results_csv(rows)
    if args.out:
        _emit(csv, args.out, "results")
        _emit(experiments.summary_csv(summary, slopes),
              _summary_path(args.out), "summary")
    else:
        sys.stdout.write(csv)


def _cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    rows = experiments.simulate(cfg)
    summary = experiments._group_stats(rows)
    _print_summary(summary)
    _emit_rows(rows, summary, None, args)
    return 0


def _cmd_sweep_alpha(args) -> int:
    cfg = _config_from_args(args)
    alphas = _parse_floats(args.alphas)
    result = experiments.sweep_alpha(cfg, alphas)
    if result.k is not None:
        print(f"shared parameter: k = {result.k} (lambda = {result.lam:.6g})")
    else:
        print(f"shared parameter: lambda = {result.lam:.6g}")
    _print_summary(result.summary)
    _emit_rows(result.rows, result.summary, result.slopes, args)
    return 0


def _cmd_sweep_n(args) -> int:
    cfg = _config_from_args(args)
    ns = _parse_ints(args.ns)
    alphas = _parse_floats(args.alphas)
    result = experiments.sweep_n(cfg, ns, alphas)
    _print_summary(result.summary)
    for a, s in sorted(result.slopes.items()):
        print(f"log-log slope of mean reconstruction error vs n "
              f"at alpha={a:g}: {s:+.4f}")
    _emit_rows(result.rows, result.summary, result.slopes, args)
    return 0


def _cmd_adapt(args) -> int:
    cfg = _config_from_args(args)
    target = smoothness.target_by_name(cfg.target)
    filt = filters.by_name(cfg.filter, cfg.nu)
    kernel = kernels.sobolev_min()
    x, y = experiments.gen_data(target, cfg.n, cfg.sigma,
                                experiments.run_rng(cfg.seed, 0))
    lattice = _parse_lattice(args.lattice)
    m_seq = _parse_ints(args.m_sequence) if args.m_sequence else None
    result = adaptivity.adapt(
        x, y, kernel, filt, lattice, m_sequence=m_seq, delta=args.delta,
        val_fraction=args.split, seed=cfg.seed, workers=cfg.workers)
    trig = "triggered" if result.triggered else "exhausted (no trigger)"
    print(f"stopping level k* = {result.k_star} ({trig}); "
          f"lambda_hat = {result.lambda_hat:.6g}")
    lines = ["k,m_k,lambda_hat,err,delta_k"]
    for lev in result.trace:
        lines.append(f"{lev.k},{lev.m_k},{_fmt(lev.lambda_hat)},"
                     f"{_fmt(lev.err)},{_fmt(lev.delta_k)}")
    _emit("\n".join(lines) + "\n", args.out, "adapt trace")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitkern",
        description="Partition-and-average spectral regularization "
                    "for kernel regression.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="rate/parameter formula table")
    p.add_argument("--ns", default="512,1024,2048,4096,8192",
                   help="comma list of sample sizes")
    p.add_argument("--ms", default="1,2,4,8,16", help="comma list of block counts")
    p.add_argument("--b", type=float, default=2.0)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=theory.SOBOLEV_DECAY_SCALE)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_theory)

    p = sub.add_parser("smoothness", help="coefficient-decay report")
    p.add_argument("--target", default="quadratic-bump")
    p.add_argument("--max-j", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_smoothness)

    for name, fn, help_ in [
        ("oracle", _cmd_oracle, "sweep the parameter grid, pick the oracle"),
        ("simulate", _cmd_simulate, "Monte-Carlo runs of one configuration"),
        ("sweep-alpha", _cmd_sweep_alpha, "sweep partition-growth exponents"),
        ("sweep-n", _cmd_sweep_n, "sweep sample sizes"),
    ]:
        p = sub.add_parser(name, help=help_)
        _add_config_flags(p)
        if name == "sweep-alpha":
            p.add_argument("--alphas", default="0,0.1,0.2,0.3,0.4,0.5")
        if name == "sweep-n":
            p.add_argument("--ns", default="512,1024,2048,4096")
            p.add_argument("--alphas", default="0")
        p.set_defaults(fn=fn)

    p = sub.add_parser("adapt", help="hold-out adaptive selection")
    _add_config_flags(p)
    p.add_argument("--delta", type=float, default=0.5,
                   help="stopping threshold in (0, 1)")
    p.add_argument("--lattice", default="log:1e-6:1:25",
                   help="'v1,v2,...' or 'log:min:max:count'")
    p.add_argument("--split", type=float, default=0.2,
                   help="validation fraction")
    p.add_argument("--m-sequence", default=None,
                   help="comma list of strictly decreasing block counts")
    p.set_defaults(fn=_cmd_adapt)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
