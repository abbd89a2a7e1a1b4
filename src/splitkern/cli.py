"""Command-line interface.

Subcommands:
  theory       rate/parameter formula table over a (n, m) grid
  smoothness   coefficient-decay report for a built-in target
  oracle       error-vs-parameter sweep and oracle choice
  simulate     Monte-Carlo runs of one configuration
  sweep-alpha  errors across partition-growth exponents
  sweep-n      errors across sample sizes, with fitted slopes
  adapt        hold-out adaptive parameter selection

Experiment commands accept ``--config FILE`` (INI; the keys of the
``[experiment]`` section are those of ``experiments.SETTINGS``, which
also names the flags) with command-line flags taking precedence.  CSV
goes to ``--out`` (plus a ``.summary.csv`` sibling where applicable) or
stdout.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import adaptivity, experiments, smoothness, theory
from .experiments import ExperimentConfig, csv_table


def _emit(text: str, out: str | None, label: str) -> None:
    if out:
        Path(out).write_text(text)
        print(f"wrote {label} to {out}")
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


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI file with an [experiment] section")
    # one flag per setting; the value reaches from_mapping as a string
    for key, (cast, help_) in experiments.SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if cast is experiments._parse_bool:
            sub.add_argument(flag, dest=key, action="store_const",
                             const="true", help=help_)
        else:
            sub.add_argument(flag, dest=key, help=help_)
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
    for key in experiments.SETTINGS:
        if getattr(args, key) is not None:
            mapping[key] = getattr(args, key)
    return ExperimentConfig.from_mapping(mapping)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_theory(args) -> int:
    ns = experiments._distinct("ns", _parse_ints(args.ns))
    ms = experiments._distinct("ms", _parse_ints(args.ms))
    rows = []
    for n in ns:
        p = theory.TheoryParams(r=args.r, b=args.b, s=args.s,
                                sigma=args.sigma, R=args.R, n=n)
        lam = theory.lambda_choice(p)
        a_n = theory.rate(p)
        a_max = theory.alpha_bound(p)
        n_lam = theory.power_effective_dimension(args.beta, args.b, lam)
        for m in ms:
            bb = theory.b_quantity(n / m, lam, n_lam)
            rows.append((n, m, args.b, args.r, args.s, args.sigma, args.R,
                         lam, a_n, a_max, n_lam, bb))
    _emit(csv_table(
        "n,m,b,r,s,sigma,R,lambda_n,a_n,alpha_max,N_lambda,B_block", rows),
        args.out, "theory table")
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
    print(f"parseval sum: {report.parseval_sum:.12g} "
          f"(target norm^2 {target.rkhs_norm_sq:.12g})")
    print(f"verdict: {report.verdict}")
    for note in report.notes:
        print(f"note: {note}")
    _emit(csv_table("j,c_j", enumerate(coeffs, start=1)), args.out,
          "coefficients")
    return 0


def _cmd_oracle(args) -> int:
    cfg = _config_from_args(args)
    sel = experiments.oracle_select(cfg)
    if sel.k is not None:
        print(f"oracle steps: k = {sel.k} (lambda = {sel.lam:.6g})")
    else:
        print(f"oracle lambda = {sel.lam:.6g}")
    print(f"rms reconstruction error at the oracle: "
          f"{sel.rms_curve[sel.index]:.6g} over {cfg.runs} runs")
    steps = sel.steps if sel.steps is not None else [None] * len(sel.lambdas)
    _emit(csv_table("lambda,k,rms_hk",
                    zip(sel.lambdas, steps, sel.rms_curve)),
          args.out, "oracle curve")
    return 0


def _report(result: experiments.SweepResult, args) -> int:
    """Print a study's summary table and slopes; write its CSVs."""
    print(f"{'n':>7} {'m':>6} {'alpha':>6} {'hk_mean':>12} {'hk_se':>10} "
          f"{'l2_mean':>12}")
    for g in result.summary:
        print(f"{g.n:>7} {g.m:>6} {g.alpha:>6.2f} {g.hk_mean:>12.6g} "
              f"{g.hk_se:>10.3g} {g.l2_mean:>12.6g}")
    for a, s in sorted(result.slopes.items()):
        print(f"log-log slope of mean reconstruction error vs n "
              f"at alpha={a:g}: {s:+.4f}")
    _emit(experiments.results_csv(result.rows), args.out, "results")
    if args.out:
        _emit(experiments.summary_csv(result.summary, result.slopes),
              _summary_path(args.out), "summary")
    return 0


def _cmd_simulate(args) -> int:
    return _report(experiments.simulate(_config_from_args(args)), args)


def _cmd_sweep_alpha(args) -> int:
    result = experiments.sweep_alpha(_config_from_args(args),
                                     _parse_floats(args.alphas))
    shared = result.summary[0]
    if shared.k is not None:
        print(f"shared parameter: k = {shared.k} (lambda = {shared.lam:.6g})")
    else:
        print(f"shared parameter: lambda = {shared.lam:.6g}")
    return _report(result, args)


def _cmd_sweep_n(args) -> int:
    result = experiments.sweep_n(_config_from_args(args),
                                 _parse_ints(args.ns),
                                 _parse_floats(args.alphas))
    return _report(result, args)


def _cmd_adapt(args) -> int:
    cfg = _config_from_args(args)
    kernel, filt, target = experiments._resolve_pieces(cfg)
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
    _emit(csv_table("k,m_k,lambda_hat,err,delta_k",
                    map(astuple, result.trace)), args.out, "adapt trace")
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
