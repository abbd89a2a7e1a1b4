import argparse
import time

import numpy as np
import pytest

from splitkern import experiments
from splitkern.cli import _config_from_args, build_parser, main
from splitkern.experiments import SETTINGS, ExperimentConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_theory_table(capsys):
    code, out, _ = run_cli(capsys, "theory", "--ns", "1024", "--ms", "1,4",
                           "--r", "0.5", "--b", "2", "--sigma", "1",
                           "--R", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,b,r,s,sigma,R,lambda_n,a_n,alpha_max,N_lambda,B_block"
    row = lines[1].split(",")
    assert float(row[7]) == pytest.approx(0.0625, rel=1e-12)
    assert float(row[8]) == pytest.approx(0.25, rel=1e-12)
    assert float(row[9]) == pytest.approx(0.4, rel=1e-12)
    assert len(lines) == 3  # two block counts


def test_smoothness_report(capsys):
    code, out, _ = run_cli(capsys, "smoothness", "--target", "quadratic-bump",
                           "--max-j", "64")
    assert code == 0
    assert "verdict: source condition holds for r < 0.75" in out
    lines = out.splitlines()
    header = lines.index("j,c_j")
    assert len(lines) - header - 1 == 64


def test_simulate_and_files(tmp_path, capsys):
    out_file = tmp_path / "runs.csv"
    code, out, _ = run_cli(capsys, "simulate", "--filter", "tikhonov",
                           "--n", "64", "--sigma", "0.01", "--lambda", "0.05",
                           "--runs", "2", "--seed", "1",
                           "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.splitlines()[0].startswith("n,m,alpha,lambda,k,run")
    assert len(text.splitlines()) == 3
    summary = (tmp_path / "runs.summary.csv").read_text()
    assert summary.splitlines()[0].startswith("n,m,alpha,lambda,k,runs")


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--filter", "nu-method",
                           "--n", "48", "--sigma", "0.01", "--runs", "2",
                           "--seed", "2", "--k-max", "8")
    assert code == 0
    assert "oracle steps: k =" in out
    assert "lambda,k,rms_hk" in out


def test_sweep_alpha_command(capsys):
    code, out, _ = run_cli(capsys, "sweep-alpha", "--filter", "tikhonov",
                           "--n", "64", "--sigma", "0.01", "--lambda", "0.1",
                           "--runs", "2", "--seed", "3",
                           "--alphas", "0,0.5")
    assert code == 0
    assert "shared parameter: lambda = 0.1" in out


def test_sweep_n_command(capsys):
    code, out, _ = run_cli(capsys, "sweep-n", "--filter", "tikhonov",
                           "--lambda", "0.1", "--sigma", "0.01",
                           "--runs", "2", "--seed", "4", "--ns", "32,64,128",
                           "--alphas", "0")
    assert code == 0
    assert "log-log slope" in out


def test_adapt_command(capsys):
    code, out, _ = run_cli(capsys, "adapt", "--filter", "tikhonov",
                           "--n", "128", "--sigma", "0.02", "--seed", "5",
                           "--lattice", "log:1e-4:1:7", "--delta", "0.5")
    assert code == 0
    assert "stopping level k* =" in out
    assert "k,m_k,lambda_hat,err,delta_k" in out


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\nfilter = tikhonov\nn = 64\nsigma = 0.01\n"
                   "lambda = 0.05\nruns = 2\nseed = 9\n")
    code, out1, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    # flag overrides the file
    code, out2, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                            "--runs", "3")
    assert code == 0
    assert out1 != out2


def test_bad_filter_exits_nonzero(capsys):
    code, _, err = run_cli(capsys, "simulate", "--filter", "nonsense",
                           "--n", "16", "--lambda", "0.1", "--runs", "1")
    assert code == 2
    assert "error" in err


def test_missing_config_file_exits_nonzero(capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", "/nope/missing.ini")
    assert code == 2


def test_cli_determinism_across_workers(tmp_path, capsys):
    texts = []
    for i, workers in enumerate(("1", "2")):
        out_file = tmp_path / f"det{i}.csv"
        code, _, _ = run_cli(capsys, "simulate", "--filter", "nu-method",
                             "--n", "64", "--sigma", "0.005",
                             "--lambda", "oracle", "--k-max", "12",
                             "--runs", "3", "--seed", "11",
                             "--workers", workers, "--out", str(out_file))
        assert code == 0
        texts.append(out_file.read_bytes())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("shuffle", [("--shuffle",), ()],
                         ids=["shuffled", "contiguous"])
@pytest.mark.parametrize("filt,k_max", [("nu-method", "16"),
                                        ("landweber", "60")],
                         ids=["nu-method", "landweber"])
def test_sweep_alpha_identical_across_workers(tmp_path, capsys, filt, k_max,
                                              shuffle):
    texts = []
    for i, workers in enumerate(("1", "2")):
        out_file = tmp_path / f"sweep{i}.csv"
        code, _, _ = run_cli(capsys, "sweep-alpha", "--filter", filt,
                             "--n", "256", "--sigma", "0.005",
                             "--lambda", "oracle", "--k-max", k_max,
                             "--alphas", "0,0.3,0.6,1", *shuffle,
                             "--runs", "3", "--seed", "7",
                             "--workers", workers, "--out", str(out_file))
        assert code == 0
        texts.append(out_file.read_bytes())
    assert texts[0] == texts[1]


def test_non_finite_sigma_exits_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--filter", "tikhonov",
                           "--n", "16", "--sigma", "nan", "--lambda", "0.1",
                           "--runs", "1")
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("flags", [("--lambda", "9e-15"),
                                   ("--lambda", "oracle",
                                    "--grid-min", "1e-15")])
def test_lambda_below_floor_exits_2(capsys, flags):
    code, _, err = run_cli(capsys, "simulate", "--filter", "tikhonov",
                           "--n", "16", "--runs", "1", *flags)
    assert code == 2
    assert "lambda must lie in" in err


@pytest.mark.parametrize("filt", ["landweber", "nu-method"])
def test_too_many_iterations_exits_2(capsys, filt):
    # lambda = 1e-14 asks for 1e14 Landweber (1e7 nu-method) steps
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "simulate", "--filter", filt, "--n", "16",
                           "--lambda", "1e-14", "--runs", "1")
    assert code == 2
    assert "steps" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k_max", ["0", "-3", str(10 ** 15)])
def test_oracle_step_grid_out_of_range_exits_2(capsys, k_max):
    # 0 no longer means the default grid; 10**15 steps are rejected before
    # the step grid is allocated
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "oracle", "--filter", "nu-method",
                           "--n", "16", "--runs", "1", "--k-max", k_max)
    assert code == 2
    assert "steps" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", [
    ["simulate"], ["sweep-n", "--ns", "16,32"], ["oracle"]])
def test_zero_runs_exits_2(capsys, command):
    # no empty table, and no numpy error from stacking zero curves
    code, out, err = run_cli(capsys, *command, "--n", "16", "--runs", "0")
    assert code == 2 and out == ""
    assert "runs must be at least 1" in err


@pytest.mark.parametrize("command, name", [
    (["sweep-n", "--ns", ","], "ns"),
    (["sweep-n", "--ns", "16,16"], "ns"),
    (["sweep-n", "--ns", "16,32", "--alphas", "0,0"], "alphas"),
    (["sweep-alpha", "--alphas", ","], "alphas"),
    (["sweep-alpha", "--alphas", "0,0.0"], "alphas"),
    (["theory", "--ns", ","], "ns"),
    (["theory", "--ms", "1,4,1"], "ms")])
def test_empty_or_repeated_list_exits_2(capsys, monkeypatch, command, name):
    # no empty table, and no summary that counts each run twice; the
    # oracle never runs
    def no_oracle(cfg):
        raise AssertionError("the oracle ran")
    monkeypatch.setattr(experiments, "oracle_select", no_oracle)
    code, out, err = run_cli(capsys, *command)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} must be a nonempty list")


@pytest.mark.parametrize("command, m, n", [
    (["simulate", "--m", "0"], 0, 1024),
    (["simulate", "--m", "5000", "--n", "2048"], 5000, 2048),
    (["sweep-alpha", "--alphas", "0,1.2", "--n", "64"], 147, 64),
    (["sweep-n", "--ns", "1,16", "--alphas", "0,1.2"], 28, 16)])
def test_block_count_out_of_range_exits_2(capsys, monkeypatch, command, m,
                                          n):
    # every level of every n is checked before the first oracle
    def no_oracle(cfg):
        raise AssertionError("the oracle ran")
    monkeypatch.setattr(experiments, "oracle_select", no_oracle)
    code, out, err = run_cli(capsys, *command)
    assert code == 2 and out == ""
    assert err == f"error: need 1 <= m <= n, got m={m}, n={n}\n"


def test_sweep_n_tikhonov_identical_across_workers(tmp_path, capsys):
    texts = []
    for i, workers in enumerate(("1", "2")):
        out_file = tmp_path / f"rate{i}.csv"
        code, _, _ = run_cli(capsys, "sweep-n", "--filter", "tikhonov",
                             "--lambda", "oracle", "--ns", "64,128,256",
                             "--sigma", "0.005", "--runs", "3", "--seed", "4",
                             "--workers", workers, "--out", str(out_file))
        assert code == 0
        summary = out_file.with_suffix(".summary.csv")
        texts.append(out_file.read_bytes() + summary.read_bytes())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("command", ["oracle", "simulate", "sweep-alpha",
                                     "sweep-n", "adapt"])
def test_one_flag_per_setting(command):
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[command]._actions
    for key in SETTINGS:
        (action,) = [a for a in actions if a.dest == key]
        assert action.option_strings == ["--" + key.replace("_", "-")]


def test_config_file_value_overridden_by_flag(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nfilter = tikhonov\nn = 64\nlambda = 0.05\n"
                   "runs = 2\nr = 0.25\nR = 2.5\nk_max = 7\n")
    args = build_parser().parse_args([
        "simulate", "--config", str(ini), "--n", "96", "--lambda", "oracle",
        "--R", "3", "--k-max", "9", "--shuffle"])
    assert _config_from_args(args) == ExperimentConfig(
        filter="tikhonov", n=96, lam="oracle", runs=2, r=0.25, R=3.0,
        k_max=9, shuffle=True)


@pytest.mark.parametrize("flag", ["--n", "--lambda", "--k-max"])
def test_malformed_value_exits_2(capsys, flag):
    code, _, err = run_cli(capsys, "simulate", "--filter", "tikhonov",
                           "--runs", "1", flag, "abc")
    assert code == 2
    assert err.startswith("error:")
    assert flag.lstrip("-").replace("-", "_") in err
