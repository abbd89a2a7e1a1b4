import numpy as np
import pytest

from splitkern.cli import main


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


def test_shuffled_sweep_alpha_identical_across_workers(tmp_path, capsys):
    texts = []
    for i, workers in enumerate(("1", "2")):
        out_file = tmp_path / f"shuf{i}.csv"
        code, _, _ = run_cli(capsys, "sweep-alpha", "--filter", "nu-method",
                             "--n", "256", "--sigma", "0.005",
                             "--lambda", "oracle", "--k-max", "16",
                             "--alphas", "0,0.3,0.6", "--shuffle",
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
