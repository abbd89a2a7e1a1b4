import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import splitkern
from splitkern import adaptivity, experiments, theory
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


def test_cli_determinism_across_workers(tmp_path, capsys, pooled):
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
    assert pooled == [2, 2]             # the oracle's runs, then the study's


@pytest.mark.parametrize("filt,k_max", [("nu-method", ("--k-max", "16")),
                                        ("landweber", ("--k-max", "60")),
                                        ("cutoff", ())],
                         ids=["nu-method", "landweber", "cutoff"])
def test_sweep_alpha_identical_across_workers(tmp_path, capsys, pooled, filt,
                                              k_max):
    texts = []
    for i, workers in enumerate(("1", "2")):
        out_file = tmp_path / f"sweep{i}.csv"
        code, _, _ = run_cli(capsys, "sweep-alpha", "--filter", filt,
                             "--n", "256", "--sigma", "0.005",
                             "--lambda", "oracle", *k_max,
                             "--alphas", "0,0.3,0.6,1",
                             "--runs", "3", "--seed", "7",
                             "--workers", workers, "--out", str(out_file))
        assert code == 0
        texts.append(out_file.read_bytes())
    assert texts[0] == texts[1]
    assert pooled == [2, 2]


def _run_imports(module, *args):
    """The exit code of ``main(args)`` in a fresh process, and whether
    the run imported `module`, which was not imported before it."""
    script = ("import sys\n"
              "from splitkern.cli import main\n"
              f"before = {module!r} in sys.modules\n"
              "code = main(sys.argv[1:])\n"
              f"print(code, {module!r} in sys.modules and not before)\n")
    src = Path(splitkern.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_sweep_alpha_nu_method_leaves_numpy_ma_unimported(tmp_path):
    # numpy 2.4's np.unique imports numpy.ma on its first call: 12-15 ms
    # and 1.6 MiB of every sweep-alpha process.  (numpy 1.x imports
    # numpy.ma with numpy itself, so only an import by the run counts.)
    assert _run_imports(
        "numpy.ma", "sweep-alpha", "--filter", "nu-method", "--n", "64",
        "--k-max", "8", "--alphas", "0,0.5", "--runs", "2",
        "--out", str(tmp_path / "sweep.csv")) == "0 False"


def test_sweep_n_tikhonov_leaves_numpy_polynomial_unimported(tmp_path):
    # the quadrature nodes come from gauss_legendre: leggauss's import
    # took 2.6 ms and its eigensolve 25-35 ms of every sweep-n process.
    # (numpy 1.x imports numpy.polynomial with numpy itself.)
    assert _run_imports(
        "numpy.polynomial", "sweep-n", "--filter", "tikhonov",
        "--ns", "64,128", "--alphas", "0", "--runs", "2",
        "--out", str(tmp_path / "sweep.csv")) == "0 False"


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
    (["simulate", "--alpha", "1.2", "--n", "64"], 147, 64),
    (["sweep-alpha", "--alphas", "0,1.2", "--n", "64"], 147, 64),
    (["sweep-n", "--ns", "1,16", "--alphas", "0,1.2"], 28, 16),
    (["adapt", "--m-sequence", "20,10,0"], 0, 819)])
def test_block_count_out_of_range_exits_2(capsys, monkeypatch, command, m,
                                          n):
    # every level of every n is checked before the first oracle or, for
    # adapt, before the first level is fitted
    monkeypatch.setattr(experiments, "oracle_select", _fail)
    monkeypatch.setattr(adaptivity, "fit_lattice", _fail)
    code, out, err = run_cli(capsys, *command)
    assert code == 2 and out == ""
    assert err == f"error: need 1 <= m <= n, got m={m}, n={n}\n"


def _fail(*args, **kwargs):
    raise AssertionError("a run or the oracle started")


@pytest.mark.parametrize("command, message", [
    (["simulate", "--alpha", "-1"], "alpha must be finite and nonnegative, "
                                    "got -1.0"),
    (["simulate", "--alpha", "inf"], "alpha must be finite and nonnegative, "
                                     "got inf"),
    (["sweep-alpha", "--alphas", "0,inf", "--n", "64"],
     "alpha must be finite and nonnegative, got inf"),
    (["sweep-n", "--ns", "16,32", "--alphas", "nan"],
     "alpha must be finite and nonnegative, got nan"),
    (["sweep-n", "--ns", "16,-4", "--alphas", "0.5"], "n must be positive"),
    (["simulate", "--quad-nodes", "100000000"],
     "quad_nodes must lie in [64, 4096], got 100000000"),
    (["smoothness", "--max-j", "1000000000000"],
     "J must lie in [1, 65536], got 1000000000000")])
def test_level_without_block_count_exits_2(capsys, monkeypatch, command,
                                           message):
    # a negative or non-finite alpha, or a negative n, has no block count:
    # rejected with the other levels, before the first oracle; so is a
    # quadrature too large to build (10**8 nodes asked numpy for 71 PiB)
    # and a coefficient count too large to allocate (10**12 did the same)
    monkeypatch.setattr(experiments, "oracle_select", _fail)
    code, out, err = run_cli(capsys, *command)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("nu", ["nan", "inf"])
@pytest.mark.parametrize("command", ["simulate", "oracle", "adapt"])
def test_non_finite_nu_exits_2(capsys, monkeypatch, command, nu):
    # every run, the oracle's too, starts by drawing its data
    monkeypatch.setattr(experiments, "gen_data", _fail)
    code, out, err = run_cli(capsys, command, "--filter", "nu-method",
                             "--nu", nu, "--n", "64", "--runs", "1")
    assert code == 2 and out == ""
    assert err == f"error: nu must be finite and positive, got {nu}\n"


@pytest.mark.parametrize("flag, value", [
    ("--r", "inf"), ("--b", "nan"), ("--sigma", "inf"), ("--R", "inf"),
    ("--R", "nan")])
@pytest.mark.parametrize("command", [
    ["theory", "--ns", "64"],
    ["simulate", "--lambda", "theory", "--n", "64", "--runs", "1"]])
def test_non_finite_theory_parameter_exits_2(capsys, monkeypatch, command,
                                             flag, value):
    # named in the message, not blamed on the lambda it would give (inf
    # gave lambda = 1 and exit 0, nan "lambda must lie in"); no run starts
    monkeypatch.setattr(experiments, "gen_data", _fail)
    code, out, err = run_cli(capsys, *command, flag, value)
    assert code == 2 and out == ""
    assert err == f"error: {flag[2:]} must be finite, got {value}\n"


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_beta_exits_2(capsys, value):
    # inf was exit 3 ("cannot convert float infinity to integer"), nan an
    # unnamed conversion error
    code, out, err = run_cli(capsys, "theory", "--ns", "64", "--beta", value)
    assert code == 2 and out == ""
    assert err == f"error: beta must be finite, got {value}\n"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_beta_exits_2(capsys, value):
    # was "need scale > 0 and b > 1", which names no flag
    code, out, err = run_cli(capsys, "theory", "--ns", "64", "--beta", value)
    assert code == 2 and out == ""
    assert err == f"error: beta must be positive, got {value}\n"


@pytest.mark.parametrize("value", ["1e30", "1e308"])
def test_beta_past_the_term_cap_exits_2(capsys, value):
    # 1e308 was exit 3 ("cannot convert float infinity to integer"); 1e30
    # would have summed 9.2e15 terms.  Both are rejected before any array
    # is made
    code, out, err = run_cli(capsys, "theory", "--ns", "64", "--beta", value)
    assert code == 2 and out == ""
    assert err.startswith(f"error: N(lambda) of the spectrum {float(value):g}")
    assert err.endswith(f"needs more than {theory._MAX_TERMS} terms\n")


@pytest.mark.parametrize("command", [
    ["simulate", "--n", "64", "--runs", "1"], ["adapt", "--n", "64"]])
def test_negative_seed_exits_2(capsys, monkeypatch, command):
    # named before any run, not numpy's "expected non-negative integer"
    monkeypatch.setattr(experiments, "gen_data", _fail)
    code, out, err = run_cli(capsys, *command, "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("command, message", [
    (["oracle", "--grid-min", "0"],
     "grid_min: lambda must lie in [1e-14, 1], got 0.0"),
    (["oracle", "--filter", "tikhonov", "--grid-min", "0"],
     "grid_min: lambda must lie in [1e-14, 1], got 0.0"),
    (["oracle", "--filter", "tikhonov", "--grid-min", "inf"],
     "grid_min: lambda must lie in [1e-14, 1], got inf"),
    (["simulate", "--filter", "cutoff", "--grid-min", "nan"],
     "grid_min: lambda must lie in [1e-14, 1], got nan"),
    (["oracle", "--filter", "tikhonov", "--grid-size", "-1"],
     "grid_size must be at least 1, got -1"),
    (["oracle", "--filter", "cutoff", "--grid-size", "0"],
     "grid_size must be at least 1, got 0"),
    (["adapt", "--lattice", "log:1e-3:inf:3"],
     "lattice bounds must be positive and finite, got 'log:1e-3:inf:3'"),
    (["adapt", "--lattice", "log:0:1:3"],
     "lattice bounds must be positive and finite, got 'log:0:1:3'"),
    (["adapt", "--lattice", "log:-1:1:3"],
     "lattice bounds must be positive and finite, got 'log:-1:1:3'"),
    *((["adapt", "--lattice", text],
       "--lattice must be log:<min>:<max>:<count> with an integer count "
       f">= 1, got {text!r}")
      for text in ("log:1e-3:1", "log:1e-3:1:-1", "log:1e-3:1:0",
                   "log:1e-3:1:2.5")),
    # above filters.MAX_STEPS: the logspace alone would take 8 GB
    (["oracle", "--filter", "tikhonov", "--grid-size", "1000000000"],
     "grid_size must be at most 1000000, got 1000000000"),
    (["adapt", "--lattice", "log:1e-6:1:1000000000"],
     "--lattice count must be at most 1000000, got 1000000000")])
def test_bad_grid_or_lattice_bound_exits_2(capsys, monkeypatch, command,
                                           message):
    # checked where each setting is read, before any data is drawn: no
    # "math domain error", numpy message or RuntimeWarning
    monkeypatch.setattr(experiments, "gen_data", _fail)
    code, out, err = run_cli(capsys, *command, "--n", "64", "--runs", "1")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_explicit_k_max_leaves_grid_min_unread(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--k-max", "10", "--grid-min",
                           "0", "--n", "32", "--runs", "1")
    assert code == 0
    assert out.splitlines()[-1].startswith("0.01,10,")


@pytest.mark.parametrize("ms", ["0", "4,0", "1,-2"])
def test_theory_block_count_below_one_exits_2(capsys, ms):
    code, out, err = run_cli(capsys, "theory", "--ns", "64", "--ms", ms)
    assert code == 2 and out == ""
    assert err.startswith("error: block counts must be at least 1")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exits_2(capsys, monkeypatch, workers):
    monkeypatch.setattr(experiments, "gen_data", _fail)
    code, out, err = run_cli(capsys, "simulate", "--n", "64", "--runs", "2",
                             "--workers", workers)
    assert code == 2 and out == ""
    assert err == f"error: workers must be at least 1, got {workers}\n"


@pytest.mark.parametrize("filt", ["tikhonov", "nu-method"])
def test_adapt_workers_below_one_exits_2(capsys, monkeypatch, filt):
    # checked before the first level is fitted, whether or not the fits
    # of that filter reach a thread pool
    monkeypatch.setattr(adaptivity, "fit_lattice", _fail)
    code, out, err = run_cli(capsys, "adapt", "--filter", filt, "--n", "256",
                             "--workers", "0")
    assert code == 2 and out == ""
    assert err == "error: workers must be at least 1, got 0\n"


@pytest.mark.parametrize("argv", [["simulate", "--m", "4"],
                                  ["sweep-alpha", "--shuffle"]])
def test_block_count_and_shuffle_flags_are_gone(capsys, argv):
    # a study level is round(n**alpha) consecutive blocks, set by --alpha
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


@pytest.mark.parametrize("line", ["shuffle = true", "m = 4"])
def test_block_count_and_shuffle_config_keys_exit_2(tmp_path, capsys,
                                                    monkeypatch, line):
    monkeypatch.setattr(experiments, "gen_data", _fail)
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\nn = 64\nruns = 1\n{line}\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(ini))
    assert code == 2 and out == ""
    assert err == f"error: unknown config key {line.split()[0]!r}\n"


def test_sweep_n_tikhonov_identical_across_workers(tmp_path, capsys, pooled):
    # m = 1 and the level solves of m = n**0.5 blocks
    texts = []
    for i, workers in enumerate(("1", "2")):
        out_file = tmp_path / f"rate{i}.csv"
        code, _, _ = run_cli(capsys, "sweep-n", "--filter", "tikhonov",
                             "--lambda", "oracle", "--ns", "64,128,256",
                             "--alphas", "0,0.5", "--sigma", "0.005",
                             "--runs", "3", "--seed", "4",
                             "--workers", workers, "--out", str(out_file))
        assert code == 0
        summary = out_file.with_suffix(".summary.csv")
        texts.append(out_file.read_bytes() + summary.read_bytes())
    assert texts[0] == texts[1]
    assert b"\n256,16,0.5," in texts[0]
    assert pooled == [2, 2] * 3         # oracle and study, 3 sizes


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
        "--R", "3", "--k-max", "9", "--timing"])
    assert _config_from_args(args) == ExperimentConfig(
        filter="tikhonov", n=96, lam="oracle", runs=2, r=0.25, R=3.0,
        k_max=9, timing=True)


@pytest.mark.parametrize("flag", ["--n", "--lambda", "--k-max"])
def test_malformed_value_exits_2(capsys, flag):
    code, _, err = run_cli(capsys, "simulate", "--filter", "tikhonov",
                           "--runs", "1", flag, "abc")
    assert code == 2
    assert err.startswith("error:")
    assert flag.lstrip("-").replace("-", "_") in err
