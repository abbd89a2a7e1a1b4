"""The benchmark's workloads: inputs, output extraction and output checks.

Every workload uses target ``quadratic-bump`` and noise sigma = 0.005.
Each has a full size (the measured one) and a smoke size (n <= 256, one
Monte-Carlo run) that runs the same code path in well under a second.

Outputs are reduced to the numbers the paper's studies report and are
checked against references recorded on the seed commit (``refs.json``):
selected lambda or k, k* and block counts m must match exactly; group
means, fitted slopes and adapt errors must agree to ``REL_TOL``.
"""

from __future__ import annotations

import contextlib
import io
import math

REL_TOL = 1e-6
TARGET, SIGMA = "quadratic-bump", "0.005"


def _sweep_argv(command, sizes, seed, workers):
    return [command, "--target", TARGET, "--sigma", SIGMA, *sizes,
            "--seed", str(seed), "--workers", str(workers)]


SIZES = {
    "sweep-n-tikhonov": {
        "full": ["--filter", "tikhonov", "--lambda", "oracle",
                 "--ns", "512,1024,2048", "--alphas", "0", "--runs", "2"],
        "smoke": ["--filter", "tikhonov", "--lambda", "oracle",
                  "--ns", "64,128,256", "--alphas", "0", "--runs", "1"],
    },
    "sweep-alpha-nu": {
        "full": ["--filter", "nu-method", "--nu", "1", "--n", "4096",
                 "--lambda", "oracle", "--k-max", "64",
                 "--alphas", "0,0.1,0.2,0.3,0.4,0.5,0.6", "--runs", "4"],
        "smoke": ["--filter", "nu-method", "--nu", "1", "--n", "256",
                  "--lambda", "oracle", "--k-max", "16",
                  "--alphas", "0,0.3,0.6", "--runs", "1"],
    },
    "adapt-user-kernel": {"full": {"n": 4096}, "smoke": {"n": 256}},
}
WORKLOADS = list(SIZES)


def _read_results_csv(text):
    """Rows of the per-run results CSV that the CLI writes to stdout."""
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("n,m,"))
    header = lines[start].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[start + 1:] if ln]


def _groups(rows, key):
    """Mean hk and L2 error per (key, m) group, in ascending key order."""
    out = {}
    for r in rows:
        g = out.setdefault((float(r[key]), int(r["m"])),
                           {"lambda": float(r["lambda"]),
                            "k": int(r["k"]) if r["k"] else None,
                            "hk": [], "l2": []})
        g["hk"].append(float(r["hk_error"]))
        g["l2"].append(float(r["l2_error"]))
    return [{key: k, "m": m, "lambda": g["lambda"], "k": g["k"],
             "hk_mean": math.fsum(g["hk"]) / len(g["hk"]),
             "l2_mean": math.fsum(g["l2"]) / len(g["l2"])}
            for (k, m), g in sorted(out.items())]


def _slope(ns, values):
    """Least-squares slope of log(values) against log(ns)."""
    lx = [math.log(v) for v in ns]
    ly = [math.log(v) for v in values]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def prepare(name, seed, workers, size="full"):
    """Build the inputs of one workload run; returns a call that runs it.

    The call returns ``(outputs, out_bytes)``: the numbers checked
    against the references, and the bytes the CLI wrote (0 for adapt).
    """
    if name == "adapt-user-kernel":
        return _prepare_adapt(seed, workers, SIZES[name][size]["n"])
    from splitkern import cli

    command = "sweep-n" if name == "sweep-n-tikhonov" else "sweep-alpha"
    argv = _sweep_argv(command, SIZES[name][size], seed, workers)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"splitkern {command} exited with {rc}")
        text = buf.getvalue()
        rows = _read_results_csv(text)
        if command == "sweep-n":
            groups = _groups(rows, "n")
            outputs = {"groups": groups, "slope": _slope(
                [g["n"] for g in groups], [g["hk_mean"] for g in groups])}
        else:
            groups = _groups(rows, "alpha")
            outputs = {"k": groups[0]["k"], "groups": groups}
        return outputs, len(text.encode())

    return run


def _prepare_adapt(seed, workers, n):
    import numpy as np

    from splitkern import adaptivity, experiments, filters, kernels, smoothness

    kernel = kernels.user_kernel(
        lambda x, t: np.exp(-(x - t) ** 2 / (2 * 0.1 ** 2)), kappa=1.0)
    target = smoothness.target_by_name(TARGET)
    x, y = experiments.gen_data(target, n, float(SIGMA),
                                experiments.run_rng(seed, 0))
    lattice = np.logspace(-6.0, 0.0, 25)
    # The default m-sequence, cut to its first three levels (m = 129, 58,
    # 26 at n = 4096), so that every seed does the same work: adapt never
    # stops before level 3, and with the full sequence 6 of the 24
    # recorded seeds go on to level 4 and take about twice as long.
    n_train = adaptivity.holdout_split(n, 0.2, seed).train.size
    m_sequence = adaptivity.default_m_sequence(n_train)[:3]

    def run():
        res = adaptivity.adapt(x, y, kernel, filters.tikhonov(), lattice,
                               m_sequence=m_sequence, delta=0.5,
                               val_fraction=0.2, seed=seed, workers=workers)
        levels = [{"m": lev.m_k, "lambda": lev.lambda_hat, "err": lev.err}
                  for lev in res.trace]
        return {"k_star": res.k_star, "levels": levels}, 0

    return run


def _close(got, ref) -> bool:
    return abs(got - ref) <= REL_TOL * abs(ref)


def check(outputs, ref) -> list[str]:
    """Compare outputs with a reference; one entry per failed check.

    The number of checks attempted is ``count_checks(ref)``.
    """
    failed = []

    def exact(label, got, want):
        if got != want:
            failed.append(f"{label}: got {got!r}, reference {want!r}")

    def close(label, got, want):
        if got is None or not _close(got, want):
            failed.append(f"{label}: got {got!r}, reference {want!r}")

    if "k_star" in ref:
        exact("k_star", outputs.get("k_star"), ref["k_star"])
        got_levels = outputs.get("levels", [])
        for i, lev in enumerate(ref["levels"]):
            got = got_levels[i] if i < len(got_levels) else {}
            exact(f"level {i + 1} m", got.get("m"), lev["m"])
            exact(f"level {i + 1} lambda", got.get("lambda"), lev["lambda"])
            close(f"level {i + 1} err", got.get("err"), lev["err"])
        return failed

    if "k" in ref:
        exact("k", outputs.get("k"), ref["k"])
    if "slope" in ref:
        close("slope", outputs.get("slope"), ref["slope"])
    key = "n" if "slope" in ref else "alpha"
    got_groups = {g[key]: g for g in outputs.get("groups", [])}
    for g in ref["groups"]:
        got = got_groups.get(g[key], {})
        label = f"{key}={g[key]}"
        exact(f"{label} m", got.get("m"), g["m"])
        if "slope" in ref:
            exact(f"{label} lambda", got.get("lambda"), g["lambda"])
        close(f"{label} hk_mean", got.get("hk_mean"), g["hk_mean"])
        close(f"{label} l2_mean", got.get("l2_mean"), g["l2_mean"])
    return failed


def count_checks(ref) -> int:
    if "k_star" in ref:
        return 1 + 3 * len(ref["levels"])
    per_group = 4 if "slope" in ref else 3
    return int("k" in ref) + int("slope" in ref) + per_group * len(ref["groups"])
