"""Benchmark of splitkern's three Monte-Carlo studies.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each repetition of a workload runs in a fresh process (``child.py``) with
``--workers`` equal to the number of usable cores and OpenBLAS limited to
one thread, so the program never runs more threads than there are cores.
Repetitions start while the next one is expected to end within
``--seconds``; the reported figure of each metric is the median over
repetitions, and set-up is additionally probed ``SETUP_PROBES`` times.  Every repetition checks its
outputs against the references in ``refs.json``.

With ``--trace 1`` repetitions alternate between traced and untraced
ones (at least two traced, one untraced) and the per-layer metrics are
reported, with the tracing overhead (traced minus untraced ``wall_s``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 8
DEADLINE_S = 170.0          # every run must end within 180 s

# name -> unit; the end-to-end metrics are printed with --trace 0
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB",
              "setup_s": "s"}
# name -> unit; the per-layer metrics are printed with --trace 1.  Units
# "count" and "B" are exact counts (bytes are computed, rows x cols x 8).
PER_LAYER = {
    "experiments.gen_data.self_s": "s",
    "experiments.oracle_select.calls": "count",
    "experiments.oracle_select.self_s": "s",
    "experiments.hk_error.self_s": "s",
    "experiments.l2_error.calls": "count",
    "experiments.l2_error.self_s": "s",
    "kernels.gram.calls": "count",
    "kernels.gram.self_s": "s",
    "kernels.gram.bytes": "B",
    "estimator.spectral_model.calls": "count",
    "estimator.spectral_model.self_s": "s",
    "estimator.spectral_model.max_n": "count",
    "estimator.fit_spectral.calls": "count",
    "estimator.fit_spectral.self_s": "s",
    "estimator.fit_iterative.calls": "count",
    "estimator.fit_iterative.self_s": "s",
    "estimator.fit_iterative.steps": "count",
    "estimator.predict.calls": "count",
    "estimator.predict.self_s": "s",
    "estimator.predict.evals": "count",
    "filters.filter_values.calls": "count",
    "filters.filter_values.self_s": "s",
    "distributed.fit_distributed.calls": "count",
    "distributed.fit_distributed.self_s": "s",
    "distributed.fit_distributed.blocks": "count",
    "adaptivity.fit_lattice.self_s": "s",
    "adaptivity.empirical_error.self_s": "s",
    "adaptivity.levels": "count",
    "parallel.parallel_map.wall_s": "s",
    "parallel.task_busy_s": "s",
    "parallel.task_wait_s": "s",
    "parallel.busy_frac": "ratio",
    "cli.main.self_s": "s",
    "cli.out_bytes": "B",
    "trace.overhead_s": "s",
}
COUNT_UNITS = ("count", "B")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_refs() -> dict:
    return json.loads((HERE / "refs.json").read_text())


def program_seed(refs, workload, seed, size="full") -> int:
    """The recorded seed a workload seed maps to (references exist for it)."""
    seeds = sorted(int(s) for s in refs["workloads"][workload][size])
    return seeds[seed % len(seeds)]


def run_child(workload, seed, workers, *, blas_threads=1, trace=False,
              size="full", setup_only=False, record=False, spans=None,
              timeout=DEADLINE_S) -> dict:
    """Run one repetition in a fresh process; ``error`` is set on failure."""
    env = dict(os.environ)
    env.update({var: str(blas_threads) for var in BLAS_VARS})
    launch = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--workers", str(workers), "--size", size,
           "--launch", repr(launch), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if record:
        cmd.append("--record")
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "timed out", "traced": trace}
    if proc.returncode != 0:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return {"error": f"exit code {proc.returncode}: {tail}",
                "traced": trace}
    rep = json.loads(out.strip().splitlines()[-1])
    rep.update(traced=trace, elapsed_s=time.monotonic() - launch)
    return rep


def measure(workload, seed, seconds, trace, *, size="full", workers=None,
            blas_threads=1, probes=SETUP_PROBES) -> dict:
    """All repetitions of one benchmark run, reduced to its result record."""
    deadline = time.monotonic() + DEADLINE_S
    refs = load_refs()
    pseed = program_seed(refs, workload, seed, size)
    n_checks = workloads.count_checks(
        refs["workloads"][workload][size][str(pseed)])
    workers = nproc() if workers is None else workers
    kw = dict(blas_threads=blas_threads, size=size)

    setups = []
    for _ in range(probes):
        rep = run_child(workload, pseed, workers, setup_only=True, **kw)
        if "error" in rep:
            raise RuntimeError(f"set-up of {workload} failed: {rep['error']}")
        setups.append(rep)

    reps = []
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(reps) % 2 == 0
        spans = (HERE / "out" / f"spans-{workload}-{len(reps)}.jsonl"
                 if traced else None)
        reps.append(run_child(workload, pseed, workers, trace=traced,
                              spans=spans, timeout=deadline - time.monotonic(),
                              **kw))
        n_traced = sum(r["traced"] for r in reps)
        enough = not trace or (n_traced >= 2 and len(reps) - n_traced >= 1)
        typical = statistics.median(r.get("elapsed_s", 0.0) for r in reps)
        # start no repetition that would end after --seconds
        if enough and time.monotonic() - start + typical > seconds:
            break
        if deadline - time.monotonic() < 2 * typical + 5:
            break
    return summarize(workload, seed, pseed, workers, blas_threads, trace,
                     seconds, setups, reps, n_checks)


def _median(values):
    return statistics.median(values) if values else None


def summarize(workload, seed, pseed, workers, blas_threads, trace, seconds,
              setups, reps, n_checks) -> dict:
    ok = [r for r in reps if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    attempted = n_checks * len(reps)
    failed = (n_checks * (len(reps) - len(ok))
              + sum(len(r["failures"]) for r in ok))
    failures = [r["error"] for r in reps if "error" in r]
    failures += sorted({f for r in ok for f in r["failures"]})

    metrics = {
        "wall_s": _median([r["wall_s"] for r in plain]),
        "cpu_s": _median([r["cpu_s"] for r in plain]),
        "peak_rss_mib": _median([r["peak_rss_mib"] for r in plain]),
        "setup_s": _median([r["setup_s"] for r in setups + plain]),
    }
    samples = {"wall_s": len(plain), "cpu_s": len(plain),
               "peak_rss_mib": len(plain),
               "setup_s": len(setups) + len(plain)}
    if traced:
        per_rep = []
        for r in traced:
            layers = dict(r["layers"], **{"cli.out_bytes": r["out_bytes"]})
            per_rep.append({k: layers[k] for k in PER_LAYER if k in layers})
        counts = [k for k, u in PER_LAYER.items() if u in COUNT_UNITS]
        for k in counts:             # exact counts must repeat identically
            attempted += len(per_rep) - 1
            bad = sum(p[k] != per_rep[0][k] for p in per_rep[1:])
            failed += bad
            if bad:
                failures.append(f"count {k} differs between traced runs: "
                                f"{[p[k] for p in per_rep]}")
        for k in per_rep[0]:
            metrics[k] = (per_rep[0][k] if k in counts
                          else _median([p[k] for p in per_rep]))
            samples[k] = len(per_rep)
        metrics["trace.overhead_s"] = (
            _median([r["wall_s"] for r in traced]) - metrics["wall_s"]
            if plain else None)
        samples["trace.overhead_s"] = len(traced)

    first = (ok or setups)[0]
    env = {
        "workload": workload, "seed": seed, "program_seed": pseed,
        "nproc": nproc(), "workers": workers,
        "blas": first.get("blas"), "blas_thread_limit": blas_threads,
        "blas_threads_reported": first.get("blas_threads"),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "seconds": seconds, "trace": int(bool(trace)),
    }
    return {"env": env, "correct": failed == 0, "attempted": attempted,
            "failed": failed, "failed_frac": failed / attempted,
            "failures": failures[:20], "metrics": metrics,
            "samples": samples, "reps": reps, "setup_probes": setups}


def _version(pkg):
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return None


def _git_commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest():
    """Digest of the package sources; identifies the program without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "splitkern").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def units_for(trace) -> dict:
    return PER_LAYER if trace else END_TO_END


def print_result(result, trace) -> None:
    env = result["env"]
    print(f"workload {env['workload']}  seed {env['seed']} "
          f"(program seed {env['program_seed']})  workers {env['workers']}"
          f"  BLAS threads {env['blas_thread_limit']}  nproc {env['nproc']}")
    print(f"{'metric':36} {'value':>14}  {'unit':6} samples")
    rows = [(k, result["metrics"].get(k), u, result["samples"].get(k))
            for k, u in {**END_TO_END, **(PER_LAYER if trace else {})}.items()]
    rows.append(("failed_frac", result["failed_frac"], "ratio",
                 f"{result['failed']}/{result['attempted']} checks"))
    for k, v, u, n in rows:
        val = "n/a" if v is None else f"{v:.6g}"
        print(f"{k:36} {val:>14}  {u:6} {n}")
    for f in result["failures"]:
        print(f"failed check: {f}")
    print("result: " + json.dumps(result, separators=(",", ":")))


def contract_line(result, trace) -> str:
    metrics = {k: {"value": result["metrics"][k], "unit": u}
               for k, u in units_for(trace).items()}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def smoke() -> int:
    """Run every workload's code path at tiny sizes, traced and untraced,
    and check that every metric is emitted with a unit."""
    for name in workloads.WORKLOADS:
        result = measure(name, 0, 0, 1, size="smoke", probes=1)
        print_result(result, True)
        for trace in (0, 1):
            line = json.loads(contract_line(result, trace))
            for k, unit in units_for(trace).items():
                m = line["metrics"][k]
                if m["unit"] != unit or not isinstance(m["value"],
                                                       (int, float)):
                    print(f"smoke: {name}: metric {k} missing or unitless",
                          file=sys.stderr)
                    return 1
        if not result["correct"]:
            print(f"smoke: {name}: output checks failed", file=sys.stderr)
            return 1
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; check that every metric is emitted")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "splitkern" / "__init__.py").is_file():
        print(f"error: no splitkern sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if any(result["metrics"].get(k) is None for k in units_for(args.trace)):
        print("error: no repetition succeeded", file=sys.stderr)
        for f in result["failures"]:
            print(f"  {f}", file=sys.stderr)
        return 1
    print_result(result, args.trace)
    print(contract_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
