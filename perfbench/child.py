"""One repetition of one workload, in a fresh process.

Started by ``run.py`` with the BLAS thread limit already in the
environment, so it holds before numpy loads.  Prints one JSON line: the
set-up time (process launch to the start of the timed call), the wall and
CPU time of the timed call (inputs ready to outputs checked), the peak
resident set, the output checks and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_info() -> dict:
    """BLAS library in use and the thread count it reports, if it can."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": None}
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--size", default="full", choices=["full", "smoke"])
    ap.add_argument("--launch", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="file the traced spans are written to")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="report the outputs instead of checking them")
    args = ap.parse_args()

    import splitkern.cli  # noqa: F401  (the import is part of set-up)

    import workloads

    if not args.record:
        refs = json.loads((HERE / "refs.json").read_text())
        ref = refs["workloads"][args.workload][args.size][str(args.seed)]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    run = workloads.prepare(args.workload, args.seed, args.workers, args.size)

    t0, c0 = time.monotonic(), _cpu()
    report = {"setup_s": t0 - args.launch}
    if not args.setup_only:
        outputs, out_bytes = run()
        failures = [] if args.record else workloads.check(outputs, ref)
        t1, c1 = time.monotonic(), _cpu()
        report.update(wall_s=t1 - t0, cpu_s=c1 - c0, failures=failures,
                      out_bytes=out_bytes)
        if args.record:
            report["outputs"] = outputs
    report["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    report.update(blas_info())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
