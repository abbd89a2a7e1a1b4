"""Thread-budget table: workers x BLAS threads on sweep-n-tikhonov.

    python3 perfbench/thread_budget.py [--seed N] [--seconds S] [--out FILE]

Runs the traced benchmark of sweep-n-tikhonov at workers in {1, 2} and
OpenBLAS threads in {1, 2}; 1 x 1 is the plain single-threaded baseline.
Reports wall_s and cpu_s (untraced repetitions) and parallel.busy_frac
(traced repetitions).  The benchmark itself always runs workers = nproc
and one BLAS thread; this table shows why.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import measure

WORKLOAD = "sweep-n-tikhonov"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", help="write the results as JSON")
    args = ap.parse_args()
    rows = []
    print(f"{'workers':>7} {'blas':>4} {'wall_s':>9} {'cpu_s':>9} "
          f"{'busy_frac':>9} {'samples':>7}")
    for workers in (1, 2):
        for blas in (1, 2):
            res = measure(WORKLOAD, args.seed, args.seconds, 1,
                          workers=workers, blas_threads=blas)
            m = res["metrics"]
            rows.append({"workers": workers, "blas_threads": blas,
                         "wall_s": m["wall_s"], "cpu_s": m["cpu_s"],
                         "busy_frac": m["parallel.busy_frac"],
                         "samples": res["samples"]["wall_s"],
                         "correct": res["correct"], "env": res["env"]})
            print(f"{workers:>7} {blas:>4} {m['wall_s']:>9.3f} "
                  f"{m['cpu_s']:>9.3f} {m['parallel.busy_frac']:>9.3f} "
                  f"{res['samples']['wall_s']:>7}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": WORKLOAD, "rows": rows}, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["correct"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
