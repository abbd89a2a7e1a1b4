"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_refs.py [--seeds N] [--workloads A,B]

Runs each workload at full size for program seeds 0..N-1, and at smoke
size for seed 0, and writes ``refs.json``.  With ``--workloads`` only the
named workloads are recorded; the references of the others are kept.
References are recorded once, on the commit the benchmark was introduced
on; later commits are checked against them, never re-recorded to make a
check pass.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, _git_commit, _src_digest, nproc, run_child
from workloads import REL_TOL, WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=24)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    names = args.workloads.split(",")
    if not set(names) <= set(WORKLOADS):
        ap.error(f"workloads must be among {', '.join(WORKLOADS)}")
    path = HERE / "refs.json"
    old = (json.loads(path.read_text())["workloads"]
           if path.is_file() else {})
    table = {name: old[name] for name in WORKLOADS
             if name in old and name not in names}
    for name in names:
        table[name] = {}
        for size, seeds in (("smoke", [0]), ("full", range(args.seeds))):
            table[name][size] = {}
            for seed in seeds:
                rep = run_child(name, seed, nproc(), size=size, record=True)
                if "error" in rep:
                    print(f"{name} {size} seed {seed}: {rep['error']}",
                          file=sys.stderr)
                    return 1
                table[name][size][str(seed)] = rep["outputs"]
                print(f"{name} {size} seed {seed}: {rep['wall_s']:.2f} s "
                      f"{json.dumps(rep['outputs'])[:120]}", flush=True)
    refs = {
        "recorded_on": {"git_commit": _git_commit(),
                        "src_sha256": _src_digest()},
        "tolerance": {
            "exact": "selected lambda or k, adapt k_star, block counts m",
            "relative": REL_TOL,
            "relative_applies_to": "group hk_mean and l2_mean, sweep-n "
                                   "slope, adapt per-level err",
        },
        "workloads": {name: table[name] for name in WORKLOADS
                      if name in table},
    }
    path.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
