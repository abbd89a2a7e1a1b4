"""Record one point of the benchmark trajectory.

    python3 perfbench/record_point.py --label NAME [--seeds 0,23] [--seconds S]

Runs every workload untraced and traced at each seed, exactly as
``run.py`` does, and writes the result records (environment stamp,
medians, sample counts, every repetition) to ``results/NAME.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, measure, print_result
from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="0,23")
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args()
    point = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        per_seed = point["workloads"][name] = {}
        for seed in (int(s) for s in args.seeds.split(",")):
            per_seed[str(seed)] = {}
            for trace in (0, 1):
                res = measure(name, seed, args.seconds, trace)
                print_result(res, trace)
                per_seed[str(seed)]["traced" if trace else "untraced"] = res
                ok &= res["correct"]
    out = HERE / "results" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
