"""The harness's own test: every workload's code path at tiny sizes.

Run with ``python -m pytest perfbench``.  Takes a few seconds.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_emits_every_metric_with_a_unit():
    run = Path(__file__).with_name("run.py")
    res = subprocess.run([sys.executable, str(run), "--smoke"],
                         capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    assert res.stdout.rstrip().endswith("smoke ok")
