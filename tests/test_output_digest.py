"""Smoke test of ``tools/output_digest.py``, the CLI output digest."""

import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _load():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_listed_command_digests_to_the_same_line_twice():
    # a study that writes a results and a summary file, on two workers
    tool = _load()
    command = next(c for c in tool.COMMANDS
                   if c.startswith("sweep-n ") and "--workers 2" in c)
    line = tool.digest(tool.PACKAGE, command)
    assert tool.digest(tool.PACKAGE, command) == line
    sha, code, rest = line.split(" ", 2)
    assert len(sha) == 64 and code == "0" and rest == command


def test_csv_difference_reads_numbers_or_a_shape_change():
    tool = _load()
    text = b"n,lambda,k\n128,0.5,\n# slope alpha=0.4: -0.25"
    base = {"out.csv": text + b"\n", "notes.txt": b"a"}
    moved = {"out.csv": text + b"00001\n", "notes.txt": b"b"}
    assert tool.csv_difference(base, base) == 0.0
    assert abs(tool.csv_difference(moved, base) - 4e-7) < 1e-12
    assert tool.csv_difference({"out.csv": b"n\n0.0\n"},
                               {"out.csv": b"n\n-0.0\n"}) == 0.0
    assert tool.csv_difference({"out.csv": b"n\nnan\n"},
                               {"out.csv": b"n\n1.5\n"}) == math.inf
    for other in (b"n,lambda,k\n128,0.5,\n# slope alpha=0.4: -0.25\n\n",
                  b"n,lambda\n128,0.5\n# slope alpha=0.4: -0.25\n",
                  b"n,lam,k\n128,0.5,\n# slope alpha=0.4: -0.25\n"):
        # a line more, a field fewer, a header renamed
        assert tool.csv_difference({"out.csv": other}, base) is None
    assert tool.csv_difference({"other.csv": base["out.csv"]}, base) is None
