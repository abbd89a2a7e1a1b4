"""Print a digest of what a fixed list of CLI commands writes, to compare
two versions of the package byte for byte.  Usage::

    python tools/output_digest.py [PACKAGE_DIR [BASE_PACKAGE_DIR]]

PACKAGE_DIR defaults to this repository's ``src/splitkern``.  Each command
of `COMMANDS` runs as ``python -m <package>.cli`` in a fresh process, with
``--out`` in a fresh temporary directory as its working directory, one
BLAS thread and PACKAGE_DIR's parent as its only ``PYTHONPATH``.  One line
per command: the SHA-256 of its stdout and of every file it wrote (names
and bytes, in name order), its exit code, then the command.  A failing
command is reported by its exit code, and the others still run.

With BASE_PACKAGE_DIR (another version, say the base commit's), each
command runs on it too, and a command whose digests differ gets a second,
indented line: the base's digest and exit code, then the largest relative
difference between the numbers of the two runs' CSV files, taken in
place, or "shape differs" when their names, lines or the text around the
numbers differ.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "splitkern"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# every experiment command on small data, each fit path at least once;
# each runs in well under a second
_STUDIES = [
    "oracle --filter tikhonov --n 256 --runs 4",
    "oracle --filter nu-method --n 256 --k-max 16 --runs 4",
    "sweep-alpha --filter nu-method --n 512 --k-max 16 --alphas 0,0.3,0.6 "
    "--runs 3",
    "sweep-n --filter tikhonov --ns 128,256,512 --alphas 0,0.4 --runs 3",
    "simulate --filter cutoff --n 200 --alpha 0.4 --lambda 0.001 --runs 2",
    "adapt --filter tikhonov --n 512",
    "adapt --filter nu-method --n 512",
]
COMMANDS = [f"{study} --workers {workers} --out out.csv"
            for study in _STUDIES for workers in (1, 2)] + [
    "theory --out out.csv",
    "smoothness --max-j 64 --out out.csv",
]


def _run(package: Path, command: str):
    """Exit code, stdout and ``{name: bytes}`` of every file written, of
    one command run on `package`."""
    env = {**os.environ, "PYTHONPATH": str(package.resolve().parent),
           "PYTHONDONTWRITEBYTECODE": "1"}
    env.update({var: "1" for var in BLAS_VARS})
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run(
            [sys.executable, "-m", f"{package.name}.cli", *command.split()],
            cwd=tmp, env=env, capture_output=True)
        files = {str(path.relative_to(tmp)): path.read_bytes()
                 for path in sorted(Path(tmp).rglob("*")) if path.is_file()}
    return done.returncode, done.stdout, files


def _line(run, command: str) -> str:
    code, stdout, files = run
    sha = hashlib.sha256(stdout)
    for name, data in files.items():
        sha.update(name.encode())
        sha.update(data)
    return f"{sha.hexdigest()} {code} {command}"


def digest(package: Path, command: str) -> str:
    """The line of one command: SHA-256, exit code, command."""
    return _line(_run(package, command), command)


# a number as a CSV file writes it, in a field or in a comment line
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _relative(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):     # 0.0 and -0.0
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def csv_difference(files: dict, base: dict) -> float | None:
    """Largest relative difference between the numbers of the CSV files
    of two runs, taken in place, None when the files differ in names,
    lines or the text around the numbers."""
    names = sorted(name for name in files if name.endswith(".csv"))
    if names != sorted(name for name in base if name.endswith(".csv")):
        return None
    largest = 0.0
    for name in names:
        lines = files[name].decode().splitlines()
        base_lines = base[name].decode().splitlines()
        if len(lines) != len(base_lines):
            return None
        for line, base_line in zip(lines, base_lines):
            if NUMBER.split(line) != NUMBER.split(base_line):
                return None
            for a, b in zip(NUMBER.findall(line), NUMBER.findall(base_line)):
                largest = max(largest, _relative(a, b))
    return largest


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    base = Path(argv[1]) if len(argv) > 1 else None
    for command in COMMANDS:
        run = _run(package, command)
        line = _line(run, command)
        print(line, flush=True)
        if base is None:
            continue
        base_run = _run(base, command)
        base_line = _line(base_run, command)
        if base_line != line:
            diff = csv_difference(run[2], base_run[2])
            sha, code, _ = base_line.split(" ", 2)
            note = ("shape differs" if diff is None
                    else f"largest relative difference {diff:.3g}")
            print(f"  base {sha} {code}: {note}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
