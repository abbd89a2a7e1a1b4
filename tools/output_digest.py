"""Print a digest of what a fixed list of CLI commands writes, to compare
two versions of the package byte for byte.  Usage::

    python tools/output_digest.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this repository's ``src/splitkern``.  Each command
of `COMMANDS` runs as ``python -m <package>.cli`` in a fresh process, with
``--out`` in a fresh temporary directory as its working directory, one
BLAS thread and PACKAGE_DIR's parent as its only ``PYTHONPATH``.  One line
per command: the SHA-256 of its stdout and of every file it wrote (names
and bytes, in name order), its exit code, then the command.  A failing
command is reported by its exit code, and the others still run.
"""

from __future__ import annotations

import hashlib
import os
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


def digest(package: Path, command: str) -> str:
    """The line of one command: SHA-256, exit code, command."""
    env = {**os.environ, "PYTHONPATH": str(package.resolve().parent),
           "PYTHONDONTWRITEBYTECODE": "1"}
    env.update({var: "1" for var in BLAS_VARS})
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run(
            [sys.executable, "-m", f"{package.name}.cli", *command.split()],
            cwd=tmp, env=env, capture_output=True)
        sha = hashlib.sha256(done.stdout)
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                sha.update(str(path.relative_to(tmp)).encode())
                sha.update(path.read_bytes())
    return f"{sha.hexdigest()} {done.returncode} {command}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    for command in COMMANDS:
        print(digest(package, command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
