"""Smoke test of ``tools/output_digest.py``, the CLI output digest."""

import importlib.util
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
