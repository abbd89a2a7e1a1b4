"""Every name a module imports is used in it: a stale import left behind
by a refactor fails here.  Built on ``ast``, with no linter needed.

Package ``__init__.py`` files, whose imports are the public re-exports,
and ``from __future__`` imports are skipped.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "splitkern", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nimport numpy as np\n"
                     "from itertools import groupby, islice\n"
                     "from __future__ import annotations\n"
                     "np.zeros(islice)\n")
    assert _unused_imports(tree) == ["groupby (line 3)", "os (line 1)"]


def test_cli_import_leaves_concurrent_futures_out():
    # parallel_map needs no executor; concurrent.futures would bring
    # logging and queue into every start-up
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import splitkern.cli, sys; "
         "print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
