"""Smoke test of ``tools/size_report.py``, the package's size counter."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "size_report.py"


def _load():
    spec = importlib.util.spec_from_file_location("size_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_size_report_prints_lines_and_settable_values():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    lines = sum(p.read_text().count("\n")
                for p in (ROOT / "src" / "splitkern").glob("*.py"))
    assert out[0] == f"lines {lines}"
    assert out[1].startswith("settable values ")
    assert int(out[1].split()[-1]) > 0
    tests = sum(p.read_text().count("\n")
                for p in (ROOT / "tests").glob("*.py"))
    assert out[2:] == [f"test lines {tests}"]


def test_settable_values_rule():
    source = '''
from dataclasses import dataclass

def public(a, b=1, *args, c, **kw): pass
def _private(a, b): pass

@dataclass(frozen=True)
class Record:
    x: float
    y: int = 0
    def method(self, z): pass

class Operator:
    def __init__(self, kernel, points): pass
    def __call__(self, x): pass
    def matvec(self, v): pass
    def _helper(self, v): pass
    @property
    def size(self): pass
    @classmethod
    def build(cls, n): pass

class _Hidden:
    def method(self, v): pass
'''
    # public: a, b, args, c, kw; Record: x, y and z; Operator: kernel,
    # points, v and n
    assert _load().settable_values(ast.parse(source)) == 5 + 3 + 4
