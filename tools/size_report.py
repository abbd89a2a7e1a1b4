"""Print the package's size: its lines by ``wc -l`` and its settable
values, and then the lines of its tests by ``wc -l``.

Settable values are counted by AST over every module of the package,
private modules included:

- the parameters of each public function and of each public method of a
  public class (``__init__`` included; ``self``, ``cls``, other dunders
  and properties not);
- the fields of each public dataclass.

A name is public when it does not start with an underscore.  Usage::

    python tools/size_report.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this repository's ``src/splitkern``.  The tests
counted are ``PACKAGE_DIR/../../tests/*.py``, so the tests of the checkout
that holds PACKAGE_DIR.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "splitkern"


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _decorated(node, name: str) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == name:
            return True
    return False


def _parameters(fn) -> int:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return sum(name not in ("self", "cls") for name in names)


def settable_values(tree: ast.Module) -> int:
    """Parameters of the public functions and methods, and fields of the
    public dataclasses, of one module."""
    total = 0
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            total += _parameters(node) if _public(node.name) else 0
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            if _decorated(node, "dataclass"):
                total += sum(isinstance(item, ast.AnnAssign)
                             for item in node.body)
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and _public(item.name)
                        and not _decorated(item, "property")
                        and not _decorated(item, "cached_property")):
                    total += _parameters(item)
    return total


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    lines = values = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        values += settable_values(ast.parse(text))
    tests = sum(path.read_text().count("\n")
                for path in (package / ".." / ".." / "tests").glob("*.py"))
    print(f"lines {lines}")
    print(f"settable values {values}")
    print(f"test lines {tests}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
