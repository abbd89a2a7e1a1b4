"""Every public module-level function and class of the package, and every
public method and property of a public class, is read somewhere besides
the tests: API that only tests read fails here.  Built on ``ast``.

A name is read when it appears in a package module other than
``__init__.py`` as an ``ast.Name``, an ``ast.Attribute`` or an imported
name (``by_name as filter_by_name`` reads ``by_name``); in
``perfbench/*.py`` the same way or as a string constant, since the
tracer lists the functions it wraps by name; or as a word of README.md.
Names match by spelling alone, so a name spelled like any name read
there passes unread: a public function ``g`` would, since local
variables are named ``g`` too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "splitkern").glob("*.py")
                 if p.name != "__init__.py")


def _public_names(tree):
    """``(qualified name, name)`` of each public definition checked."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item.name


def _read_names(tree, strings=False) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.add(node.value)
    return names


def _unread(modules: dict, elsewhere: set) -> list:
    """The public names of `modules` (module name -> tree) that no module
    of them reads and that are not in `elsewhere`."""
    read = set(elsewhere).union(*map(_read_names, modules.values()))
    return sorted(f"{module}.{qualified}"
                  for module, tree in modules.items()
                  for qualified, name in _public_names(tree)
                  if name not in read)


def test_every_public_name_is_read_outside_the_tests():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p))
               for p in PACKAGE}
    elsewhere = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in (ROOT / "perfbench").glob("*.py"):
        elsewhere |= _read_names(ast.parse(path.read_text()), strings=True)
    assert _unread(modules, elsewhere) == []


def test_unread_name_is_found():
    defining = ast.parse("def used(): pass\ndef unused(): pass\n"
                         "def aliased(): pass\ndef documented(): pass\n"
                         "def _hidden(): pass\nclass Thing:\n"
                         "    def method(self): pass\n    @property\n"
                         "    def size(self): pass\n"
                         "    def _helper(self): pass\n")
    reading = ast.parse("from .m import aliased as other\n"
                        "used(Thing().method)\n")
    assert _unread({"m": defining, "n": reading}, {"documented"}) == [
        "m.Thing.size", "m.unused"]
