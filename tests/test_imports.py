"""Every import in the package and the tests is used, and every private
name the package defines is read by the package.

An import binds a name (the alias, or the first part of a dotted module);
the name is used when the module reads it anywhere. The package's
__init__.py only re-exports, so it is skipped. A private name (a leading
underscore, not a dunder) is a module-level function, class or assignment,
or a method; it is read when some module under src/ loads it as a name or
an attribute, or imports it. So a fold cannot leave an orphaned helper.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "bihomlie").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [(line, name) for line, name in bound if name not in read]


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom a.b import c as d, e\ne()\n"
    assert unused_imports(source) == [(1, "os"), (2, "d")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text("utf-8")) == []


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def unread_private_names(sources):
    """(module, line, name) of each private module-level name or method
    defined in the {module: source} map that no source reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                defined += [(module, node.lineno, t.id) for t in node.targets
                            if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(module, f.lineno, f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [(module, line, name) for module, line, name in defined
            if _is_private(name) and name not in read]


def test_the_scan_sees_an_unread_private_name():
    sources = {"a": "_X = 1\n_Y = 2\ndef _f():\n    return _X\n"
                    "class C:\n    def _m(self):\n        self._n = 1\n"
                    "    def _n(self):\n        pass\n",
               "b": "from a import _f\n"}
    assert unread_private_names(sources) == [("a", 2, "_Y"), ("a", 6, "_m"),
                                             ("a", 8, "_n")]


def test_no_unread_private_name_in_the_package():
    package = ROOT / "src" / "bihomlie"
    assert unread_private_names({p.name: p.read_text("utf-8")
                                 for p in sorted(package.glob("*.py"))}) == []
