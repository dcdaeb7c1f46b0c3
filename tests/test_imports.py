"""Every top-level import in a package module is used in that module,
every top-level definition and every method is read by some package
module, only the memo module touches an object's memo, importing the
command line loads no scipy, and a verify run loads no numpy.ma."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gengraph"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# definitions that no package module reads, with the reason each stays
UNREAD_ALLOWED = {
    "scan_question": "perfbench/tracer.py wraps it by name",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that no expression in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def unread_definitions(sources: list[str]) -> list[str]:
    """Top-level functions and classes that no module reads by name outside
    their own body."""
    defined = []
    read = set()
    for source in sources:
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.append(own)
            read |= {n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and n.id != own}
    return [name for name in defined if name not in read]


def unread_methods(sources: list[str]) -> list[str]:
    """Methods of top-level classes, dunder methods aside, that no module
    reads as an attribute outside their own body, as `Class.method`."""
    defined = []
    read = set()
    for source in sources:
        for node in ast.parse(source).body:
            for item in node.body if isinstance(node, ast.ClassDef) else [node]:
                own = None
                if (isinstance(node, ast.ClassDef)
                        and isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    own = item.name
                    defined.append((node.name, own))
                read |= {n.attr for n in ast.walk(item)
                         if isinstance(n, ast.Attribute) and n.attr != own}
    return [f"{cls}.{name}" for cls, name in defined if name not in read]


def cache_accesses(source: str) -> list[int]:
    """Lines that read or write an attribute `_cache`, or name it in a string
    other than a `__slots__` entry."""
    tree = ast.parse(source)
    slots = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
             for n in ast.walk(node.value)}
    return [n.lineno for n in ast.walk(tree)
            if (isinstance(n, ast.Attribute) and n.attr == "_cache")
            or (isinstance(n, ast.Constant) and n.value == "_cache" and id(n) not in slots)]


def test_detector_finds_an_unused_import():
    assert unused_imports("import json\nimport os\nos.getcwd()\n") == ["json"]
    assert unused_imports("from a import b as c\nc()\n") == []


def test_detector_finds_an_unread_definition():
    caller = "from .a import used\n\ndef main():\n    return used()\n"
    defs = "def used():\n    pass\n\ndef dead(n):\n    return dead(n - 1)\n\nclass Dead:\n    pass\n"
    assert unread_definitions([caller, defs]) == ["main", "dead", "Dead"]
    assert unread_definitions([caller + "\nmain()\n", "def used():\n    pass\n"]) == []


def test_detector_finds_an_unread_method():
    caller = "def main(a):\n    return a.used()\n"
    defs = ("class A:\n    def __init__(self):\n        self.n = 1\n\n"
            "    def used(self):\n        return self.n\n\n"
            "    def dead(self, n):\n        return self.dead(n - 1)\n\n"
            "    @property\n    def unread(self):\n        return 1\n")
    assert unread_methods([caller, defs]) == ["A.dead", "A.unread"]
    assert unread_methods(["class A:\n    def f(self):\n        pass\n", "x.f()\n"]) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_definition_is_read_by_the_package():
    unread = unread_definitions([p.read_text() for p in MODULES])
    assert sorted(unread) == sorted(UNREAD_ALLOWED)


def test_every_method_is_read_by_the_package():
    assert unread_methods([p.read_text() for p in MODULES]) == []


def test_detector_finds_a_cache_access():
    source = ('class A:\n    __slots__ = ("_cache",)\n\n'
              'def f(a):\n    a._cache = {}\n    return getattr(a, "_cache")\n')
    assert cache_accesses(source) == [5, 6]


def test_only_the_memo_module_touches_the_cache():
    """Whatever is derived from a Group or Graph is kept by `memo.cached`
    alone: no other module reads or writes an object's `_cache`."""
    touched = {p.name: cache_accesses(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert touched.pop("memo.py")
    assert {name: lines for name, lines in touched.items() if lines} == {}


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only: a cold `import gengraph.cli` must not
    pay for it in set-up time or memory."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = "import sys, gengraph.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_verify_run_loads_no_numpy_ma(tmp_path):
    """numpy's np.unique and np.union1d import numpy.ma, about 35 ms and
    3 MB in a cold process: a `verify` run, including a non-nilpotent
    group's lattice, must call neither."""
    catalog = tmp_path / "small.txt"
    catalog.write_text("C2\nC6\nHeis3\nC2^2 x C3\nEx(1)\n")
    args = ["verify", "--catalog", str(catalog), "--format", "json", "--no-header",
            "-o", str(tmp_path / "report.json")]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = (f"import sys, gengraph.cli; code = gengraph.cli.main({args!r}); "
             "print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "False"]
