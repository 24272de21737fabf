"""Unused-import and write-only-state checks for the package, standing in
for a linter.

A module-level import in ``src/jesd204b_sim/`` must bind a name that the
module reads somewhere (a ``Name`` load, which includes the base of an
attribute access and annotations) or that its ``__all__`` exports.  An
import whose statement carries ``# noqa`` is exempt, and ``__future__``
imports are skipped.

Every attribute the package stores (``obj.name = ...``, augmented
assignments included) must be loaded somewhere in the package, so state
that is written but never read does not linger.  Attributes stored inside
exception classes are exempt: they are a payload for the handler.  Every
name in a class's ``__slots__`` is stored (``self.name = ...``) inside
that class, so a slot whose state was deleted cannot linger either.

Every module-level UPPER_CASE name is assigned in one module only; the
others import it, so a constant cannot drift between two definitions.

No module reaches for another module's private (underscore) names, by
import or through an imported name; what crosses a module boundary is
public.

Every parameter of a function or method in the package (``self`` and
``cls`` aside) is read in its body, so an argument that no longer steers
anything cannot linger in a signature.

Every top-level function and class in the package, and every method of
a top-level class (dunder methods aside), is referenced somewhere in
``src/``, ``tests/``, ``demos/`` or ``bench/``: read as a name or an
attribute, or named in a string (as ``getattr`` targets are).  Imports
and ``__all__`` entries do not count, so a form that is deleted from
every caller cannot linger behind its export.
"""

import ast
import builtins
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jesd204b_sim"
MODULES = sorted(PACKAGE.glob("*.py"))
USERS = sorted(p for d in ("src", "tests", "demos", "bench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that nothing reads or exports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1: node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name not in exported:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def write_only_attributes(sources: dict[str, str]) -> list[str]:
    """Attributes stored in ``sources`` (module name -> text) and loaded in
    none of them, outside exception classes, as ``module line n: name``."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    classes = [node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    exceptions = {name for name, obj in vars(builtins).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)}
    while True:  # subclasses of exception classes, to a fixed point
        found = {c.name for c in classes
                 if any(isinstance(b, ast.Name) and b.id in exceptions for b in c.bases)}
        if found <= exceptions:
            break
        exceptions |= found
    exempt = {id(node) for c in classes if c.name in exceptions for node in ast.walk(c)}
    attributes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)]
    loaded = {node.attr for _, node in attributes if isinstance(node.ctx, ast.Load)}
    return [f"{name} line {node.lineno}: {node.attr}"
            for name, node in sorted(attributes, key=lambda a: (a[0], a[1].lineno))
            if isinstance(node.ctx, ast.Store) and node.attr not in loaded
            and id(node) not in exempt]


def repeated_constants(sources: dict[str, str]) -> list[str]:
    """Module-level UPPER_CASE names assigned in more than one of
    ``sources`` (module name -> text), as ``name: module, module``."""
    owners: dict[str, set[str]] = {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if name.isupper():
                    owners.setdefault(name, set()).add(module)
    return [f"{name}: {', '.join(sorted(modules))}"
            for name, modules in sorted(owners.items()) if len(modules) > 1]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """Private names taken from other modules, as ``line n: name``: imported
    (``from m import _x``, ``import m._x``) or read through an imported
    name (``m._x``)."""
    tree = ast.parse(source)
    found, imported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(node.lineno, a.name) for a in node.names if _private(a.name)]
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if any(_private(part) for part in a.name.split("."))]
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    found += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in imported and _private(node.attr)]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_check_flags_what_it_should():
    source = "\n".join([
        "from __future__ import annotations",
        "import json",
        "from .a import _b, c",
        "from .d import (e as _e,",
        "                f)",
        "from . import g",
        "import h._i",
        "x = g._j + g.k + c.__doc__ + json._default_decoder + _e",
        "class T:",
        "    def m(self):",
        "        return self._own",
    ])
    assert private_imports(source) == [
        "line 3: _b", "line 7: h._i", "line 8: g._j", "line 8: json._default_decoder"]


def test_each_constant_defined_once():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert repeated_constants(sources) == []


def test_constant_check_flags_what_it_should():
    first = "\n".join([
        "OCTETS = 4",
        "_TABLE: dict = {}",
        "A, B = 1, 2",
        "width = 8",
        "def f():",
        "    LOCAL = 3",
    ])
    second = "\n".join([
        "from first import OCTETS, A",
        "OCTETS = 4",
        "_TABLE = {}",
        "B += 1",
        "width = 8",
        "LOCAL = 1",
    ])
    assert repeated_constants({"first.py": first, "second.py": second}) == [
        "OCTETS: first.py, second.py", "_TABLE: first.py, second.py"]


def test_no_write_only_attributes():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert write_only_attributes(sources) == []


def test_write_only_check_flags_what_it_should():
    lane = "\n".join([
        "class Lane:",
        "    def __init__(self):",
        "        self.read = 0",
        "        self.written = 0",
        "        self.counted = 0",
        "    def step(self, other):",
        "        self.counted += 1",
        "        other.shared, self.written = self.read, 1",
        "        return self.read",
    ])
    faults = "\n".join([
        "class Fault(ValueError):",
        "    def __init__(self, where):",
        "        self.where = where",
        "class LaneFault(Fault):",
        "    def __init__(self, lane):",
        "        self.lane = lane",
        "def report(lane):",
        "    return lane.shared",
    ])
    assert write_only_attributes({"lane.py": lane, "faults.py": faults}) == [
        "lane.py line 4: written", "lane.py line 5: counted",
        "lane.py line 7: counted", "lane.py line 8: written"]


def unassigned_slots(source: str) -> list[str]:
    """``__slots__`` names that no ``self.name`` store in their class
    writes, as ``line n: Class.name``."""
    found = []
    for cls in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)):
        stored = {n.attr for n in ast.walk(cls)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                  and isinstance(n.value, ast.Name) and n.value.id == "self"}
        for node in cls.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
                slots = ast.literal_eval(node.value)
                found += [(node.lineno, f"{cls.name}.{name}")
                          for name in ([slots] if isinstance(slots, str) else slots)
                          if name not in stored]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_slot_assigned(path):
    assert unassigned_slots(path.read_text(encoding="utf-8")) == []


def test_slot_check_flags_what_it_should():
    source = "\n".join([
        "class Lane:",
        "    __slots__ = ('idx', 'buffer', 'state', 'stale')",
        "    def __init__(self, idx):",
        "        self.idx = idx",
        "        self.clear()",
        "    def clear(self):",
        "        self.buffer: list = []",
        "        self.state, other.stale = 0, 1",
        "class Single:",
        "    __slots__ = 'only'",
        "class Open:",
        "    def set(self):",
        "        self.anything = 1",
    ])
    assert unassigned_slots(source) == ["line 2: Lane.stale", "line 10: Single.only"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_flags_what_it_should():
    source = "\n".join([
        "from __future__ import annotations",
        "import json",
        "import numpy as np",
        "from os import path, sep  # noqa: F401",
        "from .a import b, c",
        "from .d import (e,",
        "                f)  # noqa",
        "__all__ = ['c']",
        "x: np.ndarray = b",
    ])
    assert unused_imports(source) == ["line 2: json"]


def unused_parameters(source: str) -> list[str]:
    """Parameters of the functions in ``source`` that their bodies never
    read (``self`` and ``cls`` aside), as ``line n: function.parameter``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(p.lineno, f"{node.name}.{p.arg}") for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_parameter_check_flags_what_it_should():
    source = "\n".join([
        "def used(a, b=1, *rest, c, **extra):",
        "    return a + b + c + len(rest) + len(extra)",
        "def ignored(a, b: int = 0, *, c=None):",
        "    total = a * 2",
        "    return total",
        "class Form:",
        "    def method(self, lanes):",
        "        return self",
        "    @classmethod",
        "    def build(cls, data):",
        "        def inner(key):",
        "            return data[0]",
        "        return cls(inner)",
    ])
    assert unused_parameters(source) == [
        "line 3: ignored.b", "line 3: ignored.c", "line 7: method.lanes",
        "line 11: inner.key"]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_definitions(definitions: dict[str, str], users: list[str]) -> list[str]:
    """Top-level functions and classes, and methods of top-level classes,
    defined in ``definitions`` (module name -> text) that none of ``users``
    (source texts) references, as ``module line n: name``."""
    defined = []
    for module, text in definitions.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node))
            if isinstance(node, ast.ClassDef):
                defined += [(module, m) for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not _dunder(m.name)]
    referenced: set[str] = set()
    for text in users:
        tree = ast.parse(text)
        exports = {id(n) for node in tree.body if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                   for n in ast.walk(node.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in exports):
                referenced.add(node.value)
    return [f"{module} line {node.lineno}: {node.name}" for module, node in defined
            if node.name not in referenced]


def test_every_definition_is_referenced():
    definitions = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    users = [path.read_text(encoding="utf-8") for path in USERS]
    assert unreferenced_definitions(definitions, users) == []


def test_reference_check_flags_what_it_should():
    lib = "\n".join([
        "from .other import helper",
        "__all__ = ['Old', 'old_form', 'used']",
        "def used(x):",
        "    return helper(x)",
        "def old_form(x):",
        "    return x",
        "def looked_up():",
        "    pass",
        "class Old:",
        "    def __init__(self):",
        "        self.n = 0",
        "    def method(self):",
        "        return self.n",
        "    def called(self):",
        "        return self.method",
        "class Kept:",
        "    pass",
    ])
    caller = "\n".join([
        "from lib import Kept, old_form, used",
        "import lib",
        "used(Kept())",
        "getattr(lib, 'looked_up')",
        "used(1).called",
    ])
    assert unreferenced_definitions({"lib.py": lib}, [lib, caller]) == [
        "lib.py line 5: old_form", "lib.py line 9: Old"]
