"""Unused-import check for the package, standing in for a linter.

A module-level import in ``src/jesd204b_sim/`` must bind a name that the
module reads somewhere (a ``Name`` load, which includes the base of an
attribute access and annotations) or that its ``__all__`` exports.  An
import whose statement carries ``# noqa`` is exempt, and ``__future__``
imports are skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jesd204b_sim"
MODULES = sorted(PACKAGE.glob("*.py"))


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
