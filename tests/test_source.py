"""Checks on the package source that no installed linter makes."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tenbed").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never references, in import order.  A name
    listed in ``__all__`` is used; so is one imported on a line marked
    ``# noqa: F401`` (a name kept for another module to reach through this one)."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names
                         if "# noqa: F401" not in lines[alias.lineno - 1]
                         and "# noqa: F401" not in lines[node.lineno - 1]]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os, sys\nfrom a import (b,\n"
              "    c)  # noqa: F401\nfrom d import e as f  # noqa: F401\nimport g.h\n"
              "__all__ = ['b']\nprint(sys.argv)\n")
    assert unused_imports(source) == ["os", "g"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name
