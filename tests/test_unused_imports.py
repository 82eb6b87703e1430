"""Unused imports (pyflakes' F401, the rule CI's ruff step selects) over src,
tests and bench, checked with the standard library's ast alone."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NOQA = re.compile(r"#\s*noqa:[^#]*\bF401\b")


def bound_name(alias: ast.alias) -> str:
    """The name an import binds: its alias, or the first part of a dotted
    module (import a.b binds a)."""
    return alias.asname or alias.name.split(".")[0]


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no ast.Name of the module
    loads, is not listed in its __all__ and carries no `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = bound_name(alias)
            if (name not in used and name != "*"
                    and not NOQA.search(lines[alias.lineno - 1])):
                unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("source,want", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\nnp.ones(1)\n", []),
    ("from a import (b,\n               c)\nb\n", [(2, "c")]),
    ("from a import b  # noqa: F401\n", []),
    ("from a import b  # noqa: E402, F401\n", []),
    ("from a import b  # noqa: E402\n", [(1, "b")]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
])
def test_the_check_reads_imports_as_the_rule_does(source, want):
    assert unused_imports(source) == want


@pytest.mark.parametrize("tree", ["src", "tests", "bench"])
def test_no_unused_imports(tree):
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / tree).rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []
