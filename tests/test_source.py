"""Source-level guards on the package."""

from __future__ import annotations

import ast
from pathlib import Path

import magspec


def test_no_assert_statements_in_package():
    # python -O strips asserts; mathematical invariants must raise typed errors
    found = []
    for path in sorted(Path(magspec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in magspec: {found}"
