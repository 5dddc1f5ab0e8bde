"""Source-level guards on the package."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import magspec


def test_no_assert_statements_in_package():
    # python -O strips asserts; mathematical invariants must raise typed errors
    found = []
    for path in sorted(Path(magspec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in magspec: {found}"


def test_benchmark_trace_hooks_resolve():
    # perfbench/spans.py wraps these functions by name; a deleted or renamed
    # one would break traced benchmark runs. The file is parsed, not imported.
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"), filename=str(spans))
    spanned = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SPANNED"
    )
    hooks = [(layer, name) for layer, names in spanned.items() for name in names]
    hooks.append(("spectral", "theta_grid"))
    missing = [
        f"{layer}.{name}"
        for layer, name in hooks
        if not callable(getattr(importlib.import_module(f"magspec.{layer}"), name, None))
    ]
    assert len(hooks) > 20
    assert not missing, f"functions traced by the benchmark are gone: {missing}"
