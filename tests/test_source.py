"""Source-level guards on the package."""

from __future__ import annotations

import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import magspec
import magspec.cli as cli


def test_no_assert_statements_in_package():
    # python -O strips asserts; mathematical invariants must raise typed errors
    found = []
    for path in sorted(Path(magspec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in magspec: {found}"


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore keeps a name inside its module; what another module
    # needs is public, so the rule it follows is written in one place
    found = []
    for path in sorted(Path(magspec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert not found, f"private names imported across modules: {found}"


def test_spectral_stays_below_the_compile_peak_step():
    # compiling a module of more than about 4 096 tokens at import raises the
    # peak RSS of every command by about 0.2 MB (measured with ru_maxrss after
    # `import magspec.cli`), more than the benchmark's 0.1 MiB peak_rss_mb
    # bound; spectral.py sits just below it, so code it gains must be offset
    path = Path(magspec.__file__).parent / "spectral.py"
    with path.open(encoding="utf-8") as fh:
        skip = (tokenize.COMMENT, tokenize.NL)
        count = sum(1 for tok in tokenize.generate_tokens(fh.readline) if tok.type not in skip)
    assert count < 4096, (
        f"spectral.py has {count} tokens; move code out (to fiber_operator, next to "
        "what it uses) or drop some, so that importing it keeps the smaller compile peak"
    )


def _checks() -> list[ast.FunctionDef]:
    """The verify_* battery and sy_sunada_check, as parsed from spectral.py."""
    path = Path(magspec.__file__).parent / "spectral.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and (node.name.startswith("verify_") or node.name == "sy_sunada_check")
    ]


def test_checks_read_per_graph_facts_from_the_analysis():
    # analyze derives the stored forms and the potential allowance once, and fixes the
    # grid and the random quasimomenta; a check that derives them again can drift from
    # what the others read. verify_perturbation's phase-free fiber is a second
    # operator, not a stored fact
    derived = {"magnetic_form", "index_form", "potential_allowance", "default_rng", "grid_axis"}
    checks = _checks()
    found = [
        f"{check.name}:{call.lineno} {name}"
        for check in checks
        for call in ast.walk(check)
        if isinstance(call, ast.Call)
        for name in [getattr(call.func, "attr", getattr(call.func, "id", None))]
        if name in derived or (check.name == "sy_sunada_check" and name == "zero_phase_form")
    ]
    assert len(checks) == 6
    assert not found, f"checks that derive a per-graph fact again: {found}"


def test_every_check_takes_only_the_analysis():
    # where the checks sample the torus is set once, by analyze; so `verify` calls
    # each check as check(an)
    signatures = {check.name: ast.unparse(check.args) for check in _checks()}
    assert len(signatures) == 6
    assert signatures == {name: "an: Analysis" for name in signatures}


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


def test_readme_python_example_runs():
    # the library example runs as written, so a name it uses cannot leave the
    # package while the docs still show it
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})


def test_readme_cli_examples_parse():
    # every magspec line of the shell examples parses, so a removed or renamed
    # flag cannot stay in the docs
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["magspec"]]
    assert len(commands) >= 7
    for argv in commands:
        cli._parser().parse_args(argv)


def test_cli_import_starts_no_pool_machinery():
    # sweeps run on one thread; a fresh interpreter, since pytest's own
    # process may already hold these modules
    src = Path(magspec.__file__).resolve().parents[1]
    probe = (
        "import sys, magspec.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
