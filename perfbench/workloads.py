"""Workload command lists and the independent output checks.

Each command is one ``magspec`` CLI invocation on a corpus file. Paths
are relative to the run's work directory, so stdout (which echoes the
graph path for ``verify``) is the same in every checkout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

BUTTERFLY_STEPS = 12
GRID_N = 101  # magspec's default torus grid per dimension for d <= 2


@dataclass(frozen=True)
class Command:
    """One CLI call: its id, argv, the --out files it writes, and its check kind."""

    id: str
    kind: str
    graph: str
    argv: tuple[str, ...]
    outs: tuple[str, ...] = field(default=())


def _graph_path(name: str) -> str:
    return f"corpus/{name}.json"


def commands(workload: str, graphs: list[str], verify_seed: int) -> list[Command]:
    """The workload's commands, in the fixed order each pass runs them.

    tree-scan: forms_cycles does nearly all the work and spectral none.
    harper-sweep: eigensolve plus fiber assembly; a Harper model has only
    q spanning trees, so the tree scan is trivial. verify-battery: many
    small verify calls, so per-call overhead and the scans and sweeps
    that verify repeats show.
    """
    if workload == "tree-scan":
        return [
            Command("invariants:hex-3x2", "invariants", "hex-3x2",
                    ("invariants", _graph_path("hex-3x2"))),
            Command("invariants:kagome-3x1", "invariants", "kagome-3x1",
                    ("invariants", _graph_path("kagome-3x1"))),
            Command("build-periodic:kagome-3x1", "build-periodic", "kagome-3x1",
                    ("build-periodic", _graph_path("kagome-3x1"),
                     "--out", "out/kagome-3x1.periodic.json"),
                    ("out/kagome-3x1.periodic.json",)),
        ]
    if workload == "harper-sweep":
        return [
            Command("bands:harper-q30-p7", "bands", "harper-q30-p7",
                    ("bands", _graph_path("harper-q30-p7"))),
            Command("bands:harper-q12-p5", "bands", "harper-q12-p5",
                    ("bands", _graph_path("harper-q12-p5"), "--out", "out/harper-q12-p5.csv"),
                    ("out/harper-q12-p5.csv",)),
            Command("butterfly:zd2", "butterfly", "zd2",
                    ("butterfly", _graph_path("zd2"), "--flux-steps", str(BUTTERFLY_STEPS))),
        ]
    if workload == "verify-battery":
        return [
            Command(f"verify:{name}", "verify", name,
                    ("verify", _graph_path(name), "--seed", str(verify_seed)))
            for name in graphs
        ]
    raise ValueError(f"unknown workload {workload!r}")


def check_output(cmd: Command, rc: int, stdout: str, outs: dict[str, bytes], facts: dict) -> str | None:
    """Independent correctness check of one command; returns a reason or None.

    facts holds what the harness knows about the input graph without the
    command: dim, num_vertices, num_edges and the exact tree_count.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        if cmd.kind == "invariants":
            rep = json.loads(stdout)
            if rep["tree_count"] != facts["tree_count"]:
                return f"tree_count {rep['tree_count']} != spanning_tree_count {facts['tree_count']}"
            beta = facts["num_edges"] - facts["num_vertices"] + 1
            if rep["beta"] != beta or rep["d"] != facts["dim"]:
                return "beta or d disagrees with the graph"
            if not rep["d"] <= rep["I"] <= rep["beta"]:
                return f"d <= I <= beta fails: {rep['d']}, {rep['I']}, {rep['beta']}"
        elif cmd.kind == "bands":
            rep = json.loads(stdout)
            if len(rep["bands"]) != facts["num_vertices"]:
                return "wrong number of bands"
            if not rep["measure"] <= rep["bound_4I"]:
                return f"measure {rep['measure']} exceeds bound_4I {rep['bound_4I']}"
            for path in cmd.outs:
                rows = outs[path].decode("utf-8").splitlines()
                if len(rows[0].split(",")) != facts["dim"] + facts["num_vertices"]:
                    return f"{path} has the wrong header"
                if len(rows) != 1 + GRID_N ** facts["dim"]:
                    return f"{path} does not hold one row per grid point"
        elif cmd.kind == "verify":
            if json.loads(stdout)["passed"] is not True:
                return "verify did not pass"
        elif cmd.kind == "build-periodic":
            built = json.loads(outs[cmd.outs[0]])
            if (len(built["vertices"]), len(built["edges"])) != (facts["num_vertices"], facts["num_edges"]):
                return "realized graph changed size"
        elif cmd.kind == "butterfly":
            pairs = sum(1 for q in range(1, BUTTERFLY_STEPS + 1)
                        for p in range(1, q + 1) if math.gcd(p, q) == 1)
            if len(stdout.splitlines()) != 1 + pairs:
                return "butterfly CSV has the wrong number of rows"
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None
