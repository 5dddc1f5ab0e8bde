"""Deterministic benchmark corpus: stock lattices, supercells, Harper
models and the seeded random battery, written as graph JSON.

The random battery reproduces the generator of the repository's test
suite draw for draw (same numpy Generator calls in the same order), but
decides acceptance with its own connectivity and lattice-span checks so
that it depends only on the public graph constructors of ``magspec``.
"""

from __future__ import annotations

import hashlib
import math
from itertools import combinations
from pathlib import Path

import numpy as np

import magspec

DEFAULT_BATTERY_SEED = 20250811
BATTERY_SIZE = 100

# Kagome 2x2 is part of the tree-scan corpus but not of any timed run:
# the exhaustive scan of its 331 776 trees takes minutes and gigabytes.
# Only its exact counts are recorded, never a scan.
DEFERRED = {
    "kagome-2x2": {
        "tree_count": 331_776,
        "subset_count": math.comb(24, 11),
        "reason": "over budget until the tree scan streams",
    }
}


def _connected(nu: int, pairs: list[tuple[int, int]]) -> bool:
    parent = list(range(nu))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(nu)}) == 1


def _cycle_fluxes(nu: int, pairs: list[tuple[int, int]], idx: np.ndarray) -> list[list[int]]:
    """Index fluxes of the basic cycles of a BFS spanning tree (one per chord)."""
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(nu)]
    for eid, (u, v) in enumerate(pairs):
        adj[u].append((eid, v, 1))
        adj[v].append((eid, u, -1))
    pot: list[np.ndarray | None] = [None] * nu
    pot[0] = np.zeros(idx.shape[1], dtype=np.int64)
    tree: set[int] = set()
    queue = [0]
    for u in queue:
        for eid, w, sign in adj[u]:
            if pot[w] is None:
                pot[w] = pot[u] + sign * idx[eid]
                tree.add(eid)
                queue.append(w)
    return [
        [int(x) for x in idx[eid] + pot[u] - pot[v]]
        for eid, (u, v) in enumerate(pairs)
        if eid not in tree
    ]


def _spans_lattice(d: int, fluxes: list[list[int]]) -> bool:
    """True iff the integer span of the flux vectors is all of Z^d (gcd of d x d minors)."""
    g = 0
    for rows in combinations(fluxes, d):
        g = math.gcd(g, _det([list(r) for r in rows]))
        if g == 1:
            return True
    return False


def _det(m: list[list[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def random_graph(rng: np.random.Generator, max_nu: int = 6, max_edges: int = 10,
                 max_dim: int = 2) -> magspec.FundamentalGraph:
    """Random connected multigraph with phases, potentials and full-lattice index fluxes."""
    while True:
        d = int(rng.integers(1, max_dim + 1))
        nu = int(rng.integers(1, max_nu + 1))
        pairs = [(int(rng.integers(0, v)), v) for v in range(1, nu)]
        extra = int(rng.integers(0, max_edges - len(pairs) + 1))
        for _ in range(extra):
            pairs.append((int(rng.integers(0, nu)), int(rng.integers(0, nu))))
        if not pairs:
            continue
        idx = rng.integers(-2, 3, size=(len(pairs), d))
        alphas = rng.uniform(-np.pi, np.pi, len(pairs))
        pot = rng.uniform(-1.0, 1.0, nu)
        if not _connected(nu, pairs) or not _spans_lattice(d, _cycle_fluxes(nu, pairs, idx)):
            continue
        edges = tuple(
            magspec.Edge(u, v, tuple(int(x) for x in ix), float(a))
            for (u, v), ix, a in zip(pairs, idx, alphas)
        )
        return magspec.FundamentalGraph(dim=d, num_vertices=nu, edges=edges, potential=pot)


def _supercell(kind: str, mult: tuple[int, int]) -> magspec.FundamentalGraph:
    return magspec.supercell(magspec.generate(kind), magspec.SupercellSpec(mult))


def build(workload: str, battery_seed: int = DEFAULT_BATTERY_SEED) -> dict[str, magspec.FundamentalGraph]:
    """Named graphs a workload runs on, in a fixed order."""
    if workload == "tree-scan":
        return {
            "hex-3x2": _supercell("hexagonal", (3, 2)),
            "kagome-3x1": _supercell("kagome", (3, 1)),
        }
    if workload == "harper-sweep":
        return {
            "harper-q30-p7": magspec.harper_model(30, 7),
            "harper-q12-p5": magspec.harper_model(12, 5),
            "zd2": magspec.generate("zd", 2),
        }
    if workload == "verify-battery":
        rng = np.random.default_rng(battery_seed)
        graphs = {f"battery-{i:03d}": random_graph(rng) for i in range(BATTERY_SIZE)}
        graphs.update({
            "zd1": magspec.generate("zd", 1),
            "zd2": magspec.generate("zd", 2),
            "zd3": magspec.generate("zd", 3),
            "hexagonal": magspec.generate("hexagonal"),
            "kagome": magspec.generate("kagome"),
            "decorated2": magspec.generate("decorated", 2),
            "hex-2x2": _supercell("hexagonal", (2, 2)),
            "harper-q12-p5": magspec.harper_model(12, 5),
        })
        return graphs
    raise ValueError(f"unknown workload {workload!r}")


def deferred_entries() -> dict[str, dict]:
    """Deferred graphs with their exact counts, recomputed from spanning_tree_count.

    Raises ValueError when the recomputed counts disagree with the recorded ones.
    """
    g = _supercell("kagome", (2, 2))
    nonloop = sum(1 for e in g.edges if not e.is_loop)
    found = {
        "tree_count": magspec.spanning_tree_count(g),
        "subset_count": math.comb(nonloop, g.num_vertices - 1),
    }
    want = {k: DEFERRED["kagome-2x2"][k] for k in found}
    if found != want:
        raise ValueError(f"kagome-2x2 counts {found} differ from the recorded {want}")
    return {"kagome-2x2": {**DEFERRED["kagome-2x2"], "status": "deferred"}}


def write(graphs: dict[str, magspec.FundamentalGraph], directory: Path) -> dict[str, str]:
    """Write each graph as <name>.json; returns name -> sha256 of the file bytes."""
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, g in graphs.items():
        path = directory / f"{name}.json"
        magspec.dump_graph_json(g, path)
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests
