"""Shared fixtures: stock lattices, a small finite test graph, a
coordinate form of vertex positions, a cycle-walk oracle for chord
fluxes, a signed-path-matrix oracle for gauge weights, edge-loop
oracles for fiber diagonals and the phase row-sum bound, and a seeded
factory of random connected fundamental graphs whose index fluxes span
the full integer lattice."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from magspec import (
    MagspecError,
    enumerate_spanning_trees,
    first_spanning_tree,
    generate,
    lattice_image_check,
)

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
from magspec.forms_cycles import chord_flux_matrix
from magspec.graph_model import Edge, FundamentalGraph, OneForm, reduce_angle

# in-cell positions of the kagome vertices v1, v2, v3
KAGOME_POSITIONS = np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0]])


def coordinate_form(g: FundamentalGraph, positions: np.ndarray) -> OneForm:
    """Edge-coordinate form of vertex positions: p(head) + index - p(tail).

    Real valued and flux-equivalent to the index form for any positions.
    """
    tails = [e.tail for e in g.edges]
    heads = [e.head for e in g.edges]
    return OneForm(positions[heads] + g.index_matrix() - positions[tails])


def tree_paths(g: FundamentalGraph, tree: tuple[int, ...], start: int) -> dict[int, tuple]:
    """Per vertex, the oriented tree path from start to it as (edge_id, sign) steps.

    Sign +1 = canonical. Found by a depth-first search over both
    orientations of every tree edge that remembers how each vertex was
    reached.
    """
    steps = []  # (edge_id, sign, from, to) for both orientations of every tree edge
    for eid in tree:
        e = g.edges[eid]
        steps += [(eid, 1, e.tail, e.head), (eid, -1, e.head, e.tail)]
    reached: dict[int, tuple | None] = {start: None}
    todo = [start]
    while todo:
        v = todo.pop()
        for eid, sign, u, w in steps:
            if u == v and w not in reached:
                reached[w] = (v, eid, sign)
                todo.append(w)
    paths = {}
    for goal in reached:
        path, v = [], goal
        while reached[v] is not None:
            v, eid, sign = reached[v]
            path.append((eid, sign))
        paths[goal] = tuple(reversed(path))
    return paths


def basic_cycles(g: FundamentalGraph, tree: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """Per chord of a spanning tree, in ascending id, its oriented basic cycle.

    A cycle is (edge_id, sign) steps, sign +1 = canonical: the chord,
    then the tree path from its head back to its tail.
    """
    return [
        ((c, 1),) + tree_paths(g, tree, g.edges[c].head)[g.edges[c].tail]
        for c in range(g.num_edges)
        if c not in tree
    ]


def path_matrix_weights(g: FundamentalGraph, b: OneForm, a: OneForm) -> tuple[np.ndarray, ...]:
    """Gauge weights (w_b, w_a) of (b, a) from a signed tree-path matrix.

    Row v of the int64 matrix is the tree path 0 -> v on the first
    spanning tree, one entry +-1 per step; the weights are that matrix
    times (index - b) and times (alpha - a), the phase difference
    reduced into (-pi, pi] first.
    """
    paths = np.zeros((g.num_vertices, g.num_edges), dtype=np.int64)
    for v, path in tree_paths(g, first_spanning_tree(g), 0).items():
        for eid, sign in path:
            paths[v, eid] = sign
    diff_b = g.index_matrix() - b.values
    diff_a = OneForm(g.magnetic_form().values - a.values, magnetic=True).values[:, 0]
    return paths @ diff_b, paths @ diff_a


def loop_fiber_stack(g: FundamentalGraph, b: OneForm, a: OneForm, thetas: np.ndarray,
                     edge_mask=None) -> np.ndarray:
    """fiber_stack as one loop over the (masked) edges that also counts their degrees.

    Each edge adds 1.0 at its tail and at its head in a float array (a
    loop twice) and subtracts its hop; the degrees go onto every
    diagonal at the end.
    """
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    k, nu = th.shape[0], g.num_vertices
    mask = np.ones(g.num_edges, dtype=bool) if edge_mask is None else np.asarray(edge_mask)
    rows = th if k != 1 else np.repeat(th, 2, axis=0)  # as fiber_stack: no lone row
    out = np.zeros((k, nu, nu), dtype=complex)
    deg = np.zeros(nu)
    for eid, e in enumerate(g.edges):
        if not mask[eid]:
            continue
        deg[e.tail] += 1
        deg[e.head] += 1
        hop = np.exp(1j * (a.values[eid, 0] + (rows @ b.values[eid].astype(float))[:k]))
        out[:, e.tail, e.head] -= hop
        out[:, e.head, e.tail] -= np.conj(hop)
    for v in range(nu):
        out[:, v, v] += deg[v]
    return out


def loop_perturbation_bound(g: FundamentalGraph, phi_tilde: OneForm) -> float:
    """2 max_v of |sin(phase/2)| summed over every oriented edge leaving v, in a loop."""
    per_vertex = np.zeros(g.num_vertices)
    for eid, _sign, tail, _head in g.oriented_edges():
        per_vertex[tail] += abs(np.sin(phi_tilde.values[eid, 0] / 2.0))
    return float(2.0 * per_vertex.max())


def walk_flux(g: FundamentalGraph, form: OneForm, cycle: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Sum of form values along a closed oriented edge sequence, edge by edge.

    Starts from zero in the form's dtype and adds sign * value per step,
    asserting that the steps chain up and close; a magnetic sum is
    reduced into (-pi, pi].
    """
    at = start = g.edges[cycle[0][0]].tail
    total = np.zeros(form.dim, dtype=form.values.dtype)
    for eid, sign in cycle:
        e = g.edges[eid]
        tail, head = (e.tail, e.head) if sign > 0 else (e.head, e.tail)
        assert tail == at, "edge sequence does not chain up"
        total = total + sign * form.values[eid]
        at = head
    assert at == start, "edge sequence does not close"
    if form.magnetic:
        return np.array([reduce_angle(float(total[0]))])
    return total


def diamond_graph() -> FundamentalGraph:
    """Five vertices, seven edges, first Betti number 3.

    Two triangles through a center vertex plus an outer rhombus:
    vertices bottom, top, center, left, right.
    """
    b, t, c, l, r = range(5)
    edges = (
        Edge(b, r, (0, 0)),
        Edge(b, l, (0, 0)),
        Edge(t, r, (0, 0)),
        Edge(t, l, (0, 0)),
        Edge(t, c, (0, 0)),
        Edge(l, c, (0, 0)),
        Edge(c, r, (0, 0)),
    )
    return FundamentalGraph(dim=2, num_vertices=5, edges=edges)


def make_random_graph(
    rng: np.random.Generator,
    max_nu: int = 6,
    max_edges: int = 10,
    max_dim: int = 2,
    with_phases: bool = True,
    with_potential: bool = True,
    max_index: int = 2,
) -> FundamentalGraph:
    """Random connected multigraph with full-lattice index fluxes.

    Indices are drawn from [-max_index, max_index]^d, phases uniformly
    from (-pi, pi], potentials from [-1, 1]. Rejection-samples until the chord fluxes
    span Z^d, so every draw is the fundamental graph of a genuine
    d-periodic graph.
    """
    while True:
        d = int(rng.integers(1, max_dim + 1))
        nu = int(rng.integers(1, max_nu + 1))
        pairs = [(int(rng.integers(0, v)), v) for v in range(1, nu)]
        extra = int(rng.integers(0, max_edges - len(pairs) + 1))
        for _ in range(extra):
            pairs.append((int(rng.integers(0, nu)), int(rng.integers(0, nu))))
        if not pairs:
            continue
        idx = rng.integers(-max_index, max_index + 1, size=(len(pairs), d))
        alphas = rng.uniform(-np.pi, np.pi, len(pairs)) if with_phases else np.zeros(len(pairs))
        pot = rng.uniform(-1.0, 1.0, nu) if with_potential else np.zeros(nu)
        edges = tuple(
            Edge(u, v, tuple(int(x) for x in ix), float(a))
            for (u, v), ix, a in zip(pairs, idx, alphas)
        )
        g = FundamentalGraph(dim=d, num_vertices=nu, edges=edges, potential=pot)
        if not g.is_connected():
            continue
        try:
            trees = enumerate_spanning_trees(g)
        except MagspecError:
            continue
        if lattice_image_check(chord_flux_matrix(g, trees[0])):
            return g


@pytest.fixture(scope="session")
def kagome():
    return generate("kagome")


@pytest.fixture(scope="session")
def hexagonal():
    return generate("hexagonal")


@pytest.fixture(scope="session")
def z2():
    return generate("zd", 2)


@pytest.fixture(scope="session")
def decorated2():
    return generate("decorated", 2)


@pytest.fixture(scope="session")
def generator_graphs(kagome, hexagonal, z2, decorated2):
    return [generate("zd", 1), z2, generate("zd", 3), hexagonal, kagome, decorated2]


@pytest.fixture(scope="session")
def battery_graphs():
    """The seeded 100-graph random battery shared across the verification suites."""
    rng = np.random.default_rng(20250811)
    return [make_random_graph(rng) for _ in range(100)]
