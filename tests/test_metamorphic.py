"""Metamorphic checks on the 100-graph battery: transforms that must not
change the answer.

Relabelling the vertices (so that vertex 0, where trees are rooted,
moves), reversing edges (which negates their index and phase) and a
gauge change of the phases by a vertex function each describe the same
periodic operator. Each must leave the InvariantReport identical and the
gauge check passing.
"""

from __future__ import annotations

import numpy as np
import pytest

from magspec import analyze, invariants, verify_gauge_equivalence
from magspec.graph_model import Edge, FundamentalGraph, reduce_angle


def relabelled(g: FundamentalGraph, rng: np.random.Generator) -> FundamentalGraph:
    """The graph with its vertices permuted; vertex 0 moves whenever there is another."""
    perm = rng.permutation(g.num_vertices)
    if g.num_vertices > 1 and perm[0] == 0:
        perm[[0, 1]] = perm[[1, 0]]
    potential = np.empty(g.num_vertices)
    potential[perm] = g.potential
    edges = tuple(Edge(int(perm[e.tail]), int(perm[e.head]), e.index, e.alpha) for e in g.edges)
    return FundamentalGraph(g.dim, g.num_vertices, edges, potential)


def reversed_edges(g: FundamentalGraph, rng: np.random.Generator) -> FundamentalGraph:
    """The graph with a random half of its edges stored in the other orientation."""
    flip = rng.random(g.num_edges) < 0.5
    edges = tuple(
        Edge(e.head, e.tail, tuple(-i for i in e.index), reduce_angle(-e.alpha)) if f else e
        for e, f in zip(g.edges, flip)
    )
    return FundamentalGraph(g.dim, g.num_vertices, edges, g.potential)


def gauged(g: FundamentalGraph, rng: np.random.Generator) -> FundamentalGraph:
    """The graph with phases alpha(e) + f(head) - f(tail) for a random vertex function f."""
    f = rng.uniform(-np.pi, np.pi, g.num_vertices)
    return g.with_phases([e.alpha + f[e.head] - f[e.tail] for e in g.edges])


@pytest.mark.parametrize("transform", [relabelled, reversed_edges, gauged])
def test_transform_keeps_invariants_and_gauge_check(battery_graphs, transform):
    rng = np.random.default_rng(8)
    for i, g in enumerate(battery_graphs):
        an = analyze(transform(g, rng))
        assert an.report == invariants(g), i
        verify_gauge_equivalence(an, seed=i)  # raises CheckFailedError on a failure
