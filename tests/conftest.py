"""Shared fixtures: stock lattices, a small finite test graph, a
coordinate form of vertex positions, and a seeded factory of random
connected fundamental graphs whose index fluxes span the full integer
lattice."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from magspec import MagspecError, enumerate_spanning_trees, generate, lattice_image_check

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
from magspec.forms_cycles import chord_flux_matrix
from magspec.graph_model import Edge, FundamentalGraph, OneForm

# in-cell positions of the kagome vertices v1, v2, v3
KAGOME_POSITIONS = np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0]])


def coordinate_form(g: FundamentalGraph, positions: np.ndarray) -> OneForm:
    """Edge-coordinate form of vertex positions: p(head) + index - p(tail).

    Real valued and flux-equivalent to the index form for any positions.
    """
    tails = [e.tail for e in g.edges]
    heads = [e.head for e in g.edges]
    return OneForm(positions[heads] + g.index_matrix() - positions[tails])


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
) -> FundamentalGraph:
    """Random connected multigraph with full-lattice index fluxes.

    Indices are drawn from [-2, 2]^d, phases uniformly from (-pi, pi],
    potentials from [-1, 1]. Rejection-samples until the chord fluxes
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
        idx = rng.integers(-2, 3, size=(len(pairs), d))
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
