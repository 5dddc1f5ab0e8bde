"""Metamorphic checks on the 100-graph battery: transforms that must not
change the answer.

Relabelling the vertices (so that vertex 0, where trees are rooted,
moves), reversing edges (which negates their index and phase) and a
gauge change of the phases by a vertex function each describe the same
periodic operator. Each must leave the InvariantReport identical, the
gauge check passing, the checks that `verify` runs, with their
verdicts, unchanged, and the band ends equal up to rounding.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from magspec import (
    SupercellSpec,
    analyze,
    band_sweep,
    dump_graph_json,
    generate,
    harper_model,
    invariants,
    supercell,
    verify_gauge_equivalence,
)
from magspec.cli import main
from magspec.fiber_operator import potential_allowance
from magspec.graph_model import Edge, FundamentalGraph, reduce_angle
from magspec.spectral import MATRIX_TOL


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


@pytest.fixture(scope="module")
def verdict_graphs(generator_graphs, battery_graphs):
    """The stock lattices of the verify benchmark and every 10th battery graph."""
    hex_2x2 = supercell(generate("hexagonal"), SupercellSpec((2, 2)))
    return generator_graphs + [hex_2x2, harper_model(12, 5)] + battery_graphs[::10]


def _verdicts(g: FundamentalGraph, tmp_path, capsys) -> tuple:
    """The exit code of `verify --grid 11` on g, and each check's name and verdict."""
    path = tmp_path / "g.json"
    dump_graph_json(g, path)
    code = main(["verify", str(path), "--grid", "11"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    return code, [(c["name"], c["passed"]) for c in checks]


@pytest.mark.parametrize("transform", [relabelled, reversed_edges, gauged])
def test_transform_keeps_verify_verdicts(verdict_graphs, transform, tmp_path, capsys):
    rng = np.random.default_rng(27)
    for i, g in enumerate(verdict_graphs):
        before = _verdicts(g, tmp_path, capsys)
        assert _verdicts(transform(g, rng), tmp_path, capsys) == before, i


@pytest.mark.parametrize("transform", [relabelled, reversed_edges, gauged])
def test_transform_keeps_band_ends(verdict_graphs, transform):
    # every fiber is unitarily equivalent to the untransformed one: only rounding moves eigenvalues
    rng = np.random.default_rng(29)
    for i, g in enumerate(verdict_graphs):
        want = band_sweep(g, grid_n=11).bands
        got = band_sweep(transform(g, rng), grid_n=11).bands
        assert np.abs(got - want).max() <= MATRIX_TOL + potential_allowance(g), i
