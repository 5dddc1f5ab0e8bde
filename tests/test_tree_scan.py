"""The streaming tree scan against a brute-force reference.

The reference filters every (nu-1)-subset of the non-loop edges for
acyclicity, in itertools.combinations order, and scores each tree by
walking its basic cycles with flux_table. The scan must reproduce its
tree order, per-form minimum counts, first minimal trees and the full
set of minimal supports.
"""

from __future__ import annotations

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import magspec.forms_cycles as fc
from magspec import (
    CheckFailedError,
    SupercellSpec,
    coordinate_form,
    dump_graph_json,
    enumerate_spanning_trees,
    first_spanning_tree,
    flux_table,
    generate,
    invariants,
    minimal_form,
    minimal_pair,
    scan_trees,
    spanning_tree_count,
    supercell,
)
from magspec.cli import main
from magspec.graph_model import FundamentalGraph, PeriodicEmbedding


def reference_trees(g: FundamentalGraph) -> list[tuple[int, ...]]:
    """Edge-id sets of all spanning trees, by filtering every subset."""

    def acyclic(edge_ids) -> bool:
        parent = list(range(g.num_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        for eid in edge_ids:
            e = g.edges[eid]
            ra, rb = find(e.tail), find(e.head)
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    nonloop = [i for i, e in enumerate(g.edges) if not e.is_loop]
    return [c for c in combinations(nonloop, g.num_vertices - 1) if acyclic(c)]


def reference_support(g, form, basis) -> frozenset[int]:
    """Chords whose basic-cycle flux, walked edge by edge, is nonzero."""
    table = flux_table(g, form, basis)
    if np.issubdtype(table.values.dtype, np.integer):
        nonzero = np.any(table.values != 0, axis=1)
    else:
        nonzero = np.any(np.abs(table.values) > fc.ZERO_FLUX_TOL, axis=1)
    return frozenset(c for c, nz in zip(table.chords, nonzero) if nz)


def mask_of(support: frozenset[int]) -> int:
    return sum(1 << c for c in support)


@pytest.fixture(scope="module")
def scan_graphs(battery_graphs, generator_graphs):
    hex22 = supercell(generate("hexagonal"), SupercellSpec((2, 2)))
    return list(battery_graphs) + list(generator_graphs) + [hex22]


def test_tree_order_matches_subset_filter(scan_graphs):
    for g in scan_graphs:
        got = [b.tree_edges for b in enumerate_spanning_trees(g)]
        assert got == reference_trees(g)
        assert len(got) == spanning_tree_count(g)
        assert first_spanning_tree(g).tree_edges == got[0]


def test_scan_matches_cycle_walk_reference(scan_graphs):
    for g in scan_graphs:
        forms = (g.index_form(), g.magnetic_form())
        trees = enumerate_spanning_trees(g)
        scan = scan_trees(g, forms)
        assert scan.tree_count == len(trees) == spanning_tree_count(g)
        assert scan.first_tree == trees[0].tree_edges
        for form, got in zip(forms, scan.forms):
            supports = [reference_support(g, form, b) for b in trees]
            best = min(len(s) for s in supports)
            first = next(i for i, s in enumerate(supports) if len(s) == best)
            assert got.count == best
            assert got.tree == trees[first].tree_edges
            assert got.mask == mask_of(supports[first])
            assert got.supports == {mask_of(s) for s in supports if len(s) == best}


def test_pair_minimum_over_distinct_supports_equals_all_pairs(scan_graphs):
    for g in scan_graphs:
        trees = enumerate_spanning_trees(g)
        tau = [reference_support(g, g.index_form(), b) for b in trees]
        alpha = [reference_support(g, g.magnetic_form(), b) for b in trees]
        tau_min = [s for s in tau if len(s) == min(map(len, tau))]
        alpha_min = [s for s in alpha if len(s) == min(map(len, alpha))]
        report = invariants(g)
        assert report.I_mu_phi == len(tau_min[0] | alpha_min[0])
        assert report.I_mu_phi_min == min(len(a | b) for a in tau_min for b in alpha_min)
        assert report.tree_count == len(trees)


def test_streaming_minimal_form_equals_explicit_list(scan_graphs, kagome):
    emb = PeriodicEmbedding(np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0]]))
    cases = [(kagome, coordinate_form(kagome, emb))]
    cases += [(g, x) for g in scan_graphs[:20] for x in (g.index_form(), g.magnetic_form())]
    for g, x in cases:
        trees = enumerate_spanning_trees(g)
        mu_s, basis_s, count_s = minimal_form(g, x)
        mu_l, basis_l, count_l = minimal_form(g, x, trees)
        assert count_s == count_l
        assert basis_s.tree_edges == basis_l.tree_edges
        assert np.array_equal(mu_s.values, mu_l.values)
    g = scan_graphs[0]
    for got, want in zip(minimal_pair(g), minimal_pair(g, enumerate_spanning_trees(g))):
        assert np.array_equal(got.values, want.values)


def test_minimal_form_rejects_a_non_tree(kagome):
    basis = enumerate_spanning_trees(kagome)[0]
    cycle = fc.SpanningTreeBasis(tree_edges=(0, 0), chords=basis.chords, cycles=basis.cycles)
    with pytest.raises(ValueError):
        minimal_form(kagome, kagome.index_form(), [cycle])


def test_leaf_count_mismatch_is_a_failed_check(tmp_path, capsys, monkeypatch):
    path = tmp_path / "kagome.json"
    dump_graph_json(generate("kagome"), path)
    true_count = fc.spanning_tree_count
    monkeypatch.setattr(fc, "spanning_tree_count", lambda g: true_count(g) + 1)
    with pytest.raises(CheckFailedError):
        scan_trees(generate("kagome"), ())
    for command in ("invariants", "bands", "verify", "build-periodic"):
        code = main([command, str(path)])
        err = capsys.readouterr().err
        assert code == 1, command
        assert "Laplacian cofactor" in err and "Traceback" not in err


def test_tree_cap_is_checked_before_scanning(kagome):
    with pytest.raises(fc.TreeCountExceedsCapError):
        scan_trees(kagome, (kagome.index_form(),), cap=spanning_tree_count(kagome) - 1)


def test_invariants_memory_stays_flat():
    # hex 3x2 has 9 216 spanning trees; a scan that kept them would
    # need tens of MiB
    g = supercell(generate("hexagonal"), SupercellSpec((3, 2)))
    tracemalloc.start()
    try:
        report = invariants(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.tree_count == 9216
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
