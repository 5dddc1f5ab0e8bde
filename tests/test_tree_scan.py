"""The streaming tree scan against a brute-force reference.

The reference filters every (nu-1)-subset of the non-loop edges for
acyclicity, in itertools.combinations order, and scores each tree by
walking its basic cycles with flux_table. The scan must reproduce its
tree order, per-form minimum counts, first minimal trees and the full
set of minimal supports.
"""

from __future__ import annotations

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import magspec.forms_cycles as fc
from magspec import (
    CheckFailedError,
    IndexOverflowError,
    OneForm,
    SupercellSpec,
    coordinate_form,
    dump_graph_json,
    enumerate_spanning_trees,
    first_spanning_tree,
    flux_table,
    generate,
    harper_model,
    invariants,
    minimal_form,
    minimal_pair,
    scan_trees,
    spanning_tree_count,
    supercell,
    tree_form,
)
from magspec.cli import main
from magspec.graph_model import Edge, FundamentalGraph, PeriodicEmbedding


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
    if np.issubdtype(table.dtype, np.integer):
        nonzero = np.any(table != 0, axis=1)
    else:
        nonzero = np.any(np.abs(table) > fc.ZERO_FLUX_TOL, axis=1)
    return frozenset(c for c, nz in zip(basis.chords, nonzero) if nz)


def mask_of(support: frozenset[int]) -> int:
    return sum(1 << c for c in support)


@pytest.fixture(scope="module")
def scan_graphs(battery_graphs, generator_graphs):
    hex22 = supercell(generate("hexagonal"), SupercellSpec((2, 2)))
    # Harper q=12 has loops and nonzero phases; kagome 3x1 (5 184 trees)
    # fills many blocks of the batched scan
    kagome31 = supercell(generate("kagome"), SupercellSpec((3, 1)))
    return list(battery_graphs) + list(generator_graphs) + [hex22, harper_model(12, 5), kagome31]


def form_sets(g: FundamentalGraph) -> list[tuple]:
    """Exact, phase and real forms, alone, in pairs and in mixed order."""
    tau, alpha = g.index_form(), g.magnetic_form()
    real = OneForm(tau.values.astype(float) * 0.5)
    return [(tau, alpha), (alpha, real, tau), (real,), ()]


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


def test_serial_and_batched_scans_agree(scan_graphs):
    for g in scan_graphs:
        for forms in form_sets(g):
            assert fc._scan_batched(g, forms) == fc._scan_serial(g, forms)


def test_batched_scan_past_one_word():
    # 70 vertices and 140 edges: vertex sets and tree keys take several words
    g = harper_model(70, 3)
    for forms in form_sets(g)[:2]:
        assert fc._scan_batched(g, forms) == fc._scan_serial(g, forms)
    scanner = fc._TreeScanner(g)
    keys = np.concatenate([scanner.keys(ints) for ints, _ in scanner.blocks()])
    got = sorted(scanner.edges_of(key) for key in keys.tolist())
    assert got == [b.tree_edges for b in enumerate_spanning_trees(g)] == reference_trees(g)


def test_batched_scan_needs_no_numpy_2_names(monkeypatch):
    # pyproject.toml allows numpy>=1.24; np.bitwise_count only exists from 2.0
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    g = supercell(generate("hexagonal"), SupercellSpec((2, 2)))
    for forms in form_sets(g)[:2]:
        assert fc._scan_batched(g, forms) == fc._scan_serial(g, forms)


@pytest.mark.parametrize("states", [1, 2, 3])
def test_tiny_blocks_give_identical_scans(battery_graphs, monkeypatch, states):
    monkeypatch.setattr(fc, "_BLOCK_STATES", states)
    for g in battery_graphs:
        for forms in form_sets(g)[:2]:
            assert fc._scan_batched(g, forms) == fc._scan_serial(g, forms)


def test_phase_flux_test_equals_remainder():
    rng = np.random.default_rng(5)
    tol, step = fc.ZERO_FLUX_TOL, fc.TWO_PI
    edges = [k * step + s * tol for k in range(-40, 41) for s in (-1, 0, 1)]
    edges += [s * math.pi for s in (-3, -1, 1, 3)] + [s * step / 2 for s in (-1, 1)] + [1e300]
    edges = np.array(edges)
    f = np.concatenate([
        rng.uniform(-1e3, 1e3, 20_000),
        rng.normal(0.0, 1e-9, 2_000),
        edges,
        np.nextafter(edges, np.inf),
        np.nextafter(edges, -np.inf),
        [0.0, -0.0],
    ])
    want = np.array([abs(math.remainder(x, step)) > tol for x in f.tolist()])
    assert np.array_equal(fc._nonzero_phase(f), want)


def test_int64_potential_guard():
    def wide(low: int) -> FundamentalGraph:
        return FundamentalGraph(dim=1, num_vertices=2, edges=(Edge(0, 1, (2**62,)), Edge(0, 1, (low,))))

    with pytest.raises(IndexOverflowError):
        scan_trees(wide(-(2**62)), (wide(-(2**62)).index_form(),))
    g = wide(-(2**62) + 1)  # |values| sum to exactly 2^63 - 1: the flux still fits
    for scan in (fc._scan_serial, fc._scan_batched):
        assert scan(g, (g.index_form(),)).forms[0].count == 1
    assert scan_trees(g, (g.index_form(),)).forms[0].count == 1


def test_pair_minimum_over_distinct_supports_equals_all_pairs(scan_graphs):
    for g in scan_graphs:
        trees = enumerate_spanning_trees(g)
        tau = [reference_support(g, g.index_form(), b) for b in trees]
        alpha = [reference_support(g, g.magnetic_form(), b) for b in trees]
        tau_best, alpha_best = min(map(len, tau)), min(map(len, alpha))
        tau_min = [s for s in tau if len(s) == tau_best]
        alpha_min = [s for s in alpha if len(s) == alpha_best]
        report = invariants(g)
        assert report.I_mu_phi == len(tau_min[0] | alpha_min[0])
        assert report.I_mu_phi_min == min(len(a | b) for a in tau_min for b in alpha_min)
        assert report.tree_count == len(trees)


def first_minimal_tree(g, form, trees):
    """The reference's first tree with fewest nonzero chord fluxes, and that count."""
    supports = [reference_support(g, form, b) for b in trees]
    best = min(map(len, supports))
    return trees[next(i for i, s in enumerate(supports) if len(s) == best)], best


def test_minimal_form_is_tree_form_on_first_minimal_tree(scan_graphs, kagome):
    emb = PeriodicEmbedding(np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0]]))
    cases = [(kagome, coordinate_form(kagome, emb))]
    cases += [(g, x) for g in scan_graphs[:20] for x in (g.index_form(), g.magnetic_form())]
    for g, x in cases:
        first, best = first_minimal_tree(g, x, enumerate_spanning_trees(g))
        mu, basis, count = minimal_form(g, x)
        assert count == best
        assert basis.tree_edges == first.tree_edges
        assert np.array_equal(mu.values, tree_form(g, x, first).values)
    g = scan_graphs[0]
    trees = enumerate_spanning_trees(g)
    for got, x in zip(minimal_pair(g), (g.index_form(), g.magnetic_form())):
        first, _ = first_minimal_tree(g, x, trees)
        assert np.array_equal(got.values, tree_form(g, x, first).values)


def test_scanned_count_disagreeing_with_the_support_is_a_failed_check(kagome, monkeypatch):
    forms = (kagome.index_form(), kagome.magnetic_form())
    scan = scan_trees(kagome, forms)
    wrong = scan._replace(forms=tuple(f._replace(count=f.count + 1) for f in scan.forms))
    with pytest.raises(CheckFailedError, match="tree scan counted"):
        minimal_pair(kagome, scan=wrong)
    monkeypatch.setattr(fc, "scan_trees", lambda g, xs, cap: wrong)
    with pytest.raises(CheckFailedError, match="tree scan counted"):
        minimal_form(kagome, forms[0])


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


def test_batched_leaf_count_mismatch_is_a_failed_check(monkeypatch):
    g = supercell(generate("hexagonal"), SupercellSpec((2, 2)))  # 384 trees: the batched scan
    true_count = fc.spanning_tree_count
    monkeypatch.setattr(fc, "spanning_tree_count", lambda g: true_count(g) - 1)
    with pytest.raises(CheckFailedError, match="Laplacian cofactor"):
        scan_trees(g, (g.index_form(),))


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
