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
    DimensionMismatchError,
    DisconnectedGraphError,
    IndexOverflowError,
    OneForm,
    SupercellSpec,
    dump_graph_json,
    enumerate_spanning_trees,
    first_spanning_tree,
    flux_table,
    gauge_weights,
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
from magspec.graph_model import (
    INT64_MAX,
    INT64_MIN,
    SUPPORT_TOL,
    TWO_PI,
    Edge,
    FundamentalGraph,
    reduce_angle,
)

from conftest import KAGOME_POSITIONS, coordinate_form


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


def reference_support(g, form, tree) -> frozenset[int]:
    """Chords whose basic-cycle flux, walked edge by edge, is nonzero."""
    table = flux_table(g, form, tree)
    if np.issubdtype(table.dtype, np.integer):
        nonzero = np.any(table != 0, axis=1)
    else:
        nonzero = np.any(np.abs(table) > SUPPORT_TOL, axis=1)
    chords = [c for c in range(g.num_edges) if c not in tree]
    return frozenset(c for c, nz in zip(chords, nonzero) if nz)


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


@pytest.fixture(scope="module")
def walks():
    """walk(g, *forms): g's reference trees, and per form the cycle-walk support on each.

    Computed once per graph and form values, for the whole module. An
    entry keeps its graph, so the id it is keyed by is not reused while
    it is cached.
    """
    cache: dict[int, tuple] = {}

    def walk(g: FundamentalGraph, *forms: OneForm) -> tuple[list, list[list[frozenset[int]]]]:
        if id(g) not in cache:
            cache[id(g)] = (g, reference_trees(g), {})
        _, trees, supports = cache[id(g)]
        keys = [(x.values.dtype.str, x.values.shape, x.values.tobytes()) for x in forms]
        for key, form in zip(keys, forms):
            if key not in supports:
                supports[key] = [reference_support(g, form, b) for b in trees]
        return trees, [supports[key] for key in keys]

    return walk


def assert_scans_match_reference(
    walk, g: FundamentalGraph, form_lists: list[tuple] | None = None
) -> None:
    """scan_trees of every entry of form_lists (default form_sets(g)) against
    the subset filter and cycle-walk supports on every reference tree."""
    trees, _ = walk(g)
    assert len(trees) == spanning_tree_count(g)
    for forms in form_lists or form_sets(g):
        scan = scan_trees(g, forms)
        assert scan.tree_count == len(trees)
        assert scan.first_tree == trees[0]
        assert len(scan.forms) == len(forms)
        for got, per_tree in zip(scan.forms, walk(g, *forms)[1]):
            best = min(map(len, per_tree))
            first = next(i for i, s in enumerate(per_tree) if len(s) == best)
            assert got.count == best
            assert got.tree == trees[first]
            assert got.mask == mask_of(per_tree[first])
            assert got.supports == {mask_of(s) for s in per_tree if len(s) == best}


def test_tree_order_matches_subset_filter(scan_graphs):
    for g in scan_graphs:
        got = enumerate_spanning_trees(g)
        assert got == reference_trees(g)
        assert len(got) == spanning_tree_count(g)
        assert first_spanning_tree(g) == got[0]


def test_scan_matches_cycle_walk_reference(scan_graphs, walks):
    for g in scan_graphs:
        assert_scans_match_reference(walks, g)


def test_batched_scan_past_one_word(walks):
    # 70 vertices and 140 edges: vertex sets and tree keys take several words
    g = harper_model(70, 3)
    assert_scans_match_reference(walks, g)
    assert enumerate_spanning_trees(g) == reference_trees(g)


def test_batched_scan_needs_no_numpy_2_names(monkeypatch, walks):
    # pyproject.toml allows numpy>=1.24; np.bitwise_count only exists from 2.0
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert_scans_match_reference(walks, supercell(generate("hexagonal"), SupercellSpec((2, 2))))


@pytest.mark.parametrize("states", [1, 2, 3])
def test_tiny_blocks_give_identical_scans(battery_graphs, monkeypatch, states):
    cases = [(g, forms) for g in battery_graphs for forms in form_sets(g)]
    want = [scan_trees(g, forms) for g, forms in cases]
    monkeypatch.setattr(fc, "_BLOCK_STATES", states)
    assert [scan_trees(g, forms) for g, forms in cases] == want


def test_disconnected_graph_has_no_first_tree():
    # vertex 2 carries only a loop
    g = FundamentalGraph(dim=1, num_vertices=3, edges=(Edge(0, 1, (1,)), Edge(0, 1, (0,)), Edge(2, 2, (1,))))
    assert not g.is_connected()
    with pytest.raises(DisconnectedGraphError):
        first_spanning_tree(g)
    with pytest.raises(DisconnectedGraphError):
        gauge_weights(g, g.index_form(), g.magnetic_form())
    with pytest.raises(DisconnectedGraphError):
        first_spanning_tree(FundamentalGraph(dim=0, num_vertices=0, edges=()))


_TOL = SUPPORT_TOL


@pytest.mark.parametrize("flux,nonzero", [
    (_TOL * (1 - 1e-3), False), (_TOL * (1 + 1e-3), True),
    (-_TOL * (1 - 1e-3), False), (-_TOL * (1 + 1e-3), True),
    (TWO_PI + _TOL * (1 - 1e-3), False), (TWO_PI + _TOL * (1 + 1e-3), True),
    (TWO_PI - _TOL * (1 - 1e-3), False), (TWO_PI - _TOL * (1 + 1e-3), True),
])
def test_near_tolerance_flux_spread_over_a_long_cycle(walks, flux, nonzero):
    # A ring of 12 vertices: every tree has one chord, whose basic cycle is
    # the whole ring, so its flux sums 12 edge values and the scan's
    # potentials sum up to 11. 1e-3 of the tolerance lies far above the
    # rounding of those sums, so the side of the tolerance is decided.
    n = 12
    spread = np.random.default_rng(3).uniform(-3.0, 3.0, n - 1).tolist()
    last = flux - math.fsum(spread)
    edges = [Edge(v, (v + 1) % n, (int(v == 0),), a)
             for v, a in enumerate(spread + [reduce_angle(last)])]
    g = FundamentalGraph(dim=1, num_vertices=n, edges=tuple(edges))
    forms = (g.magnetic_form(), OneForm(np.array([[x] for x in spread + [last]])))
    if flux > 1.0:  # a real flux near 2*pi is plainly nonzero
        forms = forms[:1]
    assert_scans_match_reference(walks, g, [forms])
    for got in scan_trees(g, forms).forms:
        assert got.count == int(nonzero)
        assert got.supports == ({1 << c for c in range(n)} if nonzero else {0})


def test_phase_flux_test_equals_remainder():
    rng = np.random.default_rng(5)
    tol, step = SUPPORT_TOL, TWO_PI
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
    assert np.array_equal(OneForm.zeros(1, 1, magnetic=True).is_nonzero(f), want)


@pytest.mark.parametrize("values,f,nonzero", [
    # exact: integer valued, compared with zero, int64 extremes included
    (np.zeros((1, 1), dtype=np.int64), [INT64_MIN, -1, 0, 1, INT64_MAX], [1, 1, 0, 1, 1]),
    # real: SUPPORT_TOL in absolute value, with no reduction mod 2*pi
    (np.zeros((1, 1)),
     [_TOL * (1 - 1e-3), _TOL * (1 + 1e-3), -_TOL * (1 - 1e-3), -_TOL * (1 + 1e-3),
      0.0, -0.0, TWO_PI, -TWO_PI],
     [0, 1, 0, 1, 0, 0, 1, 1]),
])
def test_exact_and_real_zero_tests(values, f, nonzero):
    x = OneForm(values)
    assert x.exact == np.issubdtype(values.dtype, np.integer)
    got = x.is_nonzero(np.array(f, dtype=values.dtype))
    assert got.tolist() == [bool(b) for b in nonzero]


def test_support_is_the_rows_with_a_nonzero_value(battery_graphs):
    rng = np.random.default_rng(11)
    for g in battery_graphs:
        positions = rng.uniform(-1.0, 1.0, (g.num_vertices, g.dim))
        tau, alpha = g.index_form(), g.magnetic_form()
        coord, flat = coordinate_form(g, positions), coordinate_form(g, 0.0 * positions)
        assert tau.exact and not (alpha.exact or coord.exact or flat.exact)
        for x in (tau, alpha, coord, flat):
            assert x.support() == tuple(np.flatnonzero(x.is_nonzero(x.values).any(1)))
        # on reduced phases the mod-2*pi test is the plain tolerance test
        assert tau.support() == tuple(np.flatnonzero((tau.values != 0).any(1)))
        for x in (alpha, coord, flat):
            assert x.support() == tuple(np.flatnonzero((np.abs(x.values) > _TOL).any(1)))


def test_int64_potential_guard():
    def wide(low: int) -> FundamentalGraph:
        return FundamentalGraph(dim=1, num_vertices=2, edges=(Edge(0, 1, (2**62,)), Edge(0, 1, (low,))))

    with pytest.raises(IndexOverflowError):
        scan_trees(wide(-(2**62)), (wide(-(2**62)).index_form(),))
    g = wide(-(2**62) + 1)  # |values| sum to exactly 2^63 - 1: the flux still fits
    assert scan_trees(g, (g.index_form(),)).forms[0].count == 1


def pack_threshold(dim: int) -> int:
    """The smallest per-component |values| sum B whose packed sums 3B * (1 + R + ...
    + R^(dim-1)), R = 2B + 1, pass int64: forms with B below it are scanned packed."""
    def over(b: int) -> bool:
        return 3 * b * sum((2 * b + 1) ** s for s in range(dim)) > INT64_MAX

    low, high = 1, 2**62  # over(high), not over(low)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if over(mid) else (mid, high)
    return high


def integer_form(rng, g: FundamentalGraph, dim: int, scale: int, sum_to: int | None = None) -> OneForm:
    """A seeded integer form: per component a multiple (-1, 0 or 1) of an index
    column plus the coboundary of vertex values in [-scale, scale], so some
    chord fluxes cancel. With sum_to, an entry of component 0 grows so that
    component's |values| sum to exactly that (which bounds the others)."""
    tails = [e.tail for e in g.edges]
    heads = [e.head for e in g.edges]
    tau = g.index_matrix()
    cols = []
    for _ in range(dim):
        f = rng.integers(-scale, scale + 1, g.num_vertices)
        cols.append(int(rng.integers(-1, 2)) * tau[:, rng.integers(g.dim)] + f[heads] - f[tails])
    values = np.stack(cols, axis=1).astype(np.int64)
    if sum_to is not None:
        slack = sum_to - int(np.abs(values[:, 0]).sum())
        assert slack >= 0 and int(np.abs(values).sum(axis=0).max()) <= sum_to
        values[0, 0] += slack if values[0, 0] >= 0 else -slack
    return OneForm(values)


@pytest.fixture()
def scanned(monkeypatch):
    """Per _TreeScanner built, the (dim, exact) of each form it is handed."""
    seen: list[list[tuple[int, bool]]] = []

    class Spy(fc._TreeScanner):
        def __init__(self, g, forms=()):
            seen.append([(x.dim, x.exact) for x in forms])
            super().__init__(g, forms)

    monkeypatch.setattr(fc, "_TreeScanner", Spy)
    return seen


def test_packed_and_zero_forms_match_the_cycle_walk(battery_graphs, walks, scanned):
    # components 1 apart in a cycle's flux: a radix of B instead of 2B + 1 would read zero
    parallel = FundamentalGraph(dim=1, num_vertices=2, edges=tuple(Edge(0, 1, (k,)) for k in range(3)))
    near = OneForm(np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int64))
    assert_scans_match_reference(walks, parallel, [(near,)])
    rng = np.random.default_rng(24)
    for g in battery_graphs[::4]:
        e = g.num_edges
        zeros = (OneForm(np.zeros((e, 2), dtype=np.int64)), OneForm.zeros(e, 1, magnetic=True),
                 OneForm.zeros(e, 3))
        small = [integer_form(rng, g, dim, 3) for dim in (2, 3)]
        edge = [integer_form(rng, g, dim, 2**14, sum_to=pack_threshold(dim) + over)
                for dim in (2, 3) for over in (-1, 0)]
        scanned.clear()
        assert_scans_match_reference(walks, g, [(small[0], zeros[1], small[1]), zeros, tuple(edge)])
        packed, zero, at_edge = scanned
        assert zero == []
        assert packed == [(1, True), (1, True)]
        assert at_edge == [(1, True), (2, True), (1, True), (3, True)]


def test_scanner_carries_one_column_per_packable_form_and_none_for_zero(kagome, scanned):
    tau, alpha = kagome.index_form(), kagome.magnetic_form()  # the stock phases are zero
    scan = scan_trees(kagome, (tau, alpha))
    assert scan.forms[1] == (0, scan.first_tree, 0, frozenset({0}))
    wide = integer_form(np.random.default_rng(1), kagome, 2, 8, sum_to=pack_threshold(2))
    scan_trees(kagome, (wide, OneForm.zeros(kagome.num_edges, 2)))
    assert scanned == [[(1, True)], [(2, True)]]


@pytest.mark.parametrize("rows", [5, 7])
@pytest.mark.parametrize("zero", [True, False])
def test_misshaped_forms_are_refused_before_scanning(kagome, monkeypatch, rows, zero):
    assert kagome.num_edges == 6
    values = np.zeros((rows, 2), dtype=np.int64) if zero else np.ones((rows, 2), dtype=np.int64)
    bad = OneForm(values)

    def no_count(g):
        raise AssertionError("a misshaped form reached the tree count")

    monkeypatch.setattr(fc, "spanning_tree_count", no_count)
    with pytest.raises(DimensionMismatchError, match=f"{rows}, 2"):
        scan_trees(kagome, (kagome.index_form(), bad))
    with pytest.raises(DimensionMismatchError):
        minimal_form(kagome, bad)
    # so does the cycle walk: a short form must not index past its rows, nor a long one lose rows
    for walk in (flux_table, tree_form):
        with pytest.raises(DimensionMismatchError, match=f"{rows}, 2"):
            walk(kagome, bad, first_spanning_tree(kagome))


def test_pair_minimum_over_distinct_supports_equals_all_pairs(scan_graphs, walks):
    for g in scan_graphs:
        trees, (tau, alpha) = walks(g, g.index_form(), g.magnetic_form())
        tau_best, alpha_best = min(map(len, tau)), min(map(len, alpha))
        tau_min = [s for s in tau if len(s) == tau_best]
        alpha_min = [s for s in alpha if len(s) == alpha_best]
        report = invariants(g)
        assert report.I_mu_phi == len(tau_min[0] | alpha_min[0])
        # |a | b| depends only on the two sets: pair the distinct minimal supports
        assert report.I_mu_phi_min == min(len(a | b) for a in set(tau_min) for b in set(alpha_min))
        assert report.tree_count == len(trees)


def first_minimal_tree(walk, g, form):
    """The reference's first tree with fewest nonzero chord fluxes, and that count."""
    trees, (supports,) = walk(g, form)
    best = min(map(len, supports))
    return trees[next(i for i, s in enumerate(supports) if len(s) == best)], best


def test_minimal_form_is_tree_form_on_first_minimal_tree(scan_graphs, kagome, walks):
    cases = [(kagome, coordinate_form(kagome, KAGOME_POSITIONS))]
    cases += [(g, x) for g in scan_graphs[:20] for x in (g.index_form(), g.magnetic_form())]
    for g, x in cases:
        first, best = first_minimal_tree(walks, g, x)
        mu, tree, count = minimal_form(g, x)
        assert count == best
        assert tree == first
        assert np.array_equal(mu.values, tree_form(g, x, first).values)
    g = scan_graphs[0]
    for got, x in zip(minimal_pair(g), (g.index_form(), g.magnetic_form())):
        first, _ = first_minimal_tree(walks, g, x)
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
    g = supercell(generate("hexagonal"), SupercellSpec((2, 2)))  # 384 trees, one fewer claimed
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
