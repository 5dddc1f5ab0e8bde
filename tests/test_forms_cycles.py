import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magspec import (
    FluxImageNotFullLatticeError,
    GraphDataError,
    TreeCountExceedsCapError,
    enumerate_spanning_trees,
    first_spanning_tree,
    flux_table,
    generate,
    integer_determinant,
    invariants,
    lattice_image_check,
    minimal_form,
    scan_trees,
    spanning_tree_count,
    tree_form,
    tree_potentials,
)
from magspec.graph_model import Edge, FundamentalGraph, OneForm

from conftest import (
    KAGOME_POSITIONS,
    basic_cycles,
    coordinate_form,
    diamond_graph,
    make_random_graph,
    walk_flux,
    walk_potentials,
)


# -- independent oracles -------------------------------------------------------


def tree_count_by_eigenvalues(g: FundamentalGraph) -> float:
    """Spanning-tree count from the plain Laplacian spectrum (loops cancel)."""
    nu = g.num_vertices
    if nu == 1:
        return 1.0
    lap = np.zeros((nu, nu))
    for e in g.edges:
        if e.is_loop:
            continue
        lap[e.tail, e.tail] += 1
        lap[e.head, e.head] += 1
        lap[e.tail, e.head] -= 1
        lap[e.head, e.tail] -= 1
    xi = np.linalg.eigvalsh(lap)
    return float(np.prod(xi[1:]) / nu)


def bruteforce_spans_lattice(mat: np.ndarray, box: int = 5) -> bool:
    """Search integer combinations in [-box, box]^k for every unit vector."""
    d, k = mat.shape
    coeffs = np.array(list(product(range(-box, box + 1), repeat=k)), dtype=np.int64)
    span = {tuple(int(x) for x in row) for row in coeffs @ mat.T}
    return all(tuple(int(i == s) for i in range(d)) in span for s in range(d))


# -- spanning trees --------------------------------------------------------------


def triangle() -> FundamentalGraph:
    return FundamentalGraph(
        dim=1, num_vertices=3,
        edges=(Edge(0, 1, (0,)), Edge(1, 2, (0,)), Edge(2, 0, (1,))),
    )


def test_triangle_has_three_trees():
    assert enumerate_spanning_trees(triangle()) == [(0, 1), (0, 2), (1, 2)]


def test_chord_count_equals_beta(kagome):
    for tree in enumerate_spanning_trees(kagome):
        assert flux_table(kagome, kagome.index_form(), tree).shape == (kagome.beta, 2)
        assert len(tree) == kagome.num_vertices - 1


def test_loops_never_in_trees():
    g = FundamentalGraph(
        dim=1, num_vertices=2,
        edges=(Edge(0, 0, (1,)), Edge(0, 1, (0,)), Edge(1, 0, (1,))),
    )
    # the loop is always a chord, the first, and is its own basic cycle
    x = OneForm(np.random.default_rng(2).uniform(-1.0, 1.0, (3, 2)))
    for tree in enumerate_spanning_trees(g):
        assert 0 not in tree
        assert np.array_equal(flux_table(g, x, tree)[0], x.values[0])


def test_basic_cycles_are_closed(kagome):
    # a gradient p(head) - p(tail) has zero flux through every closed cycle
    p = np.random.default_rng(1).integers(-9, 10, (kagome.num_vertices, 2))
    grad = OneForm(np.array([p[e.head] - p[e.tail] for e in kagome.edges]))
    for tree in enumerate_spanning_trees(kagome):
        assert np.array_equal(flux_table(kagome, grad, tree), np.zeros((kagome.beta, 2)))


def test_tree_count_matches_matrix_tree_oracle(generator_graphs):
    for g in generator_graphs + [diamond_graph(), triangle()]:
        trees = enumerate_spanning_trees(g)
        assert len(trees) == spanning_tree_count(g)
        oracle = tree_count_by_eigenvalues(g)
        assert abs(oracle - round(oracle)) < 1e-6
        assert round(oracle) == len(trees)


def test_tree_count_oracle_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = make_random_graph(rng)
        trees = enumerate_spanning_trees(g)
        oracle = tree_count_by_eigenvalues(g)
        assert round(oracle) == len(trees)


def test_tree_cap_exceeded():
    with pytest.raises(TreeCountExceedsCapError):
        enumerate_spanning_trees(triangle(), cap=2)


# -- flux -------------------------------------------------------------------------


def test_flux_zero_form_is_zero(kagome):
    zero = OneForm.zeros(kagome.num_edges, 2)
    tree = enumerate_spanning_trees(kagome)[0]
    assert np.array_equal(flux_table(kagome, zero, tree), np.zeros((kagome.beta, 2)))


def test_flux_kagome_inner_triangle_vanishes(kagome):
    # on the tree (0, 1) the basic cycle of chord 2 is the in-cell triangle
    # v2->v1, v1->v3, v3->v2, all index (0,0); the chords are 2, 3, 4, 5
    table = flux_table(kagome, kagome.index_form(), (0, 1))
    assert np.array_equal(table[0], np.zeros(2, dtype=np.int64))


def test_flux_magnetic_mod_2pi():
    g = FundamentalGraph(
        dim=1, num_vertices=3,
        edges=(Edge(0, 1, (0,), 2.0), Edge(1, 2, (0,), 2.0),
               Edge(2, 0, (0,), 2 * math.pi - 4.0)),
    )
    # the one basic cycle sums the phases to 2*pi
    assert flux_table(g, g.magnetic_form(), (0, 1))[0, 0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("tree", [(0, 1, 2), (0,), (7, 8), (0, 3), (2, 2), (-1, 0)],
                         ids=["too-many", "too-few", "out-of-range", "misses-a-vertex", "repeated", "negative"])
def test_edge_ids_that_are_no_spanning_tree_are_refused(kagome, tree):
    # too many or too few ids, out of range, parallel edges 0 and 3 that
    # miss vertex 1, a repeated id, and a negative id
    tau = kagome.index_form()
    with pytest.raises(GraphDataError, match="spanning tree|every vertex"):
        flux_table(kagome, tau, tree)
    with pytest.raises(GraphDataError):
        tree_form(kagome, tau, tree)


def oracle_table(g: FundamentalGraph, x: OneForm, tree: tuple[int, ...]) -> np.ndarray:
    rows = [walk_flux(g, x, cycle) for cycle in basic_cycles(g, tree)]
    return np.stack(rows) if rows else np.zeros((0, x.dim), dtype=x.values.dtype)


def test_flux_table_and_tree_form_equal_the_cycle_walk_bit_for_bit(battery_graphs):
    rng = np.random.default_rng(17)
    for g in battery_graphs:
        forms = (g.index_form(), g.magnetic_form(),
                 OneForm(rng.uniform(-1.0, 1.0, (g.num_edges, 2))))
        minimal = [s.tree for s in scan_trees(g, forms).forms]
        for x, tree_x in zip(forms, minimal):
            for tree in (first_spanning_tree(g), tree_x):
                want = oracle_table(g, x, tree)
                got = flux_table(g, x, tree)
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
                values = np.zeros((g.num_edges, x.dim), dtype=np.int64 if x.exact else float)
                values[[c for c in range(g.num_edges) if c not in tree]] = want
                want_form = OneForm(values, magnetic=x.magnetic)  # phases pass reduce_angles
                assert tree_form(g, x, tree).values.tobytes() == want_form.values.tobytes()


def test_tree_potentials_equal_the_path_walk_bit_for_bit(battery_graphs):
    # the int64 index and float phase differences that gauge_weights sums, on the
    # first tree and on the index form's first minimal tree
    for g in battery_graphs:
        tau, alpha = g.index_form(), g.magnetic_form()
        for tree in (first_spanning_tree(g), scan_trees(g, (tau,)).forms[0].tree):
            diff_b = g.index_matrix() - tree_form(g, tau, tree).values
            phases = alpha.values - tree_form(g, alpha, tree).values
            diff_a = OneForm(phases, magnetic=True).values[:, 0]
            for values in (diff_b, diff_a):
                want, got = walk_potentials(g, tree, values), tree_potentials(g, tree, values)
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            assert diff_b.dtype == np.int64 and diff_a.dtype == np.float64


def test_tree_potentials_refuse_a_non_tree(kagome):
    first = first_spanning_tree(kagome)
    # two parallel edges close a cycle and miss the third vertex
    ends = [frozenset((e.tail, e.head)) for e in kagome.edges]
    parallel = next((i, j) for i, j in combinations(range(kagome.num_edges), 2) if ends[i] == ends[j])
    values = kagome.index_matrix()
    for tree in (first[:-1], first + first[:1], (first[0], first[0]), parallel, (0, kagome.num_edges)):
        with pytest.raises(GraphDataError):
            tree_potentials(kagome, tree, values)


# -- minimal forms -------------------------------------------------------------------


def kagome_coordinate_form(kagome):
    return coordinate_form(kagome, KAGOME_POSITIONS)


def test_kagome_coordinate_form_minimal_count(kagome):
    mu, _, beta_x = minimal_form(kagome, kagome_coordinate_form(kagome))
    assert beta_x == 3
    assert mu.support_size_oriented() == 6


def test_kagome_outer_arc_tree_is_minimal(kagome):
    # the tree made of the two out-of-cell arcs 3 and 5 achieves the minimum
    trees = enumerate_spanning_trees(kagome)
    x = kagome_coordinate_form(kagome)
    counts = {
        tree: int(np.sum(np.max(np.abs(flux_table(kagome, x, tree)), axis=1) > 1e-9))
        for tree in trees
    }
    assert counts[(3, 5)] == min(counts.values()) == 3


def test_minimal_form_zero_fluxes(kagome):
    zero = OneForm.zeros(kagome.num_edges, 2)
    mu, _, beta_x = minimal_form(kagome, zero)
    assert beta_x == 0
    assert mu.support() == ()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_minimal_form_zd_is_index_form(d):
    g = generate("zd", d)
    mu, tree, beta_x = minimal_form(g, g.index_form())
    assert beta_x == d
    assert tree == ()
    assert np.array_equal(mu.values, g.index_matrix())


def test_minimal_form_preserves_fluxes_everywhere(kagome):
    trees = enumerate_spanning_trees(kagome)
    x = kagome_coordinate_form(kagome)
    mu, _, _ = minimal_form(kagome, x)
    for tree in trees:
        assert np.allclose(flux_table(kagome, mu, tree), flux_table(kagome, x, tree), atol=1e-12)


def test_minimal_form_preserves_fluxes_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = make_random_graph(rng)
        trees = enumerate_spanning_trees(g)
        for form in (g.index_form(), g.magnetic_form()):
            mu, _, _ = minimal_form(g, form)
            for tree in trees:
                got = flux_table(g, mu, tree)
                want = flux_table(g, form, tree)
                assert np.allclose(got.astype(float), want.astype(float), atol=1e-9)


def test_minimum_is_well_defined_across_minimal_trees():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = make_random_graph(rng)
        trees = enumerate_spanning_trees(g)
        tau = g.index_form()
        counts = [int(np.any(flux_table(g, tau, t) != 0, axis=1).sum()) for t in trees]
        best = min(counts)
        assert all(c == best for c in counts if c == best)  # argmin set is consistent
        _, _, beta_x = minimal_form(g, tau)
        assert beta_x == best


def test_invariant_survives_relabeling(kagome):
    perm = [2, 0, 1]
    edges = []
    for e in kagome.edges:
        tail, head, idx = perm[e.tail], perm[e.head], e.index
        if tail > head:  # re-canonicalize some orientations
            tail, head, idx = head, tail, tuple(-i for i in idx)
        edges.append(Edge(tail, head, idx, e.alpha))
    relabeled = FundamentalGraph(dim=2, num_vertices=3, edges=tuple(edges))
    assert invariants(relabeled).I == invariants(kagome).I == 3


# -- invariants -------------------------------------------------------------------


def test_invariants_examples(kagome, hexagonal, decorated2):
    rk = invariants(kagome)
    assert (rk.beta, rk.I) == (4, 3)
    rh = invariants(hexagonal)
    assert (rh.beta, rh.I) == (2, 2)
    rd = invariants(decorated2)
    assert (rd.beta, rd.I, rd.I_mu_phi) == (2, 2, 2)


def test_invariants_with_phases_on_single_tree_graph():
    g = generate("zd", 2).with_phases([1.0, 0.0])
    rep = invariants(g)
    assert rep.I_alpha == 1
    assert rep.I_mu_phi == 2  # phase support sits inside the index support


def test_invariants_decorated_phase_on_tree_edge():
    g = generate("decorated", 2)
    g = g.with_phases([0.0, 0.0, 1.3])  # phase on the decoration edge, a tree edge
    rep = invariants(g)
    assert rep.I_alpha == 0  # tree-edge phases carry no flux
    assert rep.I_mu_phi == 2


def test_invariants_bounds_on_random_graphs(battery_graphs):
    for g in battery_graphs[:30]:
        rep = invariants(g)
        assert g.dim <= rep.I <= rep.beta
        assert rep.I_mu_phi_min <= rep.I_mu_phi
        assert max(rep.I, rep.I_alpha) <= rep.I_mu_phi <= rep.I + rep.I_alpha


def test_invariants_rejects_sublattice_image():
    g = FundamentalGraph(
        dim=2, num_vertices=1,
        edges=(Edge(0, 0, (2, 0)), Edge(0, 0, (0, 1))),
    )
    with pytest.raises(FluxImageNotFullLatticeError):
        invariants(g)


# -- integer lattice machinery -------------------------------------------------------


def test_lattice_image_identity_block():
    assert lattice_image_check(np.array([[1, 0, 3], [0, 1, -2]]))


def test_lattice_image_rank_deficient():
    assert not lattice_image_check(np.array([[2], [0]]))


def test_lattice_image_mixed_columns():
    # (1,1) - (0,1) = (1,0): the span is all of Z^2 though no column is (1,0)
    assert lattice_image_check(np.array([[2, 0, 1], [0, 1, 1]]))


def test_lattice_image_index_two_sublattice():
    assert not lattice_image_check(np.array([[2, 0], [0, 1]]))


def test_lattice_image_hand_cases():
    assert lattice_image_check(np.eye(2, dtype=np.int64))
    assert not lattice_image_check(np.array([[2, 0], [0, 3]]))  # index 6
    assert not lattice_image_check(np.array([[2, 4], [6, 8]]))  # divisors 2, 4
    assert not lattice_image_check(np.zeros((2, 2), dtype=np.int64))
    assert not lattice_image_check(np.zeros((2, 0), dtype=np.int64))
    assert lattice_image_check(np.zeros((0, 3), dtype=np.int64))  # Z^0 is spanned by nothing


def test_lattice_image_input_checks():
    # a float matrix is refused even when its entries are integers
    with pytest.raises(ValueError, match="integer dtype"):
        lattice_image_check(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="integer dtype"):
        lattice_image_check(np.array([[1.5, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="two dimensional"):
        lattice_image_check(np.array([1, 0]))


def spans_lattice_by_minors(mat: np.ndarray) -> bool:
    """The span is Z^d iff the d x d minors have gcd 1 (none exist when k < d)."""
    d, k = mat.shape
    g = 0
    for cols in combinations(range(k), d):
        g = math.gcd(g, integer_determinant(mat[:, list(cols)]))
    return g == 1


def test_lattice_image_vs_gcd_of_minors_oracle():
    rng = np.random.default_rng(13)
    seen = {True: 0, False: 0}
    for trial in range(300):
        d, k = int(rng.integers(1, 4)), int(rng.integers(0, 7))
        mat = rng.integers(-50, 51, size=(d, k))
        if trial % 5 == 0:
            mat[int(rng.integers(d))] = 0  # a zero row: rank below d
        says = lattice_image_check(mat)
        assert says == spans_lattice_by_minors(mat), mat
        seen[says] += 1
    assert min(seen.values()) >= 50  # both outcomes exercised


def test_smith_vs_bruteforce_box_oracle():
    # entries kept in [-2, 2] so the +-5 coefficient box certifies both
    # outcomes; verified exhaustively for this seed
    rng = np.random.default_rng(2)
    checked_true = checked_false = 0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(d, 5))
        mat = rng.integers(-2, 3, size=(d, k))
        says = lattice_image_check(mat)
        brute_says = bruteforce_spans_lattice(mat)
        if says:
            assert brute_says, f"reduction claims full span, box search disagrees: {mat}"
            checked_true += 1
        else:
            assert not brute_says, f"box search found units, reduction disagrees: {mat}"
            checked_false += 1
    assert checked_true >= 10 and checked_false >= 10  # both outcomes exercised


def test_integer_determinant_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        mat = rng.integers(-4, 5, size=(n, n))
        assert integer_determinant(mat) == round(float(np.linalg.det(mat)))


