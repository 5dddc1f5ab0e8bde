import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from magspec import (
    DimensionMismatchError,
    FluxMismatchError,
    GraphDataError,
    IndexOverflowError,
    NoIndependentSubsetError,
    NonFinitePotentialError,
    count_nontrivial_exponents,
    enumerate_spanning_trees,
    first_spanning_tree,
    fiber_stack,
    gauge_weights,
    generate,
    invariants,
    minimal_pair,
    phase_perturbation_bound,
    split_fiber,
    support_degrees,
    theta0_reduction,
    tree_form,
    zero_phase_form,
)
from magspec.fiber_operator import add_to_diagonals, phase_allowance, potential_allowance
from magspec.graph_model import Edge, FundamentalGraph, OneForm, reduce_angles

from conftest import make_random_graph, path_matrix_weights


# -- independent assembly oracle -------------------------------------------------


def row_sum_fiber(g, b, a, theta, with_potential=False):
    """Fiber matrix assembled row by row from the operator's defining sum."""
    nu = g.num_vertices
    m = np.zeros((nu, nu), dtype=complex)
    deg = g.degrees()
    for eid, sign, tail, head in g.oriented_edges():
        phase = float(a.value(eid, sign)[0]) + float(b.value(eid, sign) @ np.asarray(theta))
        m[tail, head] -= np.exp(1j * phase)
    m[np.arange(nu), np.arange(nu)] += deg
    if with_potential:
        m[np.arange(nu), np.arange(nu)] += g.potential
    return m


def perturbation_oracle(g, mu, phi_tilde, theta):
    """Perturbation operator assembled directly from its defining row sum."""
    supp = set(phi_tilde.support())
    nu = g.num_vertices
    x = np.zeros((nu, nu), dtype=complex)
    for eid, sign, tail, head in g.oriented_edges():
        if eid in supp:
            mval = mu.value(eid, sign).astype(float)
            pval = float(phi_tilde.value(eid, sign)[0])
            x[tail, head] += np.exp(1j * (mval @ np.asarray(theta))) * (1 - np.exp(1j * pval))
    return x


# -- fiber assembly ----------------------------------------------------------------


def test_fiber_z1_values():
    g = generate("zd", 1)
    tau, zero = g.index_form(), zero_phase_form(g)
    assert fiber_stack(g, tau, zero, [0.0])[0][0, 0] == pytest.approx(0.0)
    assert fiber_stack(g, tau, zero, [math.pi])[0][0, 0] == pytest.approx(4.0)


def test_fiber_z2_quarter_turn():
    g = generate("zd", 2)
    m = fiber_stack(g, g.index_form(), zero_phase_form(g), [math.pi / 2, math.pi / 2])[0]
    assert m[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_fiber_matches_row_sum_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = make_random_graph(rng)
        b, a = g.index_form(), g.magnetic_form()
        theta = rng.uniform(-np.pi, np.pi, g.dim)
        got = add_to_diagonals(fiber_stack(g, b, a, theta), g.potential)[0]
        want = row_sum_fiber(g, b, a, theta, with_potential=True)
        assert np.allclose(got, want, atol=1e-12)


def test_fiber_hermitian_and_diagonal_rule():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = make_random_graph(rng)
        b, a = g.index_form(), g.magnetic_form()
        theta = rng.uniform(-np.pi, np.pi, g.dim)
        m = add_to_diagonals(fiber_stack(g, b, a, theta), g.potential)[0]
        assert np.max(np.abs(m - m.conj().T)) < 1e-12 * (1 + np.linalg.norm(m))
        deg = g.degrees()
        for v in range(g.num_vertices):
            loop_cos = sum(
                math.cos(float(a.values[eid, 0]) + float(b.values[eid].astype(float) @ theta))
                for eid, e in enumerate(g.edges)
                if e.is_loop and e.tail == v
            )
            want = deg[v] - 2.0 * loop_cos + g.potential[v]
            assert m[v, v] == pytest.approx(want, abs=1e-12)


def test_fiber_parallel_edges_accumulate():
    g = FundamentalGraph(
        dim=1, num_vertices=2,
        edges=(Edge(0, 1, (0,), 0.3), Edge(0, 1, (1,), -0.2)),
    )
    theta = [0.9]
    m = fiber_stack(g, g.index_form(), g.magnetic_form(), theta)[0]
    want01 = -(np.exp(1j * 0.3) + np.exp(1j * (-0.2 + 0.9)))
    assert m[0, 1] == pytest.approx(want01)
    assert m[1, 0] == pytest.approx(np.conj(want01))


def test_fiber_dimension_mismatch():
    g = generate("zd", 2)
    bad_b = OneForm(np.zeros((2, 1), dtype=np.int64))
    with pytest.raises(DimensionMismatchError):
        fiber_stack(g, bad_b, zero_phase_form(g), [0.0, 0.0])[0]
    with pytest.raises(DimensionMismatchError):
        fiber_stack(g, g.index_form(), zero_phase_form(g), [0.0])[0]


def test_fiber_stack_matches_singletons(kagome):
    rng = np.random.default_rng(2)
    thetas = rng.uniform(-np.pi, np.pi, (5, 2))
    b, a = kagome.index_form(), kagome.magnetic_form()
    stack = fiber_stack(kagome, b, a, thetas)
    for i, theta in enumerate(thetas):
        assert np.allclose(stack[i], fiber_stack(kagome, b, a, theta)[0])


# -- gauge transformation -------------------------------------------------------------


def test_gauge_weights_vanish_for_stored_pair(kagome):
    w = gauge_weights(kagome, kagome.index_form(), kagome.magnetic_form())
    assert np.all(w.w_b == 0) and np.all(w.w_a == 0)


def test_gauge_weights_single_vertex():
    g = generate("zd", 2)
    w = gauge_weights(g, g.index_form(), g.magnetic_form())
    assert w.w_b.shape == (1, 2)
    assert np.all(w.w_b == 0)


def test_gauge_conjugation_identity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = make_random_graph(rng)
        mu, phi = minimal_pair(g)
        w = gauge_weights(g, mu, phi)
        assert np.max(np.abs(w.w_b - np.rint(w.w_b))) < 1e-9  # integer weights
        tau, alpha = g.index_form(), g.magnetic_form()
        thetas = rng.uniform(-np.pi, np.pi, (20, g.dim))
        batch = w.diagonal_unitary(thetas)
        assert batch.shape == (20, g.num_vertices)
        for theta, d_row in zip(thetas, batch):
            m_min = fiber_stack(g, mu, phi, theta)[0]
            m_tau = fiber_stack(g, tau, alpha, theta)[0]
            d = w.diagonal_unitary(theta)
            assert np.array_equal(d_row, d)  # the batch is its row-by-row calls
            conjugated = np.conj(d)[:, None] * m_min * d[None, :]
            assert np.allclose(conjugated, m_tau, atol=1e-9)
            got = np.linalg.eigvalsh(m_min)
            want = np.linalg.eigvalsh(m_tau)
            assert np.allclose(got, want, atol=1e-9)


def test_gauge_kagome_alternate_minimal_tree(kagome):
    # the tree of the two out-of-cell arcs gives a different minimal form;
    # its gauge has integer weights and conjugates back to the stored fiber
    assert (3, 5) in enumerate_spanning_trees(kagome)
    mu_alt = tree_form(kagome, kagome.index_form(), (3, 5))
    assert len(mu_alt.support()) == 3
    assert not np.array_equal(mu_alt.values, kagome.index_matrix())
    w = gauge_weights(kagome, mu_alt, kagome.magnetic_form())
    assert np.max(np.abs(w.w_b - np.rint(w.w_b))) == 0.0
    assert not w.w_b[0].any() and w.w_a[0] == 0.0  # the weights vanish at vertex 0
    rng = np.random.default_rng(20)
    for theta in rng.uniform(-np.pi, np.pi, (20, 2)):
        m_alt = fiber_stack(kagome, mu_alt, kagome.magnetic_form(), theta)[0]
        m_tau = fiber_stack(kagome, kagome.index_form(), kagome.magnetic_form(), theta)[0]
        d = w.diagonal_unitary(theta)
        assert np.allclose(np.conj(d)[:, None] * m_alt * d[None, :], m_tau, atol=1e-9)
        assert np.allclose(np.linalg.eigvalsh(m_alt), np.linalg.eigvalsh(m_tau), atol=1e-9)


def test_gauge_weights_reject_wrong_flux_class(kagome):
    doubled = OneForm(2 * kagome.index_matrix())
    with pytest.raises(FluxMismatchError):
        gauge_weights(kagome, doubled, kagome.magnetic_form())
    shifted = OneForm(
        kagome.magnetic_form().values + np.array([[1.0], [0], [0], [0], [0], [0]]),
        magnetic=True,
    )
    with pytest.raises(FluxMismatchError):
        gauge_weights(kagome, kagome.index_form(), shifted)


def test_gauge_weights_index_channel_is_exact_in_int64(kagome):
    # w_b(v1) = 2**55 + 1 is not a float64, so float potentials would round
    # it and could miss a chord flux that is off by one
    edges = list(kagome.edges)
    edges[1] = replace(edges[1], index=(2**55 + 1, 0))
    edges[4] = replace(edges[4], index=(1 - 2**55, -1), alpha=0.3)
    g = replace(kagome, edges=tuple(edges))
    first = first_spanning_tree(g)
    assert first == (0, 1)
    b, a = tree_form(g, g.index_form(), first), tree_form(g, g.magnetic_form(), first)
    w = gauge_weights(g, b, a)
    assert w.w_b.dtype == np.int64
    assert w.w_b.tolist() == [[0, 0], [2**55 + 1, 0], [0, 0]]
    off_by_one = b.values.copy()
    off_by_one[5, 0] += 1
    with pytest.raises(FluxMismatchError, match=r"^form is not flux-equivalent to the index form \(chord 5\)$"):
        gauge_weights(g, OneForm(off_by_one), a)


def test_gauge_weights_equal_the_path_matrix_oracle(battery_graphs):
    # the minimal pair and the pair that vanishes on the first tree, per battery graph
    for g in battery_graphs:
        first = first_spanning_tree(g)
        first_pair = (tree_form(g, g.index_form(), first), tree_form(g, g.magnetic_form(), first))
        tree = list(first)
        t, h = [g.edges[e].tail for e in tree], [g.edges[e].head for e in tree]
        for b, a in (minimal_pair(g), first_pair):
            w = gauge_weights(g, b, a)
            want_b, want_a = path_matrix_weights(g, b, a)
            assert w.w_b.dtype == np.int64 and np.array_equal(w.w_b, want_b)
            assert np.max(np.abs(reduce_angles(w.w_a - want_a))) <= 1e-12
            on_tree = (g.index_matrix() - b.values)[tree] + w.w_b[t] - w.w_b[h]
            assert not on_tree.any()  # exactly 0 on every tree edge of the index channel


def cycle_walk_mismatch(g, b, a):
    """The FluxMismatchError text derived by walking the basic cycles of the first tree, or None."""
    first = first_spanning_tree(g)
    bad_b = set(tree_form(g, OneForm(g.index_matrix() - b.values), first).support())
    diff_a = OneForm(g.magnetic_form().values - a.values, magnetic=True)
    bad_a = set(tree_form(g, diff_a, first).support())
    if not bad_b | bad_a:
        return None
    chord = min(bad_b | bad_a)
    if chord in bad_b:
        return f"form is not flux-equivalent to the index form (chord {chord})"
    return f"phase form is not flux-equivalent to the stored phases (chord {chord})"


def test_gauge_weights_name_the_chord_the_cycle_walk_names(battery_graphs):
    # one edge of the minimal pair changed at a time: index + 1, or phase + 1e-6;
    # a change on a bridge moves no flux, and both derivations accept it
    raised = 0
    for g in battery_graphs:
        mu, phi = minimal_pair(g)
        for eid in range(g.num_edges):
            for channel in range(2):
                b, a = mu.values.copy(), phi.values.copy()
                if channel == 0:
                    b[eid, 0] += 1
                else:
                    a[eid, 0] += 1e-6
                b, a = OneForm(b), OneForm(a, magnetic=True)
                try:
                    gauge_weights(g, b, a)
                    got = None
                except FluxMismatchError as exc:
                    got = str(exc)
                    raised += 1
                assert got == cycle_walk_mismatch(g, b, a)
    assert raised > 1000


# -- theta-shift reduction --------------------------------------------------------------


def test_theta0_zero_phases_gives_zero_shift(kagome):
    mu, phi = minimal_pair(kagome)
    theta0, phi_tilde = theta0_reduction(kagome, mu, phi)
    assert np.allclose(theta0, 0.0)
    assert phi_tilde.support() == ()


def test_theta0_z2_loop_phases():
    g = generate("zd", 2).with_phases([0.7, -1.1])
    mu, phi = minimal_pair(g)
    theta0, phi_tilde = theta0_reduction(g, mu, phi)
    assert np.allclose(theta0, [-0.7, 1.1])
    assert phi_tilde.support() == ()


def test_theta0_prefers_unimodular_subset():
    g = FundamentalGraph(
        dim=1, num_vertices=1,
        edges=(Edge(0, 0, (2,), 0.5), Edge(0, 0, (1,), 0.8)),
    )
    mu, phi = g.index_form(), g.magnetic_form()
    theta0, phi_tilde = theta0_reduction(g, mu, phi)
    # the second loop is the unimodular choice: theta0 = -0.8, and the
    # first loop keeps 0.5 + 2*(-0.8) = -1.1
    assert theta0[0] == pytest.approx(-0.8)
    assert phi_tilde.support() == (0,)
    assert phi_tilde.values[0, 0] == pytest.approx(-1.1)


def test_theta0_support_bound_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = make_random_graph(rng)
        mu, phi = minimal_pair(g)
        _, phi_tilde = theta0_reduction(g, mu, phi)
        union = len(set(mu.support()) | set(phi.support()))
        assert len(phi_tilde.support()) <= union - g.dim


def test_theta0_union_invariant_implies_no_phase(decorated2):
    rng = np.random.default_rng(5)
    g = decorated2.with_phases(rng.uniform(-np.pi, np.pi, decorated2.num_edges))
    rep = invariants(g)
    assert rep.I_mu_phi == g.dim
    mu, phi = minimal_pair(g)
    _, phi_tilde = theta0_reduction(g, mu, phi)
    assert phi_tilde.support() == ()


def test_theta0_fallback_without_unimodular_subset():
    # loop values 2 and 3 span Z but neither alone is unimodular; the
    # scan falls back to the first nonsingular choice and the solve is
    # still an exact shift
    g = FundamentalGraph(
        dim=1, num_vertices=1,
        edges=(Edge(0, 0, (2,), 0.6), Edge(0, 0, (3,), -0.5)),
    )
    mu, phi = minimal_pair(g)
    theta0, phi_tilde = theta0_reduction(g, mu, phi)
    assert theta0[0] == pytest.approx(-0.3)
    assert phi_tilde.support() == (1,)
    assert phi_tilde.values[1, 0] == pytest.approx(-0.5 + 3 * (-0.3))


def test_theta0_no_independent_subset():
    g = FundamentalGraph(
        dim=2, num_vertices=1,
        edges=(Edge(0, 0, (1, 0), 0.4), Edge(0, 0, (2, 0), 0.9)),
    )
    with pytest.raises(NoIndependentSubsetError):
        theta0_reduction(g, g.index_form(), g.magnetic_form())


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_theta0_rejects_non_finite_forms_without_warnings(kagome, value):
    mu = OneForm(np.full((kagome.num_edges, kagome.dim), value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphDataError):
            theta0_reduction(kagome, mu, kagome.magnetic_form())


# -- perturbation operator ----------------------------------------------------------------
# verify_perturbation sweeps the shifted-phase fiber minus the phase-free fiber


def test_perturbation_zero_when_no_shifted_phase(kagome):
    mu, phi = minimal_pair(kagome)
    _, phi_tilde = theta0_reduction(kagome, mu, phi)
    zero, theta = zero_phase_form(kagome), [0.3, -0.8]
    x = fiber_stack(kagome, mu, phi_tilde, theta)[0] - fiber_stack(kagome, mu, zero, theta)[0]
    assert np.max(np.abs(x)) == 0.0


def test_perturbation_matches_row_sum_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = make_random_graph(rng)
        mu, phi = minimal_pair(g)
        _, phi_tilde = theta0_reduction(g, mu, phi)
        theta = rng.uniform(-np.pi, np.pi, g.dim)
        zero = zero_phase_form(g)
        got = fiber_stack(g, mu, phi_tilde, theta)[0] - fiber_stack(g, mu, zero, theta)[0]
        want = perturbation_oracle(g, mu, phi_tilde, theta)
        assert np.allclose(got, want, atol=1e-12)
        assert np.allclose(got, got.conj().T, atol=1e-12)
        norm = np.linalg.norm(got, ord=2)
        assert norm <= phase_perturbation_bound(g, phi_tilde) + 1e-9


def test_perturbation_single_edge_pi_entries():
    g = FundamentalGraph(dim=1, num_vertices=2, edges=(Edge(0, 1, (0,)),))
    mu = g.index_form()
    phi_tilde = OneForm(np.array([[math.pi]]), magnetic=True)
    x = fiber_stack(g, mu, phi_tilde, [0.4])[0] - fiber_stack(g, mu, zero_phase_form(g), [0.4])[0]
    assert abs(x[0, 1]) == pytest.approx(2.0)
    assert abs(x[1, 0]) == pytest.approx(2.0)


def test_phase_bound_hand_values():
    loop = FundamentalGraph(dim=1, num_vertices=1, edges=(Edge(0, 0, (1,)),))
    pi_form = OneForm(np.array([[math.pi]]), magnetic=True)
    assert phase_perturbation_bound(loop, pi_form) == pytest.approx(4.0)
    edge = FundamentalGraph(dim=1, num_vertices=2, edges=(Edge(0, 1, (0,)),))
    assert phase_perturbation_bound(edge, pi_form) == pytest.approx(2.0)


# -- splitting and exponent counts ------------------------------------------------------------


def test_split_fiber_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = make_random_graph(rng)
        mu, _ = minimal_pair(g)
        alpha = g.magnetic_form()
        thetas = rng.uniform(-np.pi, np.pi, (4, g.dim))
        delta0, delta_tilde = split_fiber(g, mu, alpha, thetas)
        assert delta0.shape == delta_tilde.shape == (4, g.num_vertices, g.num_vertices)
        for k, theta in enumerate(thetas):
            full = fiber_stack(g, mu, alpha, theta)[0]
            assert np.allclose(delta0[k] + delta_tilde[k], full, atol=1e-12)
        # off-support part never depends on theta
        other = split_fiber(g, mu, alpha, np.zeros((1, g.dim)))[0]
        assert np.allclose(delta0, other, atol=1e-12)


def test_support_degrees_loops_count_twice():
    g = FundamentalGraph(
        dim=1, num_vertices=2,
        edges=(Edge(0, 0, (1,)), Edge(0, 1, (0,))),
    )
    mu = g.index_form()  # support = the loop only
    assert list(support_degrees(g, mu)) == [2, 0]


def test_exponent_counts_minimal_vs_stored():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = make_random_graph(rng)
        rep = invariants(g)
        mu, phi = minimal_pair(g)
        n_theta, n_phase, n_joint = count_nontrivial_exponents(g, mu, phi)
        assert n_theta == 2 * rep.I
        assert n_phase == 2 * rep.I_alpha
        assert n_joint == 2 * rep.I_mu_phi
        r_theta, r_phase, _ = count_nontrivial_exponents(g, g.index_form(), g.magnetic_form())
        assert r_theta >= n_theta
        assert r_phase >= n_phase


def test_the_rounding_rule_admits_2_42_and_refuses_above():
    # 64 ulp of 2^42 is exactly 1/16; one ulp more is refused, with the CLI's messages
    top, past = 2.0**42, np.nextafter(2.0**42, np.inf)
    z1 = generate("zd", 1)
    for q in (top, -top):
        assert potential_allowance(z1.with_potential([q])) == 1 / 16
    with pytest.raises(NonFinitePotentialError, match=r"^vertex potentials reach .*, above 2\^42"):
        potential_allowance(z1.with_potential([-past]))
    no_index = np.zeros((1, 1), dtype=np.int64)
    assert phase_allowance((no_index, np.array([top]))) == 1 / 16
    for b, a in ((no_index, np.array([past])), (np.array([[2**41]]), np.zeros(1))):
        with pytest.raises(IndexOverflowError, match=r"^fiber phases reach .*, above 2\^42"):
            phase_allowance((no_index, np.zeros(1)), (b, a))
