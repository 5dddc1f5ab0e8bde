import math

import numpy as np
import pytest

from magspec import (
    DimensionMismatchError,
    FluxMismatchError,
    NoIndependentSubsetError,
    count_nontrivial_exponents,
    enumerate_spanning_trees,
    fiber_matrix,
    fiber_stack,
    gauge_weights,
    generate,
    invariants,
    minimal_form,
    minimal_pair,
    perturbation_matrix,
    phase_perturbation_bound,
    split_fiber,
    support_degrees,
    theta0_reduction,
    zero_phase_form,
)
from magspec.graph_model import Edge, FundamentalGraph, OneForm

from conftest import make_random_graph


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
    assert fiber_matrix(g, tau, zero, [0.0]).matrix[0, 0] == pytest.approx(0.0)
    assert fiber_matrix(g, tau, zero, [math.pi]).matrix[0, 0] == pytest.approx(4.0)


def test_fiber_z2_quarter_turn():
    g = generate("zd", 2)
    m = fiber_matrix(g, g.index_form(), zero_phase_form(g), [math.pi / 2, math.pi / 2]).matrix
    assert m[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_fiber_matches_row_sum_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = make_random_graph(rng)
        b, a = g.index_form(), g.magnetic_form()
        theta = rng.uniform(-np.pi, np.pi, g.dim)
        got = fiber_matrix(g, b, a, theta, with_potential=True).matrix
        want = row_sum_fiber(g, b, a, theta, with_potential=True)
        assert np.allclose(got, want, atol=1e-12)


def test_fiber_hermitian_and_diagonal_rule():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = make_random_graph(rng)
        b, a = g.index_form(), g.magnetic_form()
        theta = rng.uniform(-np.pi, np.pi, g.dim)
        m = fiber_matrix(g, b, a, theta, with_potential=True).matrix
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
    m = fiber_matrix(g, g.index_form(), g.magnetic_form(), theta).matrix
    want01 = -(np.exp(1j * 0.3) + np.exp(1j * (-0.2 + 0.9)))
    assert m[0, 1] == pytest.approx(want01)
    assert m[1, 0] == pytest.approx(np.conj(want01))


def test_fiber_dimension_mismatch():
    g = generate("zd", 2)
    bad_b = OneForm(np.zeros((2, 1), dtype=np.int64))
    with pytest.raises(DimensionMismatchError):
        fiber_matrix(g, bad_b, zero_phase_form(g), [0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        fiber_matrix(g, g.index_form(), zero_phase_form(g), [0.0])


def test_fiber_stack_matches_singletons(kagome):
    rng = np.random.default_rng(2)
    thetas = rng.uniform(-np.pi, np.pi, (5, 2))
    b, a = kagome.index_form(), kagome.magnetic_form()
    stack = fiber_stack(kagome, b, a, thetas)
    for i, theta in enumerate(thetas):
        assert np.allclose(stack[i], fiber_matrix(kagome, b, a, theta).matrix)


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
        trees = enumerate_spanning_trees(g)
        mu, phi = minimal_pair(g, trees)
        w = gauge_weights(g, mu, phi)
        assert np.max(np.abs(w.w_b - np.rint(w.w_b))) < 1e-9  # integer weights
        tau, alpha = g.index_form(), g.magnetic_form()
        for theta in rng.uniform(-np.pi, np.pi, (20, g.dim)):
            m_min = fiber_matrix(g, mu, phi, theta).matrix
            m_tau = fiber_matrix(g, tau, alpha, theta).matrix
            d = w.diagonal_unitary(theta)
            conjugated = np.conj(d)[:, None] * m_min * d[None, :]
            assert np.allclose(conjugated, m_tau, atol=1e-9)
            got = np.linalg.eigvalsh(m_min)
            want = np.linalg.eigvalsh(m_tau)
            assert np.allclose(got, want, atol=1e-9)


def test_gauge_kagome_alternate_minimal_tree(kagome):
    # the tree of the two out-of-cell arcs gives a different minimal form;
    # its gauge has integer weights and conjugates back to the stored fiber
    trees = enumerate_spanning_trees(kagome)
    outer = next(b for b in trees if b.tree_edges == (3, 5))
    mu_alt, _, cnt = minimal_form(kagome, kagome.index_form(), [outer])
    assert cnt == 3
    assert not np.array_equal(mu_alt.values, kagome.index_matrix())
    w = gauge_weights(kagome, mu_alt, kagome.magnetic_form())
    assert np.max(np.abs(w.w_b - np.rint(w.w_b))) == 0.0
    rng = np.random.default_rng(20)
    for theta in rng.uniform(-np.pi, np.pi, (20, 2)):
        m_alt = fiber_matrix(kagome, mu_alt, kagome.magnetic_form(), theta).matrix
        m_tau = fiber_matrix(kagome, kagome.index_form(), kagome.magnetic_form(), theta).matrix
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


# -- perturbation operator ----------------------------------------------------------------


def test_perturbation_zero_when_no_shifted_phase(kagome):
    mu, phi = minimal_pair(kagome)
    _, phi_tilde = theta0_reduction(kagome, mu, phi)
    x = perturbation_matrix(kagome, mu, phi_tilde, [0.3, -0.8])
    assert np.max(np.abs(x)) == 0.0


def test_perturbation_matches_row_sum_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = make_random_graph(rng)
        mu, phi = minimal_pair(g)
        _, phi_tilde = theta0_reduction(g, mu, phi)
        theta = rng.uniform(-np.pi, np.pi, g.dim)
        got = perturbation_matrix(g, mu, phi_tilde, theta)
        want = perturbation_oracle(g, mu, phi_tilde, theta)
        assert np.allclose(got, want, atol=1e-12)
        assert np.allclose(got, got.conj().T, atol=1e-12)
        norm = np.linalg.norm(got, ord=2)
        assert norm <= phase_perturbation_bound(g, phi_tilde) + 1e-9


def test_perturbation_single_edge_pi_entries():
    g = FundamentalGraph(dim=1, num_vertices=2, edges=(Edge(0, 1, (0,)),))
    mu = g.index_form()
    phi_tilde = OneForm(np.array([[math.pi]]), magnetic=True)
    x = perturbation_matrix(g, mu, phi_tilde, [0.4])
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
        theta = rng.uniform(-np.pi, np.pi, g.dim)
        delta0, delta_tilde = split_fiber(g, mu, alpha, theta)
        full = fiber_matrix(g, mu, alpha, theta).matrix
        assert np.allclose(delta0 + delta_tilde, full, atol=1e-12)
        # off-support part never depends on theta
        other = split_fiber(g, mu, alpha, np.zeros(g.dim))[0]
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
