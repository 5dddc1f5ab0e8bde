import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from magspec import (
    GraphDataError,
    GridTooCoarseError,
    NonFinitePotentialError,
    NotHermitianError,
    analyze,
    band_sweep,
    eigenvalue_table,
    fiber_stack,
    generate,
    hermitian_eigenvalues,
    minimal_form,
    minimal_pair,
    phase_perturbation_bound,
    sy_sunada_check,
    theta0_reduction,
    theta_grid,
    union_measure,
    verify_band_localization,
    verify_gauge_equivalence,
    verify_perturbation,
    verify_positive_splitting,
    zero_phase_form,
)

from magspec.graph_model import Edge, FundamentalGraph, OneForm

from conftest import loop_fiber_stack, loop_perturbation_bound, make_random_graph


# -- independent eigenvalue oracle ------------------------------------------------


def charpoly_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier coefficients and companion-matrix roots.

    A code path independent of the Hermitian solver: characteristic
    polynomial coefficients come from traces of powers, roots from
    np.roots.
    """
    n = m.shape[0]
    coeffs = [1.0 + 0j]
    mk = np.array(m, dtype=complex)
    ck = -np.trace(mk)
    coeffs.append(ck)
    for k in range(2, n + 1):
        mk = m @ (mk + ck * np.eye(n))
        ck = -np.trace(mk) / k
        coeffs.append(ck)
    roots = np.roots(np.array(coeffs))
    return np.sort(roots.real)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def test_hermitian_eigenvalues_scalar():
    assert hermitian_eigenvalues(np.array([[3.5]]))[0] == pytest.approx(3.5)


def test_hermitian_eigenvalues_phase_independent_2x2():
    for phase in (0.0, 0.4, -2.2, math.pi):
        m = np.array([[2, -np.exp(1j * phase)], [-np.exp(-1j * phase), 2]])
        assert np.allclose(hermitian_eigenvalues(m), [1.0, 3.0], atol=1e-12)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(np.zeros((2, 3)))
    # a norm of 1e300 entries overflows to inf, and NaN fails every comparison
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in ([[1e300, 1e290], [0.0, -5e299]], [[np.nan, 0.0], [0.0, np.nan]]):
            with pytest.raises(NotHermitianError):
                hermitian_eigenvalues(np.array(m))


def test_hermitian_eigenvalues_vs_charpoly_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        m = random_hermitian(rng, int(rng.integers(2, 7)))
        got = hermitian_eigenvalues(m)
        want = charpoly_eigenvalues(m)
        assert np.max(np.abs(got - want)) < 1e-8


# -- grid and measure ----------------------------------------------------------------


def test_theta_grid_contains_center_and_edges():
    pts = theta_grid(1, 101)[:, 0]
    assert 0.0 in pts
    assert -math.pi in pts and math.pi in pts
    assert len(pts) == 101


def test_theta_grid_defaults_to_the_default_grid():
    # no n means default_grid_n(d): 101 points per axis up to d = 2, 21 above
    assert np.array_equal(theta_grid(2), theta_grid(2, 101))
    assert theta_grid(3).shape == (21**3, 3)


def test_theta_grid_too_coarse():
    with pytest.raises(GridTooCoarseError):
        theta_grid(2, 2)


def test_union_measure_examples():
    assert union_measure([(0.0, 1.0), (0.5, 2.0)]) == pytest.approx(2.0)
    assert union_measure([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert union_measure([]) == 0.0
    assert union_measure([(1.0, 1.0)]) == 0.0


@given(
    st.lists(
        st.tuples(st.floats(-50, 50), st.floats(0, 20)).map(lambda p: (p[0], p[0] + p[1])),
        max_size=12,
    )
)
@settings(max_examples=80, deadline=None)
def test_union_measure_properties(intervals):
    mu = union_measure(intervals)
    widths = [hi - lo for lo, hi in intervals]
    assert mu <= sum(widths) + 1e-9
    assert mu >= (max(widths) if widths else 0.0) - 1e-9
    assert union_measure(list(reversed(intervals))) == pytest.approx(mu)


# -- band sweeps -----------------------------------------------------------------------


def test_band_sweep_z2_exact(z2):
    spec = band_sweep(z2)
    assert np.allclose(spec.bands, [[0.0, 8.0]], atol=1e-12)
    assert spec.measure == pytest.approx(8.0)


def test_band_sweep_z2_random_phases_swept_via_reduced_pair(z2):
    rng = np.random.default_rng(9)
    for _ in range(2):
        g = z2.with_phases(rng.uniform(-np.pi, np.pi, 2))
        mu, phi = minimal_pair(g)
        _, phi_tilde = theta0_reduction(g, mu, phi)
        spec = band_sweep(g, mu, phi_tilde, grid_n=41)
        assert spec.bands[0, 0] == pytest.approx(0.0, abs=1e-3)
        assert spec.bands[0, 1] == pytest.approx(8.0, abs=1e-3)


def test_band_sweep_hexagonal(hexagonal):
    spec = band_sweep(hexagonal, grid_n=103)
    assert spec.bands[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert spec.bands[1, 1] == pytest.approx(6.0, abs=1e-9)
    assert spec.measure == pytest.approx(6.0, abs=1e-3)


def test_band_sweep_kagome_flat_band(kagome):
    spec = band_sweep(kagome)
    assert spec.flat == (False, False, True)
    assert spec.bands[2, 0] == pytest.approx(6.0, abs=1e-8)
    assert spec.bands[2, 1] == pytest.approx(6.0, abs=1e-8)


def test_kagome_flat_band_oracle(kagome):
    # frozen fiber at theta = 0: 6 I - 2 (all-ones), eigenvalues {0, 6, 6}
    tau, zero = kagome.index_form(), zero_phase_form(kagome)
    m0 = fiber_stack(kagome, tau, zero, [0.0, 0.0])[0]
    assert np.allclose(m0, 6 * np.eye(3) - 2 * np.ones((3, 3)), atol=1e-12)
    assert np.allclose(hermitian_eigenvalues(m0), [0.0, 6.0, 6.0], atol=1e-12)
    # the flat value stays an exact eigenvalue at arbitrary quasimomenta
    rng = np.random.default_rng(10)
    for theta in rng.uniform(-np.pi, np.pi, (10, 2)):
        m = fiber_stack(kagome, tau, zero, theta)[0]
        assert abs(np.linalg.det(m - 6 * np.eye(3))) < 1e-9


def test_band_sweep_rejects_coarse_grid(z2):
    with pytest.raises(GridTooCoarseError):
        band_sweep(z2, grid_n=2)


def test_eigenvalue_rows_sorted(kagome):
    table = eigenvalue_table(kagome, kagome.index_form(), kagome.magnetic_form(), theta_grid(2, 21))
    assert np.all(np.diff(table, axis=1) >= -1e-12)


def test_phase_free_fiber_kernel_at_zero(generator_graphs):
    for g in generator_graphs:
        lam0 = eigenvalue_table(
            g, g.index_form(), zero_phase_form(g), np.zeros((1, g.dim))
        )[0, 0]  # the generators carry no potential
        assert abs(lam0) < 1e-9
        # the kernel vector is the constant function
        m0 = fiber_stack(g, g.index_form(), zero_phase_form(g), np.zeros(g.dim))[0]
        assert np.max(np.abs(m0 @ np.ones(g.num_vertices))) < 1e-9


def test_grid_variation_respects_lipschitz_alarm(kagome):
    # each oriented support edge moves an eigenvalue by at most the
    # 1-norm of its index value per unit step in theta
    mu, _, _ = minimal_form(kagome, kagome.index_form())
    bound = 2.0 * np.abs(mu.values[list(mu.support())].astype(float)).sum()
    n = 41
    thetas = theta_grid(2, n)
    table = eigenvalue_table(kagome, kagome.index_form(), kagome.magnetic_form(), thetas)
    table = table.reshape(n, n, 3)
    step = 2 * math.pi / (n - 1)
    for axis in (0, 1):
        diffs = np.abs(np.diff(table, axis=axis))
        assert diffs.max() <= bound * step + 1e-9


# -- finite-torus expansion oracle -----------------------------------------------------


def torus_expansion(g, reps):
    """Operator on the finite torus with the given repetitions per dimension.

    Built directly from the defining sum over oriented edges, with no
    quasimomentum anywhere: each edge hops between translated copies of
    the fundamental cell, wrapping around the torus.
    """
    from itertools import product as iproduct

    cells = list(iproduct(*[range(n) for n in reps]))
    rank = {c: i for i, c in enumerate(cells)}
    nu = g.num_vertices

    def vid(v, cell):
        return rank[cell] * nu + v

    size = nu * len(cells)
    h = np.zeros((size, size), dtype=complex)
    for cell in cells:
        for e in g.edges:
            target = tuple((cell[s] + e.index[s]) % reps[s] for s in range(g.dim))
            x, y = vid(e.tail, cell), vid(e.head, target)
            h[x, x] += 1
            h[y, y] += 1
            h[x, y] -= np.exp(1j * e.alpha)
            h[y, x] -= np.exp(-1j * e.alpha)
        for v in range(nu):
            h[vid(v, cell), vid(v, cell)] += g.potential[v]
    return h


def torus_momenta(reps):
    from itertools import product as iproduct

    axes = [2 * np.pi * np.arange(n) / n for n in reps]
    return np.array([list(t) for t in iproduct(*axes)])


def test_finite_torus_expansion_matches_fiber_union():
    rng = np.random.default_rng(21)
    cases = [
        (generate("zd", 1), (8,)),
        (generate("hexagonal").with_phases(rng.uniform(-np.pi, np.pi, 3)), (3, 4)),
        (
            generate("kagome")
            .with_phases(rng.uniform(-np.pi, np.pi, 6))
            .with_potential(rng.uniform(-1, 1, 3)),
            (3, 3),
        ),
    ]
    for _ in range(3):
        g = make_random_graph(rng, max_nu=4, max_edges=7)
        cases.append((g, (3, 2)[: g.dim]))
    for g, reps in cases:
        direct = np.linalg.eigvalsh(torus_expansion(g, reps))
        table = eigenvalue_table(g, g.index_form(), g.magnetic_form(), torus_momenta(reps))
        assert np.allclose(np.sort(table.reshape(-1)), direct, atol=1e-9)


# -- localization battery ------------------------------------------------------------------


def test_localization_z2_equality_case(z2):
    rep = verify_band_localization(analyze(z2))
    assert np.allclose(rep["floor_eigenvalues"], [0.0])
    assert rep["support_kappa_plus"] == 4
    assert rep["bands"][0] == pytest.approx([0.0, 8.0])
    assert rep["band_widths_sum"] == pytest.approx(8.0, abs=1e-9)
    assert rep["bound_4I"] == 8.0


def test_localization_kagome_windows(kagome):
    rep = verify_band_localization(analyze(kagome))
    assert np.allclose(rep["floor_eigenvalues"], [0.0, 3.0, 3.0], atol=1e-9)
    assert rep["support_kappa_plus"] == 2
    assert rep["band_widths_sum"] <= rep["bound_4I"]


def test_localization_decorated_equality(decorated2):
    rng = np.random.default_rng(12)
    g = decorated2.with_phases(rng.uniform(-np.pi, np.pi, 3)).with_potential(
        rng.uniform(-1, 1, 2)
    )
    # swept through the reduced pair the band-width sum is exactly 4*d
    mu, phi = minimal_pair(g)
    _, phi_tilde = theta0_reduction(g, mu, phi)
    spec = band_sweep(g, mu, phi_tilde, grid_n=41)
    widths = spec.bands[:, 1] - spec.bands[:, 0]
    assert widths.sum() == pytest.approx(8.0, abs=1e-9)
    verify_band_localization(analyze(g, grid_n=41))  # the inequality battery also holds


def test_localization_random_battery(battery_graphs):
    for g in battery_graphs[:20]:
        verify_band_localization(analyze(g, grid_n=31))


def test_localization_error_path(z2, monkeypatch):
    # the window inequality holds for any flux-compatible form, so only a
    # genuine bug can violate it; fake one by collapsing the window width
    import magspec.spectral as spectral
    from magspec import LocalizationViolatedError

    monkeypatch.setattr(
        spectral, "support_degrees", lambda g, mu: np.zeros(g.num_vertices, dtype=np.int64)
    )
    with pytest.raises(LocalizationViolatedError):
        verify_band_localization(analyze(z2, grid_n=21))


# -- perturbation battery ---------------------------------------------------------------------


def test_perturbation_no_shift_equals_phase_free(z2):
    g = z2.with_phases([1.2, -0.4])
    rep = verify_perturbation(analyze(g, grid_n=41))
    assert rep["Lambda_1"] == rep["Lambda_nu"] == rep["C_phi"] == 0.0
    assert rep["shifted_support_size"] == 0
    assert rep["band_shift_max"] == pytest.approx(0.0, abs=1e-12)


def test_perturbation_random_battery(battery_graphs):
    for g in battery_graphs[:20]:
        verify_perturbation(analyze(g, grid_n=31))


def test_perturbation_decorated_cycle_decoration():
    # a triangle decoration has a flux-carrying cycle: exactly one phase
    # degree of freedom survives the quasimomentum shift
    from magspec import generate, invariants

    g = generate("decorated", 2, decoration=[(0, 1), (1, 2), (2, 0)])
    g = g.with_phases([0.0, 0.0, 1.0, 0.7, -0.4])
    rep = invariants(g)
    assert (rep.beta, rep.I, rep.I_alpha, rep.I_mu_phi) == (3, 2, 1, 3)
    prep = verify_perturbation(analyze(g, grid_n=41))
    assert prep["shifted_support_size"] == 2
    assert prep["C_phi"] > 0
    assert prep["Lambda_1"] <= 0 <= prep["Lambda_nu"]


def test_perturbation_nontrivial_shifted_support():
    # two loops plus a chord triangle gives a phase that survives the shift
    rng = np.random.default_rng(14)
    for _ in range(20):
        g = make_random_graph(rng)
        rep = verify_perturbation(analyze(g, grid_n=21))
        if rep["shifted_support_size"] > 0:
            assert rep["C_phi"] > 0
            assert rep["Lambda_nu"] >= rep["Lambda_1"]
            return
    pytest.skip("no draw produced a surviving shifted phase")


def test_sub_tolerance_chord_phase_stays_in_the_shifted_fiber():
    # the 5e-10 chord lies outside both minimal supports; the fiber keeps its
    # phase exactly, and C_phi and the sandwich bound it
    g = FundamentalGraph(dim=1, num_vertices=2, edges=(
        Edge(0, 1, (0,), 0.0), Edge(0, 1, (1,), 0.3), Edge(0, 1, (0,), 5e-10)))
    an = analyze(g, grid_n=11)
    assert an.mu.support() == an.phi.support() == (1,)
    solved = 1  # the one edge whose shifted phase the solve clears
    want = OneForm(an.phi.values[:, 0] + an.mu.values @ an.theta0, magnetic=True).values
    got = an.phi_tilde.values
    assert got[solved, 0] == 0.0
    assert np.delete(got, solved).tobytes() == np.delete(want, solved).tobytes()
    assert got[2, 0] != 0.0 and not an.phi_tilde.support()
    rep = verify_perturbation(an)
    assert rep["Lambda_nu"] > 0 and rep["C_phi"] > 0
    assert rep["shifted_support_size"] == 0


# -- remaining checks ----------------------------------------------------------------------


def test_sy_sunada_generators(generator_graphs):
    for g in generator_graphs:
        rep = sy_sunada_check(analyze(g, grid_n=21 if g.dim == 3 else 41))
        assert rep == {"attained_at_zero": True}


def test_sy_sunada_hexagonal_random_potential(hexagonal):
    rng = np.random.default_rng(15)
    for _ in range(5):
        g = hexagonal.with_potential(rng.uniform(-2, 2, 2))
        assert sy_sunada_check(analyze(g, grid_n=41)) == {"attained_at_zero": True}


def test_sy_sunada_requires_zero_phases(z2):
    with pytest.raises(GraphDataError):
        sy_sunada_check(analyze(z2.with_phases([0.5, 0.0])))


def test_sy_sunada_runs_exactly_when_the_phases_carry_no_flux(battery_analyses, generator_graphs):
    # a gauge change gives the lattices nonzero phases without flux; the
    # battery's random phases carry flux on every graph
    rng = np.random.default_rng(27)
    gauged = []
    for g in generator_graphs:
        f = rng.uniform(-np.pi, np.pi, g.num_vertices)
        gauged.append(analyze(g.with_phases([e.alpha + f[e.head] - f[e.tail] for e in g.edges]),
                              grid_n=11))
    assert sum(bool(np.any(an.g.magnetic_form().values)) for an in gauged) == 3
    for an in battery_analyses + gauged:
        if an.report.I_alpha:
            with pytest.raises(GraphDataError, match="phases without flux"):
                sy_sunada_check(an)
        else:
            assert sy_sunada_check(an) == {"attained_at_zero": True}


def test_scaled_tolerance_still_catches_a_shifted_table(monkeypatch):
    # at |q| = 1e8 the scaled tolerance (about 1.4e-6) still catches a table shifted
    # by 1e-3, and the gauge identity, whose fibers leave the potential out, still
    # catches one fiber entry shifted by 1e-3
    import magspec.spectral as spectral
    from magspec import CheckFailedError

    g = generate("kagome").with_potential([1e8, 0.0, -5e7])
    assert sy_sunada_check(analyze(g, grid_n=21)) == {"attained_at_zero": True}
    assert verify_gauge_equivalence(analyze(g))
    real = spectral.eigenvalue_table
    calls = []

    def first_call_shifted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs) + (1e-3 if len(calls) == 1 else 0.0)

    monkeypatch.setattr(spectral, "eigenvalue_table", first_call_shifted)
    with pytest.raises(CheckFailedError, match="first band bottom is not attained at theta = 0"):
        sy_sunada_check(analyze(g, grid_n=21))  # the table at theta = 0 is the first

    real_stack = spectral.fiber_stack
    stacks = []

    def first_entry_shifted(*args, **kwargs):
        stacks.append(real_stack(*args, **kwargs))
        if len(stacks) == 1:
            stacks[0][0, 0, 0] += 1e-3
        return stacks[-1]

    monkeypatch.setattr(spectral, "fiber_stack", first_entry_shifted)
    with pytest.raises(CheckFailedError):
        verify_gauge_equivalence(analyze(g))  # the stored pair's stack is the first
    assert len(stacks) == 2  # the first pair failed


def test_gauge_and_splitting_verifiers(generator_graphs):
    for g in generator_graphs:
        assert verify_gauge_equivalence(analyze(g))
        assert verify_positive_splitting(analyze(g))


# -- wrong fibers that keep every spectrum: the gauge identity must catch them ----------

FIBER_MUTANTS = {
    "transposed": lambda real: lambda g, b, a, th, **kw: real(g, b, a, th, **kw).transpose(0, 2, 1),
    "phases-dropped": lambda real: lambda g, b, a, th, **kw: real(
        g, b, zero_phase_form(g), th, **kw
    ),
    "phase-sign-flipped": lambda real: lambda g, b, a, th, **kw: real(
        g, b, OneForm(-a.values, magnetic=True), th, **kw
    ),
}


@pytest.fixture(params=list(FIBER_MUTANTS))
def fiber_mutant(request, monkeypatch):
    """fiber_stack replaced by a wrong assembly wherever the library calls it."""
    import magspec.fiber_operator as fiber_operator
    import magspec.spectral as spectral

    mutant = FIBER_MUTANTS[request.param](fiber_operator.fiber_stack)
    monkeypatch.setattr(fiber_operator, "fiber_stack", mutant)
    monkeypatch.setattr(spectral, "fiber_stack", mutant)


@pytest.fixture(scope="module")
def battery_analyses(battery_graphs):
    return [analyze(g, grid_n=11, seed=i) for i, g in enumerate(battery_graphs)]


def test_gauge_identity_catches_wrong_fibers_on_the_battery(fiber_mutant, battery_analyses):
    from magspec import CheckFailedError

    caught = 0
    for an in battery_analyses:
        try:
            verify_gauge_equivalence(an)
        except CheckFailedError:
            caught += 1
    # 80 of 100 for each mutant; on the rest both non-stored pairs have zero gauge weights
    assert caught >= 75


def _wide_pair(k: int) -> FundamentalGraph:
    return FundamentalGraph(dim=1, num_vertices=2, edges=(
        Edge(0, 1, (2**k,), 0.7), Edge(0, 1, (2**k - 1,), -0.4), Edge(0, 0, (1,), 1.1)))


def test_gauge_identity_catches_wrong_fibers_at_the_largest_admitted_index(fiber_mutant):
    # the gauge tolerance grows with the phases; up to the largest index that
    # phase_allowance admits it still tells a wrong fiber from rounding
    from magspec import CheckFailedError, IndexOverflowError

    with pytest.raises(CheckFailedError):
        verify_gauge_equivalence(analyze(_wide_pair(40)))
    with pytest.raises(IndexOverflowError):
        analyze(_wide_pair(41))


def _long_path(k: int) -> FundamentalGraph:
    """40 vertices in a path of edges of index 2^k, and a unit loop: one spanning tree.

    Each edge's phase bound stays near pi 2^k, while the gauge weights
    sum along the path to 39 times that.
    """
    edges = tuple(Edge(v, v + 1, (2**k,), 0.5) for v in range(39))
    return FundamentalGraph(dim=1, num_vertices=40, edges=edges + (Edge(0, 0, (1,), 0.3),))


def test_gauge_weights_past_the_ceiling_exit_2(tmp_path, capsys):
    # at 2^40 every edge's phase bound (3.45e12) is under 2^42, but the gauge
    # weights reach 1.35e14, where the gauge tolerance (1.9) would pass any fiber
    from magspec import dump_graph_json
    from magspec.cli import main

    for k, code in ((40, 2), (30, 0)):
        path = tmp_path / f"path{k}.json"
        dump_graph_json(_long_path(k), path)
        assert main(["verify", str(path), "--grid", "11"]) == code, k
        out, err = capsys.readouterr()
        if code:
            assert (out, "above 2^42" in err) == ("", True)
        for command in ("bands", "invariants"):  # neither exponentiates gauge weights
            assert main([command, str(path)]) == 0, (k, command)


def test_verify_fails_wrong_fibers_on_a_long_path(fiber_mutant, tmp_path, capsys):
    from magspec import dump_graph_json
    from magspec.cli import main

    path = tmp_path / "path30.json"
    dump_graph_json(_long_path(30), path)
    assert main(["verify", str(path), "--grid", "11"]) == 1
    assert capsys.readouterr().err.strip() == "check failed: gauge_equivalence"


def test_degrees_keep_the_bits_of_the_edge_loops_on_the_battery(battery_analyses):
    # fiber diagonals (whole graph, support, off-support) and C_phi read
    # FundamentalGraph.degrees; each must equal its old edge loop bit for bit
    rng = np.random.default_rng(25)
    for an in battery_analyses:
        g, mu, alpha = an.g, an.mu, an.g.magnetic_form()
        thetas = rng.uniform(-np.pi, np.pi, (3, g.dim))
        on = mu.support_mask()
        for mask in (None, on, ~on):
            got = fiber_stack(g, mu, alpha, thetas, edge_mask=mask)
            assert got.tobytes() == loop_fiber_stack(g, mu, alpha, thetas, mask).tobytes()
        # sub-tolerance phases off the support, phases of pi and -pi/2 on it
        noisy = OneForm(rng.choice([0.0, 5e-10, np.pi, -np.pi / 2], g.num_edges), magnetic=True)
        for phi in (an.phi_tilde, alpha, noisy):
            assert phase_perturbation_bound(g, phi).hex() == loop_perturbation_bound(g, phi).hex()


def test_verify_fails_wrong_fibers_on_phased_kagome(fiber_mutant, tmp_path, capsys):
    from magspec import dump_graph_json
    from magspec.cli import main

    path = tmp_path / "phased-kagome.json"
    dump_graph_json(generate("kagome").with_phases(np.linspace(-3.0, 3.0, 6)), path)
    assert main(["verify", str(path), "--grid", "21"]) == 1
    assert capsys.readouterr().err.strip() == "check failed: gauge_equivalence"


# -- no valid input exits 1: every check tests a theorem, so a failure on a valid
# graph is a defect of the checks, whatever the magnitudes ----------------------

# below, near and above the support tolerance, pi, and anywhere in (-pi, pi]
DRAWN_PHASES = st.one_of(
    st.sampled_from([0.0, 5e-10, -5e-10, 9e-10, -9e-10, 2e-9, math.pi]),
    st.floats(-math.pi, math.pi, exclude_min=True),
)


@st.composite
def drawn_graph_dicts(draw) -> dict:
    """Graph JSON of 1-4 vertices, d <= 2: a tree path v0 - v1 - ... plus d to 3 chords.

    Index entries reach 2^40 and potentials lie on both sides of the
    2^42 ceiling. Chord j < d has the unit flux e_j (its index is e_j
    plus the path's from its tail to its head), so the fluxes span Z^d.
    """
    d, nu = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    top = draw(st.sampled_from([2, 2, 10**8, 2**40]))
    index = st.lists(st.integers(-top, top), min_size=d, max_size=d)
    path = [draw(index) for _ in range(nu - 1)]
    chords = draw(st.lists(st.tuples(st.integers(0, nu - 1), st.integers(0, nu - 1)),
                           min_size=d, max_size=3))
    edges = [(v, v + 1, x) for v, x in enumerate(path)]
    for j, (t, h) in enumerate(chords):
        sign, lo, hi = (1, t, h) if t < h else (-1, h, t)
        across = [sign * sum(x[k] for x in path[lo:hi]) for k in range(d)]  # path index t -> h
        edges.append((t, h, [int(k == j) + across[k] for k in range(d)] if j < d else draw(index)))
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1.0, 4e12, 1e16]))
    return {
        "dim": d,
        "vertices": [f"v{v}" for v in range(nu)],
        "edges": [{"tail": f"v{t}", "head": f"v{h}", "index": x, "alpha": draw(DRAWN_PHASES)}
                  for t, h, x in edges],
        "potential": {f"v{v}": scale * draw(st.floats(-1.0, 1.0)) for v in range(nu)},
    }


def verify_on_grid_5(graph: dict) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `magspec verify --grid 5` on graph JSON."""
    from magspec.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(json.dumps(graph), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", str(path), "--grid", "5"])
    return code, out.getvalue(), err.getvalue()


def _no_constant(name: str):
    raise ValueError(f"verify printed {name}")


@settings(max_examples=100, deadline=None)
@given(graph=drawn_graph_dicts())
def test_verify_never_fails_a_valid_graph(graph):
    code, out, err = verify_on_grid_5(graph)
    if code == 2:
        assert out == "" and err.startswith("error: ")
        return
    assert (code, err) == (0, "")
    assert json.loads(out, parse_constant=_no_constant)["passed"] is True


def test_wrong_fibers_fail_drawn_graphs(fiber_mutant):
    # the property above is not vacuous: the same draws reach exit 1 under a
    # wrong fiber assembly
    find(drawn_graph_dicts(), lambda graph: verify_on_grid_5(graph)[0] == 1,
         settings=settings(max_examples=100, database=None, phases=[Phase.generate]))


@pytest.mark.parametrize(
    "check",
    [verify_band_localization, verify_gauge_equivalence, verify_positive_splitting,
     verify_perturbation],
    ids=lambda f: f.__name__,
)
def test_verify_functions_validate_their_graph(check):
    # eigvalsh returns finite, wrong eigenvalues for a fiber with a NaN
    # entry, so an unvalidated NaN potential could pass a check; a check
    # only takes an Analysis, and analyze refuses the graph first
    g = generate("hexagonal").with_potential([math.nan, 0.0])
    with pytest.raises(NonFinitePotentialError):
        check(analyze(g))
