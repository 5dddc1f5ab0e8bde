"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (visible with `pytest -s` or on failure). Tolerances are
pinned here and nowhere else.

Criteria:
 1. integer exactness of the stock-lattice invariants, under 1 s each
 2. measure identities of the decorated, square and hexagonal lattices
 3. band localization windows and the 4*I / 4*beta measure bounds
 4. gauge equivalence of fiber spectra across flux-equivalent pairs
 5. magnetic perturbation sandwich and the vanishing-phase equality
 6. structural oracles: tree counts, lattice spans, eigensolver
 7. the flat band of the kagome lattice
 8. positivity sandwich of the support part of the fiber
"""

import time

import numpy as np

from magspec import (
    analyze,
    band_sweep,
    enumerate_spanning_trees,
    fiber_stack,
    generate,
    hermitian_eigenvalues,
    invariants,
    lattice_image_check,
    minimal_pair,
    spanning_tree_count,
    theta0_reduction,
    verify_band_localization,
    verify_gauge_equivalence,
    verify_perturbation,
    verify_positive_splitting,
    zero_phase_form,
)

from conftest import diamond_graph, make_random_graph
from test_forms_cycles import bruteforce_spans_lattice, tree_count_by_eigenvalues
from test_spectral import charpoly_eigenvalues, random_hermitian


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_invariant_exactness():
    cases = []
    t0 = time.perf_counter()
    rep = invariants(generate("kagome"))
    cases.append(("kagome", rep.beta == 4 and rep.I == 3, time.perf_counter() - t0))
    for d in (1, 2, 3):
        t0 = time.perf_counter()
        rep = invariants(generate("zd", d))
        cases.append((f"z{d}", rep.beta == d and rep.I == d, time.perf_counter() - t0))
    for d in (1, 2):
        t0 = time.perf_counter()
        rep = invariants(generate("decorated", d))
        cases.append(
            (f"decorated{d}", rep.beta == d and rep.I == d, time.perf_counter() - t0)
        )
    ok = all(c[1] for c in cases) and all(c[2] < 1.0 for c in cases)
    report(1, ok, ", ".join(f"{name} ({dt * 1e3:.0f} ms)" for name, _, dt in cases))
    assert all(c[1] for c in cases)
    assert all(c[2] < 1.0 for c in cases)


def test_criterion_2_measure_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(20250812)
    failures = []

    # decorated lattice: band widths sum to exactly 4*I = 8 at grid 101
    for trial in range(3):
        g = generate("decorated", 2)
        g = g.with_phases(rng.uniform(-np.pi, np.pi, g.num_edges))
        g = g.with_potential(rng.uniform(-1.0, 1.0, g.num_vertices))
        mu, phi = minimal_pair(g)
        _, phi_tilde = theta0_reduction(g, mu, phi)
        spec = band_sweep(g, mu, phi_tilde, grid_n=101)
        total = float((spec.bands[:, 1] - spec.bands[:, 0]).sum())
        if abs(total - 8.0) > 1e-3:
            failures.append(f"decorated trial {trial}: {total}")

    # square and hexagonal lattices: phase-independent full spectra
    for kind, top in (("zd", 8.0), ("hexagonal", 6.0)):
        base = generate(kind, 2 if kind == "zd" else None)
        for trial in range(5):
            g = base.with_phases(rng.uniform(-np.pi, np.pi, base.num_edges))
            mu, phi = minimal_pair(g)
            _, phi_tilde = theta0_reduction(g, mu, phi)
            spec = band_sweep(g, mu, phi_tilde, grid_n=103)
            lo = float(spec.bands.min())
            hi = float(spec.bands.max())
            if abs(lo) > 1e-3 or abs(hi - top) > 1e-3 or abs(spec.measure - top) > 1e-3:
                failures.append(f"{kind} trial {trial}: [{lo}, {hi}] measure {spec.measure}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report(2, ok, f"13 sweeps in {elapsed:.1f} s" + ("; " + "; ".join(failures) if failures else ""))
    assert not failures
    assert elapsed < 30.0


def test_criterion_3_band_localization_battery(generator_graphs, battery_graphs):
    start = time.perf_counter()
    checked = 0
    for g in generator_graphs + battery_graphs:
        verify_band_localization(analyze(g))  # raises on any window or measure violation
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == len(generator_graphs) + 100 and elapsed < 300.0
    report(3, ok, f"{checked} graphs, every grid eigenvalue in its window, in {elapsed:.1f} s")
    assert ok


def test_criterion_4_gauge_equivalence(generator_graphs, battery_graphs):
    checked = 0
    for i, g in enumerate(generator_graphs + battery_graphs):
        assert verify_gauge_equivalence(analyze(g, seed=i)) == {"pairs": 3, "thetas": 20}
        checked += 1
    report(4, True, f"3 pairs x 20 quasimomenta on {checked} graphs agree to 1e-9")
    assert checked == len(generator_graphs) + 100


def test_criterion_5_perturbation_battery(generator_graphs, battery_graphs):
    rng = np.random.default_rng(20250813)
    survivors = 0
    vanishing = 0
    for g in generator_graphs:
        g = g.with_phases(rng.uniform(-np.pi, np.pi, g.num_edges))
        rep = verify_perturbation(analyze(g, grid_n=41 if g.dim < 3 else 15))
        if rep["shifted_support_size"] == 0:
            vanishing += 1
            # shifted phases below the support tolerance move the spectrum by
            # at most C_phi: verify_perturbation's pointwise sandwich and its
            # row-sum bound over every edge enforce it (exactly zero ones
            # solve nothing); the report confirms spectra equal to 1e-9
            assert rep["band_shift_max"] <= 1e-9
    for g in battery_graphs:
        rep = verify_perturbation(analyze(g, grid_n=31))
        survivors += rep["shifted_support_size"] > 0
    report(
        5,
        True,
        f"sandwich held on {len(generator_graphs)}+100 graphs; "
        f"{survivors} random graphs kept a shifted phase, "
        f"{vanishing} generators reduced to the phase-free operator",
    )
    assert vanishing >= 3  # the stock lattices all have union invariant d


def test_criterion_6_structural_oracles(generator_graphs):
    rng = np.random.default_rng(2)

    # spanning-tree counts: exhaustive enumeration vs spectral product
    count_ok = 0
    for g in generator_graphs + [diamond_graph()]:
        assert len(enumerate_spanning_trees(g)) == spanning_tree_count(g)
        oracle = tree_count_by_eigenvalues(g)
        assert abs(oracle - round(oracle)) < 1e-6
        assert round(oracle) == spanning_tree_count(g)
        count_ok += 1
    rng_graphs = np.random.default_rng(20250814)
    for _ in range(50):
        g = make_random_graph(rng_graphs)
        assert round(tree_count_by_eigenvalues(g)) == len(enumerate_spanning_trees(g))
        count_ok += 1

    # lattice span: column reduction vs bounded coefficient search
    span_true = span_false = 0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(d, 5))
        mat = rng.integers(-2, 3, size=(d, k))
        says = lattice_image_check(mat)
        assert says == bruteforce_spans_lattice(mat), mat
        span_true += says
        span_false += not says

    # eigensolver vs characteristic-polynomial roots
    eig_ok = 0
    rng_h = np.random.default_rng(20250815)
    for _ in range(100):
        m = random_hermitian(rng_h, int(rng_h.integers(1, 7)))
        got = hermitian_eigenvalues(m)
        want = charpoly_eigenvalues(m)
        assert np.max(np.abs(got - want)) < 1e-8
        eig_ok += 1

    report(
        6,
        True,
        f"{count_ok} tree counts, {span_true}+{span_false} lattice spans, "
        f"{eig_ok} eigensolves agree with their oracles",
    )


def test_criterion_7_kagome_flat_band(kagome):
    spec = band_sweep(kagome)
    flat_ids = [n for n, f in enumerate(spec.flat) if f]
    ok = flat_ids == [2]
    lo, hi = spec.bands[2]
    ok = ok and abs(lo - 6.0) <= 1e-8 and abs(hi - 6.0) <= 1e-8

    # oracle: the fiber at zero is 6 I - 2 J with spectrum {0, 6, 6}, and
    # 6 stays a root of the characteristic polynomial at random theta
    tau, zero = kagome.index_form(), zero_phase_form(kagome)
    m0 = fiber_stack(kagome, tau, zero, [0.0, 0.0])[0]
    ok = ok and np.allclose(hermitian_eigenvalues(m0), [0.0, 6.0, 6.0], atol=1e-12)
    rng = np.random.default_rng(20250816)
    for theta in rng.uniform(-np.pi, np.pi, (10, 2)):
        m = fiber_stack(kagome, tau, zero, theta)[0]
        ok = ok and abs(np.linalg.det(m - 6.0 * np.eye(3))) < 1e-9

    report(7, ok, f"one flat band flagged at [{lo:.10f}, {hi:.10f}]")
    assert ok


def test_criterion_8_positive_splitting(generator_graphs, battery_graphs):
    checked = 0
    for i, g in enumerate(generator_graphs + battery_graphs):
        assert verify_positive_splitting(analyze(g, seed=i)) == {"thetas": 20}
        checked += 1
    report(8, True, f"support part PSD and degree-bounded on {checked} graphs")
    assert checked == len(generator_graphs) + 100
