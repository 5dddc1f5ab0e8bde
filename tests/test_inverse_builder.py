import math

import numpy as np
import pytest

from magspec import (
    BadMultipliersError,
    FluxImageNotFullLatticeError,
    NotMinimalError,
    SupercellSpec,
    band_sweep,
    build_periodic,
    coprime_fluxes,
    fiber_matrix,
    generate,
    harper_model,
    supercell,
    validate,
    zero_phase_form,
)
from magspec.graph_model import Edge, FundamentalGraph, OneForm

from conftest import make_random_graph


# -- hand-written flux-model oracle ------------------------------------------------


def harper_oracle(q: int, p: int, theta) -> np.ndarray:
    """q x q square-lattice fiber at rational flux, written out directly."""
    flux = 2 * np.pi * p / q
    m = np.zeros((q, q), dtype=complex)
    for k in range(q):
        m[k, k] = 4.0 - 2.0 * np.cos(flux * k + theta[1])
    for k in range(q - 1):
        m[k, k + 1] += -1.0
        m[k + 1, k] += -1.0
    m[q - 1, 0] += -np.exp(1j * theta[0])
    m[0, q - 1] += -np.exp(-1j * theta[0])
    return m


# -- periodic realization ------------------------------------------------------------


@pytest.mark.parametrize("kind,d", [("zd", 2), ("kagome", None), ("hexagonal", None)])
def test_build_periodic_round_trip(kind, d):
    g = generate(kind, d)
    built = build_periodic(g)
    validate(built)
    assert [e.index for e in built.edges] == [e.index for e in g.edges]
    rng = np.random.default_rng(16)
    b1, a1 = g.index_form(), g.magnetic_form()
    b2, a2 = built.index_form(), built.magnetic_form()
    for theta in rng.uniform(-np.pi, np.pi, (20, g.dim)):
        m1 = fiber_matrix(g, b1, a1, theta)
        m2 = fiber_matrix(built, b2, a2, theta)
        assert np.max(np.abs(m1 - m2)) < 1e-12


def test_build_periodic_kagome_fiber_at_zero():
    built = build_periodic(generate("kagome"))
    m0 = fiber_matrix(built, built.index_form(), zero_phase_form(built), [0.0, 0.0])
    assert np.allclose(m0, 6 * np.eye(3) - 2 * np.ones((3, 3)), atol=1e-12)


def test_build_periodic_random_round_trip():
    rng = np.random.default_rng(17)
    done = 0
    for _ in range(30):
        g = make_random_graph(rng)
        try:
            built = build_periodic(g)
        except NotMinimalError:
            continue  # stored indices need not be minimal for a random draw
        done += 1
        theta = rng.uniform(-np.pi, np.pi, g.dim)
        m1 = fiber_matrix(g, g.index_form(), g.magnetic_form(), theta)
        m2 = fiber_matrix(built, built.index_form(), built.magnetic_form(), theta)
        assert np.max(np.abs(m1 - m2)) < 1e-12
    assert done > 0


def test_build_periodic_rejects_sublattice():
    g = FundamentalGraph(
        dim=2, num_vertices=1,
        edges=(Edge(0, 0, (2, 0)), Edge(0, 0, (0, 1))),
    )
    with pytest.raises(FluxImageNotFullLatticeError):
        build_periodic(g)


def test_build_periodic_rejects_non_minimal_form():
    g = generate("hexagonal")
    # flux-preserving shift by a vertex gradient: same fluxes, support 3 > 2
    grad = np.array([[1, 1], [1, 1], [1, 1]], dtype=np.int64)
    fat = OneForm(g.index_matrix() + grad)
    with pytest.raises(NotMinimalError):
        build_periodic(g, mu=fat)


# -- supercells ------------------------------------------------------------------------


def test_supercell_identity(z2):
    sc = supercell(z2, SupercellSpec((1, 1)))
    assert sc.num_vertices == 1
    assert [e.index for e in sc.edges] == [e.index for e in z2.edges]


def test_supercell_bad_multipliers(z2):
    with pytest.raises(BadMultipliersError):
        supercell(z2, SupercellSpec((0, 1)))
    with pytest.raises(BadMultipliersError):
        supercell(z2, SupercellSpec((2,)))


def test_supercell_z1_doubling_matches_closed_form():
    g = generate("zd", 1)
    sc = supercell(g, SupercellSpec((2,)))
    assert sc.num_vertices == 2
    rng = np.random.default_rng(18)
    for theta in rng.uniform(-np.pi, np.pi, 10):
        m = fiber_matrix(sc, sc.index_form(), zero_phase_form(sc), [theta])
        want = np.array(
            [[2.0, -(1 + np.exp(-1j * theta))], [-(1 + np.exp(1j * theta)), 2.0]]
        )
        assert np.allclose(m, want, atol=1e-12)
    spec = band_sweep(sc, grid_n=41)
    assert spec.bands[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert spec.bands[1, 1] == pytest.approx(4.0, abs=1e-9)
    assert spec.measure == pytest.approx(4.0, abs=1e-3)


def test_supercell_preserves_band_union(z2, kagome):
    for g, spec_mult, n in ((z2, (2, 1), 41), (kagome, (2, 1), 103)):
        base = band_sweep(g, grid_n=n)
        cell = supercell(g, SupercellSpec(spec_mult))
        refined = band_sweep(cell, grid_n=n)
        assert refined.measure == pytest.approx(base.measure, abs=1e-3)
        assert refined.bands.min() == pytest.approx(base.bands.min(), abs=1e-3)
        assert refined.bands.max() == pytest.approx(base.bands.max(), abs=1e-3)


def test_supercell_zero_fiber_equals_torus_expansion(kagome):
    # the supercell fiber at zero quasimomentum is the operator on the
    # finite torus, which the direct expansion reproduces independently
    from test_spectral import torus_expansion

    rng = np.random.default_rng(22)
    g = kagome.with_phases(rng.uniform(-np.pi, np.pi, 6))
    cell = supercell(g, SupercellSpec((2, 2)))
    fib = fiber_matrix(
        cell, cell.index_form(), cell.magnetic_form(), [0.0, 0.0], with_potential=True
    )
    got = np.linalg.eigvalsh(fib)
    want = np.linalg.eigvalsh(torus_expansion(g, (2, 2)))
    assert np.allclose(got, want, atol=1e-9)


def test_supercell_tiles_potential(decorated2):
    g = decorated2.with_potential([0.5, -0.25])
    sc = supercell(g, SupercellSpec((2, 1)))
    assert list(sc.potential) == [0.5, -0.25, 0.5, -0.25]


# -- rational flux models -----------------------------------------------------------------


def test_harper_matches_hand_written_matrix():
    rng = np.random.default_rng(19)
    for q, p in ((1, 1), (2, 1), (3, 1), (3, 2), (5, 2)):
        model = harper_model(q, p)
        b, a = model.index_form(), model.magnetic_form()
        for theta in rng.uniform(-np.pi, np.pi, (5, 2)):
            got = fiber_matrix(model, b, a, theta)
            want = harper_oracle(q, p, theta)
            assert np.max(np.abs(got - want)) < 1e-12, (q, p)


def test_harper_half_flux_symmetric_about_four():
    model = harper_model(2, 1)
    spec = band_sweep(model, grid_n=41)
    # eigenvalues are 4 +- sqrt(4 cos^2(theta_2) + 4 cos^2(theta_1 / 2))
    table = spec.eigenvalues
    assert np.allclose(table.sum(axis=1), 8.0, atol=1e-9)
    assert spec.bands[0, 0] == pytest.approx(4 - 2 * math.sqrt(2), abs=1e-9)
    assert spec.bands[1, 1] == pytest.approx(4 + 2 * math.sqrt(2), abs=1e-9)


def test_flux_sign_symmetry():
    up = band_sweep(harper_model(3, 1), grid_n=31)
    down = band_sweep(harper_model(3, -1), grid_n=31)
    assert np.allclose(up.bands, down.bands, atol=1e-9)


def test_coprime_fluxes_euler_totient():
    # row counts per denominator follow Euler's totient
    pairs = coprime_fluxes(6)
    per_q = {q: sum(1 for _, qq in pairs if qq == q) for q in range(1, 7)}
    assert per_q == {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2}
