"""The invariants against their definitions, with no spanning tree in the oracle.

I is the fewest edges (unoriented, loops included) on which tau + dp is
nonzero, over integer vertex potentials p; I_alpha the same for the
phase form; I_mu_phi_min the smallest union of a minimal support of
each. The oracle fixes p(0) = 0 and searches every other potential in
a box that holds every tree form's potentials:

- index: [-B, B]^((nu-1) d) with B = (nu - 1) max|tau|, since a tree
  path has at most nu - 1 edges;
- phase: phases are 2 pi a / q with integer a, so tree potentials are
  multiples of 2 pi / q too, and Z_q^(nu-1) holds all of them, searched
  with integer arithmetic mod q and no tolerance.

So each minimum is taken over a superset of the tree forms, not over
every real potential. The sets of minimal supports agree as well:
a form of fewest nonzero edges vanishes on a connected spanning edge
set (else shifting one component of its zero set would clear a
crossing edge), so it is the tree form of a tree in that set.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import magspec.forms_cycles as fc
from magspec import CheckFailedError, FundamentalGraph, invariants

from conftest import make_random_graph


def lattice_phased_graph(seed: int, q: int) -> tuple[FundamentalGraph, np.ndarray]:
    """A random graph with nu <= 4 and nu * d <= 6, its phases 2 pi a / q; and a."""
    rng = np.random.default_rng(seed)
    g = make_random_graph(rng, max_nu=4, max_dim=3, with_phases=False)
    while g.num_vertices * g.dim > 6:
        g = make_random_graph(rng, max_nu=4, max_dim=3, with_phases=False)
    a = rng.integers(0, q, g.num_edges)
    return g.with_phases(2.0 * np.pi * a / q), a


def minimal_supports(values: np.ndarray) -> np.ndarray:
    """The distinct fewest-edge supports of (M, E, k) form values, one row each."""
    support = values.any(axis=2)
    sizes = support.sum(axis=1)
    return np.unique(support[sizes == sizes.min()], axis=0)


def definitional_minima(g: FundamentalGraph, a: np.ndarray, q: int) -> tuple[int, int, int]:
    """(I, I_alpha, I_mu_phi_min) of g, phases 2 pi a / q, by searching vertex potentials."""
    nu, d = g.num_vertices, g.dim
    tails = np.array([e.tail for e in g.edges])
    heads = np.array([e.head for e in g.edges])
    tau = g.index_matrix()

    def potentials(values: range, k: int) -> np.ndarray:
        """(M, nu, k) potentials: zero at vertex 0, every combination of values elsewhere."""
        rest = np.array(list(product(values, repeat=(nu - 1) * k)), dtype=np.int64)
        return np.concatenate([np.zeros((len(rest), 1, k), np.int64),
                               rest.reshape(len(rest), nu - 1, k)], axis=1)

    bound = (nu - 1) * int(np.abs(tau).max())
    p = potentials(range(-bound, bound + 1), d)
    index = minimal_supports(tau + p[:, heads] - p[:, tails])
    p = potentials(range(q), 1)
    phase = minimal_supports((a[:, None] + p[:, heads] - p[:, tails]) % q)
    union = (index[:, None, :] | phase[None, :, :]).sum(axis=2)
    return int(index[0].sum()), int(phase[0].sum()), int(union.min())


def assert_invariants_match_definitions(seed: int, q: int) -> None:
    g, a = lattice_phased_graph(seed, q)
    rep = invariants(g)
    assert (rep.I, rep.I_alpha, rep.I_mu_phi_min) == definitional_minima(g, a, q)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(2, 6))
def test_invariants_are_the_definitional_minima(seed, q):
    assert_invariants_match_definitions(seed, q)


@pytest.mark.parametrize("form", [0, 1], ids=["index", "phase"])
def test_an_off_by_one_scanned_count_fails_the_definitions(monkeypatch, form):
    # the property above is not vacuous: a scan that counts one chord too many fails it
    real = fc.scan_trees

    def off_by_one(g, forms, cap=fc.DEFAULT_TREE_CAP):
        scan = real(g, forms, cap)
        wrong = list(scan.forms)
        wrong[form] = wrong[form]._replace(count=wrong[form].count + 1)
        return scan._replace(forms=tuple(wrong))

    monkeypatch.setattr(fc, "scan_trees", off_by_one)
    for seed in range(10):
        with pytest.raises((AssertionError, CheckFailedError)):
            assert_invariants_match_definitions(seed, 2 + seed % 5)
