"""Fiber matrices of periodic magnetic Schroedinger operators.

At a quasimomentum theta on the d-torus, the fiber of the operator is
the nu x nu Hermitian matrix acting on vertex functions of the
fundamental graph by

    (M f)(v) = deg(v) f(v) - sum over oriented edges e=(v,u) of
               exp(i (a(e) + <b(e), theta>)) f(u),

for a pair of 1-forms: b with the fluxes of the translation-index form
and a with the fluxes (mod 2*pi) of the phase form. Different pairs in
those flux classes give fibers conjugated entry for entry by a diagonal
gauge of tree-path weights (gauge_weights). Picking minimal-support
forms and shifting theta by a fixed offset removes all phase content
outside a small edge set; the fiber with those phases minus the one
without controls band movement under the magnetic field.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    FluxMismatchError,
    GraphDataError,
    NoIndependentSubsetError,
)
from .forms_cycles import _tree_adjacency, _tree_path, first_spanning_tree, integer_determinant
from .graph_model import FundamentalGraph, OneForm, reduce_angles


@dataclass(frozen=True, eq=False)
class GaugeWeights:
    """Vertex weights of the diagonal gauge between two fiber representations.

    w_b maps vertices to R^d (integer for integer forms), w_a to R
    (defined mod 2*pi); both vanish at the base vertex.
    """

    w_b: np.ndarray
    w_a: np.ndarray

    def diagonal_unitary(self, theta: np.ndarray) -> np.ndarray:
        """Diagonal entries exp(i (w_a(v) + <w_b(v), theta>)), (nu,) for one theta.

        A (K, d) batch gives (K, nu) rows, each bit for bit the call on that row.
        """
        th = np.asarray(theta, dtype=float)[..., None, :]
        return np.exp(1j * (self.w_a + (self.w_b * th).sum(axis=-1)))


def _check_forms(g: FundamentalGraph, b: OneForm, a: OneForm) -> None:
    if b.num_edges != g.num_edges or b.dim != g.dim:
        raise DimensionMismatchError(
            f"index-class form has shape {b.values.shape}, expected ({g.num_edges}, {g.dim})"
        )
    if a.num_edges != g.num_edges or a.dim != 1:
        raise DimensionMismatchError(
            f"phase form has shape {a.values.shape}, expected ({g.num_edges}, 1)"
        )


def zero_phase_form(g: FundamentalGraph) -> OneForm:
    return OneForm.zeros(g.num_edges, 1, magnetic=True)


def fiber_stack(
    g: FundamentalGraph,
    b: OneForm,
    a: OneForm,
    thetas: np.ndarray,
    edge_mask: Sequence[bool] | None = None,
) -> np.ndarray:
    """Assemble fiber matrices without the potential for a whole batch of quasimomenta.

    Returns a (K, nu, nu) complex array, Hermitian by construction.
    With an edge mask, both the degree diagonal and the hopping terms
    are restricted to the masked subgraph (vertex set unchanged).
    """
    _check_forms(g, b, a)
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    if th.shape[1] != g.dim:
        raise DimensionMismatchError(
            f"theta has {th.shape[1]} components, expected {g.dim}"
        )
    k = th.shape[0]
    nu = g.num_vertices
    mask = (
        np.ones(g.num_edges, dtype=bool)
        if edge_mask is None
        else np.asarray(edge_mask, dtype=bool)
    )
    # numpy multiplies a lone row with its dot kernel, which rounds unlike
    # the matrix-vector kernel it uses for two or more rows; doubling a
    # lone row keeps every fiber independent of the batch it is built in
    rows = th if k != 1 else np.repeat(th, 2, axis=0)
    out = np.zeros((k, nu, nu), dtype=complex)
    deg = np.zeros(nu)
    for eid, e in enumerate(g.edges):
        if not mask[eid]:
            continue
        deg[e.tail] += 1
        deg[e.head] += 1
        phase = a.values[eid, 0] + (rows @ b.values[eid].astype(float))[:k]
        hop = np.exp(1j * phase)
        out[:, e.tail, e.head] -= hop
        out[:, e.head, e.tail] -= np.conj(hop)
    return add_to_diagonals(out, deg)


def add_to_diagonals(stack: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Add (nu,) values to the diagonal of every matrix of a (K, nu, nu) stack; returns it.

    In place, through a strided view, so the add makes no (K, nu) temporaries.
    """
    diagonals = np.einsum("kii->ki", stack)
    diagonals += values
    return stack


# -- gauge transformation -------------------------------------------------------


def gauge_weights(g: FundamentalGraph, b: OneForm, a: OneForm) -> GaugeWeights:
    """Tree-path gauge weights relating (b, a) fibers to (index, phase) fibers.

    The weights are the potentials of (index - b) and (alpha - a) on the
    first spanning tree, vanishing at vertex 0; integer forms give
    exact int64 weights. They are well defined only when b and a carry
    the fluxes of the stored index and phase forms. The flux of diff
    through the basic cycle of an edge (t, h) is diff(edge) + w(t) - w(h),
    zero on tree edges; b's is_nonzero tests it for the index class and
    the stored phase form's for the phase, and a violation raises
    FluxMismatchError naming the lowest bad chord.
    """
    _check_forms(g, b, a)
    adj = _tree_adjacency(g, first_spanning_tree(g))
    # row v: the signed tree path 0 -> v
    paths = np.zeros((g.num_vertices, g.num_edges), dtype=np.int64)
    for v in range(g.num_vertices):
        for eid, sign in _tree_path(adj, 0, v):
            paths[v, eid] = sign
    alpha = g.magnetic_form()
    diff_b = g.index_matrix() - b.values
    diff_a = OneForm(alpha.values - a.values, magnetic=True).values[:, 0]
    w_b, w_a = paths @ diff_b, paths @ diff_a
    ends = np.array([(e.tail, e.head) for e in g.edges], dtype=np.intp).reshape(-1, 2)
    t, h = ends[:, 0], ends[:, 1]
    bad_b = b.is_nonzero(diff_b + w_b[t] - w_b[h]).any(axis=1)
    bad = np.flatnonzero(bad_b | alpha.is_nonzero(diff_a + w_a[t] - w_a[h]))
    if bad.size:
        chord = int(bad[0])
        what = "form" if bad_b[chord] else "phase form"
        whom = "the index form" if bad_b[chord] else "the stored phases"
        raise FluxMismatchError(f"{what} is not flux-equivalent to {whom} (chord {chord})")
    return GaugeWeights(w_b=w_b, w_a=w_a)


# -- theta-shift reduction ------------------------------------------------------


def _integer_form_values(mu: OneForm) -> np.ndarray:
    vals = mu.values
    if mu.exact:
        return vals.astype(np.int64)
    if not np.all(np.isfinite(vals)):  # before rint: inf - rint(inf) is NaN and warns
        raise GraphDataError("expected a finite form")
    rounded = np.rint(vals)
    if np.max(np.abs(vals - rounded)) > 1e-9:
        raise GraphDataError("expected an integer-valued form")
    return rounded.astype(np.int64)


def theta0_reduction(
    g: FundamentalGraph, mu: OneForm, phi: OneForm
) -> tuple[np.ndarray, OneForm]:
    """Quasimomentum shift removing phases from d independent support edges.

    Picks d support edges of mu with linearly independent integer
    values (scanning d-subsets in lexicographic order and preferring a
    unimodular one, which makes the shift unique mod 2*pi), solves
    phi(e_s) + <mu(e_s), theta0> = 0, and returns theta0 together with
    the shifted phase form: phi(e) + <mu(e), theta0> on the remaining
    union support, zero elsewhere. When several shifts solve the
    system they differ by a gauge and give unitarily equivalent fibers;
    the representative returned here is the deterministic solve.
    """
    _check_forms(g, mu, phi)
    mu_int = _integer_form_values(mu)
    supp_mu = mu.support()
    d = g.dim

    chosen: tuple[int, ...] | None = None
    fallback: tuple[int, ...] | None = None
    for subset in combinations(supp_mu, d):
        det = integer_determinant(mu_int[list(subset)])
        if abs(det) == 1:
            chosen = subset
            break
        if det != 0 and fallback is None:
            fallback = subset
    if chosen is None:
        chosen = fallback
    if chosen is None:
        raise NoIndependentSubsetError(
            "support carries no d linearly independent index values"
        )

    m = mu_int[list(chosen)].astype(float)
    rhs = -phi.values[list(chosen), 0]
    theta0 = reduce_angles(np.linalg.solve(m, rhs)).reshape(d)

    raw = phi.values[:, 0] + mu_int.astype(float) @ theta0
    keep = np.zeros(g.num_edges, dtype=bool)
    union = set(supp_mu) | set(phi.support())
    for eid in union:
        keep[eid] = True
    for eid in chosen:
        keep[eid] = False
    phi_tilde = OneForm(np.where(keep, raw, 0.0), magnetic=True)
    return theta0, phi_tilde


def phase_perturbation_bound(g: FundamentalGraph, phi_tilde: OneForm) -> float:
    """Row-sum bound 2 max_v sum over oriented support edges at v of |sin(phase/2)|."""
    supp = set(phi_tilde.support())
    per_vertex = np.zeros(g.num_vertices)
    for eid, _sign, tail, _head in g.oriented_edges():
        if eid in supp:
            per_vertex[tail] += abs(np.sin(phi_tilde.values[eid, 0] / 2.0))
    return float(2.0 * per_vertex.max()) if g.num_vertices else 0.0


# -- splitting against the support subgraph --------------------------------------


def split_fiber(
    g: FundamentalGraph, mu: OneForm, a: OneForm, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split a batch of fibers into the off-support Laplacian and the support part.

    For (K, d) quasimomenta, returns two (K, nu, nu) stacks: the first
    on the graph with all support edges of mu deleted (theta-independent
    since mu vanishes there), the second on the support subgraph. Their
    sum is exactly the full fiber without potential.
    """
    on = np.zeros(g.num_edges, dtype=bool)
    on[list(mu.support())] = True
    return fiber_stack(g, mu, a, thetas, edge_mask=~on), fiber_stack(g, mu, a, thetas, edge_mask=on)


def support_degrees(g: FundamentalGraph, mu: OneForm) -> np.ndarray:
    """Vertex degrees on the support subgraph of mu (loops count 2)."""
    supp = set(mu.support())
    deg = np.zeros(g.num_vertices, dtype=np.int64)
    for eid in supp:
        e = g.edges[eid]
        deg[e.tail] += 1
        deg[e.head] += 1
    return deg


def count_nontrivial_exponents(
    g: FundamentalGraph, b: OneForm, a: OneForm
) -> tuple[int, int, int]:
    """Oriented-edge counts of quasimomentum-, phase- and jointly nontrivial exponents.

    An exponent is trivial when it equals 1 identically: the phase or
    quasimomentum part iff OneForm.is_nonzero finds that form's value
    on the edge zero (exactly for an integer index-class form).
    """
    b_supp = set(b.support())
    a_supp = set(a.support())
    return 2 * len(b_supp), 2 * len(a_supp), 2 * len(b_supp | a_supp)
