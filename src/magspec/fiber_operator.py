"""Fiber matrices of periodic magnetic Schroedinger operators.

At a quasimomentum theta on the d-torus, the fiber of the operator is
the nu x nu Hermitian matrix acting on vertex functions of the
fundamental graph by

    (M f)(v) = deg(v) f(v) - sum over oriented edges e=(v,u) of
               exp(i (a(e) + <b(e), theta>)) f(u),

for a pair of 1-forms: b with the fluxes of the translation-index form
and a with the fluxes (mod 2*pi) of the phase form. Different pairs in
those flux classes give unitarily equivalent fibers, conjugated by a
diagonal gauge built from tree-path weights. Picking minimal-support
forms and shifting theta by a fixed offset removes all phase content
outside a small edge set; the remainder enters the perturbation matrix
that controls band movement under the magnetic field.
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
from .forms_cycles import first_spanning_tree, flux, integer_determinant
from .graph_model import FundamentalGraph, OneForm, reduce_angle, reduce_angles

PATH_INDEPENDENCE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FiberMatrix:
    """A fiber matrix with the data that built it."""

    matrix: np.ndarray
    theta: np.ndarray
    b: OneForm
    a: OneForm
    with_potential: bool


@dataclass(frozen=True, eq=False)
class GaugeWeights:
    """Vertex weights of the diagonal gauge between two fiber representations.

    w_b maps vertices to R^d, w_a to R (defined mod 2*pi); both vanish
    at the base vertex.
    """

    base_vertex: int
    w_b: np.ndarray
    w_a: np.ndarray

    def diagonal_unitary(self, theta: np.ndarray) -> np.ndarray:
        """Diagonal entries exp(i (w_a(v) + <w_b(v), theta>))."""
        return np.exp(1j * (self.w_a + self.w_b @ np.asarray(theta, dtype=float)))


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


def matrix_to_json_pairs(m: np.ndarray) -> list[list[list[float]]]:
    """Row-major [re, im] pairs, the debug wire format for complex matrices."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def fiber_stack(
    g: FundamentalGraph,
    b: OneForm,
    a: OneForm,
    thetas: np.ndarray,
    with_potential: bool = False,
    edge_mask: Sequence[bool] | None = None,
) -> np.ndarray:
    """Assemble fiber matrices for a whole batch of quasimomenta.

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
    out = np.zeros((k, nu, nu), dtype=complex)
    deg = np.zeros(nu)
    for eid, e in enumerate(g.edges):
        if not mask[eid]:
            continue
        deg[e.tail] += 1
        deg[e.head] += 1
        phase = a.values[eid, 0] + th @ b.values[eid].astype(float)
        hop = np.exp(1j * phase)
        out[:, e.tail, e.head] -= hop
        out[:, e.head, e.tail] -= np.conj(hop)
    idx = np.arange(nu)
    out[:, idx, idx] += deg
    if with_potential:
        out[:, idx, idx] += g.potential
    return out


def fiber_matrix(
    g: FundamentalGraph,
    b: OneForm,
    a: OneForm,
    theta: Sequence[float],
    with_potential: bool = False,
) -> FiberMatrix:
    """Single fiber matrix at one quasimomentum."""
    th = np.asarray(theta, dtype=float).reshape(1, -1)
    mat = fiber_stack(g, b, a, th, with_potential=with_potential)[0]
    return FiberMatrix(matrix=mat, theta=th[0], b=b, a=a, with_potential=with_potential)


# -- gauge transformation -------------------------------------------------------


def gauge_weights(g: FundamentalGraph, b: OneForm, a: OneForm, v0: int = 0) -> GaugeWeights:
    """Tree-path gauge weights relating (b, a) fibers to (index, phase) fibers.

    Weights accumulate (index(e) - b(e)) and (alpha(e) - a(e)) along
    tree paths from v0. They are well defined only when b and a carry
    the fluxes of the stored index and phase forms; this is verified on
    every chord cycle (w_a modulo 2*pi) and a violation raises
    FluxMismatchError.
    """
    _check_forms(g, b, a)
    tau = g.index_form()
    alpha = g.magnetic_form()
    basis = first_spanning_tree(g)

    w_b = np.zeros((g.num_vertices, g.dim))
    w_a = np.zeros(g.num_vertices)
    seen = np.zeros(g.num_vertices, dtype=bool)
    seen[v0] = True
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.num_vertices)]
    for eid in basis.tree_edges:
        e = g.edges[eid]
        adj[e.tail].append((eid, 1, e.head))
        adj[e.head].append((eid, -1, e.tail))
    stack = [v0]
    while stack:
        u = stack.pop()
        for eid, sign, v in adj[u]:
            if not seen[v]:
                seen[v] = True
                w_b[v] = w_b[u] + sign * (tau.values[eid] - b.values[eid])
                w_a[v] = w_a[u] + sign * (alpha.values[eid, 0] - a.values[eid, 0])
                stack.append(v)

    # Path independence: extending across any chord must reproduce the
    # other endpoint's weight; this is exactly flux equality on the
    # chord's basic cycle.
    for eid in basis.chords:
        e = g.edges[eid]
        gap_b = w_b[e.tail] + (tau.values[eid] - b.values[eid]) - w_b[e.head]
        if np.max(np.abs(gap_b)) > PATH_INDEPENDENCE_TOL:
            raise FluxMismatchError(
                f"form is not flux-equivalent to the index form (chord {eid})"
            )
        gap_a = reduce_angle(
            float(w_a[e.tail] + alpha.values[eid, 0] - a.values[eid, 0] - w_a[e.head])
        )
        if abs(gap_a) > PATH_INDEPENDENCE_TOL:
            raise FluxMismatchError(
                f"phase form is not flux-equivalent to the stored phases (chord {eid})"
            )
    return GaugeWeights(base_vertex=v0, w_b=w_b, w_a=w_a)


# -- theta-shift reduction ------------------------------------------------------


def _integer_form_values(mu: OneForm) -> np.ndarray:
    vals = np.asarray(mu.values)
    if np.issubdtype(vals.dtype, np.integer):
        return vals.astype(np.int64)
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


def perturbation_matrix(
    g: FundamentalGraph, mu: OneForm, phi_tilde: OneForm, theta: Sequence[float]
) -> np.ndarray:
    """Difference between the shifted-phase fiber and the phase-free fiber.

    Hermitian; identically zero when the shifted phase form vanishes.
    """
    with_phase = fiber_matrix(g, mu, phi_tilde, theta).matrix
    without = fiber_matrix(g, mu, zero_phase_form(g), theta).matrix
    return with_phase - without


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
    g: FundamentalGraph, mu: OneForm, a: OneForm, theta: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Split the fiber into the off-support Laplacian and the support part.

    The first matrix lives on the graph with all support edges of mu
    deleted (theta-independent since mu vanishes there); the second on
    the support subgraph. Their sum is exactly the full fiber without
    potential.
    """
    supp = set(mu.support())
    mask_on = np.array([eid in supp for eid in range(g.num_edges)], dtype=bool)
    th = np.asarray(theta, dtype=float).reshape(1, -1)
    delta0 = fiber_stack(g, mu, a, th, edge_mask=~mask_on)[0]
    delta_tilde = fiber_stack(g, mu, a, th, edge_mask=mask_on)[0]
    return delta0, delta_tilde


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
    g: FundamentalGraph, b: OneForm, a: OneForm, tol: float = 1e-9
) -> tuple[int, int, int]:
    """Oriented-edge counts of quasimomentum-, phase- and jointly nontrivial exponents.

    An exponent is trivial when it equals 1 identically: the phase part
    iff the reduced value is within tol of zero, the quasimomentum part
    iff the index-class value vanishes.
    """
    b_supp = set(b.support(tol))
    a_supp = set(a.support(tol))
    return 2 * len(b_supp), 2 * len(a_supp), 2 * len(b_supp | a_supp)
