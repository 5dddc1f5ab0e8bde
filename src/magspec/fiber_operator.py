"""Fiber matrices of periodic magnetic Schroedinger operators.

At a quasimomentum theta on the d-torus, the fiber of the operator is
the nu x nu Hermitian matrix acting on vertex functions of the
fundamental graph by

    (M f)(v) = deg(v) f(v) - sum over oriented edges e=(v,u) of
               exp(i (a(e) + <b(e), theta>)) f(u),

for a pair of 1-forms: b with the fluxes of the translation-index form
and a with the fluxes (mod 2*pi) of the phase form. Different pairs in
those flux classes give fibers conjugated entry for entry by a diagonal
gauge of tree potentials (gauge_weights). Picking minimal-support
forms and shifting theta by a fixed offset clears the phases of d
edges; the fiber with the shifted phases, every one kept exactly,
minus the one without controls band movement under the magnetic field.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    FluxMismatchError,
    IndexOverflowError,
    NoIndependentSubsetError,
    NonFinitePotentialError,
    NotHermitianError,
)
from .forms_cycles import first_spanning_tree, integer_determinant, tree_potentials
from .graph_model import FundamentalGraph, OneForm, reduce_angles

HERMITICITY_TOL = 1e-12
# The rounding rule: a comparison of floats of size up to x allows ROUNDING_ULPS
# ulp of x, for x up to MAX_MAGNITUDE (where that is 1/16, while a fiber entry
# without potential moves by at most 2); larger magnitudes are refused
EPS = float(np.finfo(float).eps)
ROUNDING_ULPS = 64
MAX_MAGNITUDE = 2.0**42


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
    g.check_form(b, g.dim)
    g.check_form(a, 1)


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
    for eid, e in enumerate(g.edges):
        if not mask[eid]:
            continue
        phase = a.values[eid, 0] + (rows @ b.values[eid].astype(float))[:k]
        hop = np.exp(1j * phase)
        out[:, e.tail, e.head] -= hop
        out[:, e.head, e.tail] -= np.conj(hop)
    return add_to_diagonals(out, g.degrees(mask))


def _rounding_allowance(largest: float, error: type, what: str, whose: str) -> float:
    """ROUNDING_ULPS * EPS * largest; error when largest passes MAX_MAGNITUDE."""
    if largest > MAX_MAGNITUDE:
        raise error(
            f"{what} reach {largest:.3g}, above 2^42: {whose} this large "
            "cannot be checked in float arithmetic"
        )
    return ROUNDING_ULPS * EPS * largest


def potential_allowance(g: FundamentalGraph) -> float:
    """The rounding rule on max |q|, added where the potential enters both sides.

    Eigenvalues of size |q| are rounded to a few ulp of |q|. Raises
    NonFinitePotentialError above MAX_MAGNITUDE.
    """
    largest = float(np.abs(g.potential).max(initial=0.0))
    return _rounding_allowance(largest, NonFinitePotentialError, "vertex potentials", "spectra")


def phase_allowance(*pairs: tuple[np.ndarray, np.ndarray]) -> float:
    """The rounding rule on the largest phase of (b, a) value pairs, for entries exp(i phase).

    A row is an edge of a form pair, whose fibers exponentiate
    a(e) + <b(e), theta>, or a vertex of GaugeWeights (w_b, w_a); for
    theta in [-pi, pi]^d, |a| + pi * ||b||_1 bounds every such phase.
    Raises IndexOverflowError above MAX_MAGNITUDE (indices beyond
    about 2^40, or gauge weights summed along long tree paths).
    """
    largest = max(
        float((np.abs(np.ravel(a)) + np.pi * np.abs(b.astype(float)).sum(axis=1)).max(initial=0.0))
        for b, a in pairs
    )
    return _rounding_allowance(largest, IndexOverflowError, "fiber phases", "indices")


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix.

    Rejects matrices whose anti-Hermitian part exceeds
    1e-12 * (1 + max |m_ij|), or that hold a NaN, with NotHermitianError.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError("expected a square matrix")
    # the entrywise max cannot overflow where a norm of huge entries does
    scale = 1.0 + np.max(np.abs(m), initial=0.0)
    if not np.max(np.abs(m - m.conj().T), initial=0.0) <= HERMITICITY_TOL * scale:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)


def extreme_eigenvalues(stack: np.ndarray, diagonal: bool) -> np.ndarray:
    """(K, 2) least and greatest eigenvalue of each matrix of a (K, nu, nu) Hermitian stack.

    diagonal says that every matrix is diagonal; then no eigenproblem
    is solved, and these are its least and greatest real diagonal
    entries. They equal the first and last of numpy's eigvalsh bit for
    bit on the loop-only perturbation matrices of the battery and of
    Harper models, except where LAPACK rescales a matrix whose entries
    all lie below about 1e-146 and may round them; the entries stay
    exact. (A sort would do too, but numpy's first float sort in a
    process maps about 0.2 MiB of its code into memory.)
    """
    if diagonal:
        entries = np.einsum("kii->ki", stack).real
        return np.stack([entries.min(axis=1), entries.max(axis=1)], axis=1)
    return np.linalg.eigvalsh(stack)[:, [0, -1]]


def add_to_diagonals(stack: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Add (nu,) values to the diagonal of every matrix of a (K, nu, nu) stack; returns it.

    In place, through a strided view, so the add makes no (K, nu) temporaries.
    """
    diagonals = np.einsum("kii->ki", stack)
    diagonals += values
    return stack


# -- gauge transformation -------------------------------------------------------


def gauge_weights(g: FundamentalGraph, b: OneForm, a: OneForm) -> GaugeWeights:
    """Tree-potential gauge weights relating (b, a) fibers to (index, phase) fibers.

    The weights are the tree_potentials of (index - b) and (alpha - a)
    on the first spanning tree, vanishing at vertex 0. Integer forms
    give exact int64 weights. They are well defined only when b and a
    carry the fluxes of the stored index and phase forms. The flux of
    diff through the basic cycle of an edge (t, h) is diff(edge) +
    w(t) - w(h), zero on tree edges; b's is_nonzero tests it for the
    index class and the stored phase form's for the phase, and a
    violation raises FluxMismatchError naming the lowest bad chord.
    """
    _check_forms(g, b, a)
    alpha = g.magnetic_form()
    diff_b = g.index_matrix() - b.values
    diff_a = OneForm(alpha.values - a.values, magnetic=True).values[:, 0]
    first = first_spanning_tree(g)
    w_b, w_a = tree_potentials(g, first, diff_b), tree_potentials(g, first, diff_a)
    t, h = g.ends().T
    bad_b = b.is_nonzero(diff_b + w_b[t] - w_b[h]).any(axis=1)
    bad = np.flatnonzero(bad_b | alpha.is_nonzero(diff_a + w_a[t] - w_a[h]))
    if bad.size:
        chord = int(bad[0])
        what = "form" if bad_b[chord] else "phase form"
        whom = "the index form" if bad_b[chord] else "the stored phases"
        raise FluxMismatchError(f"{what} is not flux-equivalent to {whom} (chord {chord})")
    return GaugeWeights(w_b=w_b, w_a=w_a)


# -- theta-shift reduction ------------------------------------------------------


def theta0_reduction(
    g: FundamentalGraph, mu: OneForm, phi: OneForm
) -> tuple[np.ndarray, OneForm]:
    """Quasimomentum shift removing phases from d independent support edges.

    Picks d edges with linearly independent nonzero integer values of mu
    (scanning d-subsets in lexicographic order and preferring a
    unimodular one, which makes the shift unique mod 2*pi), solves
    phi(e_s) + <mu(e_s), theta0> = 0, and returns theta0 together with
    the shifted phase form: phi(e) + <mu(e), theta0>, however small, on
    every edge but the d solved ones, which get zero. When several
    shifts solve the system they differ by a gauge and give unitarily
    equivalent fibers; the representative returned here is the
    deterministic solve.
    """
    _check_forms(g, mu, phi)
    mu_int = mu.integer_values()
    d = g.dim

    chosen: tuple[int, ...] | None = None
    fallback: tuple[int, ...] | None = None
    for subset in combinations(np.flatnonzero(mu_int.any(axis=1)).tolist(), d):
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

    shifted = phi.values[:, 0] + mu_int.astype(float) @ theta0
    shifted[list(chosen)] = 0.0
    return theta0, OneForm(shifted, magnetic=True)


def phase_perturbation_bound(g: FundamentalGraph, phi_tilde: OneForm) -> float:
    """Row-sum bound 2 max_v sum over every oriented edge at v of |sin(phase/2)|."""
    per_vertex = g.degrees(np.abs(np.sin(phi_tilde.values[:, 0] / 2.0)))
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
    on = mu.support_mask()
    return fiber_stack(g, mu, a, thetas, edge_mask=~on), fiber_stack(g, mu, a, thetas, edge_mask=on)


def support_degrees(g: FundamentalGraph, mu: OneForm) -> np.ndarray:
    """Vertex degrees on the support subgraph of mu (loops count 2)."""
    return g.degrees(mu.support_mask())


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
