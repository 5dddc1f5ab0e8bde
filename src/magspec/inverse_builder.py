"""Realize periodic graphs from finite data; supercells and flux models.

A finite connected graph with an integer-valued minimal 1-form whose
fluxes span all of Z^d is exactly the data of a d-periodic graph: each
edge (u, v) with value m spawns the translated copies (u+n, v+n+m).
The fundamental graph of that periodic graph is the input graph with
the form as its index form, so fiber matrices round-trip entrywise.

Supercells refine the period lattice by diagonal multipliers; the
periodic operator is unchanged, so band unions agree. The Harper model
builder puts a uniform rational flux per square-lattice plaquette via
a one-direction supercell with linearly patterned loop phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BadMultipliersError, FluxImageNotFullLatticeError, NotMinimalError
from .forms_cycles import DEFAULT_TREE_CAP, lattice_image_check, minimal_form
from .graph_model import Edge, FundamentalGraph, OneForm, generate


@dataclass(frozen=True)
class SupercellSpec:
    """Diagonal period multipliers, one positive integer per dimension."""

    multipliers: tuple[int, ...]


def build_periodic(
    g: FundamentalGraph,
    mu: OneForm | None = None,
    phi: OneForm | None = None,
    cap: int = DEFAULT_TREE_CAP,
) -> FundamentalGraph:
    """Fundamental graph of the periodic graph generated by (g, mu, phi).

    mu defaults to the stored index form and phi to the stored phases.
    Forms of the wrong shape raise DimensionMismatchError. mu must be
    finite and integer valued (GraphDataError otherwise), certified
    minimal by exhaustive tree enumeration (NotMinimalError otherwise),
    and its chord fluxes must span Z^d (FluxImageNotFullLatticeError
    otherwise). The result carries mu as its index form and phi as its
    phases, so its fibers reproduce the given fiber data entrywise.
    """
    mu = mu if mu is not None else g.index_form()
    phi = phi if phi is not None else g.magnetic_form()
    g.check_form(mu, g.dim)
    g.check_form(phi, 1)
    # certify the integer form itself: float noise would add up along cycles
    mu = OneForm(mu.integer_values())

    mu_min, _, beta_x = minimal_form(g, mu, cap=cap)
    if len(mu.support()) != beta_x:
        raise NotMinimalError(
            f"form supports {len(mu.support())} edges but {beta_x} suffice"
        )
    # mu_min carries the chord fluxes of its tree, a basis of the cycle space
    if not lattice_image_check(mu_min.values.T):
        raise FluxImageNotFullLatticeError("form fluxes span a proper sublattice of Z^d")

    edges = tuple(
        Edge(e.tail, e.head, tuple(int(v) for v in mu.values[i]), float(phi.values[i, 0]))
        for i, e in enumerate(g.edges)
    )
    return FundamentalGraph(
        dim=g.dim,
        num_vertices=g.num_vertices,
        edges=edges,
        potential=np.array(g.potential),
        vertex_names=g.vertex_names,
    )


def supercell(g: FundamentalGraph, spec: SupercellSpec) -> FundamentalGraph:
    """Fundamental graph over the sublattice with diagonal multipliers.

    Vertices are (cell, v) pairs; an edge with index m connects cell k
    to cell (k+m) mod q and carries the componentwise carry
    floor((k+m)/q) as its new index. Phases and potentials are copied,
    so the underlying periodic operator (and its spectrum) is unchanged.
    """
    q = tuple(int(m) for m in spec.multipliers)
    if len(q) != g.dim or any(m < 1 for m in q):
        raise BadMultipliersError(f"need {g.dim} multipliers >= 1, got {q}")
    cells = list(product(*[range(m) for m in q]))
    rank = {cell: r for r, cell in enumerate(cells)}
    nu = g.num_vertices

    def vid(v: int, r: int) -> int:
        return r * nu + v

    names = tuple(
        f"{g.name_of(v)}@{','.join(str(c) for c in cell)}"
        for cell in cells
        for v in range(nu)
    )
    edges = []
    for r, cell in enumerate(cells):
        for e in g.edges:
            shifted = [cell[s] + e.index[s] for s in range(g.dim)]
            target = tuple(shifted[s] % q[s] for s in range(g.dim))
            carry = tuple(shifted[s] // q[s] for s in range(g.dim))
            edges.append(Edge(vid(e.tail, r), vid(e.head, rank[target]), carry, e.alpha))
    potential = np.tile(np.asarray(g.potential), len(cells))
    return FundamentalGraph(
        dim=g.dim,
        num_vertices=nu * len(cells),
        edges=tuple(edges),
        potential=potential,
        vertex_names=names,
    )


def harper_model(q: int, p: int) -> FundamentalGraph:
    """Square lattice with uniform flux 2*pi*p/q per plaquette.

    Landau gauge: the q-fold supercell along the first direction, with
    the second-direction loop in copy k carrying phase 2*pi*p*k/q. Each
    unit plaquette then encloses flux 2*pi*p/q (mod 2*pi).
    """
    if q < 1:
        raise BadMultipliersError("flux denominator must be >= 1")
    base = generate("zd", 2)
    cell = supercell(base, SupercellSpec((q, 1)))
    flux = 2.0 * math.pi * p / q
    alphas = []
    for e in cell.edges:
        if e.is_loop and e.index == (0, 1):
            alphas.append(flux * e.tail)  # one vertex per copy, so id = copy index
        else:
            alphas.append(e.alpha)
    return cell.with_phases(alphas)


def coprime_fluxes(max_q: int) -> list[tuple[int, int]]:
    """(p, q) pairs with 1 <= p <= q <= max_q and gcd(p, q) = 1, in scan order."""
    return [(p, q) for q in range(1, max_q + 1) for p in range(1, q + 1) if math.gcd(p, q) == 1]
