"""Spanning trees, cycle bases, fluxes, minimal 1-forms and graph invariants.

A spanning tree T of the fundamental graph determines a basis of the
cycle space: every non-tree edge (chord) closes a unique basic cycle
through T. The flux of a 1-form along a basic cycle is the sum of its
values; a tree minimizing the number of basic cycles with nonzero flux
yields a flux-equivalent form of smallest possible support, supported
on exactly those chords. Minimality is certified by exhaustive tree
enumeration, never by a rational-independence heuristic.

All integer computations (tree counts, lattice spans) are exact:
fraction-free determinants and a hand-rolled Smith normal form over
Python integers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    CheckFailedError,
    DisconnectedGraphError,
    FluxImageNotFullLatticeError,
    OpenPathError,
    TreeCountExceedsCapError,
)
from .graph_model import TWO_PI, FundamentalGraph, OneForm, reduce_angle

# An oriented edge sequence: (edge_id, sign) steps, sign +1 = canonical.
Cycle = tuple[tuple[int, int], ...]

ZERO_FLUX_TOL = 1e-9  # for magnetic fluxes after mod-2pi reduction; integer fluxes exact


@dataclass(frozen=True, eq=False)
class SpanningTreeBasis:
    """A spanning tree with its chords and their oriented basic cycles.

    cycles[i] belongs to chords[i] and starts with (chords[i], +1)
    followed by the tree path from the chord head back to its tail;
    a loop chord is its own basic cycle.
    """

    tree_edges: tuple[int, ...]
    chords: tuple[int, ...]
    cycles: tuple[Cycle, ...]


@dataclass(frozen=True, eq=False)
class FluxTable:
    """Per-chord fluxes of one form in one tree basis (row i = chords[i])."""

    chords: tuple[int, ...]
    values: np.ndarray
    magnetic: bool


@dataclass(frozen=True)
class InvariantReport:
    beta: int
    d: int
    I: int
    I_alpha: int
    I_mu_phi: int
    I_mu_phi_min: int
    tree_count: int
    lattice_image_ok: bool

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "d": self.d,
            "I": self.I,
            "I_alpha": self.I_alpha,
            "I_mu_phi": self.I_mu_phi,
            "I_mu_phi_min": self.I_mu_phi_min,
            "tree_count": self.tree_count,
            "lattice_image_ok": self.lattice_image_ok,
        }


# -- exact integer linear algebra ---------------------------------------------


def integer_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    M = [[int(v) for v in row] for row in matrix]
    n = len(M)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[-1][-1]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns min(m, n) nonnegative integers d_1 | d_2 | ... with any
    zeros trailing. Exact over Python integers.
    """
    M = [[int(v) for v in row] for row in matrix]
    m = len(M)
    n = len(M[0]) if m else 0
    diag: list[int] = []
    t = 0
    while t < m and t < n:
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                v = M[i][j]
                if v and (piv is None or abs(v) < abs(M[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        while piv is not None:
            i0, j0 = piv
            if i0 != t:
                M[t], M[i0] = M[i0], M[t]
            if j0 != t:
                for row in M:
                    row[t], row[j0] = row[j0], row[t]
            p = M[t][t]
            for i in range(t + 1, m):
                q = M[i][t] // p
                if q:
                    for j in range(t, n):
                        M[i][j] -= q * M[t][j]
            for j in range(t + 1, n):
                q = M[t][j] // p
                if q:
                    for i in range(t, m):
                        M[i][j] -= q * M[i][t]
            # leftover row/column entries are remainders smaller than |p|;
            # promote the smallest and eliminate again until clean
            piv = None
            best = None
            for i in range(t + 1, m):
                if M[i][t] and (best is None or abs(M[i][t]) < best):
                    piv, best = (i, t), abs(M[i][t])
            for j in range(t + 1, n):
                if M[t][j] and (best is None or abs(M[t][j]) < best):
                    piv, best = (t, j), abs(M[t][j])
        diag.append(abs(M[t][t]))
        t += 1
    # diagonal is equivalent to the chain form: replace (a, b) by (gcd, lcm)
    changed = True
    while changed:
        changed = False
        for k in range(len(diag) - 1):
            a, b = diag[k], diag[k + 1]
            if a and b % a != 0:
                g = math.gcd(a, b)
                diag[k], diag[k + 1] = g, a * b // g
                changed = True
    diag += [0] * (min(m, n) - len(diag))
    return diag


def integer_rank(matrix: Sequence[Sequence[int]]) -> int:
    return sum(1 for v in smith_normal_form(matrix) if v != 0)


def lattice_image_check(flux_matrix: np.ndarray) -> bool:
    """True iff the integer column span of a d x k matrix is all of Z^d.

    Decided by the Smith normal form: the span is full exactly when
    there are d elementary divisors and all equal 1.
    """
    mat = np.asarray(flux_matrix)
    if mat.ndim != 2:
        raise ValueError("flux matrix must be two dimensional")
    if not np.issubdtype(mat.dtype, np.integer):
        rounded = np.rint(mat)
        if mat.size and np.max(np.abs(mat - rounded)) > 1e-9:
            raise ValueError("flux matrix must be integer valued")
        mat = rounded
    mat = mat.astype(np.int64)
    d = mat.shape[0]
    divisors = [v for v in smith_normal_form(mat) if v != 0]
    return len(divisors) == d and all(v == 1 for v in divisors)


# -- spanning trees ------------------------------------------------------------


def spanning_tree_count(g: FundamentalGraph) -> int:
    """Exact number of spanning trees (integer Laplacian cofactor).

    Loops never occur in trees and cancel out of the Laplacian.
    """
    nu = g.num_vertices
    if nu == 1:
        return 1
    L = [[0] * nu for _ in range(nu)]
    for e in g.edges:
        if e.is_loop:
            continue
        L[e.tail][e.tail] += 1
        L[e.head][e.head] += 1
        L[e.tail][e.head] -= 1
        L[e.head][e.tail] -= 1
    reduced = [row[1:] for row in L[1:]]
    return integer_determinant(reduced)


def _tree_adjacency(g: FundamentalGraph, tree_ids: tuple[int, ...]):
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.num_vertices)]
    for eid in tree_ids:
        e = g.edges[eid]
        adj[e.tail].append((eid, 1, e.head))
        adj[e.head].append((eid, -1, e.tail))
    for lst in adj:
        lst.sort()
    return adj


def _tree_path(adj, start: int, goal: int) -> Cycle:
    """Unique oriented tree path start -> goal as (edge_id, sign) steps."""
    if start == goal:
        return ()
    prev: dict[int, tuple[int, int, int] | None] = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if v == goal:
            break
        for eid, sign, w in adj[v]:
            if w not in prev:
                prev[w] = (v, eid, sign)
                queue.append(w)
    steps = []
    v = goal
    while prev[v] is not None:
        u, eid, sign = prev[v]  # type: ignore[misc]
        steps.append((eid, sign))
        v = u
    return tuple(reversed(steps))


def _basis_for_tree(g: FundamentalGraph, tree_ids: tuple[int, ...]) -> SpanningTreeBasis:
    adj = _tree_adjacency(g, tree_ids)
    tree_set = set(tree_ids)
    chords = tuple(i for i in range(g.num_edges) if i not in tree_set)
    cycles = []
    for c in chords:
        e = g.edges[c]
        if e.is_loop:
            cycles.append(((c, 1),))
        else:
            cycles.append(((c, 1),) + _tree_path(adj, e.head, e.tail))
    return SpanningTreeBasis(tree_edges=tuple(sorted(tree_ids)), chords=chords,
                             cycles=tuple(cycles))


# Channel kinds: how the flux of one scalar component is tested for zero.
_EXACT, _ANGLE, _REAL = range(3)


class _PotentialForest:
    """Weighted union-find with undo carrying the tree potentials of forms.

    Union by size and no path compression, so the last union undoes in
    O(1). Every scalar component (channel) of every form keeps
    off[v] = p(v) - p(parent[v]); including edge t -> h with value x
    fixes p(h) = p(t) + x. Once the included edges span, the flux of a
    form through the basic cycle of chord c is x(c) + p(tail) - p(head),
    so no cycle is ever walked. Integer forms compare exactly (Python
    integers), phases modulo 2*pi and real forms against ZERO_FLUX_TOL.
    """

    def __init__(self, g: FundamentalGraph, forms: Sequence[OneForm] = ()) -> None:
        n = g.num_vertices
        self.ends = [(e.tail, e.head) for e in g.edges]
        self.nonloop = [i for i, e in enumerate(g.edges) if not e.is_loop]
        self.values: list[list] = []  # per channel, the value of every edge
        self.forms: list[list[tuple[int, int]]] = []  # per form, (kind, channel) pairs
        for x in forms:
            if x.magnetic:
                kind = _ANGLE
            elif np.issubdtype(x.values.dtype, np.integer):
                kind = _EXACT
            else:
                kind = _REAL
            self.forms.append([(kind, len(self.values) + k) for k in range(x.dim)])
            self.values += [x.values[:, k].tolist() for k in range(x.dim)]
        self.parent = list(range(n))
        self.size = [1] * n
        self.off = [[0] * n for _ in self.values]
        self.attached: list[int] = []  # roots hung below another root, in order
        self.tree: list[int] = []  # included edge ids, ascending during a scan
        self.mask = 0  # included edges as a bitmask

    def _root(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            v = parent[v]
        return v

    def _lift(self, v: int, off: list):
        """Potential of v relative to its root."""
        parent = self.parent
        p = 0
        while parent[v] != v:
            p += off[v]
            v = parent[v]
        return p

    def include(self, eid: int) -> bool:
        """Add edge eid; False (and no change) if it would close a cycle."""
        t, h = self.ends[eid]
        rt, rh = self._root(t), self._root(h)
        if rt == rh:
            return False
        # off[low] = p(low) - p(high) follows from p(h) = p(t) + x, with
        # p(t) and p(h) lifted relative to their roots
        if self.size[rt] < self.size[rh]:
            low, high, sign = rt, rh, -1
        else:
            low, high, sign = rh, rt, 1
        for vals, off in zip(self.values, self.off):
            off[low] = sign * (self._lift(t, off) + vals[eid] - self._lift(h, off))
        self.parent[low] = high
        self.size[high] += self.size[low]
        self.attached.append(low)
        self.tree.append(eid)
        self.mask |= 1 << eid
        return True

    def undo(self) -> None:
        """Remove the most recently included edge."""
        low = self.attached.pop()
        self.size[self.parent[low]] -= self.size[low]
        self.parent[low] = low
        self.mask &= ~(1 << self.tree.pop())

    def _bypassed(self, pos: int) -> bool:
        """Whether the non-loop edges after position pos, together with the
        included ones, join the ends of edge nonloop[pos]."""
        t, h = self.ends[self.nonloop[pos]]
        link: dict[int, int] = {}  # union-find over the current roots

        def top(r: int) -> int:
            while r in link:
                r = link[r]
            return r

        a, b = self._root(t), self._root(h)
        for eid in self.nonloop[pos + 1:]:
            u, v = self.ends[eid]
            ru, rv = top(self._root(u)), top(self._root(v))
            if ru != rv:
                link[ru] = rv
                if top(a) == top(b):
                    return True
        return False

    def trees(self) -> Iterator[None]:
        """Yield once per spanning tree, with that tree included.

        Include-first, exclude-second backtracking over the non-loop
        edges in ascending id (Gabow & Myers, SIAM J. Comput. 7, 1978):
        trees come in lexicographic order of their edge-id sets, the
        order of itertools.combinations. An edge is excluded only when
        the later edges bypass it, so every branch ends in a tree. The
        graph must be connected.
        """
        need = len(self.parent) - 1
        trail: list[tuple[int, bool]] = []  # (position, included) per decided edge
        pos = 0
        while True:
            while len(self.tree) < need:
                trail.append((pos, self.include(self.nonloop[pos])))
                pos += 1
            yield
            while True:
                if not trail:
                    return
                pos, included = trail.pop()
                if included:
                    self.undo()
                    if self._bypassed(pos):
                        trail.append((pos, False))
                        pos += 1
                        break

    def chord_masks(self) -> list[int]:
        """Per form, the chords with nonzero basic-cycle flux as a bitmask.

        The included edges must span.
        """
        parent, order = self.parent, self.attached[::-1]  # parents before children
        pots = []
        for off in self.off:
            pot = [0] * len(parent)
            for v in order:
                pot[v] = off[v] + pot[parent[v]]
            pots.append(pot)
        tree = self.mask
        chords = [(c, t, h, 1 << c) for c, (t, h) in enumerate(self.ends) if not tree >> c & 1]
        masks = []
        for channels in self.forms:
            mask = 0
            for kind, ch in channels:
                vals, pot = self.values[ch], pots[ch]
                if kind == _EXACT:
                    mask |= sum(b for c, t, h, b in chords if vals[c] + pot[t] != pot[h])
                elif kind == _ANGLE:  # |remainder| is the magnitude reduce_angle gives
                    mask |= sum(
                        b for c, t, h, b in chords
                        if abs(math.remainder(vals[c] + pot[t] - pot[h], TWO_PI)) > ZERO_FLUX_TOL
                    )
                else:
                    mask |= sum(
                        b for c, t, h, b in chords if abs(vals[c] + pot[t] - pot[h]) > ZERO_FLUX_TOL
                    )
            masks.append(mask)
        return masks

    def tree_masks(self, tree_edges: Sequence[int]) -> list[int]:
        """chord_masks for one given spanning tree of an empty forest."""
        for eid in tree_edges:
            self.include(eid)
        spanning = len(self.tree) == len(self.parent) - 1 == len(tree_edges)
        masks = self.chord_masks() if spanning else []
        while self.tree:
            self.undo()
        if not spanning:
            raise ValueError(f"edges {tuple(tree_edges)} are not a spanning tree")
        return masks


def _checked_tree_count(g: FundamentalGraph, cap: int) -> int:
    if not g.is_connected():
        raise DisconnectedGraphError("spanning trees need a connected graph")
    count = spanning_tree_count(g)
    if count > cap:
        raise TreeCountExceedsCapError(f"{count} spanning trees exceed the cap {cap}")
    return count


def _check_leaves(found: int, count: int) -> None:
    if found != count:
        raise CheckFailedError(
            f"enumerated {found} trees but the Laplacian cofactor says {count}"
        )


def enumerate_spanning_trees(g: FundamentalGraph, cap: int = 10**6) -> list[SpanningTreeBasis]:
    """All spanning trees with chord sets and basic cycles.

    Deterministic order: lexicographic by the sorted tree edge-id set.
    Raises TreeCountExceedsCapError when the exact count exceeds the
    cap (the graph is too large for exhaustive minimality certification).
    Materializes every tree; the library itself streams with scan_trees.
    """
    count = _checked_tree_count(g, cap)
    forest = _PotentialForest(g)
    out = [_basis_for_tree(g, tuple(forest.tree)) for _ in forest.trees()]
    _check_leaves(len(out), count)
    return out


def first_spanning_tree(g: FundamentalGraph) -> SpanningTreeBasis:
    """The lexicographically smallest spanning tree, first in enumeration order."""
    if not g.is_connected():
        raise DisconnectedGraphError("spanning trees need a connected graph")
    forest = _PotentialForest(g)
    next(forest.trees())
    return _basis_for_tree(g, tuple(forest.tree))


class FormScan(NamedTuple):
    """What a tree scan keeps of one form; supports are chord bitmasks (bit i = edge i)."""

    count: int  # fewest basic cycles with nonzero flux over all trees
    tree: tuple[int, ...]  # first tree attaining it
    mask: int  # the support on that tree
    supports: frozenset[int]  # every distinct support attaining it


class TreeScan(NamedTuple):
    tree_count: int
    first_tree: tuple[int, ...]
    forms: tuple[FormScan, ...]


def scan_trees(g: FundamentalGraph, forms: Sequence[OneForm], cap: int = 10**6) -> TreeScan:
    """Score every form on every spanning tree in one streaming pass.

    Trees are visited in enumeration order, so "first" means
    lexicographically smallest. Memory stays flat in the number of
    trees: only the distinct minimal supports are kept. Raises
    TreeCountExceedsCapError before scanning when the exact count
    exceeds the cap, and CheckFailedError if the scan does not find
    exactly that many trees.
    """
    count = _checked_tree_count(g, cap)
    forest = _PotentialForest(g, forms)
    best: list[tuple[int, tuple[int, ...], int, set[int]] | None] = [None] * len(forms)
    leaves = 0
    first: tuple[int, ...] = ()
    for _ in forest.trees():
        if not leaves:
            first = tuple(forest.tree)
        leaves += 1
        for k, mask in enumerate(forest.chord_masks()):
            cnt = mask.bit_count()
            cur = best[k]
            if cur is None or cnt < cur[0]:
                best[k] = (cnt, tuple(forest.tree), mask, {mask})
            elif cnt == cur[0]:
                cur[3].add(mask)
    _check_leaves(leaves, count)
    return TreeScan(
        tree_count=leaves,
        first_tree=first,
        forms=tuple(FormScan(c, t, m, frozenset(s)) for c, t, m, s in best),  # type: ignore[misc]
    )


# -- fluxes --------------------------------------------------------------------


def flux(g: FundamentalGraph, form: OneForm, cycle: Cycle) -> np.ndarray:
    """Sum of form values along a closed oriented edge sequence.

    Magnetic fluxes are reduced modulo 2*pi into (-pi, pi]. Raises
    OpenPathError when consecutive edges do not chain up or the path
    does not return to its start.
    """
    if not cycle:
        raise OpenPathError("empty edge sequence is not a cycle")
    first_tail = g.endpoints(*cycle[0])[0]
    at = first_tail
    total = np.zeros(form.dim, dtype=form.values.dtype)
    for eid, sign in cycle:
        tail, head = g.endpoints(eid, sign)
        if tail != at:
            raise OpenPathError("edge sequence does not chain up")
        total = total + form.value(eid, sign)
        at = head
    if at != first_tail:
        raise OpenPathError("edge sequence does not close")
    if form.magnetic:
        return np.array([reduce_angle(float(total[0]))])
    return total


def flux_table(g: FundamentalGraph, form: OneForm, basis: SpanningTreeBasis) -> FluxTable:
    """Fluxes of a form through every basic cycle of a tree basis."""
    if basis.chords:
        vals = np.stack([flux(g, form, c) for c in basis.cycles])
    else:
        vals = np.zeros((0, form.dim), dtype=form.values.dtype)
    return FluxTable(chords=basis.chords, values=vals, magnetic=form.magnetic)


# -- minimal forms ---------------------------------------------------------------


def _tree_form(
    g: FundamentalGraph, x: OneForm, basis: SpanningTreeBasis, count: int
) -> tuple[OneForm, SpanningTreeBasis, int]:
    """The form vanishing on the tree and equal to the chord fluxes of x on the chords.

    count is the number of chords with nonzero flux the scan found; a
    disagreeing support raises CheckFailedError.
    """
    table = flux_table(g, x, basis)
    integral = not x.magnetic and np.issubdtype(x.values.dtype, np.integer)
    values = np.zeros((g.num_edges, x.dim), dtype=np.int64 if integral else float)
    for chord, row in zip(table.chords, table.values):
        values[chord] = row
    mu = OneForm(values, magnetic=x.magnetic)
    if mu.support_size_oriented() != 2 * count:
        raise CheckFailedError(
            f"minimal form supports {mu.support_size_oriented()} oriented edges, "
            f"the tree scan counted {count} chords"
        )
    return mu, basis, count


def minimal_form(
    g: FundamentalGraph,
    x: OneForm,
    trees: Sequence[SpanningTreeBasis] | None = None,
    cap: int = 10**6,
) -> tuple[OneForm, SpanningTreeBasis, int]:
    """Smallest-support form with the fluxes of x.

    Scans every spanning tree (or only the given ones), picks one
    minimizing the number of basic cycles with nonzero flux (ties
    broken by the enumeration order, i.e. lexicographically smallest
    tree edge-id set, or by list order), and returns the form
    vanishing on that tree and equal to the chord fluxes on the chords.
    The returned count equals half the support size.
    """
    if trees is None:
        scan = scan_trees(g, (x,), cap=cap).forms[0]
        return _tree_form(g, x, _basis_for_tree(g, scan.tree), scan.count)
    if not trees:
        raise ValueError("minimal_form needs a nonempty list of spanning trees")
    forest = _PotentialForest(g, (x,))
    counts = [forest.tree_masks(basis.tree_edges)[0].bit_count() for basis in trees]
    best = counts.index(min(counts))
    return _tree_form(g, x, trees[best], counts[best])


def chord_flux_matrix(g: FundamentalGraph, basis: SpanningTreeBasis) -> np.ndarray:
    """d x beta integer matrix whose columns are index-form chord fluxes."""
    table = flux_table(g, g.index_form(), basis)
    return table.values.T.astype(np.int64)


def invariants(
    g: FundamentalGraph,
    cap: int = 10**6,
    require_full_lattice: bool = True,
    scan: TreeScan | None = None,
) -> InvariantReport:
    """Betti number and the minimal-support invariants of the graph.

    I counts half the support of a minimal form flux-equivalent to the
    index form, I_alpha the same for the phase form, and the pair
    invariant half the union support; the union value is reported both
    for the lexicographic pair of minimal trees and minimized over all
    minimal pairs (over their distinct supports, which gives the same
    minimum). Raises FluxImageNotFullLatticeError (unless
    require_full_lattice=False) when the index fluxes span a proper
    sublattice of Z^d, in which case the graph is not the fundamental
    graph of any genuinely d-periodic graph. A scan of the (index,
    phase) forms that the caller already holds is reused, not repeated.
    """
    if scan is None:
        scan = scan_trees(g, (g.index_form(), g.magnetic_form()), cap=cap)
    flux_matrix = chord_flux_matrix(g, _basis_for_tree(g, scan.first_tree))
    lattice_ok = lattice_image_check(flux_matrix)
    if require_full_lattice and not lattice_ok:
        raise FluxImageNotFullLatticeError(
            "index fluxes do not span Z^d; the graph is not a d-periodic fundamental graph"
        )

    tau, alpha = scan.forms
    if lattice_ok:
        if not g.dim <= tau.count <= g.beta:
            raise CheckFailedError(f"I = {tau.count} lies outside [d, beta] = [{g.dim}, {g.beta}]")
        if integer_rank(flux_matrix) != g.dim:
            raise CheckFailedError("index fluxes of a full-lattice graph do not have rank d")

    return InvariantReport(
        beta=g.beta,
        d=g.dim,
        I=tau.count,
        I_alpha=alpha.count,
        I_mu_phi=(tau.mask | alpha.mask).bit_count(),
        I_mu_phi_min=min((s | t).bit_count() for s in tau.supports for t in alpha.supports),
        tree_count=scan.tree_count,
        lattice_image_ok=lattice_ok,
    )


def minimal_pair(
    g: FundamentalGraph,
    trees: Sequence[SpanningTreeBasis] | None = None,
    cap: int = 10**6,
    scan: TreeScan | None = None,
) -> tuple[OneForm, OneForm]:
    """Lexicographic minimal pair (index-class form, phase-class form).

    Reuses a given scan of the (index, phase) forms instead of scanning.
    """
    forms = (g.index_form(), g.magnetic_form())
    if trees is not None:
        return minimal_form(g, forms[0], trees)[0], minimal_form(g, forms[1], trees)[0]
    if scan is None:
        scan = scan_trees(g, forms, cap=cap)
    mu, phi = (
        _tree_form(g, x, _basis_for_tree(g, s.tree), s.count)[0] for x, s in zip(forms, scan.forms)
    )
    return mu, phi
