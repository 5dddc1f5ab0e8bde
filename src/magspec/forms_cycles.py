"""Spanning trees, chord fluxes, minimal 1-forms and graph invariants.

A spanning tree T of the fundamental graph is the ascending tuple of
its edge ids. It determines a basis of the cycle space: every non-tree
edge (chord) closes a unique basic cycle through T. The flux of a
1-form along a basic cycle is the sum of its values, and flux_table is
the one walk of basic cycles. It walks the parent steps of
_rooted_tree, the one breadth-first search that roots a tree at vertex
0 and validates it; tree_potentials, the gauge weights of
fiber_operator.gauge_weights, sums a form along the same steps. A tree
minimizing the number of basic cycles with nonzero flux yields a
flux-equivalent form of smallest possible support, the form vanishing
on that tree and carrying the chord fluxes (tree_form). Minimality is
certified by exhaustive tree enumeration, never by a
rational-independence heuristic.

All integer computations (tree counts, lattice spans) are exact:
fraction-free determinants and a column reduction over Python
integers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    CheckFailedError,
    DisconnectedGraphError,
    FluxImageNotFullLatticeError,
    GraphDataError,
    IndexOverflowError,
    TreeCountExceedsCapError,
)
from .graph_model import INT64_MAX, FundamentalGraph, OneForm, reduce_angle

DEFAULT_TREE_CAP = 10**6  # the largest spanning-tree count a scan accepts


@dataclass(frozen=True)
class InvariantReport:
    """What `invariants` returns. lattice_image_ok is always true in a
    returned report (a sublattice image raises); the JSON output keeps it."""

    beta: int
    d: int
    I: int
    I_alpha: int
    I_mu_phi: int
    I_mu_phi_min: int
    tree_count: int
    lattice_image_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)  # field order is the JSON key order


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


def lattice_image_check(flux_matrix: np.ndarray) -> bool:
    """True iff the integer column span of a d x k matrix is all of Z^d.

    Decided by one exact column reduction over Python integers.
    Subtracting an integer multiple of one column from another keeps the
    span. Row by row, Euclid over the columns not yet used as pivots
    leaves one column nonzero in that row, the pivot. The span is Z^d
    exactly when all d pivots are +-1; a row with no nonzero entry left
    means the rank is below d. Raises ValueError for a matrix that is
    not two dimensional or not of an integer dtype.
    """
    mat = np.asarray(flux_matrix)
    if mat.ndim != 2:
        raise ValueError("flux matrix must be two dimensional")
    if not np.issubdtype(mat.dtype, np.integer):
        raise ValueError(f"flux matrix must have an integer dtype, got {mat.dtype}")
    cols = mat.astype(np.int64).T.tolist()
    for r in range(mat.shape[0]):
        while True:
            live = [c for c in cols if c[r]]
            if not live:
                return False
            pivot = min(live, key=lambda c: abs(c[r]))
            if len(live) == 1:
                break
            for c in live:
                if c is not pivot:
                    q = c[r] // pivot[r]
                    c[:] = [x - q * y for x, y in zip(c, pivot)]
        if abs(pivot[r]) != 1:
            return False
        cols.remove(pivot)
    return True


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


def _rooted_tree(g: FundamentalGraph, tree: Sequence[int]):
    """A spanning tree rooted at vertex 0 by one breadth-first search.

    The search takes each vertex's tree edges in ascending id. Returns
    (order, up): the vertices in the order reached, root first, and per
    vertex its parent step (parent, edge id, sign), sign +1 when
    parent -> vertex is the edge's canonical orientation (None at the
    root). Raises GraphDataError unless tree is nu - 1 distinct edge
    ids of g that join every vertex.
    """
    n = g.num_vertices
    ids = set(tree)
    if len(tree) != n - 1 or len(ids) != len(tree) or not ids <= set(range(g.num_edges)):
        raise GraphDataError(f"edge ids {tuple(tree)} are not a spanning tree of the graph")
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for eid in sorted(ids):
        e = g.edges[eid]
        adj[e.tail].append((e.head, eid, 1))
        adj[e.head].append((e.tail, eid, -1))
    up: list[tuple[int, int, int] | None] = [None] * n
    order = [0]
    for v in order:  # grows as the search reaches vertices
        for w, eid, sign in adj[v]:
            if w != 0 and up[w] is None:  # the root has no parent step
                up[w] = (v, eid, sign)
                order.append(w)
    if len(order) != n:
        raise GraphDataError(f"edge ids {tuple(tree)} do not join every vertex")
    return order, up


def tree_potentials(g: FundamentalGraph, tree: Sequence[int], values: np.ndarray) -> np.ndarray:
    """Potentials of per-edge values on a spanning tree, zero at vertex 0.

    values has a row per edge; the result has a row per vertex, in the
    same dtype (exact for int64). In the order of _rooted_tree,
    p(v) = p(parent) + sign * values[eid] over v's parent step. Raises
    GraphDataError when tree is not a spanning tree of g.
    """
    order, up = _rooted_tree(g, tree)
    values = np.asarray(values)
    p = np.zeros((g.num_vertices,) + values.shape[1:], dtype=values.dtype)
    for v in order[1:]:
        parent, eid, sign = up[v]  # type: ignore[misc]
        p[v] = p[parent] + sign * values[eid]
    return p


_BLOCK_STATES = 512  # a block of partial forests is split above this many states


class _TreeScanner:
    """Every spanning tree with the tree potentials of forms, block by block in numpy.

    Include-first, exclude-second backtracking over the non-loop edges
    in ascending id (Gabow & Myers, SIAM J. Comput. 7, 1978), run level
    by level: a state is a forest of the edges decided so far, and a
    whole block of states decides one edge per step. At edge (t, h) a
    state whose forest does not yet join t and h gets an include child,
    and an exclude child exactly when the later edges, together with
    the forest, still join t and h (_bypassed); otherwise the edge is a
    chord and the state passes on unchanged. Every state thus ends in a
    spanning tree, each tree once. Blocks split above _BLOCK_STATES
    states, so memory stays flat in the number of trees.

    Each state is one int64 row, and needs no union-find. A row holds
    the vertex set of every vertex's tree as bit words (vertex v is bit
    v % 64 of word v // 64), then one column block per form with the
    potential p(v) of every vertex relative to an anchor of its tree,
    per value component, and then the included edges as bit-reversed
    words (edge e is bit 63 - e % 64 of word e // 64), so the largest
    key is the lexicographically smallest edge set. One np.unpackbits
    decodes either: the little-endian bytes of set words give vertex v
    at bit v, the big-endian bytes of tree words edge e at bit e. A
    phase or real form's block holds float64 bit patterns, read and
    updated in place through a float view of its columns. Edge t -> h
    is a chord when h is in t's set. Including it with value x adds
    (p(t) + x) - p(h) to every vertex of h's set, which fixes
    p(h) = p(t) + x, and then joins the two sets. Every potential stays
    a path sum in its tree, so exact forms are exact in int64 under the
    range check of _scanned_column. Once a state spans, the flux of
    chord c is x(c) + p(t) - p(h), so no cycle is walked: each form's
    OneForm.is_nonzero decides which fluxes are nonzero. Columns are
    the cost of a scan, so scan_trees hands over no form whose values
    are all zero (its fluxes are all zero) and an integer form of
    dim > 1 as one packed column when int64 allows (_scanned_column);
    the scanner itself treats every form alike.
    """

    def __init__(self, g: FundamentalGraph, forms: Sequence[OneForm] = ()) -> None:
        n = self.n = g.num_vertices
        edges = self.num_edges = g.num_edges
        self.tails, self.heads = g.ends().T
        # columns of a row: vertex sets, one potential block per form, tree
        self.words = -(-n // 64)  # words per vertex set
        sets_end = end = self.words * n
        # per form: (form, potential columns, (dim, E) values in the dtype of its potentials)
        self.pots = []
        for x in forms:
            cols = slice(end, end + x.dim * n)
            values = np.ascontiguousarray(x.values.T, dtype=np.int64 if x.exact else float)
            self.pots.append((x, cols, values))
            end = cols.stop
        self.tree_col = end
        self.rows0 = np.zeros((1, end + (-(-edges // 64) or 1)), dtype=np.int64)
        self.rows0[0, :sets_end] = self._bit_words([1 << v for v in range(n)]).ravel()
        # per non-loop edge: its ends, tree word and bit, values per form,
        # and per vertex the set joined to it by the later non-loop edges
        # (None when those alone join the ends)
        sets = [1 << v for v in range(n)]
        self.levels = []
        for eid in reversed([i for i, e in enumerate(g.edges) if not e.is_loop]):
            t, h = g.edges[eid].tail, g.edges[eid].head
            self.levels.append((
                t, h, self.tree_col + eid // 64,
                np.array(1 << (63 - eid % 64), dtype=np.uint64).view(np.int64),
                [values[:, eid] for _, _, values in self.pots],
                None if sets[t] >> h & 1 else self._bit_words(sets),
            ))
            merged = sets[t] | sets[h]
            sets = [merged if merged >> u & 1 else s for u, s in enumerate(sets)]
        self.levels.reverse()

    def _bit_words(self, sets: list[int]) -> np.ndarray:
        """(len(sets), words) int64 words of vertex sets given as Python bitmasks."""
        words = [(s >> (64 * i)) & (2**64 - 1) for s in sets for i in range(self.words)]
        return np.array(words, dtype=np.uint64).view(np.int64).reshape(len(sets), self.words)

    def _sets(self, rows: np.ndarray) -> np.ndarray:
        """(S, nu, words) view: the vertex set of every vertex's tree."""
        return rows[:, : self.words * self.n].reshape(len(rows), self.n, self.words)

    def _members(self, words: np.ndarray) -> np.ndarray:
        """(S, nu) bool: per row of (S, words) vertex-set words, whether each vertex is in it."""
        octets = words.astype("<i8", copy=False).view(np.uint8)
        return np.unpackbits(octets, axis=1, count=self.n, bitorder="little").view(bool)

    def _tree_edges(self, rows: np.ndarray) -> np.ndarray:
        """(S, E) bool: per spanning state, whether each edge is in its tree."""
        octets = rows[:, self.tree_col :].astype(">i8", copy=False).view(np.uint8)
        return np.unpackbits(octets, axis=1, count=self.num_edges).view(bool)

    def _bypassed(self, rows: np.ndarray, later: np.ndarray, t: int, h: int) -> np.ndarray:
        """Per state, whether its forest and the later edges join t and h."""
        near = self._sets(rows) | later  # per vertex, the vertices one step away
        reach = near[:, t]
        while True:
            member = self._members(reach)
            if member[:, h].all():
                return member[:, h]
            grown = np.bitwise_or.reduce(near, axis=1, where=member[:, :, None], initial=0)
            if np.array_equal(grown, reach):
                return member[:, h]
            reach = grown

    def _advance(self, rows: np.ndarray, level: int) -> np.ndarray:
        """Decide one edge for a block: chord, include child, exclude child."""
        t, h, word, bit, xs, later = self.levels[level]
        stay = rows[:, t * self.words + h // 64] >> h % 64 & 1 == 1  # h in t's tree: a chord
        inc = np.logical_not(stay).nonzero()[0]
        k = len(inc)
        if not k:
            return rows
        if later is None:  # the later edges alone join t and h
            stay[:] = True
        else:
            stay[inc] = self._bypassed(rows.take(inc, axis=0), later, t, h)
        rows = rows.take(np.concatenate((stay.nonzero()[0], inc)), axis=0)
        new = rows[-k:]
        sets = self._sets(new)
        moved = self._members(sets[:, h])  # h's tree, re-anchored at t's anchor
        for (_, cols, values), x in zip(self.pots, xs):
            pot = new[:, cols].view(values.dtype).reshape(k, len(x), self.n)
            shift = pot[:, :, t] + x - pot[:, :, h]
            pot += shift[:, :, None] * moved[:, None, :]
        merged = sets[:, t] | sets[:, h]
        np.copyto(sets, merged[:, None, :], where=self._members(merged)[:, :, None])
        new[:, word] |= bit
        return rows

    def blocks(self) -> Iterator[np.ndarray]:
        """Blocks of spanning states, one row each, every tree once."""
        stack = [(0, self.rows0)]
        while stack:
            level, rows = stack.pop()
            while level < len(self.levels):
                rows = self._advance(rows, level)
                level += 1
                if len(rows) > _BLOCK_STATES:
                    half = len(rows) // 2
                    stack.append((level, rows[half:].copy()))
                    rows = rows[:half]
            yield rows

    def edges_of(self, rows: np.ndarray) -> list[tuple[int, ...]]:
        """The tree of every spanning state as ascending edge ids (each has nu - 1)."""
        edges = self._tree_edges(rows).nonzero()[1].reshape(len(rows), self.n - 1)
        return list(map(tuple, edges.tolist()))

    def chord_masks(self, rows: np.ndarray) -> np.ndarray:
        """(S, forms, E): per spanning state and form, the chords with nonzero flux."""
        s = len(rows)
        masks = np.empty((s, len(self.pots), self.num_edges), dtype=bool)
        for k, (x, cols, values) in enumerate(self.pots):
            pot = rows[:, cols].view(values.dtype).reshape(s, len(values), self.n)
            flux = values + pot.take(self.tails, axis=2) - pot.take(self.heads, axis=2)
            np.logical_or.reduce(x.is_nonzero(flux), axis=1, out=masks[:, k])
        masks &= ~self._tree_edges(rows)[:, None, :]
        return masks


def first_spanning_tree(g: FundamentalGraph) -> tuple[int, ...]:
    """The lexicographically smallest spanning tree, first in enumeration order.

    Kruskal by ascending edge id: greedy gives the lexicographically
    smallest basis of the graphic matroid. Raises DisconnectedGraphError
    when the edges span no tree.
    """
    tree = g.spanning_forest()
    if len(tree) != g.num_vertices - 1:
        raise DisconnectedGraphError("spanning trees need a connected graph")
    return tree


def _checked_tree_count(g: FundamentalGraph, cap: int) -> tuple[int, tuple[int, ...]]:
    """The exact tree count, refused above the cap, and the first tree."""
    tree = first_spanning_tree(g)
    count = spanning_tree_count(g)
    if count > cap:
        raise TreeCountExceedsCapError(f"{count} spanning trees exceed the cap {cap}")
    return count, tree


def _scanned_column(x: OneForm) -> OneForm:
    """The form a tree scan carries for a nonzero form x.

    Refuses an integer form whose |values| sum above int64 in some
    component (IndexOverflowError): that sum B bounds every tree
    potential and flux of the component. An integer form of dim d > 1
    becomes the one column x @ (1, R, ..., R^(d-1)), R = 2B + 1. Sums
    are linear, so its potentials and fluxes are those of x packed the
    same way, and digits of size at most B < R/2 make a packed flux
    zero exactly when every component is. The scanner's sums reach
    3B per component (a value and two potentials), so x is packed only
    when 3B * (1 + R + ... + R^(d-1)) fits in int64.
    """
    if not x.exact:
        return x
    b = max(sum(map(abs, col)) for col in x.values.T.tolist())
    if b > INT64_MAX:
        raise IndexOverflowError(
            "an integer form's values sum above int64, so its potentials could overflow"
        )
    weights = [(2 * b + 1) ** s for s in range(x.dim)]
    if x.dim == 1 or 3 * b * sum(weights) > INT64_MAX:
        return x
    return OneForm(x.values.astype(np.int64) @ np.array(weights, dtype=np.int64))


def _check_leaves(found: int, count: int) -> None:
    if found != count:
        raise CheckFailedError(
            f"enumerated {found} trees but the Laplacian cofactor says {count}"
        )


def enumerate_spanning_trees(
    g: FundamentalGraph, cap: int = DEFAULT_TREE_CAP
) -> list[tuple[int, ...]]:
    """All spanning trees as ascending edge-id tuples, in lexicographic order.

    Raises TreeCountExceedsCapError when the exact count exceeds the
    cap (the graph is too large for exhaustive minimality certification).
    Materializes every tree; the library itself streams with scan_trees.
    """
    count, _ = _checked_tree_count(g, cap)
    scanner = _TreeScanner(g)
    out = sorted(tree for rows in scanner.blocks() for tree in scanner.edges_of(rows))
    _check_leaves(len(out), count)
    return out


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


def _first_row(keys: np.ndarray) -> int:
    """Row of the largest key (words compared in order): the lexicographically first tree."""
    return int(np.lexsort(keys.T[::-1])[-1])


def scan_trees(
    g: FundamentalGraph, forms: Sequence[OneForm], cap: int = DEFAULT_TREE_CAP
) -> TreeScan:
    """Score every form on every spanning tree in one streaming pass.

    "First" means lexicographically smallest tree edge-id set, the
    enumeration order (the largest tree key of a _TreeScanner); the
    first tree of all is the Kruskal tree of the connectivity check.
    Memory stays flat in the number of trees: only the distinct minimal
    supports are kept. The scanner carries only what it must: a form
    whose values are all exactly zero has zero flux on every cycle, so
    it is not scanned and scores (0, first tree, 0, {0}), what scanning
    it would give; an integer form of dim > 1 is scanned as one packed
    int64 column when its size allows (_scanned_column), which gives
    the same nonzero chords. Raises DimensionMismatchError before any
    work when a form does not have one row per edge,
    TreeCountExceedsCapError before scanning when the exact count
    exceeds the cap, IndexOverflowError when an integer form could
    overflow int64, and CheckFailedError if the scan does not find
    exactly that many trees.
    """
    for x in forms:
        g.check_form(x)
    count, first = _checked_tree_count(g, cap)
    live = [k for k, x in enumerate(forms) if np.any(x.values)]
    scanner = _TreeScanner(g, [_scanned_column(forms[k]) for k in live])
    best: list[list | None] = [None] * len(live)  # [count, tree, support, supports]
    leaves = 0
    for rows in scanner.blocks():
        leaves += len(rows)
        keys = rows[:, scanner.tree_col :].view(np.uint64)  # the largest is the first tree
        masks = scanner.chord_masks(rows)
        counts = masks.sum(axis=2)
        supports = np.packbits(masks, axis=2, bitorder="little")  # bit i of byte j: edge 8j + i
        for k, cur in enumerate(best):
            low = int(counts[:, k].min())
            if cur is not None and low > cur[0]:
                continue
            ties = (counts[:, k] == low).nonzero()[0]
            row = ties[_first_row(keys[ties])]
            (tree,), mask = scanner.edges_of(rows[row : row + 1]), supports[row, k].tobytes()
            found = np.ascontiguousarray(supports[ties, k])
            found = set(found.view(f"V{found.shape[1]}").ravel().tolist())
            if cur is None or low < cur[0]:
                best[k] = [low, tree, mask, found]
                continue
            cur[3] |= found
            if tree < cur[1]:
                cur[1], cur[2] = tree, mask
    _check_leaves(leaves, count)

    def as_int(support: bytes) -> int:
        return int.from_bytes(support, "little")

    scans = [FormScan(0, first, 0, frozenset({0}))] * len(forms)
    for k, (c, tree, m, s) in zip(live, best):  # type: ignore[misc]
        scans[k] = FormScan(c, tree, as_int(m), frozenset(map(as_int, s)))
    return TreeScan(tree_count=leaves, first_tree=first, forms=tuple(scans))


# -- fluxes --------------------------------------------------------------------


def _chords(g: FundamentalGraph, tree: Sequence[int]) -> list[int]:
    """The edge ids not in tree, ascending."""
    tree_set = set(tree)
    return [i for i in range(g.num_edges) if i not in tree_set]


def flux_table(g: FundamentalGraph, form: OneForm, tree: Sequence[int]) -> np.ndarray:
    """(beta, dim) fluxes of a form through the basic cycles of a spanning tree.

    Row i belongs to the i-th chord in ascending id. The basic cycle of
    chord c is c followed by the tree path from its head back to its
    tail, read off the parent steps of _rooted_tree and summed step by
    step in path order; a loop is its own basic cycle. Magnetic fluxes
    are reduced modulo 2*pi into (-pi, pi]. Raises what g.check_form
    raises, and GraphDataError when tree is not a spanning tree of g.
    """
    g.check_form(form)
    order, up = _rooted_tree(g, tree)
    rank = {v: i for i, v in enumerate(order)}
    values, rows = form.values, []
    for c in _chords(g, tree):
        # the tree path head -> tail climbs from the end reached later,
        # never past the two ends' common ancestor, and then descends to tail
        a, b, climb, descent = g.edges[c].head, g.edges[c].tail, [], []
        while a != b:
            if rank[a] > rank[b]:
                a, eid, sign = up[a]  # type: ignore[misc]
                climb.append((eid, -sign))
            else:
                b, eid, sign = up[b]  # type: ignore[misc]
                descent.append((eid, sign))
        total = np.zeros(form.dim, dtype=values.dtype) + values[c]
        for eid, sign in climb + descent[::-1]:
            total = total + sign * values[eid]
        rows.append(np.array([reduce_angle(float(total[0]))]) if form.magnetic else total)
    return np.stack(rows) if rows else np.zeros((0, form.dim), dtype=values.dtype)


# -- minimal forms ---------------------------------------------------------------


def tree_form(g: FundamentalGraph, x: OneForm, tree: Sequence[int]) -> OneForm:
    """The form vanishing on a spanning tree and equal to the chord fluxes of x on the chords.

    It is flux-equivalent to x, and supported on the chords whose basic
    cycles carry nonzero flux. Raises what flux_table raises.
    """
    values = np.zeros((g.num_edges, x.dim), dtype=np.int64 if x.exact else float)
    values[_chords(g, tree)] = flux_table(g, x, tree)
    return OneForm(values, magnetic=x.magnetic)


def _scanned_form(g: FundamentalGraph, x: OneForm, scan: FormScan) -> OneForm:
    """tree_form on the first minimal tree of a scan; a support that
    disagrees with the scanned count raises CheckFailedError."""
    mu = tree_form(g, x, scan.tree)
    if mu.support_size_oriented() != 2 * scan.count:
        raise CheckFailedError(
            f"minimal form supports {mu.support_size_oriented()} oriented edges, "
            f"the tree scan counted {scan.count} chords"
        )
    return mu


def minimal_form(
    g: FundamentalGraph, x: OneForm, cap: int = DEFAULT_TREE_CAP
) -> tuple[OneForm, tuple[int, ...], int]:
    """Smallest-support form with the fluxes of x.

    Scans every spanning tree, picks one minimizing the number of basic
    cycles with nonzero flux (ties broken by the enumeration order, i.e.
    lexicographically smallest tree edge-id set), and returns the
    tree_form of x on that tree, the tree and the count, which equals
    half the support size.
    """
    scan = scan_trees(g, (x,), cap=cap).forms[0]
    return _scanned_form(g, x, scan), scan.tree, scan.count


def chord_flux_matrix(g: FundamentalGraph, tree: Sequence[int]) -> np.ndarray:
    """d x beta integer matrix whose columns are index-form chord fluxes on a spanning tree."""
    return flux_table(g, g.index_form(), tree).T.astype(np.int64)


def invariants(
    g: FundamentalGraph,
    cap: int = DEFAULT_TREE_CAP,
    scan: TreeScan | None = None,
) -> InvariantReport:
    """Betti number and the minimal-support invariants of the graph.

    I counts half the support of a minimal form flux-equivalent to the
    index form, I_alpha the same for the phase form, and the pair
    invariant half the union support; the union value is reported both
    for the lexicographic pair of minimal trees and minimized over all
    minimal pairs (over their distinct supports, which gives the same
    minimum). Raises FluxImageNotFullLatticeError when the index fluxes
    span a proper sublattice of Z^d, in which case the graph is not the
    fundamental graph of any genuinely d-periodic graph. A scan of the
    (index, phase) forms that the caller already holds is reused, not
    repeated.
    """
    if scan is None:
        scan = scan_trees(g, (g.index_form(), g.magnetic_form()), cap=cap)
    if not lattice_image_check(chord_flux_matrix(g, scan.first_tree)):
        raise FluxImageNotFullLatticeError(
            "index fluxes do not span Z^d; the graph is not a d-periodic fundamental graph"
        )
    tau, alpha = scan.forms
    if not g.dim <= tau.count <= g.beta:
        raise CheckFailedError(f"I = {tau.count} lies outside [d, beta] = [{g.dim}, {g.beta}]")

    return InvariantReport(
        beta=g.beta,
        d=g.dim,
        I=tau.count,
        I_alpha=alpha.count,
        I_mu_phi=(tau.mask | alpha.mask).bit_count(),
        I_mu_phi_min=min((s | t).bit_count() for s in tau.supports for t in alpha.supports),
        tree_count=scan.tree_count,
        lattice_image_ok=True,
    )


def minimal_pair(
    g: FundamentalGraph, cap: int = DEFAULT_TREE_CAP, scan: TreeScan | None = None
) -> tuple[OneForm, OneForm]:
    """Lexicographic minimal pair (index-class form, phase-class form).

    Reuses a given scan of the (index, phase) forms instead of scanning.
    """
    forms = (g.index_form(), g.magnetic_form())
    if scan is None:
        scan = scan_trees(g, forms, cap=cap)
    mu, phi = (_scanned_form(g, x, s) for x, s in zip(forms, scan.forms))
    return mu, phi
