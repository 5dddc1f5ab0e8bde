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
from dataclasses import asdict, dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    CheckFailedError,
    DisconnectedGraphError,
    FluxImageNotFullLatticeError,
    IndexOverflowError,
    OpenPathError,
    TreeCountExceedsCapError,
)
from .graph_model import INT64_MAX, TWO_PI, FundamentalGraph, OneForm, reduce_angle

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

_BLOCK_STATES = 512  # a block of partial forests is split above this many states


def _nonzero_phase(f: np.ndarray) -> np.ndarray:
    """abs(math.remainder(f, 2*pi)) > ZERO_FLUX_TOL, elementwise.

    fmod is exact, and for a = |fmod(f, 2*pi)| >= pi so is 2*pi - a
    (Sterbenz), hence min(a, 2*pi - a) is |remainder| exactly.
    """
    a = np.abs(np.fmod(f, TWO_PI))
    return np.minimum(a, TWO_PI - a) > ZERO_FLUX_TOL


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

    Each state is one row of two arrays, and needs no union-find.
    `ints` holds the vertex set of every vertex's tree as bit words
    (vertex v is bit v % 64 of word v // 64), for every exact channel
    the potential p(v) of every vertex relative to an anchor of its
    tree, and the included edges as bit-reversed words (edge e is bit
    63 - e % 64 of word e // 64), so the largest key is the
    lexicographically smallest edge set. `flts` holds the potentials of
    the phase and real channels. Edge t -> h is a chord when h is in
    t's set. Including it with value x adds (p(t) + x) - p(h) to every
    vertex of h's set, which fixes p(h) = p(t) + x, and then joins the
    two sets. Every potential stays a path sum in its tree, so exact
    channels are exact in int64 under _check_int64_range. Once a state
    spans, the flux of chord c is x(c) + p(t) - p(h), so no cycle is
    walked: exact channels compare with zero, phases modulo 2*pi and
    real channels against ZERO_FLUX_TOL.
    """

    def __init__(self, g: FundamentalGraph, forms: Sequence[OneForm] = ()) -> None:
        n = self.n = g.num_vertices
        edges = self.num_edges = g.num_edges
        self.tails = np.array([e.tail for e in g.edges], dtype=np.intp)
        self.heads = np.array([e.head for e in g.edges], dtype=np.intp)
        # channels in [exact | phase | real] order; a form's channels are contiguous
        kinds = [
            _ANGLE if x.magnetic else _EXACT if np.issubdtype(x.values.dtype, np.integer) else _REAL
            for x in forms
        ]
        cols: dict[int, list[np.ndarray]] = {_EXACT: [], _ANGLE: [], _REAL: []}
        for x, kind in zip(forms, kinds):
            cols[kind] += [x.values[:, c] for c in range(x.dim)]
        at = {_EXACT: 0, _ANGLE: len(cols[_EXACT]), _REAL: len(cols[_EXACT]) + len(cols[_ANGLE])}
        self.spans: list[tuple[int, int]] = []  # per form, its channel range
        for x, kind in zip(forms, kinds):
            self.spans.append((at[kind], at[kind] + x.dim))
            at[kind] += x.dim
        self.angles = len(cols[_ANGLE])
        exact = np.array(cols[_EXACT], dtype=np.int64).reshape(-1, edges)
        floats = np.array(cols[_ANGLE] + cols[_REAL], dtype=float).reshape(-1, edges)
        # columns of ints: vertex sets, exact potentials, tree
        self.words = -(-n // 64)  # words per vertex set
        sets_end = self.words * n
        # value groups: (array 0 = ints / 1 = flts, potential columns, values)
        self.groups = [
            grp for grp in (
                (0, slice(sets_end, sets_end + len(exact) * n), exact),
                (1, slice(0, len(floats) * n), floats),
            ) if len(grp[2])
        ]
        self.tree_col = sets_end + len(exact) * n
        self.ints0 = np.zeros((1, self.tree_col + (-(-edges // 64) or 1)), dtype=np.int64)
        self.ints0[0, :sets_end] = self._bit_words([1 << v for v in range(n)]).ravel()
        self.flts0 = np.zeros((1, len(floats) * n))
        v = np.arange(n)
        self.vertex_words, self.vertex_bits = v // 64, v % 64
        e = np.arange(edges)
        self.edge_words, self.edge_bits = self.tree_col + e // 64, 63 - e % 64
        # per non-loop edge: its ends, tree word and bit, values per group,
        # and per vertex the set joined to it by the later non-loop edges
        # (None when those alone join the ends)
        sets = [1 << v for v in range(n)]
        self.levels = []
        for eid in reversed([i for i, e in enumerate(g.edges) if not e.is_loop]):
            t, h = g.edges[eid].tail, g.edges[eid].head
            self.levels.append((
                t, h, self.tree_col + eid // 64,
                np.array(1 << (63 - eid % 64), dtype=np.uint64).view(np.int64),
                [values[:, eid] for _, _, values in self.groups],
                None if sets[t] >> h & 1 else self._bit_words(sets),
            ))
            merged = sets[t] | sets[h]
            sets = [merged if merged >> u & 1 else s for u, s in enumerate(sets)]
        self.levels.reverse()

    def _bit_words(self, sets: list[int]) -> np.ndarray:
        """(len(sets), words) int64 words of vertex sets given as Python bitmasks."""
        words = [(s >> (64 * i)) & (2**64 - 1) for s in sets for i in range(self.words)]
        return np.array(words, dtype=np.uint64).view(np.int64).reshape(len(sets), self.words)

    def _sets(self, ints: np.ndarray) -> np.ndarray:
        """(S, nu, words) view: the vertex set of every vertex's tree."""
        return ints[:, : self.words * self.n].reshape(len(ints), self.n, self.words)

    def _members(self, words: np.ndarray) -> np.ndarray:
        """(S, nu) bool: per row of (S, words) vertex-set words, whether each vertex is in it."""
        return words[:, self.vertex_words] >> self.vertex_bits & 1 == 1

    def _bypassed(self, ints: np.ndarray, later: np.ndarray, t: int, h: int) -> np.ndarray:
        """Per state, whether its forest and the later edges join t and h."""
        near = self._sets(ints) | later  # per vertex, the vertices one step away
        reach = near[:, t]
        while True:
            member = self._members(reach)
            if np.logical_and.reduce(member[:, h], axis=None):
                return member[:, h]
            grown = np.bitwise_or.reduce(near * member[:, :, None], axis=1)
            if np.array_equal(grown, reach):
                return member[:, h]
            reach = grown

    def _advance(self, ints: np.ndarray, flts: np.ndarray, level: int) -> tuple:
        """Decide one edge for a block: chord, include child, exclude child."""
        t, h, word, bit, xs, later = self.levels[level]
        stay = ints[:, t * self.words + h // 64] >> h % 64 & 1 == 1  # h in t's tree: a chord
        inc = np.logical_not(stay).nonzero()[0]
        k = len(inc)
        if not k:
            return ints, flts
        if later is None:  # the later edges alone join t and h
            stay[:] = True
        else:
            stay[inc] = self._bypassed(ints.take(inc, axis=0), later, t, h)
        order = np.concatenate((stay.nonzero()[0], inc))
        ints, flts = ints.take(order, axis=0), flts.take(order, axis=0)
        new = ints[-k:]
        sets = self._sets(new)
        moved = self._members(sets[:, h])  # h's tree, re-anchored at t's anchor
        for (which, cols, _), x in zip(self.groups, xs):
            pot = (ints, flts)[which][-k:, cols].reshape(k, len(x), self.n)
            shift = pot[:, :, t] + x - pot[:, :, h]
            pot += shift[:, :, None] * moved[:, None, :]
        merged = sets[:, t] | sets[:, h]
        np.copyto(sets, merged[:, None, :], where=self._members(merged)[:, :, None])
        new[:, word] |= bit
        return ints, flts

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Blocks (ints, flts) of spanning states, every tree once."""
        stack = [(0, self.ints0, self.flts0)]
        while stack:
            level, ints, flts = stack.pop()
            while level < len(self.levels):
                ints, flts = self._advance(ints, flts, level)
                level += 1
                if len(ints) > _BLOCK_STATES:
                    half = len(ints) // 2
                    stack.append((level, ints[half:].copy(), flts[half:].copy()))
                    ints, flts = ints[:half], flts[:half]
            yield ints, flts

    def keys(self, ints: np.ndarray) -> np.ndarray:
        """(S, words) tree keys; the largest is the lexicographically first tree."""
        return ints[:, self.tree_col :].view(np.uint64)

    def edges_of(self, key: Sequence[int]) -> tuple[int, ...]:
        return tuple(e for e in range(self.num_edges) if key[e // 64] >> (63 - e % 64) & 1)

    def chord_masks(self, ints: np.ndarray, flts: np.ndarray) -> np.ndarray:
        """(S, forms, E): per spanning state and form, the chords with nonzero flux."""
        s = len(ints)
        flux = np.empty((s, sum(len(x) for _, _, x in self.groups), self.num_edges), dtype=bool)
        for which, cols, x in self.groups:
            c = len(x)
            pot = (ints, flts)[which][:, cols].reshape(s, c, self.n)
            lifted = x + pot.take(self.tails, axis=2)
            if which == 0:
                np.not_equal(lifted, pot.take(self.heads, axis=2), out=flux[:, :c])
                continue
            f = lifted - pot.take(self.heads, axis=2)
            flux[:, -c:][:, : self.angles] = _nonzero_phase(f[:, : self.angles])
            flux[:, -c:][:, self.angles :] = np.abs(f[:, self.angles :]) > ZERO_FLUX_TOL
        masks = np.empty((s, len(self.spans), self.num_edges), dtype=bool)
        for k, (lo, hi) in enumerate(self.spans):
            np.logical_or.reduce(flux[:, lo:hi], axis=1, out=masks[:, k])
        tree = ints.take(self.edge_words, axis=1) >> self.edge_bits & 1
        masks &= (tree == 0)[:, None, :]
        return masks


def _first_tree(g: FundamentalGraph) -> tuple[int, ...]:
    """Kruskal by ascending edge id: greedy gives the lexicographically
    smallest basis of the graphic matroid. Raises DisconnectedGraphError
    when the edges span no tree."""
    tree = g.spanning_forest()
    if len(tree) != g.num_vertices - 1:
        raise DisconnectedGraphError("spanning trees need a connected graph")
    return tree


def _checked_tree_count(g: FundamentalGraph, cap: int) -> tuple[int, tuple[int, ...]]:
    """The exact tree count, refused above the cap, and the first tree."""
    tree = _first_tree(g)
    count = spanning_tree_count(g)
    if count > cap:
        raise TreeCountExceedsCapError(f"{count} spanning trees exceed the cap {cap}")
    return count, tree


def _check_int64_range(forms: Sequence[OneForm]) -> None:
    """Refuse an integer form whose |values| sum above int64: that sum
    bounds every tree potential and flux of the form."""
    for x in forms:
        if x.magnetic or not np.issubdtype(x.values.dtype, np.integer):
            continue
        for col in x.values.T.tolist():
            if sum(map(abs, col)) > INT64_MAX:
                raise IndexOverflowError(
                    "an integer form's values sum above int64, so its potentials could overflow"
                )


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
    count, _ = _checked_tree_count(g, cap)
    scanner = _TreeScanner(g)
    keys = [key for ints, _ in scanner.blocks() for key in scanner.keys(ints).tolist()]
    out = [_basis_for_tree(g, tree) for tree in sorted(map(scanner.edges_of, keys))]
    _check_leaves(len(out), count)
    return out


def first_spanning_tree(g: FundamentalGraph) -> SpanningTreeBasis:
    """The lexicographically smallest spanning tree, first in enumeration order.

    Raises DisconnectedGraphError when the edges span no tree.
    """
    return _basis_for_tree(g, _first_tree(g))


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


def scan_trees(g: FundamentalGraph, forms: Sequence[OneForm], cap: int = 10**6) -> TreeScan:
    """Score every form on every spanning tree in one streaming pass.

    "First" means lexicographically smallest tree edge-id set, the
    enumeration order (the largest tree key of a _TreeScanner); the
    first tree of all is the Kruskal tree of the connectivity check.
    Memory stays flat in the number of trees: only the distinct minimal
    supports are kept. Raises TreeCountExceedsCapError before scanning
    when the exact count exceeds the cap, IndexOverflowError when an
    integer form could overflow int64, and CheckFailedError if the scan
    does not find exactly that many trees.
    """
    count, first = _checked_tree_count(g, cap)
    _check_int64_range(forms)
    scanner = _TreeScanner(g, forms)
    best: list[list | None] = [None] * len(forms)  # [count, tree key, support, supports]
    leaves = 0
    for ints, flts in scanner.blocks():
        leaves += len(ints)
        keys = scanner.keys(ints)
        masks = scanner.chord_masks(ints, flts)
        counts = masks.sum(axis=2)
        supports = np.packbits(masks, axis=2, bitorder="little")  # bit i of byte j: edge 8j + i
        for k, cur in enumerate(best):
            low = int(counts[:, k].min())
            if cur is not None and low > cur[0]:
                continue
            rows = (counts[:, k] == low).nonzero()[0]
            row = rows[_first_row(keys[rows])]
            key, mask = keys[row].tolist(), supports[row, k].tobytes()
            found = np.ascontiguousarray(supports[rows, k])
            found = set(found.view(f"V{found.shape[1]}").ravel().tolist())
            if cur is None or low < cur[0]:
                best[k] = [low, key, mask, found]
                continue
            cur[3] |= found
            if key > cur[1]:
                cur[1], cur[2] = key, mask
    _check_leaves(leaves, count)

    def as_int(support: bytes) -> int:
        return int.from_bytes(support, "little")

    return TreeScan(
        tree_count=leaves,
        first_tree=first,
        forms=tuple(
            FormScan(c, scanner.edges_of(key), as_int(m), frozenset(map(as_int, s)))
            for c, key, m, s in best  # type: ignore[misc]
        ),
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


def flux_table(g: FundamentalGraph, form: OneForm, basis: SpanningTreeBasis) -> np.ndarray:
    """(beta, dim) fluxes of a form through the basic cycles of a tree basis, row i = chords[i]."""
    if basis.chords:
        return np.stack([flux(g, form, c) for c in basis.cycles])
    return np.zeros((0, form.dim), dtype=form.values.dtype)


# -- minimal forms ---------------------------------------------------------------


def tree_form(g: FundamentalGraph, x: OneForm, basis: SpanningTreeBasis) -> OneForm:
    """The form vanishing on the tree of basis and equal to the chord fluxes of x on the chords.

    It is flux-equivalent to x, and supported on the chords whose basic
    cycles carry nonzero flux.
    """
    integral = not x.magnetic and np.issubdtype(x.values.dtype, np.integer)
    values = np.zeros((g.num_edges, x.dim), dtype=np.int64 if integral else float)
    values[list(basis.chords)] = flux_table(g, x, basis)
    return OneForm(values, magnetic=x.magnetic)


def _scanned_form(
    g: FundamentalGraph, x: OneForm, scan: FormScan
) -> tuple[OneForm, SpanningTreeBasis, int]:
    """tree_form on the first minimal tree of a scan; a support that
    disagrees with the scanned count raises CheckFailedError."""
    basis = _basis_for_tree(g, scan.tree)
    mu = tree_form(g, x, basis)
    if mu.support_size_oriented() != 2 * scan.count:
        raise CheckFailedError(
            f"minimal form supports {mu.support_size_oriented()} oriented edges, "
            f"the tree scan counted {scan.count} chords"
        )
    return mu, basis, scan.count


def minimal_form(
    g: FundamentalGraph, x: OneForm, cap: int = 10**6
) -> tuple[OneForm, SpanningTreeBasis, int]:
    """Smallest-support form with the fluxes of x.

    Scans every spanning tree, picks one minimizing the number of basic
    cycles with nonzero flux (ties broken by the enumeration order, i.e.
    lexicographically smallest tree edge-id set), and returns the
    tree_form of x on that tree, the tree basis and the count, which
    equals half the support size.
    """
    return _scanned_form(g, x, scan_trees(g, (x,), cap=cap).forms[0])


def chord_flux_matrix(g: FundamentalGraph, basis: SpanningTreeBasis) -> np.ndarray:
    """d x beta integer matrix whose columns are index-form chord fluxes."""
    return flux_table(g, g.index_form(), basis).T.astype(np.int64)


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
    g: FundamentalGraph, cap: int = 10**6, scan: TreeScan | None = None
) -> tuple[OneForm, OneForm]:
    """Lexicographic minimal pair (index-class form, phase-class form).

    Reuses a given scan of the (index, phase) forms instead of scanning.
    """
    forms = (g.index_form(), g.magnetic_form())
    if scan is None:
        scan = scan_trees(g, forms, cap=cap)
    mu, phi = (_scanned_form(g, x, s)[0] for x, s in zip(forms, scan.forms))
    return mu, phi
