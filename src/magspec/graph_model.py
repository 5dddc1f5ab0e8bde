"""Finite fundamental graphs of periodic discrete multigraphs.

A d-periodic graph is represented by its finite quotient: a multigraph
(loops and parallel edges allowed) whose unoriented edges each carry an
integer translation index of length d, a phase in (-pi, pi], and whose
vertices carry a real potential. Each stored edge record fixes a
canonical orientation; the reverse orientation is synthesized on demand
with negated index and phase, so antisymmetry holds by construction.

The vertex degree counts oriented edges starting at the vertex, hence a
loop contributes 2 (many graph libraries count 1).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    AlphaOutOfRangeError,
    BadIndexLengthError,
    BadParamsError,
    BettiBelowRankError,
    DimensionMismatchError,
    DisconnectedGraphError,
    GraphDataError,
    IndexOverflowError,
    NonFinitePotentialError,
)

TWO_PI = 2.0 * math.pi
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
SUPPORT_TOL = 1e-9  # |real value or flux|, or |phase| mod 2*pi, above this is nonzero
GEN_MAX_INDEX_ENTRIES = 1 << 20  # zd and decorated hold d indices of length d: d <= 1024


def reduce_angle(x: float) -> float:
    """Reduce an angle modulo 2*pi into (-pi, pi]."""
    r = math.remainder(x, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def reduce_angles(x: np.ndarray) -> np.ndarray:
    """Vectorized reduction modulo 2*pi into (-pi, pi]."""
    r = np.remainder(np.asarray(x, dtype=float) + math.pi, TWO_PI) - math.pi
    return np.where(r == -math.pi, math.pi, r)


@dataclass(frozen=True)
class Edge:
    """Unoriented edge stored in its canonical orientation.

    The implicit reverse orientation carries index -index and phase -alpha.
    """

    tail: int
    head: int
    index: tuple[int, ...]
    alpha: float = 0.0

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


@dataclass(frozen=True, eq=False)
class OneForm:
    """Antisymmetric edge function with values in R^n.

    Values are stored on canonical orientations only, one row per edge;
    value(e, -1) is the negation. Magnetic forms (n=1, values modulo
    2*pi) are reduced into (-pi, pi] on construction.
    """

    values: np.ndarray
    magnetic: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.ndim == 1:
            v = v[:, None]
        if self.magnetic:
            if v.shape[1] != 1:
                raise GraphDataError("magnetic forms are scalar valued")
            v = reduce_angles(v)
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def num_edges(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        """Value dimension n."""
        return self.values.shape[1]

    def value(self, edge_id: int, sign: int = 1) -> np.ndarray:
        return sign * self.values[edge_id]

    @property
    def exact(self) -> bool:
        """Integer valued and not magnetic: its values and fluxes are exact."""
        return not self.magnetic and np.issubdtype(self.values.dtype, np.integer)

    def integer_values(self) -> np.ndarray:
        """(E, n) int64 values of a finite form within 1e-9 of integers; GraphDataError otherwise."""
        vals = self.values
        if self.exact:
            return vals.astype(np.int64)
        if not np.all(np.isfinite(vals)):  # before rint: inf - rint(inf) is NaN and warns
            raise GraphDataError("expected a finite form")
        rounded = np.rint(vals)
        if np.max(np.abs(vals - rounded)) > 1e-9:
            raise GraphDataError("expected an integer-valued form")
        return rounded.astype(np.int64)

    def is_nonzero(self, f: np.ndarray) -> np.ndarray:
        """Elementwise whether values or fluxes f of this form are nonzero.

        Exact forms compare with zero, real ones test |f| > SUPPORT_TOL and
        magnetic ones |math.remainder(f, 2*pi)| > SUPPORT_TOL, exactly: fmod
        is exact, and for a = |fmod(f, 2*pi)| >= pi so is 2*pi - a (Sterbenz).
        """
        if self.exact:
            return f != 0
        if self.magnetic:
            a = np.abs(np.fmod(f, TWO_PI))
            return np.minimum(a, TWO_PI - a) > SUPPORT_TOL
        return np.abs(f) > SUPPORT_TOL

    def support_mask(self) -> np.ndarray:
        """(E,) bool: whether each edge's value is nonzero (is_nonzero in some component)."""
        return self.is_nonzero(self.values).any(axis=1)

    def support(self) -> tuple[int, ...]:
        """Canonical edge ids with a nonzero value, ascending."""
        return tuple(np.flatnonzero(self.support_mask()).tolist())

    def support_size_oriented(self) -> int:
        """Number of oriented edges with nonzero value (twice the canonical count)."""
        return 2 * len(self.support())

    @classmethod
    def zeros(cls, num_edges: int, dim: int, magnetic: bool = False) -> "OneForm":
        return cls(np.zeros((num_edges, dim)), magnetic=magnetic)


@dataclass(frozen=True, eq=False)
class FundamentalGraph:
    """Fundamental graph of a d-periodic multigraph.

    Vertices are dense integers 0..nu-1; optional names are kept for
    serialization. Immutable after construction, safe for concurrent
    reads.
    """

    dim: int
    num_vertices: int
    edges: tuple[Edge, ...]
    potential: np.ndarray = None  # type: ignore[assignment]
    vertex_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        q = self.potential
        if q is None:
            q = np.zeros(self.num_vertices)
        q = np.asarray(q, dtype=float)
        q.setflags(write=False)
        object.__setattr__(self, "potential", q)
        object.__setattr__(self, "edges", tuple(self.edges))

    # -- basic combinatorics --------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def beta(self) -> int:
        """First Betti number, #edges - #vertices + 1 (connected graphs)."""
        return self.num_edges - self.num_vertices + 1

    def ends(self) -> np.ndarray:
        """(E, 2) read-only array of every edge's (tail, head), in edge-id order."""
        if "_ends" not in self.__dict__:  # built on first use: validate runs after construction
            ends = np.array([(e.tail, e.head) for e in self.edges], dtype=np.intp).reshape(-1, 2)
            ends.setflags(write=False)
            object.__setattr__(self, "_ends", ends)
        return self.__dict__["_ends"]

    def degrees(self, weights: Sequence | np.ndarray | None = None) -> np.ndarray:
        """Weighted vertex degrees, int64 unless the per-edge weights (default 1) are floats.

        Each edge adds its weight at its tail, then at its head, in edge-id order: a loop twice.
        """
        w = np.ones(self.num_edges, dtype=np.int64) if weights is None else np.asarray(weights)
        deg = np.zeros(self.num_vertices, dtype=np.result_type(w, np.int64))
        np.add.at(deg, self.ends().ravel(), np.repeat(w, 2))
        return deg

    def kappa_plus(self) -> int:
        return int(self.degrees().max())

    def oriented_edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (edge_id, sign, tail, head) over all oriented edges."""
        for i, e in enumerate(self.edges):
            yield i, 1, e.tail, e.head
            yield i, -1, e.head, e.tail

    def spanning_forest(self) -> tuple[int, ...]:
        """Edge ids Kruskal keeps, scanning edges in ascending id.

        A spanning tree exactly when the graph is connected, and then
        the lexicographically smallest one.
        """
        parent = list(range(self.num_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        kept = []
        for eid, e in enumerate(self.edges):
            a, b = find(e.tail), find(e.head)
            if a != b:
                parent[a] = b
                kept.append(eid)
        return tuple(kept)

    def is_connected(self) -> bool:
        return len(self.spanning_forest()) == self.num_vertices - 1

    def check_form(self, x: OneForm, dim: int | None = None) -> None:
        """DimensionMismatchError unless x has a row per edge (and dim columns, if given)."""
        if x.num_edges != self.num_edges or dim not in (None, x.dim):
            want = f"{self.num_edges} rows" if dim is None else f"({self.num_edges}, {dim})"
            raise DimensionMismatchError(f"form has shape {x.values.shape}, expected {want}")

    # -- stored forms ----------------------------------------------------

    def index_matrix(self) -> np.ndarray:
        """(E, d) integer matrix of canonical edge indices."""
        return np.array([e.index for e in self.edges], dtype=np.int64).reshape(
            self.num_edges, self.dim
        )

    def index_form(self) -> OneForm:
        """The integer translation-index 1-form."""
        return OneForm(self.index_matrix())

    def magnetic_form(self) -> OneForm:
        """The stored phase 1-form, values in (-pi, pi]."""
        return OneForm(np.array([e.alpha for e in self.edges], dtype=float), magnetic=True)

    def with_potential(self, q: Sequence[float]) -> "FundamentalGraph":
        return replace(self, potential=np.asarray(q, dtype=float))

    def with_phases(self, alphas: Sequence[float]) -> "FundamentalGraph":
        """Copy of the graph with replaced edge phases (reduced into (-pi, pi])."""
        alphas = list(alphas)
        if len(alphas) != self.num_edges:
            raise GraphDataError("phase list length mismatch")
        new_edges = tuple(
            replace(e, alpha=reduce_angle(float(a))) for e, a in zip(self.edges, alphas)
        )
        return replace(self, edges=new_edges)

    def name_of(self, v: int) -> str:
        return self.vertex_names[v] if self.vertex_names else str(v)


def validate(g: FundamentalGraph) -> None:
    """Check the structural invariants of the graph.

    Raises BadParamsError, BadIndexLengthError, IndexOverflowError,
    AlphaOutOfRangeError, NonFinitePotentialError,
    DisconnectedGraphError or BettiBelowRankError on the first violated
    invariant.
    """
    if g.dim < 1:
        raise BadParamsError(f"lattice rank must be positive, got {g.dim}")
    if g.num_vertices < 1:
        raise BadParamsError("graph needs at least one vertex")
    for i, e in enumerate(g.edges):
        if not (0 <= e.tail < g.num_vertices and 0 <= e.head < g.num_vertices):
            raise BadParamsError(f"edge {i} endpoint out of range")
        if len(e.index) != g.dim:
            raise BadIndexLengthError(
                f"edge {i} index has length {len(e.index)}, expected {g.dim}"
            )
        if not all(INT64_MIN <= x <= INT64_MAX for x in e.index):
            raise IndexOverflowError(f"edge {i} index {e.index} does not fit in int64")
        if not (-math.pi < e.alpha <= math.pi):
            raise AlphaOutOfRangeError(f"edge {i} phase {e.alpha} outside (-pi, pi]")
    if not np.all(np.isfinite(g.potential)):
        raise NonFinitePotentialError("vertex potentials must be finite")
    if not g.is_connected():
        raise DisconnectedGraphError("fundamental graph must be connected")
    if g.beta < g.dim:
        raise BettiBelowRankError(
            f"first Betti number {g.beta} is below the lattice rank {g.dim}; "
            "the index fluxes cannot span Z^d"
        )


# -- generators ---------------------------------------------------------------


def _unit_index(d: int, s: int) -> tuple[int, ...]:
    return tuple(1 if t == s else 0 for t in range(d))


def generate(kind: str, d: int | None = None,
             decoration: Sequence[tuple[int, int]] | None = None,
             ) -> FundamentalGraph:
    """Build one of the stock fundamental graphs.

    kind 'zd' needs 1 <= d <= 1024; 'hexagonal' and 'kagome' are fixed at
    d=2; 'decorated' takes the same d and glues a finite connected graph,
    given as (tail, head) pairs (vertex 0 is the gluing point, all its
    edges get index 0), onto the d-dimensional lattice vertex that
    carries the d unit-index loops.
    """
    if kind in ("zd", "decorated"):
        if d is None or d < 1:
            raise BadParamsError(f"{kind} requires d >= 1")
        if d * d > GEN_MAX_INDEX_ENTRIES:
            raise BadParamsError(
                f"{kind} needs d*d <= GEN_MAX_INDEX_ENTRIES = {GEN_MAX_INDEX_ENTRIES}, got d = {d}"
            )
    if kind == "zd":
        edges = tuple(Edge(0, 0, _unit_index(d, s)) for s in range(d))
        return FundamentalGraph(dim=d, num_vertices=1, edges=edges, vertex_names=("v0",))

    if kind == "hexagonal":
        if d not in (None, 2):
            raise BadParamsError("hexagonal lattice is two dimensional")
        edges = (
            Edge(0, 1, (0, 0)),
            Edge(0, 1, (1, 0)),
            Edge(0, 1, (0, 1)),
        )
        return FundamentalGraph(dim=2, num_vertices=2, edges=edges, vertex_names=("v1", "v2"))

    if kind == "kagome":
        if d not in (None, 2):
            raise BadParamsError("kagome lattice is two dimensional")
        # Three corner-sharing vertices; the three out-of-cell edges carry
        # the nonzero indices, the in-cell triangle carries zeros.
        edges = (
            Edge(0, 2, (0, 0)),
            Edge(2, 1, (0, 0)),
            Edge(1, 0, (0, 0)),
            Edge(0, 2, (-1, 0)),
            Edge(2, 1, (1, -1)),
            Edge(1, 0, (0, 1)),
        )
        return FundamentalGraph(dim=2, num_vertices=3, edges=edges,
                                vertex_names=("v1", "v2", "v3"))

    if kind == "decorated":
        pairs = [(0, 1)] if decoration is None else [(int(a), int(b)) for a, b in decoration]
        nv = max((max(a, b) for a, b in pairs), default=0) + 1
        zero = tuple(0 for _ in range(d))
        edges = tuple(Edge(0, 0, _unit_index(d, s)) for s in range(d)) + tuple(
            Edge(a, b, zero) for a, b in pairs
        )
        g = FundamentalGraph(dim=d, num_vertices=nv, edges=edges)
        if not g.is_connected():
            raise BadParamsError("decoration graph must be connected")
        return g

    raise BadParamsError(f"unknown generator kind {kind!r}")


# -- JSON serialization -------------------------------------------------------


def _real(x):
    """x itself when it is a number; booleans and strings are refused, not converted."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{x!r} is not a number")
    return x


def _integer(x) -> int:
    """int(x), refusing a number with a fractional part instead of truncating it."""
    x = _real(x)
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def graph_from_dict(data: dict) -> FundamentalGraph:
    """Parse the JSON graph schema; phases are reduced into (-pi, pi].

    Any field of the wrong type or out of numeric range raises
    GraphDataError. Booleans and strings are not numbers, and vertex
    names and edge ends are name strings.
    """
    try:
        dim = _integer(data["dim"])
        names = data["vertices"]
        raw_edges = data["edges"]
        raw_potential = data.get("potential")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GraphDataError(f"malformed graph data: {exc}") from exc
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise GraphDataError("vertices must be a list of name strings")
    if not isinstance(raw_edges, list):
        raise GraphDataError("edges must be a list")
    if raw_potential is None:
        raw_potential = {}
    elif not isinstance(raw_potential, dict):
        raise GraphDataError("potential must map vertex names to numbers")
    if len(set(names)) != len(names):
        raise GraphDataError("duplicate vertex names")
    ids = {name: i for i, name in enumerate(names)}
    edges = []
    for k, rec in enumerate(raw_edges):
        try:
            tail = ids[rec["tail"]]
            head = ids[rec["head"]]
            if "index" in rec:
                index = tuple(_integer(x) for x in rec["index"])
            elif dim == 0:
                index = ()  # finite decoration graphs carry no indices
            else:
                raise GraphDataError(f"edge {k} is missing its index")
            alpha = reduce_angle(float(_real(rec.get("alpha", 0.0))))
        except KeyError as exc:
            raise GraphDataError(f"edge {k} references unknown vertex {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphDataError(f"edge {k} is malformed: {exc}") from exc
        edges.append(Edge(tail, head, index, alpha))
    potential = np.zeros(len(names))
    for name, q in raw_potential.items():
        if name not in ids:
            raise GraphDataError(f"potential references unknown vertex {name!r}")
        try:
            potential[ids[name]] = float(_real(q))
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphDataError(f"potential of vertex {name!r} is malformed: {exc}") from exc
    return FundamentalGraph(
        dim=dim,
        num_vertices=len(names),
        edges=tuple(edges),
        potential=potential,
        vertex_names=tuple(names),
    )


def graph_to_dict(g: FundamentalGraph) -> dict:
    """Canonical dict form: fixed key order, edges in storage order."""
    data: dict = {
        "dim": g.dim,
        "vertices": [g.name_of(v) for v in range(g.num_vertices)],
        "edges": [
            {
                "tail": g.name_of(e.tail),
                "head": g.name_of(e.head),
                "index": list(e.index),
                "alpha": float(e.alpha),
            }
            for e in g.edges
        ],
    }
    if np.any(g.potential != 0.0):
        data["potential"] = {
            g.name_of(v): float(q) for v, q in enumerate(g.potential) if q != 0.0
        }
    return data


def load_graph_json(path: str | Path) -> FundamentalGraph:
    """The graph of a JSON file; a file that cannot be read, is not
    UTF-8, is not JSON or nests too deeply raises GraphDataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise GraphDataError(f"cannot read graph file {path}: {exc}") from exc
    return graph_from_dict(data)


def dump_graph_json(g: FundamentalGraph, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=2)
        fh.write("\n")
