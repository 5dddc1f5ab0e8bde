import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from magspec import (
    AlphaOutOfRangeError,
    BadIndexLengthError,
    BadParamsError,
    DimensionMismatchError,
    DisconnectedGraphError,
    GraphDataError,
    IndexOverflowError,
    NonFinitePotentialError,
    dump_graph_json,
    enumerate_spanning_trees,
    flux_table,
    generate,
    graph_from_dict,
    graph_to_dict,
    invariants,
    load_graph_json,
    reduce_angle,
    validate,
)
from magspec.graph_model import Edge, FundamentalGraph, OneForm

from conftest import KAGOME_POSITIONS, coordinate_form, diamond_graph


# -- angle reduction -----------------------------------------------------------


def test_reduce_angle_boundaries():
    assert reduce_angle(math.pi) == pytest.approx(math.pi)
    assert reduce_angle(-math.pi) == pytest.approx(math.pi)
    assert reduce_angle(0.0) == 0.0
    assert reduce_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_reduce_angle_is_mod_2pi(x):
    r = reduce_angle(x)
    assert -math.pi < r <= math.pi + 1e-15
    assert math.remainder(x - r, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)


# -- validation ----------------------------------------------------------------


def test_validate_z2():
    g = generate("zd", 2)
    assert validate(g) is None
    assert (g.num_vertices, g.beta, g.kappa_plus()) == (1, 2, 4)


def test_validate_diamond_graph():
    g = diamond_graph()
    assert validate(g) is None
    assert (g.num_vertices, g.num_edges, g.beta) == (5, 7, 3)
    assert g.is_connected()


def test_validate_kagome():
    g = generate("kagome")
    assert validate(g) is None
    assert (g.num_vertices, g.beta, g.kappa_plus()) == (3, 4, 4)
    assert list(g.degrees()) == [4, 4, 4]


def test_loop_counts_twice_in_degree():
    g = FundamentalGraph(dim=1, num_vertices=2,
                         edges=(Edge(0, 0, (1,)), Edge(0, 1, (0,))))
    assert g.ends().tolist() == [[0, 0], [0, 1]]
    assert list(g.degrees()) == [3, 1]
    # a weight lands at the tail and at the head, so the loop adds its weight twice
    masked = g.degrees(np.array([True, False]))
    assert masked.dtype == np.int64 and list(masked) == [2, 0]
    weighted = g.degrees([0.25, 1.5])
    assert weighted.dtype == np.float64 and list(weighted) == [2.0, 1.5]


def test_check_form_wants_one_row_per_edge_and_the_asked_columns(kagome):
    kagome.check_form(kagome.index_form())
    kagome.check_form(kagome.index_form(), 2)
    cases = [(OneForm(np.zeros((5, 2))), None), (OneForm(np.zeros((7, 2))), 2),
             (kagome.index_form(), 1)]
    for form, dim in cases:
        with pytest.raises(DimensionMismatchError, match=r"form has shape \(\d, 2\)"):
            kagome.check_form(form, dim)


def test_validate_rejects_disconnected():
    g = FundamentalGraph(dim=1, num_vertices=2, edges=(Edge(0, 0, (1,)),))
    with pytest.raises(DisconnectedGraphError):
        validate(g)


def test_validate_rejects_bad_index_length():
    g = FundamentalGraph(dim=2, num_vertices=1, edges=(Edge(0, 0, (1,)),))
    with pytest.raises(BadIndexLengthError):
        validate(g)


def test_validate_rejects_out_of_range_phase():
    g = FundamentalGraph(dim=1, num_vertices=1, edges=(Edge(0, 0, (1,), alpha=4.0),))
    with pytest.raises(AlphaOutOfRangeError):
        validate(g)


def test_validate_rejects_index_outside_int64():
    for x in (2**63, -(2**63) - 1, 10**20):
        g = FundamentalGraph(dim=1, num_vertices=1, edges=(Edge(0, 0, (x,)),))
        with pytest.raises(IndexOverflowError):
            validate(g)
    for x in (2**63 - 1, -(2**63), np.int64(5)):
        validate(FundamentalGraph(dim=1, num_vertices=1, edges=(Edge(0, 0, (x,)),)))


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
def test_validate_rejects_non_finite_potential(q):
    g = generate("hexagonal").with_potential([0.5, q])
    with pytest.raises(NonFinitePotentialError):
        validate(g)


def test_validate_rejects_nonpositive_dim():
    g = FundamentalGraph(dim=0, num_vertices=1, edges=())
    with pytest.raises(BadParamsError):
        validate(g)


# -- stored forms and antisymmetry ----------------------------------------------


def test_index_form_antisymmetry(kagome):
    tau = kagome.index_form()
    for eid in range(kagome.num_edges):
        assert np.array_equal(tau.value(eid, -1), -tau.value(eid, 1))


def test_magnetic_form_reduced_and_antisymmetric():
    g = generate("zd", 1).with_phases([2.5])
    a = g.magnetic_form()
    assert -math.pi < a.values[0, 0] <= math.pi
    assert a.value(0, -1) == -a.value(0, 1)


# -- coordinate form -------------------------------------------------------------


def test_coordinate_form_flux_matches_index_flux(kagome):
    kappa = coordinate_form(kagome, KAGOME_POSITIONS)
    tau = kagome.index_form()
    for tree in enumerate_spanning_trees(kagome):
        assert np.allclose(flux_table(kagome, kappa, tree), flux_table(kagome, tau, tree),
                           atol=1e-12)


def test_invariant_is_embedding_independent(kagome):
    from magspec import minimal_form

    other = np.array([[0.1, 0.2], [0.3, 0.7], [0.8, 0.4]])
    counts = []
    for positions in (KAGOME_POSITIONS, other):
        _, _, beta_x = minimal_form(kagome, coordinate_form(kagome, positions))
        counts.append(beta_x)
    assert counts[0] == counts[1] == 3


# -- generators -------------------------------------------------------------------


def test_generate_z2_loops():
    g = generate("zd", 2)
    assert g.num_vertices == 1
    assert sorted(e.index for e in g.edges) == [(0, 1), (1, 0)]
    assert all(e.is_loop for e in g.edges)


def test_generate_kagome_indices():
    g = generate("kagome")
    nonzero = sorted(e.index for e in g.edges if any(e.index))
    assert nonzero == [(-1, 0), (0, 1), (1, -1)]
    assert g.num_edges == 6


def test_generate_decorated_tree_beta():
    g = generate("decorated", 2)  # default decoration: 2-vertex tree
    assert g.beta == 2
    rep = invariants(g)
    assert (rep.I, rep.beta) == (2, 2)


def test_generate_decorated_with_cycle_decoration():
    # triangle decoration has first Betti number 1
    g = generate("decorated", 2, decoration=[(0, 1), (1, 2), (2, 0)])
    assert g.beta == 1 + 2
    assert invariants(g).I == 2


@pytest.mark.parametrize("kind,kwargs", [
    ("zd", {"d": 0}),
    ("decorated", {"d": 0}),
    ("hexagonal", {"d": 3}),
    ("nope", {}),
    # d loops with d-long indices: memory and output would grow as d^2
    ("zd", {"d": 1025}),
    ("decorated", {"d": 1025}),
])
def test_generate_bad_params(kind, kwargs):
    with pytest.raises(BadParamsError):
        generate(kind, **kwargs)


def test_generate_decorated_rejects_disconnected_decoration():
    with pytest.raises(BadParamsError):
        generate("decorated", 1, decoration=[(1, 2)])  # vertex 0 isolated


# -- JSON ---------------------------------------------------------------------------


def test_json_round_trip(tmp_path, kagome):
    path = tmp_path / "kagome.json"
    dump_graph_json(kagome, path)
    g2 = load_graph_json(path)
    assert g2.dim == kagome.dim
    assert g2.num_vertices == kagome.num_vertices
    assert [e.index for e in g2.edges] == [e.index for e in kagome.edges]
    assert [(e.tail, e.head) for e in g2.edges] == [(e.tail, e.head) for e in kagome.edges]
    assert np.allclose(g2.potential, kagome.potential)


def test_json_canonical_key_order(z2):
    data = graph_to_dict(z2.with_potential([0.5]))
    assert list(data.keys()) == ["dim", "vertices", "edges", "potential"]
    assert list(data["edges"][0].keys()) == ["tail", "head", "index", "alpha"]


def test_json_phase_normalized_on_load():
    data = {
        "dim": 1,
        "vertices": ["a"],
        "edges": [{"tail": "a", "head": "a", "index": [1], "alpha": 7.0}],
    }
    g = graph_from_dict(data)
    assert -math.pi < g.edges[0].alpha <= math.pi
    assert g.edges[0].alpha == pytest.approx(reduce_angle(7.0))


def test_json_vertex_names_map_in_file_order():
    data = {
        "dim": 1,
        "vertices": ["x", "y"],
        "edges": [{"tail": "y", "head": "x", "index": [0]}],
        "potential": {"y": 2.0},
    }
    g = graph_from_dict(data)
    assert (g.edges[0].tail, g.edges[0].head) == (1, 0)
    assert g.potential[1] == 2.0


@pytest.mark.parametrize(
    "data",
    [
        {"dim": 1, "vertices": ["a", "a"], "edges": []},
        {"dim": 1, "vertices": ["a"], "edges": [{"tail": "a", "head": "b", "index": [0]}]},
        {"dim": 1, "vertices": ["a"], "edges": [{"tail": "a", "head": "a"}]},
        {"dim": 1, "vertices": ["a"], "edges": [], "potential": {"zz": 1.0}},
        {"vertices": ["a"], "edges": []},
    ],
)
def test_json_rejects_malformed(data):
    with pytest.raises(GraphDataError):
        graph_from_dict(data)


def test_json_decoration_file_may_omit_indices():
    data = {"dim": 0, "vertices": ["a", "b"], "edges": [{"tail": "a", "head": "b"}]}
    g = graph_from_dict(data)
    assert g.edges[0].index == ()


def test_load_rejects_unreadable_file(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(GraphDataError):
        load_graph_json(bad)
