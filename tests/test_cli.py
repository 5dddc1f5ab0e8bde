import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import magspec.cli as cli
import magspec.spectral as spectral
from magspec import NonFiniteOutputError, dump_graph_json, generate, graph_to_dict, load_graph_json
from magspec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def kagome_file(tmp_path):
    path = tmp_path / "kagome.json"
    dump_graph_json(generate("kagome"), path)
    return str(path)


@pytest.fixture()
def z2_file(tmp_path):
    path = tmp_path / "z2.json"
    dump_graph_json(generate("zd", 2), path)
    return str(path)


def test_gen_writes_loadable_graph(tmp_path, capsys):
    out = tmp_path / "hex.json"
    code, _, _ = run(capsys, "gen", "hexagonal", "--out", str(out))
    assert code == 0
    assert load_graph_json(out).num_vertices == 2


def test_gen_decorated_with_decoration_file(tmp_path, capsys):
    deco = tmp_path / "deco.json"
    deco.write_text(json.dumps({
        "dim": 0,
        "vertices": ["center", "a", "b"],
        "edges": [{"tail": "center", "head": "a"}, {"tail": "a", "head": "b"}],
    }), encoding="utf-8")
    out = tmp_path / "g.json"
    code, _, _ = run(capsys, "gen", "decorated", "--dim", "2",
                     "--decoration", str(deco), "--out", str(out))
    assert code == 0
    g = load_graph_json(out)
    assert g.num_vertices == 3
    assert g.beta == 2


def test_invariants_kagome(capsys, kagome_file):
    code, out, _ = run(capsys, "invariants", kagome_file)
    assert code == 0
    data = json.loads(out)
    assert data["beta"] == 4 and data["I"] == 3
    # canonical key order in the report
    assert list(data.keys()) == [
        "beta", "d", "I", "I_alpha", "I_mu_phi", "I_mu_phi_min",
        "tree_count", "lattice_image_ok",
    ]


def test_invariants_z2(capsys, z2_file):
    code, out, _ = run(capsys, "invariants", z2_file)
    assert code == 0
    data = json.loads(out)
    assert data["beta"] == 2 and data["I"] == 2


def test_invariants_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "invariants", str(bad))
    assert code == 2
    assert err.strip()


def test_corrupted_index_vector_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "dim": 2,
        "vertices": ["a"],
        "edges": [{"tail": "a", "head": "a", "index": [1]}],
    }), encoding="utf-8")
    code, _, err = run(capsys, "invariants", str(path))
    assert code == 2
    assert "index" in err


def _write_loop_graph(tmp_path, index: str, potential: str) -> str:
    # written as text so that the file holds exactly the tokens under test
    path = tmp_path / "loop.json"
    path.write_text(
        '{"dim": 1, "vertices": ["a", "b"], "edges": ['
        '{"tail": "a", "head": "a", "index": [%s]}, {"tail": "a", "head": "b", "index": [0]}], '
        '"potential": {"a": %s}}' % (index, potential),
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("command", ["invariants", "bands", "verify"])
@pytest.mark.parametrize("potential", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_non_finite_potential_exits_2(tmp_path, capsys, command, potential):
    code, out, err = run(capsys, command, _write_loop_graph(tmp_path, "1", potential))
    assert code == 2
    assert out == ""
    assert "potentials must be finite" in err


@pytest.mark.parametrize("command", ["invariants", "bands", "verify"])
def test_index_outside_int64_exits_2(tmp_path, capsys, command):
    code, out, err = run(capsys, command, _write_loop_graph(tmp_path, str(10**20), "0.5"))
    assert code == 2
    assert out == ""
    assert "does not fit in int64" in err


def test_bands_summary_and_csv(tmp_path, capsys, z2_file):
    csv_path = tmp_path / "bands.csv"
    code, out, _ = run(capsys, "bands", z2_file, "--grid", "41", "--out", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["measure"] == pytest.approx(8.0, abs=1e-3)
    assert summary["bound_4I"] == 8.0
    assert summary["flat"] == [False]
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "theta_1,theta_2,lambda_1"
    assert len(lines) == 1 + 41 * 41
    # 12 significant digits in CSV cells
    assert lines[1].split(",")[0] == f"{-math.pi:.12g}"


def test_bands_deterministic_output(capsys, kagome_file):
    code1, out1, _ = run(capsys, "bands", kagome_file, "--grid", "21")
    code2, out2, _ = run(capsys, "bands", kagome_file, "--grid", "21")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["flat"] == [False, False, True]


def test_verify_generators_pass(tmp_path, capsys):
    for kind, d, grid in (("zd", 1, 41), ("zd", 2, 31), ("hexagonal", None, 31),
                          ("kagome", None, 31), ("decorated", 2, 31)):
        path = tmp_path / f"{kind}{d}.json"
        dump_graph_json(generate(kind, d), path)
        code, out, err = run(capsys, "verify", str(path), "--grid", str(grid))
        assert code == 0, (kind, err)
        report = json.loads(out)
        assert report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert "localization_and_measure" in names
        assert "perturbation_sandwich" in names
        assert "bottom_of_spectrum" in names  # all generators carry zero phases


def test_verify_with_phases_skips_bottom_check(tmp_path, capsys):
    g = generate("zd", 2).with_phases([1.0, 0.5])
    path = tmp_path / "z2a.json"
    dump_graph_json(g, path)
    code, out, _ = run(capsys, "verify", str(path), "--grid", "31")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "bottom_of_spectrum" not in names


def test_verify_deterministic_output(capsys, kagome_file):
    code1, out1, _ = run(capsys, "verify", kagome_file, "--grid", "21", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", kagome_file, "--grid", "21", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_exit_1_names_failing_check(capsys, kagome_file, monkeypatch):
    import magspec.cli as cli
    from magspec import CheckFailedError

    def boom(*args, **kwargs):
        raise CheckFailedError("synthetic failure")

    monkeypatch.setattr(cli, "verify_gauge_equivalence", boom)
    code, out, err = run(capsys, "verify", kagome_file, "--grid", "21")
    assert code == 1
    assert "gauge_equivalence" in err
    report = json.loads(out)
    assert report["passed"] is False
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed and failed[0]["name"] == "gauge_equivalence"


def test_butterfly_single_step(capsys, z2_file):
    code, out, _ = run(capsys, "butterfly", z2_file, "--flux-steps", "1", "--grid", "31")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "flux,lambda_min_1,lambda_max_1"
    assert len(lines) == 2
    flux, lo, hi = (float(x) for x in lines[1].split(","))
    assert (lo, hi) == (pytest.approx(0.0, abs=1e-9), pytest.approx(8.0, abs=1e-9))


def test_butterfly_half_flux_symmetry(capsys, z2_file):
    code, out, _ = run(capsys, "butterfly", z2_file, "--flux-steps", "2", "--grid", "41")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2  # totient(1) + totient(2)
    cells = rows[1].split(",")
    assert float(cells[0]) == pytest.approx(math.pi)
    lo1, hi1, lo2, hi2 = (float(x) for x in cells[1:5])
    assert lo1 + hi2 == pytest.approx(8.0, abs=1e-9)
    assert hi1 + lo2 == pytest.approx(8.0, abs=1e-9)


def test_butterfly_row_count_follows_totients(capsys, z2_file):
    code, out, _ = run(capsys, "butterfly", z2_file, "--flux-steps", "6", "--grid", "21")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) - 1 == 1 + 1 + 2 + 2 + 4 + 2
    # ragged rows are padded to the header width
    width = len(rows[0].split(","))
    assert all(len(r.split(",")) == width for r in rows[1:])


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_butterfly_rejects_flux_steps_below_one(capsys, z2_file, steps):
    code, out, err = run(capsys, "butterfly", z2_file, "--flux-steps", steps)
    assert code == 2
    assert out == ""
    assert "--flux-steps" in err


def test_butterfly_refuses_over_budget_grid_before_any_solve(capsys, monkeypatch, z2_file):
    # 1700^2 points fit the budget for q = 1 but not for q = 12
    monkeypatch.setattr(spectral, "fiber_stack", None)  # any solve would raise TypeError
    code, out, err = run(capsys, "butterfly", z2_file, "--flux-steps", "12", "--grid", "1700")
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_butterfly_rejects_incompatible_graph(capsys, kagome_file):
    code, _, err = run(capsys, "butterfly", kagome_file, "--flux-steps", "2")
    assert code == 2
    assert "square-lattice" in err


def test_build_periodic_round_trip(tmp_path, capsys, kagome_file):
    out1 = tmp_path / "built.json"
    code, _, _ = run(capsys, "build-periodic", kagome_file, "--out", str(out1))
    assert code == 0
    out2 = tmp_path / "built2.json"
    code, _, _ = run(capsys, "build-periodic", str(out1), "--out", str(out2))
    assert code == 0
    assert out1.read_text(encoding="utf-8") == out2.read_text(encoding="utf-8")


def test_build_periodic_rejects_sublattice(tmp_path, capsys):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({
        "dim": 2,
        "vertices": ["a"],
        "edges": [
            {"tail": "a", "head": "a", "index": [2, 0]},
            {"tail": "a", "head": "a", "index": [0, 1]},
        ],
    }), encoding="utf-8")
    code, _, err = run(capsys, "build-periodic", str(path))
    assert code == 2
    assert "sublattice" in err


def _write_hexagonal_with(tmp_path, field: str, raw: str) -> str:
    """The hexagonal graph JSON with one top-level field replaced by raw JSON text."""
    data = graph_to_dict(generate("hexagonal"))
    data[field] = "@"
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(data).replace('"@"', raw), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("field,raw", [
    ("dim", '"x"'),
    ("dim", "1e400"),
    ("dim", "2.7"),
    ("potential", '{"v1": "abc"}'),
    ("potential", "[1]"),
    ("edges", "5"),
    pytest.param("edges", '[{"tail": "v1", "head": "v2", "index": [0, 0]}, '
                          '{"tail": "v1", "head": "v2", "index": [1.9, 0]}, '
                          '{"tail": "v1", "head": "v2", "index": [0, 1]}]',
                 id="edges-fractional-index"),
])
def test_malformed_top_level_field_exits_2(tmp_path, capsys, field, raw):
    code, out, err = run(capsys, "invariants", _write_hexagonal_with(tmp_path, field, raw))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_integral_floats_still_load(tmp_path, capsys):
    data = graph_to_dict(generate("hexagonal"))
    data["dim"] = 2.0
    data["edges"][1]["index"] = [1.0, 0]
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 0
    assert json.loads(out)["I"] == 2


def test_betti_below_rank_exits_2_before_lattice_work(tmp_path, capsys, monkeypatch):
    import magspec.forms_cycles as fc

    def refuse(matrix):
        raise AssertionError("smith_normal_form must not run")

    monkeypatch.setattr(fc, "smith_normal_form", refuse)
    path = tmp_path / "huge-dim.json"
    path.write_text(json.dumps({"dim": 10**12, "vertices": ["a"], "edges": []}), encoding="utf-8")
    for command in ("invariants", "bands", "verify", "build-periodic"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2, command
        assert out == ""
        assert "below the lattice rank" in err


def test_int64_overflowing_potentials_exit_2(tmp_path, capsys):
    """Each index fits in int64, but the chord flux 2^62 - (-2^62) does not."""
    data = {"dim": 1, "vertices": ["a", "b"], "edges": [
        {"tail": "a", "head": "b", "index": [2**62]},
        {"tail": "a", "head": "b", "index": [-(2**62)]},
    ]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for command in ("invariants", "bands", "verify"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2, command
        assert out == ""
        assert "sum above int64" in err


def test_non_finite_output_is_a_named_failed_check(capsys, kagome_file, monkeypatch):
    import magspec.spectral as spectral

    monkeypatch.setattr(spectral, "union_measure", lambda intervals: math.nan)
    code, out, err = run(capsys, "bands", kagome_file, "--grid", "11")
    assert code == 1
    assert out == ""
    assert "non-finite" in err
    with pytest.raises(NonFiniteOutputError):
        cli._print_json({"measure": math.inf})


# Replacement values for a mutated field: wrong types, huge and non-finite numbers.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 1), max_size=2),
    st.sampled_from([0, -1, 3, 2.5, 10**400, -(10**30), 1e308, -1e308,
                     math.inf, -math.inf, math.nan]),
)
# Paths into the graph JSON of _mutation_base.
_PATHS = st.sampled_from([
    ("dim",), ("vertices",), ("edges",), ("potential",),
    ("vertices", 0), ("edges", 0), ("edges", 1, "tail"), ("edges", 1, "head"),
    ("edges", 2, "index"), ("edges", 2, "index", 0), ("edges", 0, "alpha"),
    ("potential", "v1"),
])


def _mutation_base() -> dict:
    data = graph_to_dict(generate("hexagonal").with_potential([0.5, 0.0]))
    data["edges"][0]["alpha"] = 1.0
    return data


@settings(max_examples=25, deadline=None)
@given(mutations=st.lists(st.tuples(_PATHS, _JUNK), min_size=1, max_size=2))
def test_cli_exit_code_contract_on_mutated_graphs(mutations):
    data = _mutation_base()
    for path, value in mutations:
        target = data
        try:
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed the container
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "g.json"
        graph.write_text(json.dumps(data), encoding="utf-8")
        for argv in (["invariants"], ["bands", "--grid", "5"], ["verify", "--grid", "5"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([argv[0], str(graph), *argv[1:]])
            assert code in (0, 1, 2), argv
            assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()
