import json
import math

import pytest

from magspec import dump_graph_json, generate, load_graph_json
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
