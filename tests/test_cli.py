import argparse
import contextlib
import errno
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import magspec.cli as cli
import magspec.fiber_operator as fiber_operator
import magspec.spectral as spectral
from magspec import (
    BadParamsError,
    FundamentalGraph,
    NonFiniteOutputError,
    dump_graph_json,
    generate,
    graph_to_dict,
    load_graph_json,
)
from magspec.cli import main

from conftest import make_random_graph


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


@pytest.mark.parametrize("kind", [["zd", "--dim", "2"], ["hexagonal"], ["kagome"]])
def test_gen_refuses_a_decoration_for_other_kinds(tmp_path, capsys, kind):
    deco = tmp_path / "deco.json"  # a valid decoration, which decorated would glue on
    dump_graph_json(generate("zd", 1), deco)
    code, out, err = run(capsys, "gen", *kind, "--decoration", str(deco))
    assert (code, out) == (2, "")
    assert "--decoration needs kind decorated" in err


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 200_000], ids=["not-utf8", "deep-nesting"])
@pytest.mark.parametrize("command", [["invariants"], ["gen", "decorated", "--decoration"]])
def test_unreadable_graph_file_is_an_input_error(tmp_path, capsys, content, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, *command, str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read graph file") and "Traceback" not in err


def test_gen_refuses_a_dimension_above_the_limit_before_building(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "gen", "zd", "--dim", "1025")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "GEN_MAX_INDEX_ENTRIES" in err
    assert peak < 2**20


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


def test_main_builds_its_parser_once(capsys, monkeypatch, z2_file):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))  # subcommand parsers are "magspec <name>"
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    cli._parser.cache_clear()
    assert run(capsys, "invariants", z2_file)[0] == 0
    assert run(capsys, "invariants", z2_file)[0] == 0
    assert built.count("magspec") == 1


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


def test_band_csv_is_written_row_by_row(tmp_path):
    # one on_chunk call with a whole 101^2 grid, as band_sweep makes it at nu = 1
    g = generate("zd", 2)
    n = 101 * 101
    thetas = np.linspace(-3.0, 3.0, 2 * n).reshape(n, 2)
    eigs = np.linspace(0.0, 8.0, n).reshape(n, 1)
    path = tmp_path / "bands.csv"
    with path.open("w", encoding="utf-8") as f:
        tracemalloc.start()
        try:
            cli._band_csv(g, f)(thetas, eigs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size > 10**5 and peak < size  # the text is never held whole


def test_bands_deterministic_output(capsys, kagome_file):
    code1, out1, _ = run(capsys, "bands", kagome_file, "--grid", "21")
    code2, out2, _ = run(capsys, "bands", kagome_file, "--grid", "21")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["flat"] == [False, False, True]


def test_bands_has_no_flat_tol_option(capsys, kagome_file):
    # the flat-band threshold is spectral.FLAT_TOL; argparse refuses the old flag
    with pytest.raises(SystemExit) as exc:
        main(["bands", kagome_file, "--flat-tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --flat-tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bands", "verify"])
@pytest.mark.parametrize("data,grid,message", [
    (graph_to_dict(generate("zd", 2)), ["--grid", "40000"], "budget"),
    (graph_to_dict(generate("zd", 2)), ["--grid", "2"], "at least 3 points"),
    (graph_to_dict(generate("zd", 6)), [], "21^6 grid"),  # every d >= 6 at the default grid
], ids=["over-budget", "too-coarse", "zd6-default"])
def test_grid_is_refused_before_the_scan(tmp_path, capsys, monkeypatch, command, data, grid,
                                         message):
    def no_scan(*args, **kwargs):
        raise AssertionError(f"{command} scanned trees before refusing the grid")

    monkeypatch.setattr(spectral, "scan_trees", no_scan)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, command, str(path), *grid)
    assert (code, out) == (2, "")
    assert message in err


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


def test_verify_runs_bottom_check_on_gauged_lattices(tmp_path, capsys):
    # a gauge change by a vertex function leaves the phases without flux (I_alpha = 0)
    rng = np.random.default_rng(27)
    for kind in ("hexagonal", "kagome", "decorated"):
        g = generate(kind, 2 if kind == "decorated" else None)
        f = rng.uniform(-np.pi, np.pi, g.num_vertices)
        path = tmp_path / f"{kind}.json"
        dump_graph_json(g.with_phases([e.alpha + f[e.head] - f[e.tail] for e in g.edges]), path)
        code, out, err = run(capsys, "verify", str(path), "--grid", "21")
        assert (code, err) == (0, ""), kind
        report = json.loads(out)
        assert report["invariants"]["I_alpha"] == 0
        assert report["checks"][-1] == {"name": "bottom_of_spectrum", "passed": True,
                                        "detail": {"attained_at_zero": True}}


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


def test_pair_outside_the_flux_class_is_a_failed_gauge_check(capsys, kagome_file, monkeypatch):
    # gauge_weights raises FluxMismatchError, an input error, but the pairs of the
    # gauge check come from the scan, so a mismatch is a fault of the implementation
    from magspec.graph_model import OneForm

    real = spectral.tree_form

    def doubled_index(g, form, tree):
        out = real(g, form, tree)
        return out if out.magnetic else OneForm(2 * out.values)

    monkeypatch.setattr(spectral, "tree_form", doubled_index)
    code, out, err = run(capsys, "verify", kagome_file, "--grid", "21")
    assert code == 1
    assert err.strip() == "check failed: gauge_equivalence"
    assert "not flux-equivalent" in json.loads(out)["checks"][-1]["detail"]


def test_failed_check_ends_the_battery(capsys, kagome_file, monkeypatch):
    from magspec import CheckFailedError

    def boom(*args, **kwargs):
        raise CheckFailedError("synthetic failure")

    monkeypatch.setattr(cli, "verify_positive_splitting", boom)
    code, out, err = run(capsys, "verify", kagome_file, "--grid", "21")
    assert code == 1
    assert err.strip() == "check failed: positive_splitting"
    report = json.loads(out)
    assert report["passed"] is False
    # kagome carries zero phases, so a passing battery would end in bottom_of_spectrum
    assert [c["name"] for c in report["checks"]] == [
        "localization_and_measure", "gauge_equivalence", "positive_splitting",
    ]
    assert report["checks"][-1] == {
        "name": "positive_splitting", "passed": False, "detail": "synthetic failure",
    }


def test_failed_bottom_of_spectrum_check(capsys, kagome_file, monkeypatch):
    # the bottom check's theta = 0 solve is the battery's only one-row eigenvalue table
    real = spectral.eigenvalue_table

    def raised_at_zero(g, b, a, thetas):
        return real(g, b, a, thetas) + (1e-3 if len(thetas) == 1 else 0.0)

    monkeypatch.setattr(spectral, "eigenvalue_table", raised_at_zero)
    code, out, err = run(capsys, "verify", kagome_file, "--grid", "21")
    assert (code, err) == (1, "check failed: bottom_of_spectrum\n")
    report = json.loads(out)
    assert [c["passed"] for c in report["checks"]] == [True] * 5 + [False]
    assert report["checks"][-1] == {
        "name": "bottom_of_spectrum", "passed": False,
        "detail": "first band bottom is not attained at theta = 0",
    }


@pytest.mark.parametrize("bad_call,message", [
    (1, "minimal-pair exponent counts (0, 0, 0) disagree with invariants"),
    (2, "stored pair has fewer nontrivial exponents than the minimum"),
], ids=["minimal-pair", "stored-pair"])
def test_exponent_count_mismatch_fails_the_battery(capsys, kagome_file, monkeypatch,
                                                   bad_call, message):
    # the minimal pair is counted first, then the stored pair; call bad_call reads zero
    real = fiber_operator.count_nontrivial_exponents
    calls = []

    def count(g, b, a, *rest):
        calls.append(None)
        return (0, 0, 0) if len(calls) == bad_call else real(g, b, a, *rest)

    for module in (cli, spectral):  # wherever the battery binds it
        if hasattr(module, "count_nontrivial_exponents"):
            monkeypatch.setattr(module, "count_nontrivial_exponents", count)
    code, out, err = run(capsys, "verify", kagome_file, "--grid", "21")
    assert code == 1
    assert err.strip() == "check failed: exponent_counts"
    report = json.loads(out)
    assert report["passed"] is False
    assert [c["name"] for c in report["checks"]][-2:] == ["positive_splitting", "exponent_counts"]
    assert report["checks"][-1] == {"name": "exponent_counts", "passed": False, "detail": message}


@pytest.mark.parametrize("q", [1e8, 4e12, 1e16, 1e300])
def test_verify_passes_large_potentials(tmp_path, capsys, q):
    # eigenvalues of size q are rounded to a few ulp of q, far above 1e-9; up
    # to 2^42 the tolerances allow 64 ulp of q. Past it that allowance would
    # pass any band (at 1e17 Z^2 read flat), so such potentials are refused
    # before the scan; at 1e300 the Hermiticity scale once overflowed
    path = tmp_path / "kagome.json"
    dump_graph_json(generate("kagome").with_potential([q, 0.0, -q / 2]), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", str(path))
    if q > 2.0**42:
        assert (code, out) == (2, "")
        assert err.startswith("error: vertex potentials reach") and "above 2^42" in err
        return
    assert code == 0, err
    assert err == ""
    assert json.loads(out)["checks"][-1]["name"] == "bottom_of_spectrum"


@pytest.mark.parametrize("q", [0.0, 1e6, 1e9, 4e12])
def test_bands_flat_allows_the_rounding_of_the_potential(tmp_path, capsys, q):
    # kagome's third band is flat; a potential q at every vertex rounds its width
    # to 1.8e-6 at 1e9 and 4.4e-3 at 4e12, inside FLAT_TOL + 64 eps q (0.057 at
    # 4e12), while hexagonal's bands stay 2.8 wide
    for name, flat in (("kagome", [False, False, True]), ("hexagonal", [False, False])):
        g = generate(name)
        path = tmp_path / f"{name}.json"
        dump_graph_json(g.with_potential([q] * g.num_vertices), path)
        code, out, err = run(capsys, "bands", str(path), "--grid", "21")
        assert (code, err) == (0, ""), name
        assert json.loads(out)["flat"] == flat, name


# Rounding moves exp(i phase) by about eps * |phase|, and a fiber's phase
# a(e) + <b(e), theta> reaches pi * ||b(e)||_1: above 1e-9 for these indices,
# so a fixed 1e-9 tolerance fails each graph at seeds 0-2, on either grid.
LARGE_INDEX_GRAPHS = {
    # index 2^23, minimal form [0, -1]: the gauge check
    "gauge": {"dim": 1, "vertices": ["a", "b"], "edges": [
        {"tail": "a", "head": "b", "index": [8388608]},
        {"tail": "a", "head": "b", "index": [8388607]}]},
    # perturbation spread against twice the row-sum bound
    "spread": {"dim": 2, "vertices": ["v0"], "edges": [
        {"tail": "v0", "head": "v0", "index": [-450990, 674888], "alpha": 1e-10},
        {"tail": "v0", "head": "v0", "index": [-805141, 954423], "alpha": 2e-09},
        {"tail": "v0", "head": "v0", "index": [-735179, -571852], "alpha": 1e-10},
        {"tail": "v0", "head": "v0", "index": [29753, 43936], "alpha": -1e-10}]},
    # extreme perturbation eigenvalue against the row-sum bound
    "extreme": {"dim": 2, "vertices": ["v0", "v1"], "edges": [
        {"tail": "v0", "head": "v1", "index": [-420325, 159161], "alpha": -1e-10},
        {"tail": "v1", "head": "v1", "index": [-331977, 125440], "alpha": 1e-10},
        {"tail": "v1", "head": "v0", "index": [61451, 38652], "alpha": 1e-10},
        {"tail": "v1", "head": "v0", "index": [-861176, 67409], "alpha": 0.7736927449632454},
        {"tail": "v0", "head": "v0", "index": [338815, -876636], "alpha": 2e-09}],
        "potential": {"v0": 1000000.0, "v1": -1000000.0}},
}


@pytest.mark.parametrize("argv", [[], ["--grid", "21", "--seed", "2"]], ids=["default", "grid21"])
@pytest.mark.parametrize("name", list(LARGE_INDEX_GRAPHS))
def test_verify_passes_large_indices(tmp_path, capsys, name, argv):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(LARGE_INDEX_GRAPHS[name]), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path), *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["passed"] is True


def test_verify_passes_a_seeded_large_index_slice(tmp_path, capsys):
    # index entries up to 10^6; phases of 0, pi, +-1e-10 (below SUPPORT_TOL),
    # 2e-9 or uniform. Without the phase rounding term 5 of these graphs fail
    # the gauge check and 2 the row-sum bound of the perturbation check.
    rng = np.random.default_rng(2)
    path = tmp_path / "g.json"
    for i in range(30):
        g = make_random_graph(rng, max_nu=4, max_edges=6, max_index=10**6)
        kinds = rng.integers(0, 6, g.num_edges)
        fixed = np.array([0.0, np.pi, 1e-10, -1e-10, 2e-9, 0.0])[kinds]
        uniform = g.magnetic_form().values[:, 0]
        dump_graph_json(g.with_phases(np.where(kinds == 5, uniform, fixed)), path)
        code, out, err = run(capsys, "verify", str(path), "--grid", "21", "--seed", str(i % 3))
        assert (code, err) == (0, ""), f"graph {i}"


def test_indices_beyond_the_phase_limit_exit_2(tmp_path, capsys):
    # at index 2^46 the rounding allowance of the gauge check would pass 2, the
    # most a fiber entry can move, so verify and bands refuse the graph; its
    # invariants are exact integer work and still run
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"dim": 1, "vertices": ["a", "b"], "edges": [
        {"tail": "a", "head": "b", "index": [2**46]},
        {"tail": "a", "head": "b", "index": [2**46 - 1]}]}), encoding="utf-8")
    for command in ("verify", "bands"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert "above 2^42" in err
    assert run(capsys, "invariants", str(path))[0] == 0


def test_potentials_beyond_the_ceiling_exit_2(tmp_path, capsys):
    # at 1e17 the eigenvalues of Z^2 round to its potential, so bands once read
    # flat and verify passed; both refuse the graph, invariants still run
    path = tmp_path / "z2.json"
    dump_graph_json(generate("zd", 2).with_potential([1e17]), path)
    for command in ("verify", "bands"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert "above 2^42" in err
    assert run(capsys, "invariants", str(path))[0] == 0


# Phases below or near SUPPORT_TOL that verify once failed: the fiber carried
# them while C_phi, the vanishing-phase comparison or the stored pair's phase
# count read them as zero
NEAR_TOLERANCE_GRAPHS = {
    # theta0 = 0 leaves shifted phases of 9e-10 on two loops
    "loops": {"dim": 1, "vertices": ["a"], "edges": [
        {"tail": "a", "head": "a", "index": [1]},
        {"tail": "a", "head": "a", "index": [1], "alpha": 9e-10},
        {"tail": "a", "head": "a", "index": [1], "alpha": 9e-10}]},
    # two phases of 6e-10 add up to a chord flux of 1.2e-9, so I_alpha = 1
    "pair": {"dim": 1, "vertices": ["a", "b"], "edges": [
        {"tail": "a", "head": "b", "index": [0], "alpha": 6e-10},
        {"tail": "b", "head": "a", "index": [1], "alpha": 6e-10}]},
    # the theta0 shift moves an input phase of 2e-9 to -7.7e-10
    "shifted-under": {"dim": 1, "vertices": ["v0"], "edges": [
        {"tail": "v0", "head": "v0", "index": [2816159], "alpha": 2e-09},
        {"tail": "v0", "head": "v0", "index": [866894], "alpha": 0.0}],
        "potential": {"v0": 0.8486801535511337}},
}


@pytest.mark.parametrize("name", list(NEAR_TOLERANCE_GRAPHS))
def test_verify_passes_phases_near_the_support_tolerance(tmp_path, capsys, name):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(NEAR_TOLERANCE_GRAPHS[name]), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["passed"] is True


def test_near_tolerance_pair_runs_no_bottom_check(tmp_path, capsys):
    # its phases carry a chord flux of 1.2e-9, above SUPPORT_TOL
    path = tmp_path / "g.json"
    path.write_text(json.dumps(NEAR_TOLERANCE_GRAPHS["pair"]), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path), "--grid", "21")
    report = json.loads(out)
    assert (code, report["invariants"]["I_alpha"]) == (0, 1)
    assert "bottom_of_spectrum" not in [c["name"] for c in report["checks"]]


_OUT_COMMANDS = {
    "bands": ["bands", "{kagome}", "--grid", "5", "--out", "{out}/b.csv"],
    "gen": ["gen", "kagome", "--out", "{out}/k.json"],
    "build-periodic": ["build-periodic", "{kagome}", "--out", "{out}/p.json"],
    "butterfly": ["butterfly", "{z2}", "--flux-steps", "2", "--grid", "5", "--out", "{out}/x.csv"],
}


@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_out_in_missing_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                          kagome_file, z2_file, command):
    monkeypatch.setattr(spectral, "fiber_stack", None)  # a sweep would raise TypeError
    missing = tmp_path / "missing" / "d"
    argv = [a.format(kagome=kagome_file, z2=z2_file, out=missing) for a in _OUT_COMMANDS[command]]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --out directory") and "Traceback" not in err
    assert not missing.parent.exists()


def test_output_refuses_a_missing_directory_itself(tmp_path):
    with pytest.raises(BadParamsError, match=r"^--out directory .*missing does not exist$"):
        with cli._output(str(tmp_path / "missing" / "x.json")):
            raise AssertionError("the block ran for an --out it cannot write")


def _out_argv(command, kagome_file, z2_file, out_dir):
    return [a.format(kagome=kagome_file, z2=z2_file, out=out_dir) for a in _OUT_COMMANDS[command]]


@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, kagome_file, z2_file, command):
    # refused when the writer opens, before the command's work
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} started work on an --out it cannot write")

    for work in ("generate", "analyze", "build_periodic", "harper_band_edges"):
        monkeypatch.setattr(cli, work, no_work)
    argv = _out_argv(command, kagome_file, z2_file, tmp_path)
    Path(argv[-1]).mkdir()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out") and "Is a directory" in err


def _out_dir_after_failed_run(tmp_path, capsys, kagome_file, z2_file, command, existing):
    """Run command --out into a fresh directory, optionally over an existing file; its listing after."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = _out_argv(command, kagome_file, z2_file, out_dir)
    target = Path(argv[-1])
    if existing:
        target.write_bytes(b"kept\n")
    code, stdout, err = run(capsys, *argv)
    assert stdout == ""
    if existing:
        assert target.read_bytes() == b"kept\n"
    listing = sorted(p.name for p in out_dir.iterdir())
    assert listing == ([target.name] if existing else [])
    return code, err


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_bands_out_failed_range_check_leaves_the_target_alone(tmp_path, capsys, monkeypatch,
                                                             kagome_file, z2_file, existing):
    # every row is written before the range check can fail
    monkeypatch.setattr(FundamentalGraph, "kappa_plus", lambda self: -10)
    code, err = _out_dir_after_failed_run(tmp_path, capsys, kagome_file, z2_file, "bands", existing)
    assert code == 1
    assert "a-priori spectral range" in err


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_out_write_error_leaves_the_target_alone(tmp_path, capsys, monkeypatch, kagome_file,
                                                 z2_file, command, existing):
    # the disk is full at the first write into the temporary file
    real_output = cli._output

    @contextlib.contextmanager
    def full_disk(path):
        with real_output(path) as f:
            def write(text):
                raise OSError(errno.ENOSPC, "No space left on device")

            f.write = write
            yield f

    monkeypatch.setattr(cli, "_output", full_disk)
    code, err = _out_dir_after_failed_run(tmp_path, capsys, kagome_file, z2_file, command,
                                          existing)
    assert code == 2
    assert err.startswith("error: cannot write --out") and "No space left" in err


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_refused_move_prints_nothing_and_leaves_no_temporary_file(tmp_path, capsys, monkeypatch,
                                                                  kagome_file, z2_file, command,
                                                                  existing):
    # the OS refuses the final move, as EPERM does for another user's file in a sticky directory
    def refused(src, dst):
        raise PermissionError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(cli.os, "replace", refused)
    code, err = _out_dir_after_failed_run(tmp_path, capsys, kagome_file, z2_file, command,
                                          existing)
    assert code == 2
    assert err.startswith("error: cannot write --out") and "Operation not permitted" in err


@pytest.mark.parametrize("command", ["gen", "build-periodic", "butterfly"])
def test_out_gets_the_bytes_stdout_gets(tmp_path, capsys, kagome_file, z2_file, command):
    argv = _out_argv(command, kagome_file, z2_file, tmp_path)
    code, stdout, _ = run(capsys, *argv[:-2])
    assert code == 0 and stdout
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "")
    assert Path(argv[-1]).read_bytes() == stdout.encode("utf-8")


@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_out_keeps_the_mode_of_the_file_it_replaces(tmp_path, capsys, kagome_file, z2_file,
                                                    command):
    argv = _out_argv(command, kagome_file, z2_file, tmp_path)
    target = Path(argv[-1])
    target.write_bytes(b"old\n")
    target.chmod(0o600)
    assert run(capsys, *argv)[0] == 0
    assert target.read_bytes() != b"old\n"
    assert target.stat().st_mode & 0o7777 == 0o600
    # a new file gets the mode open(path, "w") gives one
    target.unlink()
    assert run(capsys, *argv)[0] == 0
    fresh = tmp_path / "fresh"
    fresh.open("w").close()
    assert target.stat().st_mode == fresh.stat().st_mode


def test_out_replaces_a_symlink_instead_of_writing_through_it(tmp_path, capsys):
    linked = tmp_path / "linked.json"
    linked.write_bytes(b"kept\n")
    target = tmp_path / "k.json"
    target.symlink_to(linked)
    assert run(capsys, "gen", "kagome", "--out", str(target))[0] == 0
    assert not target.is_symlink()
    assert load_graph_json(target).num_vertices == 3
    assert linked.read_bytes() == b"kept\n"


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


def test_verify_rejects_negative_seed_before_the_scan(capsys, monkeypatch, kagome_file):
    monkeypatch.setattr(cli, "analyze", None)  # a scan would raise TypeError
    code, out, err = run(capsys, "verify", kagome_file, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "--seed" in err


@pytest.mark.parametrize("command", ["invariants", "bands", "verify", "build-periodic"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_tree_cap_below_one_is_refused_before_the_load(capsys, monkeypatch, kagome_file,
                                                       command, cap):
    monkeypatch.setattr(cli, "load_graph_json", None)  # a load would raise TypeError
    code, out, err = run(capsys, command, kagome_file, "--tree-cap", cap)
    assert (code, out) == (2, "")
    assert err == f"error: --tree-cap must be at least 1, got {cap}\n"


@pytest.mark.parametrize("command", ["verify", "bands"])
def test_verify_and_bands_validate_once(tmp_path, capsys, monkeypatch, kagome_file, command):
    import sys

    from magspec.graph_model import validate

    calls = []

    def counted(g):
        calls.append(g)
        return validate(g)

    for name, mod in list(sys.modules.items()):
        if name.startswith("magspec") and getattr(mod, "validate", None) is validate:
            monkeypatch.setattr(mod, "validate", counted)
    code, _, _ = run(capsys, command, kagome_file, "--grid", "21")
    assert (code, len(calls)) == (0, 1)
    # an invalid graph exits 2 with the message of a command that validates on load
    bad = _write_loop_graph(tmp_path, "1", "NaN")
    _, _, want = run(capsys, "invariants", bad)
    calls.clear()
    assert run(capsys, command, bad) == (2, "", want)
    assert want == "error: vertex potentials must be finite\n" and len(calls) == 1


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
    ("potential", "0"),
    ("potential", "false"),
    ("potential", '""'),
    ("potential", "[]"),
    ("vertices", '{"v1": 1, "v2": 2}'),
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


# JSON tokens of a graph that loads: a loop at a and an edge a -> b
_TOKENS = {"dim": "1", "vertices": '["a", "b"]', "a": '"a"', "b": '"b"',
           "index": "[1]", "alpha": "0.5", "potential": '{"a": 0.5}'}


def _write_tokens(tmp_path, **tokens) -> str:
    path = tmp_path / "tokens.json"
    path.write_text(
        '{"dim": %(dim)s, "vertices": %(vertices)s, "edges": ['
        '{"tail": %(a)s, "head": %(a)s, "index": %(index)s, "alpha": %(alpha)s}, '
        '{"tail": %(a)s, "head": %(b)s, "index": [0]}], "potential": %(potential)s}'
        % {**_TOKENS, **tokens},
        encoding="utf-8",
    )
    return str(path)


def test_token_graph_loads(tmp_path, capsys):
    code, out, _ = run(capsys, "invariants", _write_tokens(tmp_path))
    assert code == 0
    assert json.loads(out)["I"] == 1


@pytest.mark.parametrize("tokens", [
    {"dim": "true"},
    {"alpha": "true"},
    {"index": "[true]"},
    {"potential": '{"a": true}'},
    {"alpha": '"0.5"'},
    {"index": '"1"'},
    {"vertices": '[[1], {"a": 1}]', "a": "[1]", "b": '{"a": 1}', "potential": "null"},
    {"vertices": '[1, "b"]', "a": "1", "potential": "null"},
    {"vertices": '["1", "b"]', "a": "1", "potential": "null"},
], ids=["dim-true", "alpha-true", "index-true", "potential-true", "alpha-string",
        "index-string", "vertices-containers", "vertices-number", "tail-number"])
def test_booleans_strings_and_non_string_names_exit_2(tmp_path, capsys, tokens):
    code, out, err = run(capsys, "invariants", _write_tokens(tmp_path, **tokens))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_vertices_string_is_not_split_into_names(tmp_path, capsys):
    # with vertices named "v" and "1", the string "v1" would iterate into them
    data = graph_to_dict(replace(generate("hexagonal"), vertex_names=("v", "1")))
    data["vertices"] = "v1"
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_null_potential_means_none(tmp_path, capsys):
    path = _write_hexagonal_with(tmp_path, "potential", "null")
    code, out, _ = run(capsys, "invariants", path)
    assert code == 0
    assert json.loads(out)["I"] == 2


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
    import magspec.inverse_builder as ib

    def refuse(matrix):
        raise AssertionError("lattice_image_check must not run")

    monkeypatch.setattr(fc, "lattice_image_check", refuse)
    monkeypatch.setattr(ib, "lattice_image_check", refuse)
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


def test_non_finite_output_is_a_named_failed_check(tmp_path, capsys, kagome_file, monkeypatch):
    import magspec.spectral as spectral

    monkeypatch.setattr(spectral, "union_measure", lambda intervals: math.nan)
    csv = tmp_path / "b.csv"
    code, out, err = run(capsys, "bands", kagome_file, "--grid", "11", "--out", str(csv))
    assert code == 1
    assert out == ""
    assert "non-finite" in err
    assert not csv.exists()  # the CSV is kept only when the whole command succeeds
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
