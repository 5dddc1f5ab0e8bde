"""Chunked torus sweeps.

Cutting the grid into chunks must give the same bits as one eigensolve
over the whole fiber stack; memory must stay bounded by one chunk;
oversize grids are refused before anything is allocated; each CLI
command scans spanning trees once; and an Analysis sweeps (mu, alpha)
once, its band ends read by every check that needs them.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import magspec.fiber_operator as fiber_operator
import magspec.spectral as spectral
from magspec import (
    CheckFailedError,
    Edge,
    FundamentalGraph,
    GridTooCoarseError,
    GridTooLargeError,
    LocalizationViolatedError,
    NonFinitePotentialError,
    OneForm,
    SandwichViolatedError,
    SupercellSpec,
    analyze,
    band_sweep,
    dump_graph_json,
    eigenvalue_table,
    fiber_stack,
    generate,
    harper_model,
    scan_trees,
    supercell,
    sy_sunada_check,
    theta_grid,
    verify_band_localization,
    verify_exponent_counts,
    verify_gauge_equivalence,
    verify_perturbation,
    verify_positive_splitting,
    zero_phase_form,
)
from magspec.cli import main

from conftest import count_grid_sweeps

GRID = 13
PHASED_HEXAGONAL = generate("hexagonal").with_phases([0.3, -0.7, 1.1])
TINY_CHUNK_BYTES = 1000  # 62 fibers per chunk at nu = 1, 6 at nu = 3, one at nu = 6
DEFAULT_CHUNK_BYTES = spectral._CHUNK_BYTES


def gauged_kagome():
    """Kagome with the phases f(head) - f(tail) of a vertex function: nonzero, without flux.

    f is dyadic and its differences lie in (-pi, pi), so every flux sums to exactly 0.0
    and the shifted phases vanish: the perturbation check solves nothing.
    """
    g = generate("kagome")
    f = [0.5, -1.25, 1.5]
    return g.with_phases([f[e.head] - f[e.tail] for e in g.edges])


def one_shot(g, b, a, thetas):
    stack = fiber_operator.add_to_diagonals(fiber_stack(g, b, a, thetas), g.potential)
    return np.linalg.eigvalsh(stack)


@pytest.fixture(params=[TINY_CHUNK_BYTES], ids=["serial"])
def tiny_chunks(request, monkeypatch):
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", request.param)


@pytest.fixture(scope="module")
def scanned(battery_graphs):
    return [(g, analyze(g, grid_n=GRID)) for g in battery_graphs]


@pytest.fixture
def analyses(scanned):
    # a fresh copy holds no swept ends, so every test and param sweeps its own
    return [(g, replace(an)) for g, an in scanned]


def test_band_sweep_tables_match_one_shot(analyses, tiny_chunks):
    # the chunks band_sweep hands on_chunk, stacked, are the one-shot table, and the
    # band ends its min and max
    for g, an in analyses:
        thetas = theta_grid(g.dim, GRID)
        want = one_shot(g, an.mu, an.phi_tilde, thetas)
        chunks = []
        spec = band_sweep(g, an.mu, an.phi_tilde, grid_n=GRID,
                          on_chunk=lambda th, eigs: chunks.append((th, eigs)))
        assert len(chunks) == len(spectral._chunks(len(thetas), g.num_vertices))
        assert np.array_equal(np.concatenate([th for th, _ in chunks]), thetas)
        assert np.array_equal(np.concatenate([eigs for _, eigs in chunks]), want)
        assert np.array_equal(eigenvalue_table(g, an.mu, an.phi_tilde, thetas), want)
        assert np.array_equal(spec.bands, np.stack([want.min(0), want.max(0)], axis=1))


def test_localization_reports_match_one_shot(analyses, tiny_chunks):
    for g, an in analyses:
        rep = verify_band_localization(an)
        table = one_shot(g, an.mu, g.magnetic_form(), theta_grid(g.dim, GRID))
        lo, hi = table.min(axis=0), table.max(axis=0)
        assert np.array_equal(rep["bands"], np.stack([lo, hi], axis=1))
        assert np.array_equal(rep["band_widths_sum"], float((hi - lo).sum()))


def test_perturbation_reports_match_one_shot(analyses, tiny_chunks):
    # the reference assembles all four stacks over the whole grid at once
    for g, an in analyses:
        rep = verify_perturbation(an)
        thetas = theta_grid(g.dim, GRID)
        zero = zero_phase_form(g)
        shifted = one_shot(g, an.mu, an.phi_tilde, thetas)
        free = one_shot(g, an.mu, zero, thetas)
        x = np.linalg.eigvalsh(
            fiber_stack(g, an.mu, an.phi_tilde, thetas) - fiber_stack(g, an.mu, zero, thetas)
        )
        lo_a, hi_a, lo_0, hi_0 = shifted.min(0), shifted.max(0), free.min(0), free.max(0)
        shifts = np.concatenate([lo_a - lo_0, hi_a - hi_0])
        widths = np.abs((hi_a - lo_a) - (hi_0 - lo_0))
        assert np.array_equal(
            [rep["Lambda_1"], rep["Lambda_nu"], rep["band_shift_max"], rep["width_change_max"]],
            [x[:, 0].min(), x[:, -1].max(), np.abs(shifts).max(), widths.max()],
        )


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_harper_sweep_memory_is_bounded():
    # one (10201, 30, 30) complex stack over the default grid is 147 MB, and a
    # (10201, 30) table 2.3 MiB: only one chunk may be held
    g = harper_model(30, 7)
    an = analyze(g)
    spec, peak = traced_peak(band_sweep, g, an.mu, an.phi_tilde)
    assert spec.bands.shape == (30, 2)
    assert peak < spectral._CHUNK_BYTES + 2**20


def test_perturbation_memory_is_bounded_by_one_chunk():
    # a chunk's three stacks share _CHUNK_BYTES; no (K, nu) table of either spectrum is kept
    an = analyze(harper_model(12, 5))
    assert np.any(an.phi_tilde.values)
    _, peak = traced_peak(verify_perturbation, an)
    assert peak < spectral._CHUNK_BYTES + 2**20


def test_localization_memory_is_bounded_by_one_chunk():
    an = analyze(harper_model(12, 5))
    _, peak = traced_peak(verify_band_localization, an)
    assert peak < spectral._CHUNK_BYTES + 2**20


def test_bands_out_memory_is_bounded_by_one_chunk(tmp_path, capsys):
    # the whole command, load and tree scan included; the CSV is streamed chunk by chunk
    path = tmp_path / "harper.json"
    dump_graph_json(harper_model(12, 5), path)
    csv = tmp_path / "bands.csv"
    code, peak = traced_peak(main, ["bands", str(path), "--out", str(csv)])
    capsys.readouterr()
    assert code == 0
    assert csv.stat().st_size > 2**20  # more than the allowance over one chunk
    assert peak < spectral._CHUNK_BYTES + 2**20


@pytest.mark.parametrize("name", ["phased-kagome", "harper-q12"])
def test_bands_out_bytes_do_not_depend_on_the_chunk_size(tmp_path, capsys, monkeypatch,
                                                         tiny_chunks, name):
    g = {
        "phased-kagome": generate("kagome").with_phases(np.linspace(-3.0, 3.0, 6))
                                           .with_potential([0.5, -1.0, 2.0]),
        "harper-q12": harper_model(12, 5),
    }[name]
    path = tmp_path / "g.json"
    dump_graph_json(g, path)

    def bands(csv):
        assert main(["bands", str(path), "--grid", "21", "--out", str(csv)]) == 0
        return capsys.readouterr().out, csv.read_bytes()

    with monkeypatch.context() as m:
        m.setattr(spectral, "_CHUNK_BYTES", DEFAULT_CHUNK_BYTES)
        default = bands(tmp_path / "default.csv")
    assert len(spectral._chunks(21**2, g.num_vertices)) > 50  # tiny_chunks cuts many chunks
    assert bands(tmp_path / "tiny.csv") == default


@pytest.mark.parametrize("chunk_bytes", [TINY_CHUNK_BYTES, spectral._CHUNK_BYTES])
@pytest.mark.parametrize("k, nu", [(1, 1), (7, 3), (101**2, 12), (101**2, 30), (5, 200)])
@pytest.mark.parametrize("stacks", [1, 3])
def test_chunks_cover_the_rows_within_the_budget(monkeypatch, chunk_bytes, k, nu, stacks):
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", chunk_bytes)
    slices = spectral._chunks(k, nu, stacks)
    assert np.array_equal(np.concatenate([np.arange(k)[s] for s in slices]), np.arange(k))
    for s in slices:
        rows = len(range(k)[s])
        assert rows >= 1
        assert rows == 1 or stacks * rows * 16 * nu**2 <= chunk_bytes


def test_theta_grid_budget():
    with pytest.raises(GridTooLargeError):
        theta_grid(2, 40000)
    with pytest.raises(GridTooCoarseError):
        theta_grid(2, -10**6)
    k = 101**2
    fits = spectral._SWEEP_BUDGET_BYTES // (8 * k)  # the most bands a 101^2 sweep may have
    assert theta_grid(2, 101, nu=fits).shape == (k, 2)
    with pytest.raises(GridTooLargeError):
        theta_grid(2, 101, nu=fits + 1)


@pytest.mark.parametrize("command", ["bands", "verify"])
def test_oversize_grid_exits_2_before_allocating(tmp_path, capsys, command):
    path = tmp_path / "z2.json"
    dump_graph_json(generate("zd", 2), path)
    tracemalloc.start()
    try:
        code = main([command, str(path), "--grid", "40000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "budget" in out.err
    assert peak < 2**20


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_band_sweep_range_check_fails_on_non_finite_potential(value):
    # built without validate: the rounding rule refuses inf before any solve,
    # and NaN passes it, so the a-priori range bound itself is NaN
    g = generate("hexagonal").with_potential([value, 0.0])
    with pytest.raises(NonFinitePotentialError if np.isinf(value) else CheckFailedError):
        band_sweep(g, grid_n=11)


def test_library_band_sweep_refuses_potentials_above_the_ceiling():
    # at 1e17 the bands of Z^2, 8 wide, round to one flat band of measure 0
    with pytest.raises(NonFinitePotentialError, match=r"above 2\^42"):
        band_sweep(generate("zd", 2).with_potential([1e17]), grid_n=11)


def test_perturbation_fails_on_nan_bound(monkeypatch):
    monkeypatch.setattr(spectral, "phase_perturbation_bound", lambda g, phi: float("nan"))
    with pytest.raises(SandwichViolatedError):
        verify_perturbation(analyze(generate("hexagonal"), grid_n=11))


@pytest.mark.parametrize("command", ["verify", "bands"])
def test_command_scans_trees_once(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "kagome.json"
    g = generate("kagome")
    dump_graph_json(g.with_phases(np.linspace(-3.0, 3.0, g.num_edges)), path)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return scan_trees(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("magspec") and getattr(mod, "scan_trees", None) is scan_trees:
            monkeypatch.setattr(mod, "scan_trees", counted)
    assert main([command, str(path), "--grid", "21"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "name, sweeps, triples",
    [("kagome", 1, 0), ("hex-2x2", 1, 0), ("phased-kagome", 1, 1), ("phased-hexagonal", 1, 0),
     ("gauged-kagome", 1, 0)],
)
def test_verify_sweeps_each_distinct_table_once(tmp_path, capsys, monkeypatch, name, sweeps, triples):
    # the phased hexagonal graph's shifted phases vanish: its perturbation check solves nothing;
    # the gauged kagome's bottom check reads band localization's (mu, alpha) sweep
    g = {
        "kagome": generate("kagome"),
        "hex-2x2": supercell(generate("hexagonal"), SupercellSpec((2, 2))),
        "phased-kagome": generate("kagome").with_phases(np.linspace(-3.0, 3.0, 6)),
        "phased-hexagonal": PHASED_HEXAGONAL,
        "gauged-kagome": gauged_kagome(),
    }[name]
    path = tmp_path / f"{name}.json"
    dump_graph_json(g, path)
    tables, three = count_grid_sweeps(monkeypatch, 21, g.dim)
    assert main(["verify", str(path), "--grid", "21"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    assert (len(tables), len(three)) == (sweeps, triples)


def test_bottom_check_on_gauged_phases_catches_a_shifted_table(monkeypatch):
    # nonzero phases without flux: the theta = 0 solve reads (mu, alpha), and a 1e-3
    # shift of it must still fail the check
    an = analyze(gauged_kagome(), grid_n=21)
    assert an.report.I_alpha == 0 and np.any(an.g.magnetic_form().values)
    assert sy_sunada_check(an) == {"attained_at_zero": True}
    real = spectral.eigenvalue_table
    monkeypatch.setattr(spectral, "eigenvalue_table", lambda *args: real(*args) + 1e-3)
    with pytest.raises(CheckFailedError, match="first band bottom is not attained at theta = 0"):
        sy_sunada_check(an)


def test_verify_matches_checks_that_share_nothing(tmp_path, capsys, generator_graphs):
    # each reference check gets its own fresh Analysis, so no table passes between them
    for g in generator_graphs:
        path = tmp_path / "g.json"
        dump_graph_json(g, path)
        assert main(["verify", str(path), "--grid", "21"]) == 0
        got = {c["name"]: c["detail"] for c in json.loads(capsys.readouterr().out)["checks"]}
        want = {
            "localization_and_measure": verify_band_localization(analyze(g, grid_n=21)),
            "gauge_equivalence": verify_gauge_equivalence(analyze(g)),
            "positive_splitting": verify_positive_splitting(analyze(g)),
            "exponent_counts": verify_exponent_counts(analyze(g)),
            "perturbation_sandwich": verify_perturbation(analyze(g, grid_n=21)),
            "bottom_of_spectrum": sy_sunada_check(analyze(g, grid_n=21)),
        }
        assert got == json.loads(json.dumps(want))


def test_shared_ends_are_swept_once_on_first_read(monkeypatch):
    # the Analysis sweeps the (mu, alpha) band ends of its grid on the first read of
    # ends, once, and holds no table
    g = generate("kagome")
    for n in (13, 21):
        an = analyze(g, grid_n=n)
        assert "ends" not in vars(an)
        with monkeypatch.context() as patched:
            tables, _ = count_grid_sweeps(patched, n, g.dim)
            verify_band_localization(an)
            sy_sunada_check(an)
        assert len(tables) == 1
        want = one_shot(g, an.mu, g.magnetic_form(), theta_grid(2, n))
        lo, hi = an.ends
        assert np.array_equal(lo, want.min(0)) and np.array_equal(hi, want.max(0))


def shift_one_grid_eigenvalue(monkeypatch, shift, in_perturbation):
    """Move one eigenvalue at the first grid point of the sweep with (or without) the
    perturbation difference, as a bug in one fiber would."""
    real_chunks = spectral._eigenvalue_chunks

    def shifted(g, thetas, *pairs, difference=False):
        for i, (rows, eigs) in enumerate(real_chunks(g, thetas, *pairs, difference=difference)):
            if i == 0 and difference == in_perturbation:
                eigs[0][0, 0] += shift
            yield rows, eigs

    monkeypatch.setattr(spectral, "_eigenvalue_chunks", shifted)


@pytest.mark.parametrize("shift", [-100.0, 100.0], ids=["below", "above"])
def test_one_grid_eigenvalue_out_of_its_window_fails_localization(monkeypatch, shift):
    # the window check reads band ends; each end must still catch a single grid point
    shift_one_grid_eigenvalue(monkeypatch, shift, in_perturbation=False)
    with pytest.raises(LocalizationViolatedError):
        verify_band_localization(analyze(generate("kagome"), grid_n=21))


@pytest.mark.parametrize("shift, side", [(-100.0, "lower"), (100.0, "upper")])
def test_one_grid_point_out_of_the_sandwich_fails_pointwise(monkeypatch, shift, side):
    # the pointwise sandwich reads the min and max of shifted - free over the grid
    an = analyze(generate("kagome").with_phases(np.linspace(-3.0, 3.0, 6)), grid_n=21)
    assert np.any(an.phi_tilde.values)
    shift_one_grid_eigenvalue(monkeypatch, shift, in_perturbation=True)
    with pytest.raises(SandwichViolatedError, match=f"{side} pointwise sandwich violated"):
        verify_perturbation(an)


def test_sub_tolerance_shifted_phases_keep_the_pointwise_sandwich(monkeypatch):
    # shifted phases of 9e-10 lie below the support tolerance but stay in the
    # fiber; a 1e-8 error at one grid point still exceeds Lambda_nu + 1e-9
    g = FundamentalGraph(dim=1, num_vertices=1, edges=(
        Edge(0, 0, (1,), 0.0), Edge(0, 0, (1,), 9e-10), Edge(0, 0, (1,), 9e-10)))
    an = analyze(g, grid_n=11)
    assert np.any(an.phi_tilde.values) and not an.phi_tilde.support()
    assert verify_perturbation(an)["Lambda_nu"] < 1e-8
    shift_one_grid_eigenvalue(monkeypatch, 1e-8, in_perturbation=True)
    with pytest.raises(SandwichViolatedError, match="upper pointwise sandwich violated"):
        verify_perturbation(an)


def test_vanishing_shifted_phases_still_check_the_grid():
    # the perturbation check solves nothing here, but analyze refuses the grid first
    assert not np.any(analyze(PHASED_HEXAGONAL).phi_tilde.values)
    with pytest.raises(GridTooCoarseError):
        analyze(PHASED_HEXAGONAL, grid_n=2)


def test_negative_zero_phases_print_the_same_after_one_sweep(tmp_path, capsys, monkeypatch):
    # magnetic forms reduce -0.0 to 0.0, so only an unreduced form can carry it;
    # the bottom check reads band localization's sweep of it
    g = generate("kagome")
    path = tmp_path / "kagome.json"
    dump_graph_json(g, path)
    assert main(["verify", str(path), "--grid", "21"]) == 0
    want = capsys.readouterr().out
    neg = OneForm(np.full((g.num_edges, 1), -0.0))
    monkeypatch.setattr(FundamentalGraph, "magnetic_form", lambda self: neg)
    tables, _ = count_grid_sweeps(monkeypatch, 21, g.dim)
    assert main(["verify", str(path), "--grid", "21"]) == 0
    assert capsys.readouterr().out == want
    assert tables == [neg.values.tobytes()]


def splitting_loop(g, mu, n_thetas=20, seed=0):
    """The per-quasimomentum loop the batched splitting check replaces; its first failure."""
    alpha = g.magnetic_form()
    on = np.isin(np.arange(g.num_edges), mu.support())
    two_b = 2.0 * np.diag(spectral.support_degrees(g, mu).astype(float))
    for theta in np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(n_thetas, g.dim)):
        th = theta.reshape(1, -1)
        full = spectral.fiber_stack(g, mu, alpha, th)[0]
        delta0 = spectral.fiber_stack(g, mu, alpha, th, edge_mask=~on)[0]
        delta_tilde = spectral.fiber_stack(g, mu, alpha, th, edge_mask=on)[0]
        if np.max(np.abs(full - (delta0 + delta_tilde))) > 1e-12 * (1 + np.linalg.norm(full)):
            return "support splitting is not exact"
        if np.linalg.eigvalsh(delta_tilde)[0] < -1e-9:
            return "support part of the fiber is not PSD"
        if np.linalg.eigvalsh(two_b - delta_tilde)[0] < -1e-9:
            return "support part exceeds twice its degree matrix"
    return None


@pytest.mark.parametrize("breaks", [("degrees",), ("exactness",), ("degrees", "exactness"),
                                    ("positivity",), ("positivity", "exactness")])
def test_batched_splitting_raises_the_loops_first_failure(monkeypatch, breaks):
    real_stack = spectral.fiber_stack
    rng = np.random.default_rng(3)
    for g in (generate("kagome").with_phases(rng.uniform(-3, 3, 6)), generate("hexagonal")):
        an = analyze(g)
        mu = an.mu
        on = np.isin(np.arange(g.num_edges), mu.support())

        def stack(g_, b, a, thetas, edge_mask=None):
            out = real_stack(g_, b, a, thetas, edge_mask)
            th = np.atleast_2d(thetas)
            if "exactness" in breaks and edge_mask is None:
                out[np.abs(th[:, 0]) > 1.0] += 1e-6
            if "positivity" in breaks and edge_mask is not None:
                sign = -1.0 if np.array_equal(edge_mask, on) else 1.0
                out[th[:, 0] < -0.5] += sign * np.eye(g.num_vertices)
            return out

        # split_fiber assembles its stacks through the fiber_operator binding
        monkeypatch.setattr(spectral, "fiber_stack", stack)
        monkeypatch.setattr(fiber_operator, "fiber_stack", stack)
        if "degrees" in breaks:
            monkeypatch.setattr(spectral, "support_degrees",
                                lambda g_, mu_: np.zeros(g_.num_vertices, dtype=np.int64))
        want = splitting_loop(g, mu)
        assert want is not None
        with pytest.raises(CheckFailedError) as exc:
            spectral.verify_positive_splitting(an)
        assert str(exc.value) == want
        monkeypatch.undo()
