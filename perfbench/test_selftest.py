"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import magspec  # noqa: E402
import magspec.cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _read_all(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_corpus_is_byte_identical_for_a_seed(tmp_path, workload):
    a, b = tmp_path / "a", tmp_path / "b"
    corpus.write(corpus.build(workload), a)
    corpus.write(corpus.build(workload), b)
    assert _read_all(a) == _read_all(b)


def test_battery_seed_changes_the_battery(tmp_path):
    one = corpus.build("verify-battery", 1)
    two = corpus.build("verify-battery", 2)
    assert [magspec.graph_to_dict(g) for g in one.values()] != [
        magspec.graph_to_dict(g) for g in two.values()
    ]


def test_deferred_kagome_counts_are_exact():
    entry = corpus.deferred_entries()["kagome-2x2"]
    assert (entry["tree_count"], entry["subset_count"]) == (331_776, 2_496_144)


def _fake_result(failed: int) -> dict:
    cmds = [{"id": f"verify:g{i}", "kind": "verify", "s": 0.01 * (i + 1), "ok": True}
            for i in range(120)]
    return {"passes": [{"traced": False, "wall_s": 1.0, "commands": cmds}],
            "ref_s": [1.25 * reference.REP_S, 0.75 * reference.REP_S],
            "attempted": len(cmds), "failed": failed}


SETUPS = [{"setup_s": 0.1, "ref_s": [reference.REP_S]}]


def test_metric_names_are_well_formed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [r["name"] for r in run.end_to_end(_fake_result(0), SETUPS, 50.0)]
    names += list(spans.layer_metrics([], {}, 1))
    assert names and all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    assert len(set(m["name"] for m in spec["per_layer"])) == len(spec["per_layer"])
    produced = set(spans.layer_metrics([], {}, 1)) | {"trace.harness_s", "trace.coverage_pct",
                                                      "trace.overhead_pct", "setup.build_s",
                                                      "setup.load_validate_s", "setup.graphs_loaded"}
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_timings_are_scaled_to_the_reference_speed():
    res = _fake_result(0)  # the mean reference rep is the nominal one
    base = {r["name"]: r["value"] for r in run.end_to_end(res, SETUPS, 50.0)}
    assert base["total_s"] == pytest.approx(base["total_wall_s"])
    assert base["total_wall_s"] == pytest.approx(sum(0.01 * (i + 1) for i in range(120)))
    slow = {**res, "ref_s": [2 * t for t in res["ref_s"]]}  # the machine ran at half speed
    halved = {r["name"]: r["value"] for r in run.end_to_end(slow, SETUPS, 50.0)}
    assert halved["total_s"] == pytest.approx(base["total_s"] / 2)
    assert halved["verify_p50_ms"] == pytest.approx(base["verify_p50_ms"] / 2)


def test_sampler_clock_leaves_out_the_reference_reps():
    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler() as sampler:
        wall0, clock0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - wall0 < 0.5:
            pass
        wall, clocked = time.perf_counter() - wall0, sampler.clock() - clock0
    assert len(sampler.times) >= 5
    assert clocked == pytest.approx(wall - sum(sampler.times), abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) is before


def test_traced_self_times_fit_inside_parents(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    magspec.dump_graph_json(magspec.generate("kagome"), "kagome.json")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_request(0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert magspec.cli.main(["verify", "kagome.json"]) == 0
    finally:
        tracer.uninstall()
    recs = tracer.spans
    names = {r[spans.NAME] for r in recs}
    # names bound with "from .x import y" in cli and spectral were patched too
    assert {"cli.main", "forms_cycles.invariants", "spectral.verify_perturbation",
            "fiber_operator.fiber_stack", "spectral.eigenvalue_table"} <= names
    selfs = spans.self_times(recs)
    eps = 1e-9
    assert all(s >= -eps for s in selfs)
    subtree = list(selfs)
    for i in range(len(recs) - 1, -1, -1):  # children are recorded after their parents
        parent = recs[i][spans.PARENT]
        if parent >= 0:
            subtree[parent] += subtree[i]
    for rec, total in zip(recs, subtree):
        duration = rec[spans.END] - rec[spans.START]
        assert total <= duration + eps
        assert total == pytest.approx(duration, abs=1e-6)
    assert not hasattr(magspec.cli.main, "__wrapped__")  # originals restored


def test_corrupted_golden_gives_nonzero_fail_rate(tmp_path):
    goldens = json.loads((HERE / "goldens.json").read_text())
    key = "bands:harper-q12-p5"
    goldens["commands"][key]["out/harper-q12-p5.csv"] = "0" * 64
    bad = tmp_path / "goldens.json"
    bad.write_text(json.dumps(goldens))
    result = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--mode", "run", "--workload", "harper-sweep",
         "--goldens", str(bad), "--result", str(result)],
        cwd=tmp_path, env={**run.child_env(), "PYTHONPATH": str(HERE.parent / "src")},
        check=True, timeout=170,
    )
    res = json.loads(result.read_text())
    assert res["failed"] == 1 and res["attempted"] == 3
    assert res["failures"] == [f"{key}: golden mismatch on out/harper-q12-p5.csv"]
    fail_rate = {r["name"]: r["value"] for r in run.end_to_end(res, SETUPS, 50.0)}["fail_rate"]
    assert fail_rate == pytest.approx(1 / 3)
