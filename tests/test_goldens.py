"""CLI output on part of the benchmark corpus matches the recorded goldens.

Rebuilds fourteen graphs of the seeded verify battery, five stock
lattices, hex 2x2, Harper q=12 p=5, Harper q=30 p=7, zd2 and the
tree-scan graphs (hex 3x2, kagome 3x1) with perfbench/corpus.py in a
temporary directory, runs the CLI there, and compares the sha256 of
stdout and of every --out file with perfbench/goldens.json. Nothing
under perfbench/ is written.
"""

from __future__ import annotations

import hashlib
import json
import types
from pathlib import Path

import pytest

from magspec.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))
VERIFIED = (
    [f"battery-{i:03d}" for i in range(0, 100, 10)]
    + ["hex-2x2", "harper-q12-p5"]
    # phased, with vanishing shifted phases: the perturbation check solves nothing
    + ["battery-014", "battery-015", "battery-045", "battery-081"]
    # zero phases: the bottom-of-spectrum check reads localization's band ends
    + ["zd1", "zd3", "hexagonal", "kagome", "decorated2"]
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = PERFBENCH / "corpus.py"
    corpus = types.ModuleType("perfbench_corpus")  # executed from source: no bytecode cache written
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), corpus.__dict__)
    graphs = corpus.build("verify-battery", GOLDENS["battery_seed"])
    graphs = {name: graphs[name] for name in VERIFIED + ["zd2"]} | corpus.build("tree-scan")
    graphs["harper-q30-p7"] = corpus.build("harper-sweep")["harper-q30-p7"]
    work = tmp_path_factory.mktemp("goldens")
    digests = corpus.write(graphs, work / "corpus")
    (work / "out").mkdir()
    return work, digests


def run_golden(capsys, monkeypatch, corpus_dir, command_id: str, argv: list[str]) -> None:
    work, digests = corpus_dir
    monkeypatch.chdir(work)  # verify echoes the relative graph path
    golden = GOLDENS["commands"][command_id]
    assert digests[command_id.split(":", 1)[1]] == golden["input"]
    assert main(argv) == 0
    got = {"stdout": sha256(capsys.readouterr().out.encode("utf-8"))}
    got.update({key: sha256((work / key).read_bytes()) for key in golden if key.startswith("out/")})
    assert got == {key: value for key, value in golden.items() if key != "input"}


@pytest.mark.parametrize("name", VERIFIED)
def test_verify_matches_golden(capsys, monkeypatch, corpus_dir, name):
    run_golden(capsys, monkeypatch, corpus_dir, f"verify:{name}",
               ["verify", f"corpus/{name}.json", "--seed", "0"])


def test_bands_out_matches_golden(capsys, monkeypatch, corpus_dir):
    run_golden(capsys, monkeypatch, corpus_dir, "bands:harper-q12-p5",
               ["bands", "corpus/harper-q12-p5.json", "--out", "out/harper-q12-p5.csv"])


def test_bands_with_most_chunks_matches_golden(capsys, monkeypatch, corpus_dir):
    # 101^2 fibers at nu = 30 sweep in 36 chunks of 291
    run_golden(capsys, monkeypatch, corpus_dir, "bands:harper-q30-p7",
               ["bands", "corpus/harper-q30-p7.json"])


def test_butterfly_matches_golden(capsys, monkeypatch, corpus_dir):
    run_golden(capsys, monkeypatch, corpus_dir, "butterfly:zd2",
               ["butterfly", "corpus/zd2.json", "--flux-steps", "12"])


@pytest.mark.parametrize("name", ["hex-3x2", "kagome-3x1"])
def test_invariants_matches_golden(capsys, monkeypatch, corpus_dir, name):
    run_golden(capsys, monkeypatch, corpus_dir, f"invariants:{name}",
               ["invariants", f"corpus/{name}.json"])


def test_build_periodic_matches_golden(capsys, monkeypatch, corpus_dir):
    run_golden(capsys, monkeypatch, corpus_dir, "build-periodic:kagome-3x1",
               ["build-periodic", "corpus/kagome-3x1.json",
                "--out", "out/kagome-3x1.periodic.json"])
