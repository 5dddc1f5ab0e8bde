"""One benchmark process: set up the corpus, run the workload, check outputs.

Started by run.py in a fresh interpreter with the work directory as its
current directory. Calls ``magspec.cli.main`` in-process, one command at
a time (closed loop), and writes a JSON result file for run.py to read.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import magspec  # noqa: E402
import magspec.cli  # noqa: E402

import corpus  # noqa: E402
import reference  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

GOLDENS = Path(__file__).resolve().parent / "goldens.json"
SETUP_REF_S = 0.25  # reference-kernel seconds timed right after each set-up


def machine_info(seed: int, battery_seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS", "default"),
        "magspec_threads": os.environ.get("MAGSPEC_THREADS", "default"),
        "seed": seed,
        "battery_seed": battery_seed,
    }


def setup(workload: str, battery_seed: int) -> tuple[dict, dict]:
    """Generate, write, load and validate the corpus; returns file digests and loaded graphs."""
    graphs = corpus.build(workload, battery_seed)
    digests = corpus.write(graphs, Path("corpus"))
    loaded = {}
    for name in graphs:
        g = magspec.load_graph_json(f"corpus/{name}.json")
        magspec.validate(g)
        loaded[name] = g
    return digests, loaded


def facts_of(loaded: dict) -> dict:
    return {
        name: {
            "dim": g.dim,
            "num_vertices": g.num_vertices,
            "num_edges": g.num_edges,
            "tree_count": magspec.spanning_tree_count(g),
        }
        for name, g in loaded.items()
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(cmd: workloads.Command,
                clock=time.perf_counter) -> tuple[float, int, str, str, dict[str, bytes]]:
    """Call the CLI in-process; returns (seconds by clock, exit code, stdout, stderr, out files)."""
    for path in cmd.outs:
        Path(path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock()
        try:
            rc = magspec.cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed command, not a harness crash
            traceback.print_exc()
            rc = -1
        seconds = clock() - start
    files = {p: Path(p).read_bytes() for p in cmd.outs if Path(p).exists()}
    return seconds, rc, out.getvalue(), err.getvalue(), files


def digest_record(digest_in: str, stdout: str, files: dict[str, bytes]) -> dict[str, str]:
    rec = {"input": digest_in, "stdout": sha256(stdout.encode("utf-8"))}
    rec.update({p: sha256(b) for p, b in sorted(files.items())})
    return rec


def judge(cmd, rc, stdout, stderr, files, facts, digest_in, golden) -> str | None:
    """Reason the command failed, or None.

    Checks the exit code, tracebacks, the independent output checks and,
    when golden is given, the sha256 of the input, stdout and --out files.
    """
    if "Traceback" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1]
    missing = [p for p in cmd.outs if p not in files]
    if rc == 0 and missing:
        return f"missing output files {missing}"
    reason = workloads.check_output(cmd, rc, stdout, files, facts[cmd.graph])
    if reason is not None or golden is None:
        return reason
    got = digest_record(digest_in, stdout, files)
    if golden["input"] != got["input"]:
        return "input graph differs from the one the golden was recorded on"
    for key in golden:
        if golden[key] != got.get(key):
            return f"golden mismatch on {key}"
    return None


def record(cmds, facts, digests) -> dict | None:
    """Golden digests of one run of every command, or None if any check fails."""
    recorded = {}
    for cmd in cmds:
        _, rc, stdout, stderr, files = run_command(cmd)
        reason = judge(cmd, rc, stdout, stderr, files, facts, None, None)
        if reason is not None:
            print(f"{cmd.id}: {reason}", file=sys.stderr)
            return None
        recorded[cmd.id] = digest_record(digests[cmd.graph], stdout, files)
    return recorded


def expected(cmds, goldens: dict, battery_seed: int) -> dict:
    """Golden record per command id; None where no golden applies."""
    other_battery = goldens["battery_seed"] != battery_seed  # goldens cover one battery only
    return {
        cmd.id: None if other_battery and cmd.graph.startswith("battery-")
        else goldens["commands"].get(cmd.id, {"input": "no golden recorded"})
        for cmd in cmds
    }


def measure(cmds, facts, digests, want, tracer, seconds: float, spans_path) -> dict:
    """Closed-loop passes over cmds for the given seconds (at least one whole pass).

    Untraced, a reference.Sampler interleaves reference reps with the
    commands, whose times leave the reps out, and the run may end between
    two commands of its last pass. With a tracer, passes alternate
    untraced and traced, at least one of each, no reference rep runs, and
    every pass is whole.
    """
    passes = []
    failures: list[str] = []
    attempted = 0
    sampler = reference.Sampler() if tracer is None else None
    clock = sampler.clock if sampler else time.perf_counter
    start = time.perf_counter()
    with sampler or contextlib.nullcontext():
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            records = []
            t_pass = time.perf_counter()
            for i, cmd in enumerate(cmds):
                if traced:
                    tracer.begin_request(i)
                took, rc, stdout, stderr, files = run_command(cmd, clock)
                reason = judge(cmd, rc, stdout, stderr, files, facts, digests[cmd.graph], want[cmd.id])
                attempted += 1
                if reason is not None:
                    failures.append(f"{cmd.id}: {reason}")
                records.append({"id": cmd.id, "kind": cmd.kind, "s": took})
                if sampler and passes and time.perf_counter() - start >= seconds:
                    break
            wall = time.perf_counter() - t_pass
            entry = {"traced": traced, "wall_s": wall, "commands": records}
            if traced:
                tracer.uninstall()
                lm = tracing.layer_metrics(tracer.spans, tracer.counts, len(cmds))
                roots = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans if s[tracing.PARENT] < 0)
                lm["trace.harness_s"] = wall - roots
                lm["trace.coverage_pct"] = 100.0 * sum(lm[f"{n}.self_s"] for n in tracing.LAYERS) / wall
                entry["layers"] = lm
                if spans_path:
                    tracer.dump(spans_path, str(len(passes)))
                tracer.reset()
            passes.append(entry)
            if time.perf_counter() - start >= seconds and (tracer is None or len(passes) >= 2):
                break
    return {"passes": passes, "ref_s": sampler.times if sampler else [], "attempted": attempted,
            "failed": len(failures), "failures": failures[:20]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "run", "record"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--battery-seed", type=int, default=corpus.DEFAULT_BATTERY_SEED)
    ap.add_argument("--goldens", default=str(GOLDENS))
    ap.add_argument("--spans")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    digests, loaded = setup(args.workload, args.battery_seed)
    setup_s = time.perf_counter() - _T0
    reference.rep()  # warm-up, untimed
    result: dict = {"setup_s": setup_s, "setup_ref_s": reference.reps(SETUP_REF_S),
                    "machine": machine_info(args.seed, args.battery_seed)}
    if tracer is not None:
        tracer.uninstall()
        lm = tracing.layer_metrics(tracer.spans, tracer.counts, 1)
        result["setup_layers"] = {
            "setup.build_s": lm["inverse_builder.build_s"],
            "setup.load_validate_s": lm["graph_model.load_validate_s"],
            "setup.graphs_loaded": lm["graph_model.graphs_loaded"],
        }
        tracer.reset()

    if args.mode != "setup":
        facts = facts_of(loaded)
        Path("out").mkdir(exist_ok=True)
        cmds = workloads.commands(args.workload, list(loaded), args.seed % 2**32)
        if args.mode == "record":
            recorded = record(cmds, facts, digests)
            if recorded is None:
                return 1
            result = {"battery_seed": args.battery_seed, "commands": recorded}
        else:
            goldens = json.loads(Path(args.goldens).read_text(encoding="utf-8"))
            want = expected(cmds, goldens, args.battery_seed)
            if args.workload == "tree-scan":
                result["deferred"] = corpus.deferred_entries()
            result.update(measure(cmds, facts, digests, want, tracer, args.seconds, args.spans))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
