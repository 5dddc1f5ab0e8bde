"""magspec benchmark: run one workload through the CLI and print its metrics.

    python3 perfbench/run.py --workload tree-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each workload runs in a fresh Python
subprocess (child.py) that imports magspec from ./src, builds the corpus,
calls ``magspec.cli.main`` in-process one command at a time (closed
loop, in a fixed order), and checks every output against independent
checks and against the sha256 goldens in goldens.json. Set-up (import,
corpus generation, JSON load and validate) is repeated in separate
subprocesses and reported as a median.

End-to-end timings are seconds at a fixed reference speed (see
reference.py): each wall time is scaled by the speed of a fixed numpy
and pure-Python kernel timed in the same process, between the commands
of the run or right after the set-up. On the small shared VMs the
benchmark runs on, wall times of the same code drift by 20 % or more
between minutes; the scaled figures cancel most of that drift. The
unscaled pass time and the speed factor are printed on the lines above
the result.

The corpus graphs are fixed, so that every output has a golden; --seed
is passed to ``verify --seed`` (the random quasimomenta of its gauge and
splitting checks, which leave stdout unchanged). --battery-seed draws a
different 100-graph battery, checked without goldens.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 the run alternates untraced and traced
passes and carries the per-layer metrics. Every metric, including the
per-command ones that only some workloads have, is printed by name on
the lines before it and saved to .perfbench_out/.

    python3 perfbench/run.py --record-goldens   # rewrite goldens.json from ./src
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPS = 9  # set-up samples per run: eight set-up-only children plus the run child
DEADLINE_S = 170.0  # whole run, set-ups included
PERCENTILES = (99, 95, 90, 75)
WORKLOAD_NAMES = ("tree-scan", "harper-sweep", "verify-battery")

# Which end-to-end figure each layer's metrics should move, and where.
MOVES = {
    "forms_cycles": "invariants_s and total_s on tree-scan, verify_s on verify-battery; unchanged on harper-sweep",
    "fiber_operator": "bands_s and butterfly_s on harper-sweep, verify_s and verify_p90_ms on verify-battery",
    "spectral": "bands_s, butterfly_s and peak_rss_mb on harper-sweep, verify_s on verify-battery",
    "inverse_builder": "setup_s and butterfly_s",
    "graph_model": "setup_s",
    "setup": "setup_s",
    "cli": "bands_s on harper-sweep",
    "trace": "nothing: it measures the tracer and how much of the pass the spans cover",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["MAGSPEC_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


def spawn(argv: list[str], cwd: Path, deadline: float) -> tuple[int, float]:
    """Run child.py to completion or the deadline; returns (exit code, max RSS in MiB)."""
    cwd.mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv], cwd=cwd,
                            env=child_env(), stdin=subprocess.DEVNULL, stdout=sys.stderr.fileno())
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            print("child stopped at the deadline", file=sys.stderr)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def high_percentile(xs: list[float]) -> tuple[int, float] | None:
    """Highest of PERCENTILES with at least ten samples beyond it."""
    n = len(xs)
    for p in PERCENTILES:
        if n - math.ceil(p * n / 100) >= 10:
            return p, statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
    return None


def timing(name: str, xs: list[float], scale: float, unit: str, what: str) -> dict:
    rec = {"name": name, "value": statistics.median(xs) * scale, "unit": unit, "n": len(xs),
           "of": f"median of {what}"}
    hp = high_percentile(xs)
    if hp is not None:
        rec["p"], rec["p_value"] = hp[0], hp[1] * scale
    return rec


def speed_factor(ref_times: list[float]) -> float:
    """Seconds at the nominal speed per wall second, from reference-kernel reps."""
    return reference.REP_S / statistics.fmean(ref_times)


def end_to_end(result: dict, setups: list[dict], rss_mb: float) -> list[dict]:
    """End-to-end rows; every timing is in seconds at the reference speed.

    setups holds each set-up's wall seconds and the reference reps timed
    right after it. A pass's time is the sum over its commands of each
    command's mean time over the run (the last pass may be cut short),
    scaled by the run's speed factor.
    """
    speed = speed_factor(result["ref_s"])
    cmds = [c for p in result["passes"] if not p["traced"] for c in p["commands"]]
    by_id: dict[str, list[float]] = {}
    for c in cmds:
        by_id.setdefault(c["id"], []).append(c["s"])
    kind_of = {c["id"]: c["kind"] for c in cmds}
    wall = sum(statistics.fmean(xs) for xs in by_id.values())
    out = [
        timing("setup_s", [s["setup_s"] * speed_factor(s["ref_s"]) for s in setups], 1.0, "s",
               "set-ups at the reference speed"),
        {"name": "total_s", "value": wall * speed, "unit": "s", "n": len(cmds),
         "of": "pass at the reference speed: per-command means over the run, summed"},
        {"name": "total_wall_s", "value": wall, "unit": "s", "n": len(cmds),
         "of": "the same pass in wall seconds, not scaled"},
        {"name": "speed_factor", "value": speed, "unit": "ratio", "n": len(result["ref_s"]),
         "of": f"{reference.REP_S} s over the mean reference rep of the run"},
        {"name": "peak_rss_mb", "value": rss_mb, "unit": "MiB", "n": 1, "of": "max RSS of the run child"},
    ]
    for kind in sorted(set(kind_of.values())):
        value = sum(statistics.fmean(xs) for cid, xs in by_id.items() if kind_of[cid] == kind)
        out.append({"name": f"{kind.replace('-', '_')}_s", "value": value * speed, "unit": "s",
                    "n": sum(len(xs) for cid, xs in by_id.items() if kind_of[cid] == kind),
                    "of": "per-command means summed, at the reference speed"})
    verify = [c["s"] for c in cmds if c["kind"] == "verify"]
    if verify:
        out.append(timing("verify_p50_ms", verify, 1000.0 * speed, "ms",
                          "verify calls at the reference speed"))
        if len(verify) - math.ceil(0.9 * len(verify)) >= 10:
            p90 = statistics.quantiles(verify, n=10, method="inclusive")[8]
            out.append({"name": "verify_p90_ms", "value": p90 * 1000.0 * speed, "unit": "ms",
                        "n": len(verify), "of": "p90 of verify calls at the reference speed"})
    out.append({"name": "fail_rate", "value": result["failed"] / result["attempted"],
                "unit": "ratio", "n": result["attempted"], "of": "failed over attempted commands"})
    return out


def per_layer(result: dict) -> list[dict]:
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    names = list(traced[0]["layers"])
    out = []
    for name in names:
        vals = [p["layers"][name] for p in traced]
        out.append({"name": name, "value": statistics.fmean(vals), "n": len(vals), "of": "mean per traced pass"})
    for name, value in result["setup_layers"].items():
        out.append({"name": name, "value": value, "n": 1, "of": "traced set-up"})
    base = statistics.median(plain)
    overhead = 100.0 * (statistics.median(p["wall_s"] for p in traced) - base) / base
    out.append({"name": "trace.overhead_pct", "value": overhead, "n": len(traced) + len(plain),
                "of": "traced against untraced passes, medians"})
    return out


def setup_record(result: dict) -> dict:
    return {"setup_s": result["setup_s"], "ref_s": result["setup_ref_s"]}


def record_goldens(work: Path) -> int:
    merged: dict = {"commands": {}}
    for workload in WORKLOAD_NAMES:
        result = work / workload / "goldens.json"
        code, _ = spawn(["--mode", "record", "--workload", workload, "--result", str(result)],
                        result.parent, time.monotonic() + 600)
        if code != 0:
            return code
        recorded = json.loads(result.read_text())
        merged["battery_seed"] = recorded["battery_seed"]
        merged["commands"].update(recorded["commands"])
    (HERE / "goldens.json").write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--battery-seed", type=int,
                    help="seed of the 100-graph verify battery (default 20250811, the only one with goldens)")
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "magspec" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/magspec; run from the root of a magspec checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench_work" / f"{os.getpid()}"
    try:
        if args.record_goldens:
            return record_goldens(work)
        if args.workload is None:
            ap.error("--workload is required")
        return run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, spec: dict, work: Path) -> int:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.battery_seed is not None:
        common += ["--battery-seed", str(args.battery_seed)]
    setups = []
    for rep in range(0 if args.trace else SETUP_REPS - 1):  # set-up time is an untraced figure
        res = work / f"setup{rep}" / "result.json"
        code, _ = spawn(["--mode", "setup", *common, "--result", str(res)], res.parent, deadline)
        if code != 0:
            print(f"error: set-up child exited with {code}", file=sys.stderr)
            return 1
        setups.append(setup_record(json.loads(res.read_text())))

    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    argv = ["--mode", "run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = outdir / f"{args.workload}.spans.jsonl"
        spans.unlink(missing_ok=True)
        argv += ["--spans", str(spans)]
    res = work / "run" / "result.json"
    code, rss_mb = spawn([*argv, "--result", str(res)], res.parent, deadline)
    if code != 0:
        print(f"error: workload child exited with {code}", file=sys.stderr)
        return 1
    result = json.loads(res.read_text())
    setups.append(setup_record(result))

    if args.trace:
        rows = per_layer(result)
        wanted = spec["per_layer"]
    else:
        rows = end_to_end(result, setups, rss_mb)
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = set(units) - {r["name"] for r in rows}
    if missing:
        print(f"error: BENCHMARK.json names metrics this run does not produce: {sorted(missing)}",
              file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for entry in result.get("deferred", {}).items():
        print("deferred " + json.dumps(dict([entry])))
    for row in rows:
        unit = units.get(row["name"], row.get("unit", ""))
        tail = f"  p{row['p']} {row['p_value']:.6g}" if "p" in row else ""
        print(f"  {row['name']:<42} {row['value']:>14.6g} {unit:<6} {row['of']}, n={row['n']}{tail}")
    if args.trace:
        for layer, text in MOVES.items():
            print(f"  {layer}.* should move: {text}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    (outdir / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps({"rows": rows, **{k: v for k, v in result.items() if k != "passes"},
                    "setups": setups}, indent=1), encoding="utf-8")

    metrics = {r["name"]: {"value": r["value"], "unit": units[r["name"]]} for r in rows if r["name"] in units}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
