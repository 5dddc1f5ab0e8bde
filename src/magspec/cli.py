"""Command-line interface.

Subcommands: gen, invariants, bands, verify, butterfly, build-periodic.
Exit codes: 0 success, 1 failed verification check, 2 input error (an
--out in a missing directory, or one that cannot be written, included).
Output is deterministic for a fixed input and seed. Every command
writes its result through _output: to stdout, or with --out to a
temporary file beside the target that is moved there only when the
command succeeds, so a failed run creates no file, leaves an existing
one unchanged and prints nothing to stdout. The writer is opened before
the command's work, so a target that cannot be written is refused
first.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import shutil
import sys
from contextlib import contextmanager, redirect_stdout, suppress
from functools import cache
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .errors import (
    BadParamsError,
    CheckFailedError,
    GraphDataError,
    MagspecError,
    NonFiniteOutputError,
)
from .forms_cycles import DEFAULT_TREE_CAP, invariants
from .graph_model import FundamentalGraph, generate, graph_to_dict, load_graph_json, validate
from .inverse_builder import build_periodic, coprime_fluxes
from .spectral import (
    analyze,
    band_sweep,
    grid_axis,
    harper_band_edges,
    sy_sunada_check,
    verify_band_localization,
    verify_exponent_counts,
    verify_gauge_equivalence,
    verify_perturbation,
    verify_positive_splitting,
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _print_json(obj, file: TextIO | None = None) -> None:
    """Print strict JSON to file; a NaN or infinite value raises NonFiniteOutputError."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutputError(f"output holds a non-finite number: {exc}") from exc
    print(text, file=file)


def _load(path: str) -> FundamentalGraph:
    g = load_graph_json(path)
    validate(g)
    return g


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """Where a command writes its result: stdout, or a new file replacing path.

    With a path, the block writes a temporary file beside it, which is
    moved onto path (a symlink there is replaced, not followed) with the
    permission bits of the file it replaces when the block ends without
    raising. Otherwise it is removed, so path is never left half written
    and an existing file keeps its bytes. What the block prints to
    stdout meanwhile (the bands summary) is held and printed only once
    path is in place, so a failed run prints nothing. A path whose
    directory does not exist (BadParamsError) or that is a directory is
    refused at once: the write or the move would otherwise fail only
    after the work.
    """
    if not path:
        yield sys.stdout
        return
    target = Path(path)
    if not target.parent.is_dir():
        raise BadParamsError(f"--out directory {target.parent} does not exist")
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    held = io.StringIO()
    try:
        # created exclusively, with the permissions open(path, "w") would give a new file
        with tmp.open("x", encoding="utf-8") as f, redirect_stdout(held):
            yield f
        with suppress(FileNotFoundError):  # no file to keep the mode of
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    sys.stdout.write(held.getvalue())


def cmd_gen(args: argparse.Namespace, out: TextIO) -> int:
    decoration = None
    if args.decoration:
        if args.kind != "decorated":
            raise BadParamsError(f"--decoration needs kind decorated, got {args.kind}")
        decoration = [(e.tail, e.head) for e in load_graph_json(args.decoration).edges]
    g = generate(args.kind, d=args.dim, decoration=decoration)
    validate(g)
    _print_json(graph_to_dict(g), out)
    return 0


def cmd_invariants(args: argparse.Namespace, out: TextIO) -> int:
    g = _load(args.graph)
    report = invariants(g, cap=args.tree_cap)
    _print_json(report.to_dict(), out)
    return 0


def cmd_bands(args: argparse.Namespace, out: TextIO) -> int:
    """The band summary goes to stdout; --out, if given, gets the per-theta CSV."""
    g = load_graph_json(args.graph)  # analyze validates, then refuses the grid
    an = analyze(g, cap=args.tree_cap, grid_n=args.grid)
    csv = _band_csv(g, out) if args.out else None
    spec = band_sweep(g, an.mu, an.phi_tilde, grid_n=an.grid_n, on_chunk=csv)
    summary = spec.to_dict()
    summary["bound_4I"] = 4.0 * an.report.I
    _print_json(summary)
    return 0


def _band_csv(g: FundamentalGraph, f):
    """Write the per-theta eigenvalue CSV header to f; return an on_chunk that writes the rows."""
    header = [f"theta_{s + 1}" for s in range(g.dim)] + [
        f"lambda_{n + 1}" for n in range(g.num_vertices)
    ]
    f.write(",".join(header) + "\n")
    row = ",".join(["{:.12g}"] * len(header)) + "\n"  # _fmt on every cell, one call per row

    def write_rows(thetas: np.ndarray, eigs: np.ndarray) -> None:
        for theta, lam in zip(thetas, eigs):  # row by row: the text is never held whole
            f.write(row.format(*theta.tolist(), *lam.tolist()))

    return write_rows


def cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    g = load_graph_json(args.graph)  # analyze validates, then refuses the grid
    if args.seed < 0:
        raise BadParamsError(f"--seed must be nonnegative, got {args.seed}")
    an = analyze(g, cap=args.tree_cap, grid_n=args.grid, seed=args.seed)
    battery = [
        ("localization_and_measure", verify_band_localization),
        ("gauge_equivalence", verify_gauge_equivalence),
        ("positive_splitting", verify_positive_splitting),
        ("exponent_counts", verify_exponent_counts),
        ("perturbation_sandwich", verify_perturbation),
    ]
    if an.report.I_alpha == 0:  # the phases carry no flux
        battery.append(("bottom_of_spectrum", sy_sunada_check))
    checks: list[dict] = []
    for name, check in battery:  # stops at the first failed check
        try:
            checks.append({"name": name, "passed": True, "detail": check(an)})
        except CheckFailedError as exc:
            checks.append({"name": name, "passed": False, "detail": str(exc)})
            break
    passed = checks[-1]["passed"]
    _print_json({"graph": args.graph, "invariants": an.report.to_dict(),
                 "checks": checks, "passed": passed}, out)
    if not passed:
        print(f"check failed: {checks[-1]['name']}", file=sys.stderr)
        return 1
    return 0


def _is_square_lattice(g: FundamentalGraph) -> bool:
    if g.dim != 2 or g.num_vertices != 1 or g.num_edges != 2:
        return False
    units = sorted(tuple(abs(c) for c in e.index) for e in g.edges)
    if units != [(0, 1), (1, 0)]:
        return False
    return all(e.alpha == 0.0 for e in g.edges) and not np.any(g.potential)


def cmd_butterfly(args: argparse.Namespace, out: TextIO) -> int:
    g = _load(args.graph)
    if not _is_square_lattice(g):
        raise GraphDataError(
            "butterfly needs the square-lattice fundamental graph (one vertex, "
            "two unit loops, zero phases and potential)"
        )
    if args.flux_steps < 1:
        raise BadParamsError(f"--flux-steps must be at least 1, got {args.flux_steps}")
    steps = args.flux_steps
    grid_axis(2, args.grid, steps)  # the largest q sets the budget: refuse before any solve
    fluxes = coprime_fluxes(steps)
    # every row is solved before one is written; Harper q has q bands and q = steps is a row
    edges = [harper_band_edges(q, p, grid_n=args.grid) for p, q in fluxes]
    header = ["flux"] + [f"lambda_{end}_{n + 1}" for n in range(steps) for end in ("min", "max")]
    print(",".join(header), file=out)
    for (p, q), bands in zip(fluxes, edges):
        cells = [_fmt(2.0 * np.pi * p / q)] + [_fmt(x) for x in bands.ravel()]
        print(",".join(cells + [""] * (len(header) - len(cells))), file=out)
    return 0


def cmd_build_periodic(args: argparse.Namespace, out: TextIO) -> int:
    g = _load(args.graph)
    _print_json(graph_to_dict(build_periodic(g, cap=args.tree_cap)), out)
    return 0


@cache  # built once per process; parse_args leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    grid_help = "points per axis of the torus grid (default 101 for d <= 2, 21 above)"
    cap_help = "refuse a graph with more spanning trees than this"
    top = argparse.ArgumentParser(prog="magspec", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a stock fundamental graph")
    p.add_argument("kind", choices=["zd", "hexagonal", "kagome", "decorated"])
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--decoration", help="graph JSON glued onto the lattice vertex")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("invariants", help="Betti number and minimal-support invariants")
    p.add_argument("graph")
    p.add_argument("--tree-cap", type=int, default=DEFAULT_TREE_CAP, help=cap_help)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("bands", help="sweep the torus grid and report spectral bands")
    p.add_argument("graph")
    p.add_argument("--grid", type=int, default=None, help=grid_help)
    p.add_argument("--out", help="per-theta eigenvalue CSV")
    p.add_argument("--tree-cap", type=int, default=DEFAULT_TREE_CAP, help=cap_help)
    p.set_defaults(fn=cmd_bands)

    p = sub.add_parser("verify", help="run the full identity and inequality battery")
    p.add_argument("graph")
    p.add_argument("--grid", type=int, default=None, help=grid_help)
    p.add_argument("--tree-cap", type=int, default=DEFAULT_TREE_CAP, help=cap_help)
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the 20 random quasimomenta of the gauge and splitting checks")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("butterfly", help="rational-flux band edges on the square lattice")
    p.add_argument("graph")
    p.add_argument("--flux-steps", type=int, required=True)
    p.add_argument("--grid", type=int, default=None, help=grid_help)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_butterfly)

    p = sub.add_parser("build-periodic", help="realize a periodic graph from finite data")
    p.add_argument("graph")
    p.add_argument("--out")
    p.add_argument("--tree-cap", type=int, default=DEFAULT_TREE_CAP, help=cap_help)
    p.set_defaults(fn=cmd_build_periodic)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    path = getattr(args, "out", None)
    try:
        with _output(path) as out:
            return args.fn(args, out)
    except CheckFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MagspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # inputs are read by load_graph_json, so this is a write of --out
        if not path:
            raise
        print(f"error: cannot write --out {path}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
