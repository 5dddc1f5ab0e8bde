"""Command-line interface.

Subcommands: gen, invariants, bands, verify, butterfly, build-periodic.
Exit codes: 0 success, 1 failed verification check, 2 input error (an
--out in a missing directory, or one that cannot be written, included).
Output is deterministic for a fixed input and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from .errors import (
    BadParamsError,
    CheckFailedError,
    GraphDataError,
    MagspecError,
    NonFiniteOutputError,
)
from .forms_cycles import invariants
from .graph_model import (
    FundamentalGraph,
    dump_graph_json,
    generate,
    graph_to_dict,
    load_graph_json,
    validate,
)
from .inverse_builder import build_periodic, coprime_fluxes
from .spectral import (
    analyze,
    band_sweep,
    default_grid_n,
    grid_axis,
    harper_band_edges,
    sy_sunada_check,
    verify_band_localization,
    verify_exponent_counts,
    verify_gauge_equivalence,
    verify_perturbation,
    verify_positive_splitting,
)

DEFAULT_TREE_CAP = 10**6


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _print_json(obj) -> None:
    """Print strict JSON; a NaN or infinite value raises NonFiniteOutputError."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutputError(f"output holds a non-finite number: {exc}") from exc
    print(text)


def _check_out_dir(path: str | None) -> None:
    """Refuse an --out whose directory does not exist, before any work."""
    if path and not Path(path).parent.is_dir():
        raise BadParamsError(f"--out directory {Path(path).parent} does not exist")


def _load(path: str) -> FundamentalGraph:
    g = load_graph_json(path)
    validate(g)
    return g


def cmd_gen(args: argparse.Namespace) -> int:
    decoration = None
    if args.decoration:
        decoration = [(e.tail, e.head) for e in load_graph_json(args.decoration).edges]
    g = generate(args.kind, d=args.dim, decoration=decoration)
    validate(g)
    if args.out:
        dump_graph_json(g, args.out)
    else:
        _print_json(graph_to_dict(g))
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    report = invariants(g, cap=args.tree_cap)
    _print_json(report.to_dict())
    return 0


def cmd_bands(args: argparse.Namespace) -> int:
    g = load_graph_json(args.graph)  # analyze validates
    if not 0.0 <= args.flat_tol < float("inf"):
        raise BadParamsError(f"--flat-tol must be finite and nonnegative, got {args.flat_tol}")
    an = analyze(g, cap=args.tree_cap)
    spec = band_sweep(g, an.mu, an.phi_tilde, grid_n=args.grid, flat_tol=args.flat_tol)
    if args.out:
        _write_band_csv(g, spec, args.out)
    summary = spec.to_dict()
    summary["bound_4I"] = 4.0 * an.report.I
    _print_json(summary)
    return 0


def _write_band_csv(g: FundamentalGraph, spec, path: str) -> None:
    header = [f"theta_{s + 1}" for s in range(g.dim)] + [
        f"lambda_{n + 1}" for n in range(g.num_vertices)
    ]
    row = ",".join(["{:.12g}"] * len(header)) + "\n"  # _fmt on every cell, one call per row
    with Path(path).open("w", encoding="utf-8") as f:  # row by row: the text is never held whole
        f.write(",".join(header) + "\n")
        for theta, eigs in zip(spec.thetas, spec.eigenvalues):
            f.write(row.format(*theta.tolist(), *eigs.tolist()))


def cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph_json(args.graph)  # analyze validates
    if args.seed < 0:
        raise BadParamsError(f"--seed must be nonnegative, got {args.seed}")
    an = analyze(g, cap=args.tree_cap)
    grid, seed = args.grid, args.seed
    battery = [
        ("localization_and_measure", partial(verify_band_localization, an, grid)),
        ("gauge_equivalence", partial(verify_gauge_equivalence, an, seed)),
        ("positive_splitting", partial(verify_positive_splitting, an, seed)),
        ("exponent_counts", partial(verify_exponent_counts, an)),
        ("perturbation_sandwich", partial(verify_perturbation, an, grid)),
    ]
    if not g.magnetic_form().support():
        battery.append(("bottom_of_spectrum", partial(sy_sunada_check, an, grid)))
    checks: list[dict] = []
    for name, check in battery:  # stops at the first failed check
        try:
            checks.append({"name": name, "passed": True, "detail": check()})
        except CheckFailedError as exc:
            checks.append({"name": name, "passed": False, "detail": str(exc)})
            break
    passed = checks[-1]["passed"]
    _print_json({"graph": args.graph, "invariants": an.report.to_dict(),
                 "checks": checks, "passed": passed})
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


def cmd_butterfly(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    if not _is_square_lattice(g):
        raise GraphDataError(
            "butterfly needs the square-lattice fundamental graph (one vertex, "
            "two unit loops, zero phases and potential)"
        )
    if args.flux_steps < 1:
        raise BadParamsError(f"--flux-steps must be at least 1, got {args.flux_steps}")
    grid_n = args.grid if args.grid is not None else default_grid_n(2)
    grid_axis(2, grid_n, args.flux_steps)  # the largest q sets the budget: refuse before any solve
    rows = []
    max_bands = 0
    for p, q in coprime_fluxes(args.flux_steps):
        bands = harper_band_edges(q, p, grid_n=grid_n)
        rows.append((2.0 * np.pi * p / q, bands))
        max_bands = max(max_bands, bands.shape[0])
    header = ["flux"]
    for n in range(max_bands):
        header += [f"lambda_min_{n + 1}", f"lambda_max_{n + 1}"]
    lines = [",".join(header)]
    for flux, bands in rows:
        cells = [_fmt(flux)]
        for lo, hi in bands:
            cells += [_fmt(lo), _fmt(hi)]
        cells += [""] * (1 + 2 * max_bands - len(cells))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def cmd_build_periodic(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    built = build_periodic(g, cap=args.tree_cap)
    if args.out:
        dump_graph_json(built, args.out)
    else:
        _print_json(graph_to_dict(built))
    return 0


@cache  # built once per process; parse_args leaves it unchanged
def _parser() -> argparse.ArgumentParser:
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
    p.add_argument("--tree-cap", type=int, default=DEFAULT_TREE_CAP)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("bands", help="sweep the torus grid and report spectral bands")
    p.add_argument("graph")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--flat-tol", type=float, default=1e-8)
    p.add_argument("--out", help="per-theta eigenvalue CSV")
    p.add_argument("--tree-cap", type=int, default=DEFAULT_TREE_CAP)
    p.set_defaults(fn=cmd_bands)

    p = sub.add_parser("verify", help="run the full identity and inequality battery")
    p.add_argument("graph")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--tree-cap", type=int, default=DEFAULT_TREE_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("butterfly", help="rational-flux band edges on the square lattice")
    p.add_argument("graph")
    p.add_argument("--flux-steps", type=int, required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_butterfly)

    p = sub.add_parser("build-periodic", help="realize a periodic graph from finite data")
    p.add_argument("graph")
    p.add_argument("--out")
    p.add_argument("--tree-cap", type=int, default=DEFAULT_TREE_CAP)
    p.set_defaults(fn=cmd_build_periodic)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_out_dir(getattr(args, "out", None))
        return args.fn(args)
    except CheckFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GraphDataError, MagspecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # inputs are read by load_graph_json, so this is a write of --out
        if not getattr(args, "out", None):
            raise
        print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
