"""Command-line interface.

Subcommands: gen, invariants, bands, verify, butterfly, build-periodic.
Exit codes: 0 success, 1 failed verification check, 2 input error.
Output is deterministic for a fixed input and seed. MAGSPEC_THREADS
bounds sweep parallelism.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import CheckFailedError, GraphDataError, MagspecError
from .fiber_operator import count_nontrivial_exponents, theta0_reduction
from .forms_cycles import invariants, minimal_pair
from .graph_model import (
    FundamentalGraph,
    dump_graph_json,
    generate,
    graph_to_dict,
    load_graph_json,
    validate,
)
from .inverse_builder import build_periodic, coprime_fluxes, harper_model
from .spectral import (
    band_sweep,
    sy_sunada_check,
    verify_band_localization,
    verify_gauge_equivalence,
    verify_perturbation,
    verify_positive_splitting,
)

DEFAULT_TREE_CAP = 10**6


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _load(path: str) -> FundamentalGraph:
    g = load_graph_json(path)
    validate(g)
    return g


def _reduced_pair(g: FundamentalGraph, cap: int):
    """Minimal index-class form plus the theta-shifted phase form."""
    mu, phi = minimal_pair(g, cap=cap)
    _, phi_tilde = theta0_reduction(g, mu, phi)
    return mu, phi_tilde


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
    g = _load(args.graph)
    report = invariants(g, cap=args.tree_cap)
    mu, phi_tilde = _reduced_pair(g, args.tree_cap)
    spec = band_sweep(g, mu, phi_tilde, grid_n=args.grid, flat_tol=args.flat_tol)
    if args.out:
        _write_band_csv(g, spec, args.out)
    summary = spec.to_dict()
    summary["bound_4I"] = 4.0 * report.I
    _print_json(summary)
    return 0


def _write_band_csv(g: FundamentalGraph, spec, path: str) -> None:
    header = [f"theta_{s + 1}" for s in range(g.dim)] + [
        f"lambda_{n + 1}" for n in range(g.num_vertices)
    ]
    lines = [",".join(header)]
    for theta, eigs in zip(spec.thetas, spec.eigenvalues):
        lines.append(",".join(_fmt(x) for x in list(theta) + list(eigs)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    checks: list[dict] = []
    failed: str | None = None

    def run(name: str, fn) -> None:
        nonlocal failed
        if failed is not None:
            return
        try:
            detail = fn()
            checks.append({"name": name, "passed": True, "detail": detail})
        except CheckFailedError as exc:
            checks.append({"name": name, "passed": False, "detail": str(exc)})
            failed = name

    report = invariants(g, cap=args.tree_cap)

    def localization():
        rep = verify_band_localization(g, grid_n=args.grid, cap=args.tree_cap)
        return rep.to_dict()

    def gauge():
        verify_gauge_equivalence(g, seed=args.seed, cap=args.tree_cap)
        return {"pairs": 3, "thetas": 20}

    def splitting():
        verify_positive_splitting(g, seed=args.seed, cap=args.tree_cap)
        return {"thetas": 20}

    def exponents():
        mu, phi = minimal_pair(g, cap=args.tree_cap)
        n_theta, n_phase, n_both = count_nontrivial_exponents(g, mu, phi)
        if (n_theta, n_phase, n_both) != (2 * report.I, 2 * report.I_alpha, 2 * report.I_mu_phi):
            raise CheckFailedError(
                f"minimal-pair exponent counts {(n_theta, n_phase, n_both)} disagree with invariants"
            )
        r_theta, r_phase, _ = count_nontrivial_exponents(g, g.index_form(), g.magnetic_form())
        if r_theta < n_theta or r_phase < n_phase:
            raise CheckFailedError("stored pair has fewer nontrivial exponents than the minimum")
        return {"theta_dependent": n_theta, "phase_dependent": n_phase, "joint": n_both}

    def perturbation():
        bounds, rep = verify_perturbation(g, grid_n=args.grid, cap=args.tree_cap)
        return {**bounds.to_dict(), **rep.to_dict()}

    run("localization_and_measure", localization)
    run("gauge_equivalence", gauge)
    run("positive_splitting", splitting)
    run("exponent_counts", exponents)
    run("perturbation_sandwich", perturbation)
    if failed is None and not g.magnetic_form().support():
        def bottom():
            if not sy_sunada_check(g, grid_n=args.grid):
                raise CheckFailedError("first band bottom is not attained at theta = 0")
            return {"attained_at_zero": True}

        run("bottom_of_spectrum", bottom)

    _print_json(
        {
            "graph": args.graph,
            "invariants": report.to_dict(),
            "checks": checks,
            "passed": failed is None,
        }
    )
    if failed is not None:
        print(f"check failed: {failed}", file=sys.stderr)
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
    rows = []
    max_bands = 0
    for p, q in coprime_fluxes(args.flux_steps):
        model = harper_model(q, p)
        spec = band_sweep(model, grid_n=args.grid)
        rows.append((2.0 * np.pi * p / q, spec.bands))
        max_bands = max(max_bands, spec.bands.shape[0])
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
        return args.fn(args)
    except CheckFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GraphDataError, MagspecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
