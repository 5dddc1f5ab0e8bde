"""In-memory spans around the public functions of each magspec layer.

``Tracer.install`` replaces every binding of a traced function, in every
loaded ``magspec`` module including the package itself, with a wrapper that records a span: name, start, end, parent span and the id of
the command that caused it. The CLI modules bind names with
``from .x import y``, so patching only the defining module would miss
most calls. ``uninstall`` restores the originals.

Spans nest on one thread: the benchmark runs with MAGSPEC_THREADS=1.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "graph_model", "inverse_builder", "forms_cycles", "fiber_operator", "spectral")

# (module, function) pairs wrapped as spans; the layer is the module.
SPANNED = {
    "cli": ("main",),
    "graph_model": ("load_graph_json", "validate", "generate", "dump_graph_json"),
    "inverse_builder": ("supercell", "harper_model", "build_periodic"),
    "forms_cycles": ("enumerate_spanning_trees", "minimal_form", "flux_table", "invariants"),
    "fiber_operator": ("fiber_stack", "theta0_reduction", "split_fiber", "count_nontrivial_exponents"),
    "spectral": (
        "eigenvalue_table",
        "band_sweep",
        "verify_band_localization",
        "verify_gauge_equivalence",
        "verify_positive_splitting",
        "verify_perturbation",
        "sy_sunada_check",
    ),
}

CHECKS = SPANNED["spectral"][2:]  # the verify_* battery and sy_sunada_check

# Span record fields.
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.current = -1
        self.request = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.grid_sizes: set[int] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = self.current
            rec = [name, clock(), 0.0, parent, self.request]
            self.current = len(spans)
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                self.current = parent
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, after):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(args, kwargs, out)
            return out

        counted.__wrapped__ = fn
        return counted

    def _after_enumerate(self, args, kwargs, trees) -> None:
        g = args[0]
        nonloop = sum(1 for e in g.edges if not e.is_loop)
        self.counts["trees"] += len(trees)
        self.counts["subsets"] += math.comb(nonloop, g.num_vertices - 1)

    def _after_fiber_stack(self, args, kwargs, stack) -> None:
        k, nu = stack.shape[0], stack.shape[1]
        self.counts["fibers"] += k
        self.counts["stack_bytes"] += k * nu * nu * 16

    def _after_theta_grid(self, args, kwargs, thetas) -> None:
        self.grid_sizes.add(thetas.shape[0])

    def _after_eigvalsh(self, args, kwargs, eigs) -> None:
        batch = int(np.prod(eigs.shape[:-1])) if eigs.ndim > 1 else 1
        self.counts["eigenproblems"] += batch
        if eigs.ndim > 1 and eigs.shape[0] in self.grid_sizes:
            self.counts["sweeps"] += 1

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a magspec module binds it."""
        import magspec.cli  # noqa: F401  (loads every layer module)

        replacements: dict[int, object] = {}
        hooks = {
            "enumerate_spanning_trees": self._after_enumerate,
            "fiber_stack": self._after_fiber_stack,
        }
        for layer, names in SPANNED.items():
            mod = sys.modules[f"magspec.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                replacements[id(fn)] = self._wrap(f"{layer}.{name}", fn, hooks.get(name))
        theta_grid = sys.modules["magspec.spectral"].theta_grid
        replacements[id(theta_grid)] = self._count(theta_grid, self._after_theta_grid)

        modules = [m for n, m in list(sys.modules.items()) if n == "magspec" or n.startswith("magspec.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replacements[id(value)])
        eigvalsh = np.linalg.eigvalsh
        self._saved.append((np.linalg, "eigvalsh", eigvalsh))
        np.linalg.eigvalsh = self._count(eigvalsh, self._after_eigvalsh)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def begin_request(self, request: int) -> None:
        self.request = request
        self.grid_sizes.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.current = -1

    def dump(self, path, label: str) -> None:
        """Append the recorded spans as JSON lines."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"pass": label, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "request": request}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        covered = 0.0
        hi = -math.inf
        for s, e in sorted(children.get(i, ())):
            s = max(s, hi, rec[START])
            e = min(e, rec[END])
            if e > s:
                covered += e - s
                hi = e
        out.append(rec[END] - rec[START] - covered)
    return out


def layer_metrics(spans: list[list], counts: dict[str, float], commands: int) -> dict[str, float]:
    """Per-layer figures for one traced pass.

    ``<layer>.self_s`` sums the self times of a layer's spans, so the six
    of them plus harness time make up the pass. A ``<function>_s`` figure
    is the inclusive wall time of that function's spans; ``eigensolve_s``
    (eigenvalue_table) and ``invariants_self_s`` (the pair-union product)
    are self times. ``tree_yield`` is trees found over the edge subsets
    C(non-loop edges, nu-1) the enumerator tests; ``stack_bytes`` is
    computed as K * nu^2 * 16 per fiber stack, not measured.
    """
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for rec, st in zip(spans, selfs):
        name = rec[NAME]
        total[name] += rec[END] - rec[START]
        own[name] += st
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += st
    subsets = counts.get("subsets", 0.0)
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update({
        "graph_model.load_validate_s": total["graph_model.load_graph_json"] + total["graph_model.validate"],
        "graph_model.graphs_loaded": calls["graph_model.load_graph_json"],
        "inverse_builder.build_s": layer_self["inverse_builder"],
        "forms_cycles.enumerate_s": total["forms_cycles.enumerate_spanning_trees"],
        "forms_cycles.enumerate_calls": calls["forms_cycles.enumerate_spanning_trees"],
        "forms_cycles.trees_enumerated": counts.get("trees", 0.0),
        "forms_cycles.tree_yield": counts.get("trees", 0.0) / subsets if subsets else 0.0,
        "forms_cycles.minimal_form_s": total["forms_cycles.minimal_form"],
        "forms_cycles.flux_table_s": total["forms_cycles.flux_table"],
        "forms_cycles.flux_table_calls": calls["forms_cycles.flux_table"],
        "forms_cycles.invariants_self_s": own["forms_cycles.invariants"],
        "forms_cycles.scans_per_command": calls["forms_cycles.enumerate_spanning_trees"] / commands,
        "fiber_operator.fiber_stack_s": total["fiber_operator.fiber_stack"],
        "fiber_operator.fibers_assembled": counts.get("fibers", 0.0),
        "fiber_operator.stack_bytes": counts.get("stack_bytes", 0.0),
        "fiber_operator.theta0_s": total["fiber_operator.theta0_reduction"],
        "fiber_operator.split_fiber_s": total["fiber_operator.split_fiber"],
        "spectral.eigensolve_s": own["spectral.eigenvalue_table"],
        "spectral.eigenproblems": counts.get("eigenproblems", 0.0),
        "spectral.sweeps": counts.get("sweeps", 0.0),
        "spectral.sweeps_per_command": counts.get("sweeps", 0.0) / commands,
    })
    for check in CHECKS:
        m[f"spectral.{check}_s"] = total[f"spectral.{check}"]
    m["trace.spans"] = len(spans)
    return m
