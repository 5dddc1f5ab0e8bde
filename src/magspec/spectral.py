"""Eigenvalues, quasimomentum sweeps, spectral bands and verification batteries.

Band n of the periodic operator is the range of the n-th sorted fiber
eigenvalue over the torus; here the torus is sampled on a uniform
inclusive grid linspace(-pi, pi, N) per dimension, which contains 0 and
both endpoints for odd N so that the cosine-type extrema of the stock
lattices land exactly on grid points. Sweeps stream the grid in chunks
whose fiber stacks stay under a fixed size, so memory is bounded by the
(K, nu) eigenvalue table, and grids whose table would exceed a fixed
budget are refused before anything is allocated. The butterfly's Harper
models solve only the grid points where their band ends can lie
(harper_band_edges), with the same result as the full sweep.

The verify_* functions turn the structural facts about these operators
into numerical checks: band localization against the off-support
operator, the support-size bound on the total band measure, the
perturbation sandwich under a magnetic field, positivity of the
support part of the fiber, gauge invariance of fiber spectra, and the
bottom-of-spectrum property of the phase-free operator.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CheckFailedError,
    GraphDataError,
    GridTooCoarseError,
    GridTooLargeError,
    LocalizationViolatedError,
    MeasureBoundViolatedError,
    NotHermitianError,
    SandwichViolatedError,
)
from .fiber_operator import (
    fiber_stack,
    phase_perturbation_bound,
    split_fiber,
    support_degrees,
    theta0_reduction,
    zero_phase_form,
)
from .forms_cycles import (
    InvariantReport,
    first_spanning_tree,
    invariants,
    minimal_pair,
    scan_trees,
    tree_form,
)
from .graph_model import FundamentalGraph, OneForm, validate
from .inverse_builder import harper_model

MATRIX_TOL = 1e-9  # matrix-level facts
SWEEP_TOL = 1e-6  # quantities extremized over a grid
HERMITICITY_TOL = 1e-12
_CHUNK_BYTES = 4 << 20  # complex fiber stack assembled per sweep chunk
_TABLE_BUDGET_BYTES = 1 << 28  # largest theta grid or (K, nu) table a sweep may allocate


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix.

    Rejects matrices whose anti-Hermitian part exceeds
    1e-12 * (1 + norm) with NotHermitianError.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError("expected a square matrix")
    scale = 1.0 + np.linalg.norm(m)
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL * scale:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)


def default_grid_n(d: int) -> int:
    """Default torus resolution: 101 per dimension for d <= 2, 21 for d >= 3."""
    return 101 if d <= 2 else 21


def grid_axis(d: int, n: int, nu: int = 1) -> np.ndarray:
    """One axis of the inclusive uniform grid on [-pi, pi]^d, after the grid checks.

    Raises GridTooCoarseError for n < 3, and GridTooLargeError, before
    allocating, when the n^d grid or an (n^d, nu) eigenvalue table over
    it would exceed the sweep budget.
    """
    if n < 3:
        raise GridTooCoarseError(f"grid needs at least 3 points per dimension, got {n}")
    if n**d * max(d, nu) * 8 > _TABLE_BUDGET_BYTES:
        raise GridTooLargeError(
            f"a {n}^{d} grid with {nu} bands exceeds the "
            f"{_TABLE_BUDGET_BYTES >> 20} MiB sweep budget"
        )
    axis = np.linspace(-np.pi, np.pi, n)
    if n % 2 == 1:
        axis[n // 2] = 0.0  # linspace leaves the center a few ulp off zero
    return axis


def theta_grid(d: int, n: int, nu: int = 1) -> np.ndarray:
    """Inclusive uniform grid on [-pi, pi]^d, flattened to (n^d, d).

    Raises what grid_axis raises, before allocating.
    """
    axis = grid_axis(d, n, nu)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _grid(g: FundamentalGraph, grid_n: int | None) -> tuple[int, np.ndarray]:
    n = grid_n if grid_n is not None else default_grid_n(g.dim)
    return n, theta_grid(g.dim, n, g.num_vertices)


def _num_threads() -> int:
    try:
        return max(1, int(os.environ.get("MAGSPEC_THREADS", "1")))
    except ValueError:
        return 1


def _sweep(
    thetas: np.ndarray,
    nu: int,
    solve: Callable[[np.ndarray], Sequence[np.ndarray]],
    tables: int = 1,
) -> list[np.ndarray]:
    """Fill (K, nu) tables chunk by chunk over the rows of thetas.

    solve(chunk) returns one (len(chunk), nu) array per table. A chunk
    holds at most _CHUNK_BYTES of complex nu x nu fibers (or a single
    fiber when one is larger), so only the tables grow with the grid.
    MAGSPEC_THREADS > 1 maps the same chunks over a thread pool; each
    chunk writes its own rows, so the tables are identical either way.
    """
    out = [np.empty((thetas.shape[0], nu)) for _ in range(tables)]
    step = max(1, _CHUNK_BYTES // (16 * max(nu, 1) ** 2))
    chunks = [slice(lo, lo + step) for lo in range(0, thetas.shape[0], step)]

    def work(rows: slice) -> None:
        for table, part in zip(out, solve(thetas[rows])):
            table[rows] = part

    jobs = _num_threads()
    if jobs > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(work, chunks))
    else:
        for rows in chunks:
            work(rows)
    return out


def eigenvalue_table(
    g: FundamentalGraph,
    b: OneForm,
    a: OneForm,
    thetas: np.ndarray,
    with_potential: bool = True,
) -> np.ndarray:
    """(K, nu) sorted fiber eigenvalues, one row per quasimomentum, swept in chunks."""

    def solve(th: np.ndarray) -> tuple[np.ndarray]:
        return (np.linalg.eigvalsh(fiber_stack(g, b, a, th, with_potential=with_potential)),)

    return _sweep(np.atleast_2d(thetas), g.num_vertices, solve)[0]


def union_measure(intervals: Sequence[Sequence[float]]) -> float:
    """Lebesgue measure of a union of closed intervals."""
    ivs = sorted((float(lo), float(hi)) for lo, hi in intervals)
    total = 0.0
    cur_lo: float | None = None
    cur_hi = 0.0
    for lo, hi in ivs:
        if cur_lo is None or lo > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


@dataclass(frozen=True, eq=False)
class BandSpectrum:
    """Grid-approximated band structure of one operator."""

    grid_n: int
    flat_tol: float
    bands: np.ndarray  # (nu, 2) per-band [min, max]
    flat: tuple[bool, ...]
    measure: float
    thetas: np.ndarray
    eigenvalues: np.ndarray  # (K, nu)

    def to_dict(self) -> dict:
        return {
            "bands": [[float(lo), float(hi)] for lo, hi in self.bands],
            "flat": list(self.flat),
            "measure": float(self.measure),
        }


def _check_spectral_range(
    g: FundamentalGraph, lo: np.ndarray, hi: np.ndarray, with_potential: bool
) -> None:
    """Band ends must lie in [0, 2 kappa_+], shifted by the potential range."""
    q_lo = float(g.potential.min()) if with_potential else 0.0
    q_hi = float(g.potential.max()) if with_potential else 0.0
    if not (q_lo - MATRIX_TOL <= lo.min() and hi.max() <= 2.0 * g.kappa_plus() + q_hi + MATRIX_TOL):
        raise CheckFailedError("fiber eigenvalue escaped the a-priori spectral range")


def band_sweep(
    g: FundamentalGraph,
    b: OneForm | None = None,
    a: OneForm | None = None,
    grid_n: int | None = None,
    flat_tol: float = 1e-8,
    with_potential: bool = True,
) -> BandSpectrum:
    """Sweep the torus grid and collect per-band intervals.

    Defaults to the stored index and phase forms. Eigenvalues are
    checked against the a-priori range [0, 2 kappa_+] shifted by the
    potential range.
    """
    b = b if b is not None else g.index_form()
    a = a if a is not None else g.magnetic_form()
    n, thetas = _grid(g, grid_n)
    table = eigenvalue_table(g, b, a, thetas, with_potential=with_potential)
    lo = table.min(axis=0)
    hi = table.max(axis=0)
    _check_spectral_range(g, lo, hi, with_potential)
    bands = np.stack([lo, hi], axis=1)
    flat = tuple(bool(w < flat_tol) for w in hi - lo)
    return BandSpectrum(
        grid_n=n,
        flat_tol=flat_tol,
        bands=bands,
        flat=flat,
        measure=union_measure(bands),
        thetas=thetas,
        eigenvalues=table,
    )


def _cosine_levels(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Axis indices at the extreme level of c, and at the next level among the rest.

    A level holds the indices within MATRIX_TOL of the max or of the min;
    the next level is empty when every index is extremal.
    """

    def level(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = c[idx]
        near = (v >= v.max() - MATRIX_TOL) | (v <= v.min() + MATRIX_TOL)
        return idx[near], idx[~near]

    extremal, rest = level(np.arange(c.size))
    return extremal, level(rest)[0] if rest.size else rest


def harper_band_edges(q: int, p: int, grid_n: int | None = None) -> np.ndarray:
    """(q, 2) grid band ends of harper_model(q, p), bit for bit band_sweep's.

    By Chambers' relation the fiber's characteristic polynomial depends
    on theta only through one affine term in c1 = cos(theta_1) (the wrap
    edge) and c2 = cos(q theta_2) (the q loops), so each sorted
    eigenvalue is monotone in that term and takes its grid extremes
    where c1 and c2 are extreme on their axes. Only those candidate
    points are solved. The next cosine level on each axis bounds every
    other grid point: when all band values at those corners lie inside
    the candidate ends by more than 2 * MATRIX_TOL, no other point can
    reach the ends, and the candidate min/max is the full-grid min/max
    (fibers do not depend on the batch they are solved in). Otherwise,
    or when an axis has no next level, the full grid is swept.

    Raises what grid_axis raises before any solve, and CheckFailedError
    when an end escapes the a-priori spectral range.
    """
    g = harper_model(q, p)
    n = grid_n if grid_n is not None else default_grid_n(2)
    axis = grid_axis(2, n, q)
    ext1, next1 = _cosine_levels(np.cos(axis))
    ext2, next2 = _cosine_levels(np.cos(q * axis))
    if not (next1.size and next2.size):
        return band_sweep(g, grid_n=n).bands
    tau, alpha = g.index_form(), g.magnetic_form()

    def solve(*blocks: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        flat = np.unique(np.concatenate([(rows[:, None] * n + cols).ravel() for rows, cols in blocks]))
        return eigenvalue_table(g, tau, alpha, np.stack([axis[flat // n], axis[flat % n]], axis=1))

    table = solve((ext1, ext2))
    lo, hi = table.min(axis=0), table.max(axis=0)
    corners = solve((next1, ext2), (ext1, next2))
    if not (np.all(lo + 2.0 * MATRIX_TOL < corners) and np.all(corners < hi - 2.0 * MATRIX_TOL)):
        return band_sweep(g, grid_n=n).bands
    _check_spectral_range(g, lo, hi, with_potential=True)
    return np.stack([lo, hi], axis=1)


# -- verification batteries -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Analysis:
    """What the checks need of one graph, derived from a single tree scan."""

    report: InvariantReport
    mu: OneForm  # minimal index-class form
    phi: OneForm  # minimal phase-class form
    theta0: np.ndarray  # quasimomentum shift of theta0_reduction
    phi_tilde: OneForm  # phi shifted by theta0


def analyze(g: FundamentalGraph, cap: int = 10**6) -> Analysis:
    """Invariants, minimal pair and theta0 shift of g from one scan_trees call.

    Raises what validate, invariants and theta0_reduction raise.
    """
    validate(g)
    scan = scan_trees(g, (g.index_form(), g.magnetic_form()), cap=cap)
    report = invariants(g, scan=scan)
    mu, phi = minimal_pair(g, scan=scan)
    theta0, phi_tilde = theta0_reduction(g, mu, phi)
    return Analysis(report=report, mu=mu, phi=phi, theta0=theta0, phi_tilde=phi_tilde)


@dataclass(frozen=True)
class LocalizationReport:
    floor_eigenvalues: tuple[float, ...]
    support_kappa_plus: int
    band_widths_sum: float
    bound_4i: float
    bound_4beta: float
    bands: tuple[tuple[float, float], ...]

    def to_dict(self) -> dict:
        return {
            "floor_eigenvalues": list(self.floor_eigenvalues),
            "support_kappa_plus": self.support_kappa_plus,
            "band_widths_sum": self.band_widths_sum,
            "bound_4I": self.bound_4i,
            "bound_4beta": self.bound_4beta,
            "bands": [list(b) for b in self.bands],
        }


def verify_band_localization(
    g: FundamentalGraph,
    grid_n: int | None = None,
    cap: int = 10**6,
    analysis: Analysis | None = None,
) -> LocalizationReport:
    """Check band windows and the support-size measure bound.

    Every grid eigenvalue of the fiber must lie within
    [floor_n, floor_n + 2 kappa_+ on the support subgraph], where the
    floors are the eigenvalues of the operator on the graph with all
    support edges deleted; the summed band widths must not exceed four
    times the half-support of the minimal form, nor four times the
    Betti number. Violations raise LocalizationViolatedError or
    MeasureBoundViolatedError (either one means an implementation bug,
    not a failure of the underlying mathematics).

    analysis is the graph's Analysis; without it one is built, scanning
    at most cap trees.
    """
    mu = (analysis or analyze(g, cap)).mu
    alpha = g.magnetic_form()

    delta0 = split_fiber(g, mu, alpha, np.zeros((1, g.dim)))[0][0]
    h0 = delta0 + np.diag(g.potential)
    floors = hermitian_eigenvalues(h0)
    kplus = int(support_degrees(g, mu).max()) if mu.support() else 0

    _, thetas = _grid(g, grid_n)
    table = eigenvalue_table(g, mu, alpha, thetas, with_potential=True)

    low_ok = np.all(floors[None, :] - MATRIX_TOL <= table)
    high_ok = np.all(table <= floors[None, :] + 2.0 * kplus + MATRIX_TOL)
    if not (low_ok and high_ok):
        raise LocalizationViolatedError("a grid eigenvalue escaped its localization window")

    lo, hi = table.min(axis=0), table.max(axis=0)
    total = float((hi - lo).sum())
    inv_i = mu.support_size_oriented() // 2
    if not total <= 4.0 * inv_i + SWEEP_TOL:
        raise MeasureBoundViolatedError(
            f"band widths sum {total} exceeds 4*I = {4 * inv_i}"
        )
    if not total <= 4.0 * g.beta + SWEEP_TOL:
        raise MeasureBoundViolatedError(
            f"band widths sum {total} exceeds 4*beta = {4 * g.beta}"
        )
    bands = tuple((float(a), float(b)) for a, b in zip(lo, hi))
    return LocalizationReport(
        floor_eigenvalues=tuple(float(x) for x in floors),
        support_kappa_plus=kplus,
        band_widths_sum=total,
        bound_4i=4.0 * inv_i,
        bound_4beta=4.0 * g.beta,
        bands=bands,
    )


@dataclass(frozen=True)
class PerturbationBounds:
    lambda_min: float  # smallest perturbation eigenvalue over the grid
    lambda_max: float  # largest perturbation eigenvalue over the grid
    phase_bound: float  # row-sum bound from the shifted phases

    def to_dict(self) -> dict:
        return {
            "Lambda_1": self.lambda_min,
            "Lambda_nu": self.lambda_max,
            "C_phi": self.phase_bound,
        }


@dataclass(frozen=True)
class PerturbationReport:
    theta0: tuple[float, ...]
    shifted_support_size: int
    band_shift_max: float
    width_change_max: float

    def to_dict(self) -> dict:
        return {
            "theta0": list(self.theta0),
            "shifted_support_size": self.shifted_support_size,
            "band_shift_max": self.band_shift_max,
            "width_change_max": self.width_change_max,
        }


def verify_perturbation(
    g: FundamentalGraph,
    grid_n: int | None = None,
    cap: int = 10**6,
    analysis: Analysis | None = None,
) -> tuple[PerturbationBounds, PerturbationReport]:
    """Check the magnetic perturbation sandwich on the torus grid.

    Sweeps the shifted-phase fiber against the phase-free fiber and
    verifies: pointwise eigenvalue sandwich by the extreme eigenvalues
    of the perturbation matrix, the induced bounds on band ends and
    band widths, the row-sum bound on the extreme eigenvalues, and
    exact spectral agreement when the shifted phase form vanishes.
    Raises SandwichViolatedError on any failure.

    analysis is the graph's Analysis; without it one is built, scanning
    at most cap trees.
    """
    an = analysis or analyze(g, cap)
    mu, phi_tilde = an.mu, an.phi_tilde
    _, thetas = _grid(g, grid_n)
    zero = zero_phase_form(g)
    diag = np.arange(g.num_vertices)
    same = not np.any(phi_tilde.values)  # then both fibers are equal bit for bit

    def solve(th: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Each stack is built once without the potential; adding it to the
        # diagonal afterwards is exactly what fiber_stack(with_potential=True) does.
        s_a = fiber_stack(g, mu, phi_tilde, th)
        if same:
            s_a[:, diag, diag] += g.potential
            shifted = np.linalg.eigvalsh(s_a)
            return np.zeros_like(shifted), shifted, shifted
        s_0 = fiber_stack(g, mu, zero, th)
        x_eigs = np.linalg.eigvalsh(s_a - s_0)
        s_a[:, diag, diag] += g.potential
        s_0[:, diag, diag] += g.potential
        return x_eigs, np.linalg.eigvalsh(s_a), np.linalg.eigvalsh(s_0)

    x_eigs, shifted, free = _sweep(thetas, g.num_vertices, solve, tables=3)

    lam_min = float(x_eigs[:, 0].min())
    lam_max = float(x_eigs[:, -1].max())
    c_bound = phase_perturbation_bound(g, phi_tilde)

    if not np.all(free + lam_min - MATRIX_TOL <= shifted):
        raise SandwichViolatedError("lower pointwise sandwich violated")
    if not np.all(shifted <= free + lam_max + MATRIX_TOL):
        raise SandwichViolatedError("upper pointwise sandwich violated")

    lo_a, hi_a = shifted.min(axis=0), shifted.max(axis=0)
    lo_0, hi_0 = free.min(axis=0), free.max(axis=0)
    shifts = np.concatenate([lo_a - lo_0, hi_a - hi_0])
    if not (lam_min - SWEEP_TOL <= shifts.min() and shifts.max() <= lam_max + SWEEP_TOL):
        raise SandwichViolatedError("band-end shift escaped the sandwich")
    width_change = np.abs((hi_a - lo_a) - (hi_0 - lo_0))
    if not np.max(width_change, initial=0.0) <= (lam_max - lam_min) + SWEEP_TOL:
        raise SandwichViolatedError("band-width change exceeds the sandwich spread")
    if not max(abs(lam_min), abs(lam_max)) <= c_bound + MATRIX_TOL:
        raise SandwichViolatedError("extreme perturbation eigenvalue exceeds the row-sum bound")
    if not lam_max - lam_min <= 2.0 * c_bound + MATRIX_TOL:
        raise SandwichViolatedError("perturbation spread exceeds twice the row-sum bound")
    if not phi_tilde.support() and not np.max(np.abs(shifted - free)) <= MATRIX_TOL:
        raise SandwichViolatedError("vanishing shifted phases must leave the spectrum unchanged")

    bounds = PerturbationBounds(lambda_min=lam_min, lambda_max=lam_max, phase_bound=c_bound)
    report = PerturbationReport(
        theta0=tuple(float(x) for x in an.theta0),
        shifted_support_size=phi_tilde.support_size_oriented(),
        band_shift_max=float(np.max(np.abs(shifts), initial=0.0)),
        width_change_max=float(np.max(width_change, initial=0.0)),
    )
    return bounds, report


def sy_sunada_check(g: FundamentalGraph, grid_n: int | None = None) -> bool:
    """Bottom of the first band of the phase-free operator sits at theta = 0.

    Defined only for graphs with zero phases; the potential may be
    arbitrary.
    """
    if g.magnetic_form().support():
        raise GraphDataError("bottom-of-spectrum check requires zero phases")
    tau = g.index_form()
    zero = zero_phase_form(g)
    at_zero = eigenvalue_table(g, tau, zero, np.zeros((1, g.dim)), with_potential=True)[0, 0]
    table = eigenvalue_table(g, tau, zero, _grid(g, grid_n)[1], with_potential=True)
    return bool(at_zero <= table[:, 0].min() + MATRIX_TOL)


def verify_gauge_equivalence(
    g: FundamentalGraph,
    n_thetas: int = 20,
    seed: int = 0,
    cap: int = 10**6,
    analysis: Analysis | None = None,
) -> bool:
    """Sorted fiber spectra agree across flux-equivalent form pairs.

    Compares the stored pair, the minimal pair, and the pair gauged to
    vanish on the first spanning tree, at random quasimomenta. Raises
    CheckFailedError on disagreement beyond 1e-9.

    analysis is the graph's Analysis; without it one is built, scanning
    at most cap trees.
    """
    an = analysis or analyze(g, cap)
    tau, alpha = g.index_form(), g.magnetic_form()
    first = first_spanning_tree(g)
    pairs = [(tau, alpha), (an.mu, an.phi), (tree_form(g, tau, first), tree_form(g, alpha, first))]

    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-np.pi, np.pi, size=(n_thetas, g.dim))
    tables = [eigenvalue_table(g, b, a, thetas, with_potential=True) for b, a in pairs]
    for other in tables[1:]:
        if not np.max(np.abs(other - tables[0])) <= MATRIX_TOL:
            raise CheckFailedError("flux-equivalent pairs produced different fiber spectra")
    return True


_SPLITTING_FAILURES = (
    "support splitting is not exact",
    "support part of the fiber is not PSD",
    "support part exceeds twice its degree matrix",
)


def verify_positive_splitting(
    g: FundamentalGraph,
    n_thetas: int = 20,
    seed: int = 0,
    cap: int = 10**6,
    analysis: Analysis | None = None,
) -> bool:
    """Support part of the fiber is PSD and bounded by twice its degree matrix.

    Also checks that the off-support and support parts sum exactly to
    the full fiber. All quasimomenta are checked in one batch; the
    CheckFailedError raised names the first violation in quasimomentum
    order, and at one quasimomentum in the order above (exactness first).

    analysis is the graph's Analysis; without it one is built, scanning
    at most cap trees.
    """
    mu = (analysis or analyze(g, cap)).mu
    alpha = g.magnetic_form()
    two_b = 2.0 * np.diag(support_degrees(g, mu).astype(float))
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-np.pi, np.pi, size=(n_thetas, g.dim))
    full = fiber_stack(g, mu, alpha, thetas)
    delta0, delta_tilde = split_fiber(g, mu, alpha, thetas)
    split_gap = np.abs(full - (delta0 + delta_tilde)).max(axis=(1, 2))
    failed = np.stack(
        [
            ~(split_gap <= 1e-12 * (1 + np.linalg.norm(full, axis=(1, 2)))),
            ~(-MATRIX_TOL <= np.linalg.eigvalsh(delta_tilde)[:, 0]),
            ~(-MATRIX_TOL <= np.linalg.eigvalsh(two_b - delta_tilde)[:, 0]),
        ],
        axis=1,
    )
    if failed.any():
        raise CheckFailedError(_SPLITTING_FAILURES[np.argwhere(failed)[0, 1]])
    return True

