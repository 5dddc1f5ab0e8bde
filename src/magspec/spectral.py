"""Eigenvalues, quasimomentum sweeps, spectral bands and verification batteries.

Band n of the periodic operator is the range of the n-th sorted fiber
eigenvalue over the torus; here the torus is sampled on a uniform
inclusive grid linspace(-pi, pi, N) per dimension, which contains 0 and
both endpoints for odd N so that the cosine-type extrema of the stock
lattices land exactly on grid points. Sweeps stream the grid on one
thread in the chunks of _eigenvalue_chunks, whose fiber stacks (all
those a chunk holds at once: three in the perturbation check) fit
together in a fixed budget. Each sweep folds every chunk into running
band ends as it is solved and keeps no (K, nu) eigenvalue table, so
memory is bounded by one chunk; grids over a fixed sweep size are
refused before anything is allocated. The butterfly's Harper models
solve only the grid points where their band ends can lie
(harper_band_edges), with the same result as the full sweep.

The verify_* functions turn the structural facts about these operators
into numerical checks: band localization against the off-support
operator, the support-size bound on the total band measure, the
perturbation sandwich under a magnetic field, positivity of the
support part of the fiber, the gauge identity of fibers (entry for
entry, through gauge_weights), and the exponent counts of the minimal
pair. Each takes only the Analysis of one graph (analyze validates
the graph and fixes the grid and the seed of the random quasimomenta)
and returns the detail dict that `verify` prints, or raises
CheckFailedError. sy_sunada_check, the bottom-of-spectrum property of
the phase-free operator, follows the same contract. The grid checks
read one (mu, alpha) sweep, Analysis.ends, made on its first read:
sy_sunada_check runs only when the phases carry no flux, and then a
gauge conjugates (mu, alpha) to (mu, 0). Shifted phases that are all
exactly zero leave the perturbation sandwich nothing to solve; a phase
below the support tolerance is swept, bounded by C_phi and counted
like any other.
Tolerances here are base tolerances; the rounding rule of
fiber_operator (potential_allowance, phase_allowance) adds float
rounding to them, or refuses magnitudes it cannot bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    CheckFailedError,
    FluxMismatchError,
    GraphDataError,
    GridTooCoarseError,
    GridTooLargeError,
    LocalizationViolatedError,
    MeasureBoundViolatedError,
    SandwichViolatedError,
)
from .fiber_operator import (
    add_to_diagonals,
    count_nontrivial_exponents,
    fiber_stack,
    gauge_weights,
    hermitian_eigenvalues,
    phase_allowance,
    phase_perturbation_bound,
    potential_allowance,
    split_fiber,
    support_degrees,
    theta0_reduction,
    zero_phase_form,
)
from .forms_cycles import (
    DEFAULT_TREE_CAP,
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
FLAT_TOL = 1e-8  # a band narrower than this is flat
_CHUNK_BYTES = 4 << 20  # every complex fiber stack a sweep chunk holds at once, together
_SWEEP_BUDGET_BYTES = 1 << 28  # largest sweep: bytes of its theta grid or of a (K, nu) table


def default_grid_n(d: int) -> int:
    """Default torus resolution: 101 per dimension for d <= 2, 21 for d >= 3."""
    return 101 if d <= 2 else 21


def grid_axis(d: int, n: int | None = None, nu: int = 1) -> np.ndarray:
    """One axis of the inclusive uniform grid on [-pi, pi]^d, after the grid checks.

    n points per axis, default_grid_n(d) when None. Raises
    GridTooCoarseError for n < 3, and GridTooLargeError, before
    allocating, when the sweep is over budget: when the n^d grid, or an
    (n^d, nu) eigenvalue table over it, would exceed _SWEEP_BUDGET_BYTES.
    """
    n = n if n is not None else default_grid_n(d)
    if n < 3:
        raise GridTooCoarseError(f"grid needs at least 3 points per dimension, got {n}")
    # n >= 3, so a d this large is over budget; n**d would be a huge power to compute
    if d >= _SWEEP_BUDGET_BYTES.bit_length() or n**d * max(d, nu) * 8 > _SWEEP_BUDGET_BYTES:
        raise GridTooLargeError(
            f"a {n}^{d} grid with {nu} bands exceeds the "
            f"{_SWEEP_BUDGET_BYTES >> 20} MiB sweep budget"
        )
    axis = np.linspace(-np.pi, np.pi, n)
    if n % 2 == 1:
        axis[n // 2] = 0.0  # linspace leaves the center a few ulp off zero
    return axis


def theta_grid(d: int, n: int | None = None, nu: int = 1) -> np.ndarray:
    """Inclusive uniform grid on [-pi, pi]^d, flattened to (n^d, d).

    Raises what grid_axis raises, before allocating.
    """
    axis = grid_axis(d, n, nu)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _chunks(k: int, nu: int, stacks: int = 1) -> list[slice]:
    """Row slices of a k-row sweep, in order.

    The stacks of complex nu x nu fibers that a chunk holds at once fit
    in _CHUNK_BYTES together (a slice keeps a single fiber when even one
    per stack is larger).
    """
    step = max(1, _CHUNK_BYTES // (stacks * 16 * max(nu, 1) ** 2))
    return [slice(lo, lo + step) for lo in range(0, k, step)]


def _eigenvalue_chunks(
    g: FundamentalGraph,
    thetas: np.ndarray,
    *pairs: tuple[OneForm, OneForm],
    difference: bool = False,
) -> Iterator[tuple[slice, list[np.ndarray]]]:
    """Row slice and sorted eigenvalues of each chunk of a (K, d) theta array, in order.

    Per chunk: the eigenvalues of the fibers of each (b, a) pair with the
    potential; with difference, then those of the first pair's fibers
    minus the second's, without it. A chunk's stacks (one per pair, and
    the difference) fit in _CHUNK_BYTES together and are dropped before
    the next chunk is built, so a caller that folds the yielded rows
    holds no (K, nu) array.
    """
    for rows in _chunks(thetas.shape[0], g.num_vertices, len(pairs) + difference):
        stacks = [fiber_stack(g, b, a, thetas[rows]) for b, a in pairs]
        # the difference is taken before the potential is added in place
        extra = [np.linalg.eigvalsh(stacks[0] - stacks[1])] if difference else []
        eigs = [np.linalg.eigvalsh(add_to_diagonals(s, g.potential)) for s in stacks]
        del stacks  # else held while the next chunk's stacks are built
        yield rows, eigs + extra


def _fold(ends: tuple, rows: np.ndarray) -> tuple:
    """Running (min, max) ends with rows' column minima and maxima folded in; a NaN stays."""
    return np.minimum(ends[0], rows.min(axis=0)), np.maximum(ends[1], rows.max(axis=0))


_NO_ENDS = (np.inf, -np.inf)  # the ends before any row is folded in


def eigenvalue_table(
    g: FundamentalGraph,
    b: OneForm,
    a: OneForm,
    thetas: np.ndarray,
) -> np.ndarray:
    """(K, nu) sorted eigenvalues of fibers with the potential, a row per theta, in chunks."""
    thetas = np.atleast_2d(thetas)
    table = np.empty((thetas.shape[0], g.num_vertices))
    for rows, (eigs,) in _eigenvalue_chunks(g, thetas, (b, a)):
        table[rows] = eigs
    return table


def _band_ends(
    g: FundamentalGraph,
    b: OneForm,
    a: OneForm,
    thetas: np.ndarray,
    on_chunk: Callable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-band (min, max) of the sorted eigenvalues over thetas, folded chunk by chunk.

    on_chunk, if given, gets each chunk's theta rows and eigenvalue rows
    as they are solved.
    """
    ends = _NO_ENDS
    for rows, (eigs,) in _eigenvalue_chunks(g, thetas, (b, a)):
        ends = _fold(ends, eigs)
        if on_chunk is not None:
            on_chunk(thetas[rows], eigs)
    return ends


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

    bands: np.ndarray  # (nu, 2) per-band [min, max]
    flat: tuple[bool, ...]
    measure: float

    def to_dict(self) -> dict:
        return {
            "bands": [[float(lo), float(hi)] for lo, hi in self.bands],
            "flat": list(self.flat),
            "measure": float(self.measure),
        }


def _check_spectral_range(g: FundamentalGraph, lo: np.ndarray, hi: np.ndarray) -> None:
    """Band ends must lie in [0, 2 kappa_+], shifted by the potential range."""
    q_lo, q_hi = float(g.potential.min()), float(g.potential.max())
    tol = MATRIX_TOL + potential_allowance(g)
    if not (q_lo - tol <= lo.min() and hi.max() <= 2.0 * g.kappa_plus() + q_hi + tol):
        raise CheckFailedError("fiber eigenvalue escaped the a-priori spectral range")


def band_sweep(
    g: FundamentalGraph,
    b: OneForm | None = None,
    a: OneForm | None = None,
    grid_n: int | None = None,
    on_chunk: Callable[[np.ndarray, np.ndarray], object] | None = None,
) -> BandSpectrum:
    """Sweep the torus grid and collect per-band intervals.

    Defaults to the stored index and phase forms. Band ends are checked
    against the a-priori range [0, 2 kappa_+] shifted by the potential
    range, and a band is flat when narrower than FLAT_TOL plus the
    potential_allowance, which refuses potentials above 2^42 before
    any solve. on_chunk, if given, gets the theta rows and eigenvalue
    rows of each chunk, in grid order, as they are solved (before the
    range check); no table of them is kept.
    """
    flat_tol = FLAT_TOL + potential_allowance(g)
    b = b if b is not None else g.index_form()
    a = a if a is not None else g.magnetic_form()
    lo, hi = _band_ends(g, b, a, theta_grid(g.dim, grid_n, g.num_vertices), on_chunk)
    _check_spectral_range(g, lo, hi)
    bands = np.stack([lo, hi], axis=1)
    flat = tuple(bool(w < flat_tol) for w in hi - lo)
    return BandSpectrum(bands=bands, flat=flat, measure=union_measure(bands))


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
    (fibers do not depend on the batch they are solved in); an axis
    with no next level adds no corners, since all its points are
    candidates. Otherwise the full grid is swept.

    Raises what grid_axis raises before any solve, and CheckFailedError
    when an end escapes the a-priori spectral range.
    """
    g = harper_model(q, p)
    axis = grid_axis(2, grid_n, q)
    n = axis.size
    ext1, next1 = _cosine_levels(np.cos(axis))
    ext2, next2 = _cosine_levels(np.cos(q * axis))
    tau, alpha = g.index_form(), g.magnetic_form()

    def solve(*blocks: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        flat = np.unique(np.concatenate([(rows[:, None] * n + cols).ravel() for rows, cols in blocks]))
        return eigenvalue_table(g, tau, alpha, np.stack([axis[flat // n], axis[flat % n]], axis=1))

    lo, hi = _fold(_NO_ENDS, solve((ext1, ext2)))
    corners = solve((next1, ext2), (ext1, next2))
    if not (np.all(lo + 2.0 * MATRIX_TOL < corners) and np.all(corners < hi - 2.0 * MATRIX_TOL)):
        return band_sweep(g, grid_n=n).bands
    _check_spectral_range(g, lo, hi)
    return np.stack([lo, hi], axis=1)


# -- verification batteries -----------------------------------------------------------

N_THETAS = 20  # random quasimomenta of the gauge and splitting checks


@dataclass(frozen=True, eq=False)
class Analysis:
    """What the checks need of one graph from one tree scan, and where they sample the torus."""

    g: FundamentalGraph
    report: InvariantReport
    tau: OneForm  # stored index form
    alpha: OneForm  # stored phase form
    allowance: float  # potential_allowance(g)
    mu: OneForm  # minimal index-class form
    phi: OneForm  # minimal phase-class form
    theta0: np.ndarray  # quasimomentum shift of theta0_reduction
    phi_tilde: OneForm  # phi shifted by theta0
    grid_n: int  # points per axis of the torus grid
    seed: int  # of the random quasimomenta

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Band ends (lo, hi) of (mu, alpha) over the torus grid, swept on first read."""
        g = self.g
        return _band_ends(g, self.mu, self.alpha, theta_grid(g.dim, self.grid_n, g.num_vertices))

    @cached_property
    def random_thetas(self) -> np.ndarray:
        """(N_THETAS, d) quasimomenta of the gauge and splitting checks, drawn on first read."""
        rng = np.random.default_rng(self.seed)  # bands reads none: it skips importing numpy.random
        return rng.uniform(-np.pi, np.pi, size=(N_THETAS, self.g.dim))


def analyze(
    g: FundamentalGraph, cap: int = DEFAULT_TREE_CAP, grid_n: int | None = None, seed: int = 0
) -> Analysis:
    """Invariants, minimal pair and theta0 shift of g from one scan_trees call.

    The grid has grid_n points per axis (default_grid_n when None); the
    random quasimomenta are drawn from seed. Raises what validate,
    grid_axis and potential_allowance raise (in that order, before the
    scan), then what invariants, phase_allowance (on the stored and the
    minimal pair) and theta0_reduction raise.
    """
    validate(g)
    grid_n = grid_axis(g.dim, grid_n, g.num_vertices).size
    allowance = potential_allowance(g)
    tau, alpha = g.index_form(), g.magnetic_form()
    scan = scan_trees(g, (tau, alpha), cap=cap)
    report = invariants(g, scan=scan)
    mu, phi = minimal_pair(g, scan=scan)
    phase_allowance((tau.values, alpha.values), (mu.values, phi.values))
    theta0, phi_tilde = theta0_reduction(g, mu, phi)
    return Analysis(g=g, report=report, tau=tau, alpha=alpha, allowance=allowance,
                    mu=mu, phi=phi, theta0=theta0, phi_tilde=phi_tilde, grid_n=grid_n, seed=seed)


def verify_band_localization(an: Analysis) -> dict:
    """Check band windows and the support-size measure bound.

    Every grid eigenvalue of the fiber must lie within
    [floor_n, floor_n + 2 kappa_+ on the support subgraph], where the
    floors are the eigenvalues of the operator on the graph with all
    support edges deleted; the summed band widths must not exceed four
    times the half-support of the minimal form, nor four times the
    Betti number. Violations raise LocalizationViolatedError or
    MeasureBoundViolatedError (either one means an implementation bug,
    not a failure of the underlying mathematics). Returns the floors,
    the support's kappa_+, the width sum, both bounds and the grid bands.
    """
    g, mu = an.g, an.mu
    tol, sweep_tol = MATRIX_TOL + an.allowance, SWEEP_TOL + an.allowance

    delta0 = split_fiber(g, mu, an.alpha, np.zeros((1, g.dim)))[0][0]
    h0 = delta0 + np.diag(g.potential)
    floors = hermitian_eigenvalues(h0)
    kplus = int(support_degrees(g, mu).max())

    # every grid eigenvalue lies in its window exactly when the band ends do
    lo, hi = an.ends
    if not (np.all(floors - tol <= lo) and np.all(hi <= floors + 2.0 * kplus + tol)):
        raise LocalizationViolatedError("a grid eigenvalue escaped its localization window")

    total = float((hi - lo).sum())
    inv_i = an.report.I
    if not total <= 4.0 * inv_i + sweep_tol:
        raise MeasureBoundViolatedError(f"band widths sum {total} exceeds 4*I = {4 * inv_i}")
    if not total <= 4.0 * g.beta + sweep_tol:
        raise MeasureBoundViolatedError(f"band widths sum {total} exceeds 4*beta = {4 * g.beta}")
    return {
        "floor_eigenvalues": [float(x) for x in floors],
        "support_kappa_plus": kplus,
        "band_widths_sum": total,
        "bound_4I": 4.0 * inv_i,
        "bound_4beta": 4.0 * g.beta,
        "bands": [[float(a), float(b)] for a, b in zip(lo, hi)],
    }


def verify_perturbation(an: Analysis) -> dict:
    """Check the magnetic perturbation sandwich on the torus grid.

    Sweeps the shifted-phase fiber against the phase-free fiber and
    verifies: pointwise eigenvalue sandwich by the extreme eigenvalues
    of the perturbation matrix, the induced bounds on band ends and
    band widths, and the row-sum bound C_phi over every edge on the
    extreme eigenvalues (within MATRIX_TOL plus the phase_allowance of
    the fiber's phases), so no shift, even by phases below the support
    tolerance, exceeds C_phi and the tolerances. Shifted phases that are
    all exactly zero make both fibers equal and the perturbation matrix
    zero, so nothing is solved. Raises SandwichViolatedError on any failure.
    Returns the extreme perturbation eigenvalues Lambda_1 and Lambda_nu,
    the row-sum bound C_phi, the theta0 shift, the shifted support size,
    and the largest band-end shift and band-width change.
    """
    g, mu, phi_tilde = an.g, an.mu, an.phi_tilde
    thetas = theta_grid(g.dim, an.grid_n, g.num_vertices)
    lam_min = lam_max = band_shift = width_change = 0.0
    if np.any(phi_tilde.values):
        pairs = (mu, phi_tilde), (mu, zero_phase_form(g))
        # running ends: per band of each spectrum, of shifted - free over the grid, and
        # of the perturbation matrix's first and last eigenvalues
        ends_a = ends_0 = gap = lam = _NO_ENDS
        for _, (shifted, free, x_eigs) in _eigenvalue_chunks(g, thetas, *pairs, difference=True):
            ends_a, ends_0 = _fold(ends_a, shifted), _fold(ends_0, free)
            gap, lam = _fold(gap, (shifted - free).ravel()), _fold(lam, x_eigs[:, [0, -1]])
        lam_min, lam_max = float(lam[0][0]), float(lam[1][1])
        # Both swept spectra carry the potential; the perturbation matrix does not.
        tol, sweep_tol = MATRIX_TOL + an.allowance, SWEEP_TOL + an.allowance

        # free + Lambda_1 - tol <= shifted <= free + Lambda_nu + tol at every grid point
        if not lam_min - tol <= gap[0]:
            raise SandwichViolatedError("lower pointwise sandwich violated")
        if not gap[1] <= lam_max + tol:
            raise SandwichViolatedError("upper pointwise sandwich violated")

        (lo_a, hi_a), (lo_0, hi_0) = ends_a, ends_0
        shifts = np.concatenate([lo_a - lo_0, hi_a - hi_0])
        if not (lam_min - sweep_tol <= shifts.min() and shifts.max() <= lam_max + sweep_tol):
            raise SandwichViolatedError("band-end shift escaped the sandwich")
        widths = np.abs((hi_a - lo_a) - (hi_0 - lo_0))
        if not np.max(widths, initial=0.0) <= (lam_max - lam_min) + sweep_tol:
            raise SandwichViolatedError("band-width change exceeds the sandwich spread")
        band_shift = float(np.max(np.abs(shifts), initial=0.0))
        width_change = float(np.max(widths, initial=0.0))
    c_bound = phase_perturbation_bound(g, phi_tilde)
    c_tol = MATRIX_TOL + phase_allowance((mu.values, phi_tilde.values))
    if not max(abs(lam_min), abs(lam_max)) <= c_bound + c_tol:
        raise SandwichViolatedError("extreme perturbation eigenvalue exceeds the row-sum bound")
    if not lam_max - lam_min <= 2.0 * c_bound + c_tol:
        raise SandwichViolatedError("perturbation spread exceeds twice the row-sum bound")

    return {
        "Lambda_1": lam_min,
        "Lambda_nu": lam_max,
        "C_phi": c_bound,
        "theta0": [float(x) for x in an.theta0],
        "shifted_support_size": phi_tilde.support_size_oriented(),
        "band_shift_max": band_shift,
        "width_change_max": width_change,
    }


def verify_exponent_counts(an: Analysis) -> dict:
    """Nontrivial exponent counts of the minimal pair are twice the invariants.

    The minimal pair must have 2 I quasimomentum-, 2 I_alpha phase- and
    2 I_mu_phi jointly nontrivial exponents, and the stored pair at least
    as many of the first two; otherwise raises CheckFailedError. The
    stored phases count where exactly nonzero: a tree grown from the
    exactly zero ones leaves no more chords of nonzero flux. Returns
    the minimal pair's three counts.
    """
    g, rep = an.g, an.report
    n_theta, n_phase, n_both = count_nontrivial_exponents(g, an.mu, an.phi)
    if (n_theta, n_phase, n_both) != (2 * rep.I, 2 * rep.I_alpha, 2 * rep.I_mu_phi):
        raise CheckFailedError(
            f"minimal-pair exponent counts {(n_theta, n_phase, n_both)} disagree with invariants"
        )
    r_theta = count_nontrivial_exponents(g, an.tau, an.alpha)[0]
    if r_theta < n_theta or 2 * np.count_nonzero(an.alpha.values) < n_phase:
        raise CheckFailedError("stored pair has fewer nontrivial exponents than the minimum")
    return {"theta_dependent": n_theta, "phase_dependent": n_phase, "joint": n_both}


def sy_sunada_check(an: Analysis) -> dict:
    """Bottom of the first band of the phase-free operator sits at theta = 0.

    Defined only for graphs whose phases carry no flux, I_alpha == 0
    (GraphDataError otherwise): a gauge then makes them zero, whatever
    their stored values. The potential may be arbitrary. That gauge is
    diagonal and the same at every theta, so the (mu, alpha) fiber has
    the spectrum of the (mu, 0) one: the check reads band localization's
    (mu, alpha) band ends and the (mu, alpha) fiber at theta = 0. Raises
    CheckFailedError when the first band dips below its value at
    theta = 0 by more than the tolerance; returns
    {"attained_at_zero": True}.
    """
    if an.report.I_alpha:
        raise GraphDataError("bottom-of-spectrum check requires phases without flux")
    at_zero = eigenvalue_table(an.g, an.mu, an.alpha, np.zeros((1, an.g.dim)))[0, 0]
    lo, _ = an.ends
    if not at_zero <= lo[0] + (MATRIX_TOL + an.allowance):
        raise CheckFailedError("first band bottom is not attained at theta = 0")
    return {"attained_at_zero": True}


def verify_gauge_equivalence(an: Analysis) -> dict:
    """The diagonal gauge conjugates flux-equivalent fibers entry for entry.

    Checks conj(D) H(b, a) D == H(tau, alpha) at N_THETAS random
    quasimomenta for the minimal pair and the pair gauged to vanish on
    the first spanning tree, with D from gauge_weights(g, b, a); equal
    spectra follow. The fibers leave out the potential, a diagonal that
    D leaves unchanged, so the tolerance is MATRIX_TOL plus the
    phase_allowance of the largest phase either side exponentiates.
    Raises CheckFailedError beyond it, or when a pair is not
    flux-equivalent, and IndexOverflowError, before any fiber is
    assembled, when a gauge weight's phase passes 2^42: weights sum
    along tree paths, so they can pass it where no edge does. Returns
    the numbers of pairs (the stored one included) and thetas.
    """
    g, tau, alpha = an.g, an.tau, an.alpha
    first = first_spanning_tree(g)
    pairs = [(an.mu, an.phi), (tree_form(g, tau, first), tree_form(g, alpha, first))]
    gauges = []  # per pair: (b, a, weights, tolerance)
    for b, a in pairs:
        try:
            weights = gauge_weights(g, b, a)
        except FluxMismatchError as exc:
            raise CheckFailedError(f"a scanned pair is not flux-equivalent: {exc}") from exc
        phases = (tau.values, alpha.values), (b.values, a.values), (weights.w_b, weights.w_a)
        gauges.append((b, a, weights, MATRIX_TOL + phase_allowance(*phases)))

    thetas = an.random_thetas
    stored = fiber_stack(g, tau, alpha, thetas)
    for b, a, weights, tol in gauges:
        d = weights.diagonal_unitary(thetas)
        conjugated = np.conj(d)[:, :, None] * fiber_stack(g, b, a, thetas) * d[:, None, :]
        if not np.max(np.abs(conjugated - stored)) <= tol:
            raise CheckFailedError("the gauge does not conjugate flux-equivalent fibers")
    return {"pairs": 1 + len(pairs), "thetas": N_THETAS}


_SPLITTING_FAILURES = (
    "support splitting is not exact",
    "support part of the fiber is not PSD",
    "support part exceeds twice its degree matrix",
)


def verify_positive_splitting(an: Analysis) -> dict:
    """Support part of the fiber is PSD and bounded by twice its degree matrix.

    Also checks that the off-support and support parts sum exactly to
    the full fiber. All N_THETAS random quasimomenta are checked in one
    batch; the CheckFailedError raised names the first violation in
    quasimomentum order, and at one quasimomentum in the order above
    (exactness first). The fibers carry no potential, so the tolerances
    are absolute. Returns the number of quasimomenta.
    """
    g, mu = an.g, an.mu
    two_b = 2.0 * np.diag(support_degrees(g, mu).astype(float))
    thetas = an.random_thetas
    full = fiber_stack(g, mu, an.alpha, thetas)
    delta0, delta_tilde = split_fiber(g, mu, an.alpha, thetas)
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
    return {"thetas": N_THETAS}
