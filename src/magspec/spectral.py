"""Eigenvalues, quasimomentum sweeps, spectral bands and verification batteries.

Band n of the periodic operator is the range of the n-th sorted fiber
eigenvalue over the torus; here the torus is sampled on a uniform
inclusive grid linspace(-pi, pi, N) per dimension, which contains 0 and
both endpoints for odd N so that the cosine-type extrema of the stock
lattices land exactly on grid points.

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
from typing import Sequence

import numpy as np

from .errors import (
    CheckFailedError,
    GraphDataError,
    GridTooCoarseError,
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
from .forms_cycles import first_spanning_tree, minimal_form, minimal_pair
from .graph_model import FundamentalGraph, OneForm

MATRIX_TOL = 1e-9  # matrix-level facts
SWEEP_TOL = 1e-6  # quantities extremized over a grid
HERMITICITY_TOL = 1e-12


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


def theta_grid(d: int, n: int) -> np.ndarray:
    """Inclusive uniform grid on [-pi, pi]^d, flattened to (n^d, d)."""
    if n < 3:
        raise GridTooCoarseError(f"grid needs at least 3 points per dimension, got {n}")
    axis = np.linspace(-np.pi, np.pi, n)
    if n % 2 == 1:
        axis[n // 2] = 0.0  # linspace leaves the center a few ulp off zero
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _num_threads() -> int:
    try:
        return max(1, int(os.environ.get("MAGSPEC_THREADS", "1")))
    except ValueError:
        return 1


def eigenvalue_table(
    g: FundamentalGraph,
    b: OneForm,
    a: OneForm,
    thetas: np.ndarray,
    with_potential: bool = True,
) -> np.ndarray:
    """(K, nu) sorted fiber eigenvalues, one row per quasimomentum.

    The sweep is embarrassingly parallel; MAGSPEC_THREADS > 1 splits the
    grid across a thread pool with an order-preserving merge.
    """
    thetas = np.atleast_2d(thetas)
    jobs = _num_threads()
    if jobs == 1 or thetas.shape[0] < 4 * jobs:
        return np.linalg.eigvalsh(fiber_stack(g, b, a, thetas, with_potential=with_potential))
    chunks = np.array_split(np.arange(thetas.shape[0]), jobs)

    def work(ix: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(
            fiber_stack(g, b, a, thetas[ix], with_potential=with_potential)
        )

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(work, chunks))
    return np.vstack(parts)


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
    n = grid_n if grid_n is not None else default_grid_n(g.dim)
    thetas = theta_grid(g.dim, n)
    table = eigenvalue_table(g, b, a, thetas, with_potential=with_potential)
    lo = table.min(axis=0)
    hi = table.max(axis=0)
    q_lo = float(g.potential.min()) if with_potential else 0.0
    q_hi = float(g.potential.max()) if with_potential else 0.0
    if lo.min() < q_lo - MATRIX_TOL or hi.max() > 2.0 * g.kappa_plus() + q_hi + MATRIX_TOL:
        raise CheckFailedError("fiber eigenvalue escaped the a-priori spectral range")
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


def eigenvalue_lipschitz_bound(mu: OneForm) -> float:
    """Crude bound on eigenvalue variation per unit quasimomentum step.

    Sum of the 1-norms of the index-class values over oriented support
    edges; a grid-sanity alarm, not a sharp constant.
    """
    supp = mu.support()
    if not supp:
        return 0.0
    return float(2.0 * np.sum(np.abs(np.asarray(mu.values, dtype=float)[list(supp)])))


# -- verification batteries -----------------------------------------------------------


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
    mu: OneForm | None = None,
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
    """
    if mu is None:
        mu, _, _ = minimal_form(g, g.index_form(), cap=cap)
    alpha = g.magnetic_form()
    n = grid_n if grid_n is not None else default_grid_n(g.dim)

    delta0, _ = split_fiber(g, mu, alpha, np.zeros(g.dim))
    h0 = delta0 + np.diag(g.potential)
    floors = hermitian_eigenvalues(h0)
    kplus = int(support_degrees(g, mu).max()) if mu.support() else 0

    thetas = theta_grid(g.dim, n)
    table = eigenvalue_table(g, mu, alpha, thetas, with_potential=True)

    low_ok = np.all(table >= floors[None, :] - MATRIX_TOL)
    high_ok = np.all(table <= floors[None, :] + 2.0 * kplus + MATRIX_TOL)
    if not (low_ok and high_ok):
        raise LocalizationViolatedError("a grid eigenvalue escaped its localization window")

    widths = table.max(axis=0) - table.min(axis=0)
    total = float(widths.sum())
    inv_i = mu.support_size_oriented() // 2
    if total > 4.0 * inv_i + SWEEP_TOL:
        raise MeasureBoundViolatedError(
            f"band widths sum {total} exceeds 4*I = {4 * inv_i}"
        )
    if total > 4.0 * g.beta + SWEEP_TOL:
        raise MeasureBoundViolatedError(
            f"band widths sum {total} exceeds 4*beta = {4 * g.beta}"
        )
    bands = tuple(
        (float(lo), float(hi)) for lo, hi in zip(table.min(axis=0), table.max(axis=0))
    )
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
    g: FundamentalGraph, grid_n: int | None = None, cap: int = 10**6
) -> tuple[PerturbationBounds, PerturbationReport]:
    """Check the magnetic perturbation sandwich on the torus grid.

    Sweeps the shifted-phase fiber against the phase-free fiber and
    verifies: pointwise eigenvalue sandwich by the extreme eigenvalues
    of the perturbation matrix, the induced bounds on band ends and
    band widths, the row-sum bound on the extreme eigenvalues, and
    exact spectral agreement when the shifted phase form vanishes.
    Raises SandwichViolatedError on any failure.
    """
    mu, phi = minimal_pair(g, cap=cap)
    theta0, phi_tilde = theta0_reduction(g, mu, phi)

    n = grid_n if grid_n is not None else default_grid_n(g.dim)
    thetas = theta_grid(g.dim, n)
    zero = zero_phase_form(g)

    shifted = eigenvalue_table(g, mu, phi_tilde, thetas, with_potential=True)
    free = eigenvalue_table(g, mu, zero, thetas, with_potential=True)
    x_stack = fiber_stack(g, mu, phi_tilde, thetas) - fiber_stack(g, mu, zero, thetas)
    x_eigs = np.linalg.eigvalsh(x_stack)

    lam_min = float(x_eigs[:, 0].min())
    lam_max = float(x_eigs[:, -1].max())
    c_bound = phase_perturbation_bound(g, phi_tilde)

    if not np.all(shifted >= free + lam_min - MATRIX_TOL):
        raise SandwichViolatedError("lower pointwise sandwich violated")
    if not np.all(shifted <= free + lam_max + MATRIX_TOL):
        raise SandwichViolatedError("upper pointwise sandwich violated")

    lo_a, hi_a = shifted.min(axis=0), shifted.max(axis=0)
    lo_0, hi_0 = free.min(axis=0), free.max(axis=0)
    shifts = np.concatenate([lo_a - lo_0, hi_a - hi_0])
    if shifts.min() < lam_min - SWEEP_TOL or shifts.max() > lam_max + SWEEP_TOL:
        raise SandwichViolatedError("band-end shift escaped the sandwich")
    width_change = np.abs((hi_a - lo_a) - (hi_0 - lo_0))
    if np.max(width_change, initial=0.0) > (lam_max - lam_min) + SWEEP_TOL:
        raise SandwichViolatedError("band-width change exceeds the sandwich spread")
    if max(abs(lam_min), abs(lam_max)) > c_bound + MATRIX_TOL:
        raise SandwichViolatedError("extreme perturbation eigenvalue exceeds the row-sum bound")
    if lam_max - lam_min > 2.0 * c_bound + MATRIX_TOL:
        raise SandwichViolatedError("perturbation spread exceeds twice the row-sum bound")
    if not phi_tilde.support():
        if np.max(np.abs(shifted - free)) > MATRIX_TOL:
            raise SandwichViolatedError(
                "vanishing shifted phases must leave the spectrum unchanged"
            )

    bounds = PerturbationBounds(lambda_min=lam_min, lambda_max=lam_max, phase_bound=c_bound)
    report = PerturbationReport(
        theta0=tuple(float(x) for x in theta0),
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
    n = grid_n if grid_n is not None else default_grid_n(g.dim)
    tau = g.index_form()
    zero = zero_phase_form(g)
    at_zero = eigenvalue_table(g, tau, zero, np.zeros((1, g.dim)), with_potential=True)[0, 0]
    table = eigenvalue_table(g, tau, zero, theta_grid(g.dim, n), with_potential=True)
    return bool(at_zero <= table[:, 0].min() + MATRIX_TOL)


def verify_gauge_equivalence(
    g: FundamentalGraph, n_thetas: int = 20, seed: int = 0, cap: int = 10**6
) -> bool:
    """Sorted fiber spectra agree across flux-equivalent form pairs.

    Compares the stored pair, the minimal pair, and the pair gauged to
    vanish on the first spanning tree, at random quasimomenta. Raises
    CheckFailedError on disagreement beyond 1e-9.
    """
    tau, alpha = g.index_form(), g.magnetic_form()
    mu, phi = minimal_pair(g, cap=cap)
    first = [first_spanning_tree(g)]
    mu_t, _, _ = minimal_form(g, tau, first)
    phi_t, _, _ = minimal_form(g, alpha, first)
    pairs = [(tau, alpha), (mu, phi), (mu_t, phi_t)]

    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-np.pi, np.pi, size=(n_thetas, g.dim))
    tables = [eigenvalue_table(g, b, a, thetas, with_potential=True) for b, a in pairs]
    for other in tables[1:]:
        if np.max(np.abs(other - tables[0])) > MATRIX_TOL:
            raise CheckFailedError("flux-equivalent pairs produced different fiber spectra")
    return True


def verify_positive_splitting(
    g: FundamentalGraph, n_thetas: int = 20, seed: int = 0, cap: int = 10**6
) -> bool:
    """Support part of the fiber is PSD and bounded by twice its degree matrix.

    Also checks that the off-support and support parts sum exactly to
    the full fiber. Raises CheckFailedError on violation.
    """
    mu, _, _ = minimal_form(g, g.index_form(), cap=cap)
    alpha = g.magnetic_form()
    two_b = 2.0 * np.diag(support_degrees(g, mu).astype(float))
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-np.pi, np.pi, size=(n_thetas, g.dim))
    for theta in thetas:
        delta0, delta_tilde = split_fiber(g, mu, alpha, theta)
        full = fiber_stack(g, mu, alpha, theta.reshape(1, -1))[0]
        if np.max(np.abs(full - (delta0 + delta_tilde))) > 1e-12 * (1 + np.linalg.norm(full)):
            raise CheckFailedError("support splitting is not exact")
        if np.linalg.eigvalsh(delta_tilde)[0] < -MATRIX_TOL:
            raise CheckFailedError("support part of the fiber is not PSD")
        if np.linalg.eigvalsh(two_b - delta_tilde)[0] < -MATRIX_TOL:
            raise CheckFailedError("support part exceeds twice its degree matrix")
    return True
