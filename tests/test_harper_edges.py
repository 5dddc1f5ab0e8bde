"""Butterfly band edges from the Chambers-extremal grid points.

harper_band_edges solves only the grid points where cos(theta_1) and
cos(q theta_2) are extreme, plus the next cosine level as a check. These
tests pin the Chambers variables independently of that code, and hold
its output to band_sweep's bit for bit, on the pruned path and on the
full-grid fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

import magspec.spectral as spectral
from magspec import (
    GridTooCoarseError,
    GridTooLargeError,
    band_sweep,
    coprime_fluxes,
    fiber_stack,
    harper_band_edges,
    harper_model,
    theta_grid,
)
from magspec.spectral import MATRIX_TOL

FLUXES = coprime_fluxes(12)


@pytest.mark.parametrize("p, q", FLUXES)
def test_charpoly_depends_on_theta_through_chambers_term(p, q):
    # det(E - H(theta)) in the shifted variable x = E - 4 (4 is every vertex
    # degree), which keeps the coefficients small enough for MATRIX_TOL
    g = harper_model(q, p)
    tau, alpha = g.index_form(), g.magnetic_form()
    rng = np.random.default_rng(1000 * q + p)
    thetas = rng.uniform(-np.pi, np.pi, size=(8, 2))
    polys = np.array([np.poly(fiber_stack(g, tau, alpha, th)[0] - 4.0 * np.eye(q)) for th in thetas])
    diff = polys[1:] - polys[0]
    assert np.abs(diff[:, :-1]).max() <= MATRIX_TOL  # only the constant coefficient moves
    assert np.abs(diff[:, -1].imag).max() <= MATRIX_TOL
    cosines = np.column_stack([np.cos(thetas[:, 0]), np.cos(q * thetas[:, 1])])
    x = cosines[1:] - cosines[0]
    coef = np.linalg.lstsq(x, diff[:, -1].real, rcond=None)[0]
    assert np.abs(x @ coef - diff[:, -1].real).max() <= MATRIX_TOL
    assert np.all(np.abs(coef) > 1.0)  # both cosines really enter


@pytest.mark.parametrize("n", [3, 4, 5, 20, 31, 50, 101])
def test_edges_equal_band_sweep_bit_for_bit(n):
    for p, q in FLUXES:
        want = band_sweep(harper_model(q, p), grid_n=n).bands
        assert harper_band_edges(q, p, n).tobytes() == want.tobytes(), (p, q)


def test_solves_extremal_points_then_corners_in_grid_order(monkeypatch):
    q, p, n = 7, 3, 31
    grid = theta_grid(2, n)

    def levels(c):
        ext = (c >= c.max() - MATRIX_TOL) | (c <= c.min() + MATRIX_TOL)
        rest = c[~ext]
        return ext, ~ext & ((c >= rest.max() - MATRIX_TOL) | (c <= rest.min() + MATRIX_TOL))

    ext1, next1 = levels(np.cos(grid[:, 0]))
    ext2, next2 = levels(np.cos(q * grid[:, 1]))
    table = spectral.eigenvalue_table
    solved = []

    def record(*args, **kwargs):
        solved.append(args[3])
        return table(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigenvalue_table", record)
    harper_band_edges(q, p, n)
    assert len(solved) == 2
    assert np.array_equal(solved[0], grid[ext1 & ext2])
    assert np.array_equal(solved[1], grid[next1 & ext2 | ext1 & next2])


def test_failed_corner_check_falls_back_to_the_full_grid(monkeypatch):
    # every solve, eigenvalue_table's and band_sweep's, runs through _eigenvalue_chunks
    real_chunks = spectral._eigenvalue_chunks
    calls = []

    def corners_escape(g, thetas, *pairs, difference=False):
        calls.append(len(thetas))
        for rows, eigs in real_chunks(g, thetas, *pairs, difference=difference):
            # the second sweep solves the corners
            yield rows, [e + 10.0 for e in eigs] if len(calls) == 2 else eigs

    monkeypatch.setattr(spectral, "_eigenvalue_chunks", corners_escape)
    got = harper_band_edges(7, 3, 31)
    assert len(calls) == 3 and calls[2] == 31**2  # candidates, corners, then the full grid
    monkeypatch.undo()
    assert got.tobytes() == band_sweep(harper_model(7, 3), grid_n=31).bands.tobytes()


def test_default_grid_solves_few_fibers(monkeypatch):
    stack = spectral.fiber_stack
    fibers = []

    def counted(g, b, a, thetas, **kwargs):
        fibers.append(len(thetas))
        return stack(g, b, a, thetas, **kwargs)

    monkeypatch.setattr(spectral, "fiber_stack", counted)
    for p, q in FLUXES:
        harper_band_edges(q, p)
    assert sum(fibers) < 5000  # against 46 * 101^2 = 469 246 on the full grids


def test_grid_checks_run_before_any_solve(monkeypatch):
    monkeypatch.setattr(spectral, "fiber_stack", None)  # any solve would raise TypeError
    with pytest.raises(GridTooCoarseError):
        harper_band_edges(3, 1, 2)
    with pytest.raises(GridTooLargeError):
        harper_band_edges(12, 5, 1700)
