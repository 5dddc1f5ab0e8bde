"""Exception types shared across the package.

Input/validation problems subclass GraphDataError (CLI exit code 2);
failed mathematical verification checks subclass CheckFailedError
(CLI exit code 1).
"""

from __future__ import annotations


class MagspecError(Exception):
    """Base class for all package errors."""


class GraphDataError(MagspecError):
    """Malformed or inadmissible input data."""


class CheckFailedError(MagspecError):
    """A verification battery found a violated identity or inequality."""


# -- graph model ------------------------------------------------------------

class DisconnectedGraphError(GraphDataError):
    pass


class BadIndexLengthError(GraphDataError):
    pass


class AlphaOutOfRangeError(GraphDataError):
    pass


class BadParamsError(GraphDataError):
    pass


class NonFinitePotentialError(GraphDataError):
    """A vertex potential is infinite or NaN, or too large to check in float arithmetic."""


class IndexOverflowError(GraphDataError):
    """An edge index entry, or a tree potential of an integer form, does
    not fit in a signed 64-bit integer, or a fiber phase is too large to
    check in float arithmetic."""


class BettiBelowRankError(GraphDataError):
    """Fewer independent cycles than the lattice rank: the index fluxes cannot span Z^d."""


# -- trees, forms, invariants ------------------------------------------------

class TreeCountExceedsCapError(GraphDataError):
    """Exhaustive minimality certification would need too many spanning trees."""


class FluxImageNotFullLatticeError(GraphDataError):
    """The integer flux image of the cycle space is a proper sublattice of Z^d."""


# -- fiber assembly ----------------------------------------------------------

class DimensionMismatchError(GraphDataError):
    pass


class FluxMismatchError(GraphDataError):
    """A form does not lie in the expected flux class; gauge weights would be path-dependent."""


class NoIndependentSubsetError(GraphDataError):
    """The support carries no d linearly independent integer values."""


# -- spectral ----------------------------------------------------------------

class NotHermitianError(GraphDataError):
    pass


class GridTooCoarseError(GraphDataError):
    pass


class GridTooLargeError(GraphDataError):
    """A torus grid or its eigenvalue table would exceed the sweep memory budget."""


class LocalizationViolatedError(CheckFailedError):
    pass


class MeasureBoundViolatedError(CheckFailedError):
    pass


class SandwichViolatedError(CheckFailedError):
    pass


class NonFiniteOutputError(CheckFailedError):
    """A result meant for JSON output is NaN or infinite."""


# -- inverse construction ----------------------------------------------------

class BadMultipliersError(GraphDataError):
    pass


class NotMinimalError(GraphDataError):
    """The supplied form failed exhaustive minimality certification."""
