"""Exception and warning taxonomy.

Two error families matter to callers: DataError (bad inputs, malformed files,
inconsistent shapes) and NumericalError (singular or non-positive-definite
matrices, degenerate geometry, non-finite arithmetic). The command line maps
them to exit codes 2 and 3.
"""

from __future__ import annotations


class StvarError(Exception):
    """Base class for package errors."""


class DataError(StvarError):
    """Invalid, inconsistent, or malformed input data."""


class NumericalError(StvarError):
    """Numerically degenerate computation."""


# data model

class EmptySeries(DataError):
    """Series too short to operate on."""


class ZeroVariance(DataError):
    """A variable has zero pooled variance and cannot be standardized."""

    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(f"variable {variable!r} has zero pooled variance")


class MalformedHeader(DataError):
    """A file header does not parse."""


class DimensionMismatch(DataError):
    """Array or file dimensions disagree with the declared shape."""


class ShortRead(DataError):
    """A binary payload ended before the declared element count."""


# maps

class EmptyData(DataError):
    """No rows (or no columns) to train on."""


class NonFiniteUpdate(NumericalError):
    """A node update produced NaN or infinity."""


# embedding / projection

class DegenerateDistances(NumericalError):
    """A target distance matrix has a zero or negative off-diagonal entry."""


# design matrices and kriging

class UnlabeledDate(DataError):
    """A seasonal or yearly block was requested but the series has no dates."""


class SingularDesign(NumericalError):
    """X'X is singular; the MLE is not unique."""


class NonPositiveDecay(DataError):
    """Correlation decay rate must be strictly positive."""


class IllConditioned(NumericalError):
    """A correlation matrix stayed non-factorizable through the jitter ladder."""


class NonPDScale(NumericalError):
    """An inverse-Wishart scale matrix is not positive definite."""


# evaluation

class LengthMismatch(DataError):
    """Actual and predicted sequences have different lengths."""


class DegenerateDraws(NumericalError):
    """A predictive draw cloud has a singular covariance."""


class GridMismatch(DataError):
    """A node vector does not factor over the declared variable grid."""


# warnings

class StvarWarning(UserWarning):
    """Base class for package warnings."""


class RankWarning(StvarWarning):
    """Design matrix is rank deficient; least squares still proceeds."""


class NonConvergenceWarning(StvarWarning):
    """A sampler or optimizer finished without passing its diagnostic."""
