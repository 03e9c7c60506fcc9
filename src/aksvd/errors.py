"""Exception and warning taxonomy shared across the toolkit.

Errors fall into two families that the command line maps to exit codes:
``UserInputError`` covers malformed configs, files and requests (exit 2),
``NumericError`` covers failures of the numerics themselves (exit 3).
Every warning of the package is given by ``warn_outside``.
"""
import os
import sys
import warnings

# a warning names the first frame outside the package's own files
_PACKAGE = os.path.dirname(__file__) + os.sep


def warn_outside(message: str, category: type[Warning]) -> None:
    """Warn with ``category`` at the first frame outside the package: the
    caller's line that led to the warning, however deep inside the package
    it was raised."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


class AksvdError(Exception):
    """Base class for all toolkit errors."""


class UserInputError(AksvdError):
    """Bad input from the caller: files, configs, incompatible requests."""


class NumericError(AksvdError):
    """A numeric contract was violated or a computation cannot proceed."""


# --- numeric errors -------------------------------------------------------

class NonFiniteError(NumericError):
    """Matrix or vector contains NaN or infinity."""


class ZeroMatrixError(NumericError):
    """Operation requires a non-zero matrix."""


class RankTooLargeError(NumericError):
    """Requested rank exceeds min(rows, cols)."""


class ShapeMismatchError(NumericError):
    """Operand shapes do not conform."""


class DimensionMismatchError(NumericError):
    """Vector length does not match the expected dimension."""


class LengthMismatchError(NumericError):
    """Paired sequences have different lengths."""


class SampleTooLargeError(NumericError):
    """Requested subsample exceeds the available rows or columns."""


class ZeroColumnError(NumericError):
    """A vector that must be non-zero has zero norm."""


class SingularSystemError(NumericError):
    """Linear system is singular to working precision."""


class DegreeTooLargeError(NumericError):
    """A requested neighbour count exceeds the number of candidates."""


# --- user input errors ----------------------------------------------------

class CompatibilityMissingError(UserInputError):
    """Kernel on a rectangular matrix needs a compatibility transform."""


class SingleClassError(UserInputError):
    """Classification requires at least two distinct labels."""


class ParseError(UserInputError):
    """A file could not be parsed; message carries the line number."""


class NonNumericFeatureError(UserInputError):
    """A feature cell could not be converted to a float."""


class ConfigError(UserInputError):
    """Unknown or invalid configuration key or value."""


# --- warnings -------------------------------------------------------------

class DegenerateKernelWarning(UserWarning):
    """Kernel matrix has fewer usable singular values than requested."""


class SubproblemRankDeficientWarning(UserWarning):
    """Nystrom subproblem had fewer than r singular values above cutoff."""


class EmptyDenominatorWarning(UserWarning):
    """An SNE row underflowed; the uniform row was substituted."""
