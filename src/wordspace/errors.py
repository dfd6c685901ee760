"""Exception hierarchy.

Three broad families, matching the CLI exit-code contract:
configuration problems (exit 2), data problems (exit 3) and
numerical problems (exit 4).  ``DegenerateQueryError`` sits outside
the families because it is recoverable: callers map it to an
"unclassifiable" record instead of aborting.
"""

import contextlib

import numpy as np
from scipy.sparse.linalg import ArpackError


class WordspaceError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(WordspaceError):
    """Invalid run configuration (bad paths, incompatible options)."""


class DataError(WordspaceError):
    """Malformed or unusable input data."""


class FormatError(DataError):
    """Structurally invalid file content (bad header, bad line)."""


class TruncationError(DataError):
    """Binary stream ended mid-record.

    Carries the byte offset at which the incomplete record started.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (record starting at byte offset {offset})")
        self.offset = offset


class DuplicateWordError(DataError):
    """The same word appeared twice in an embedding file."""

    def __init__(self, word):
        super().__init__(f"duplicate word in embedding file: {word!r}")
        self.word = word


class EmptyCorpusError(DataError):
    """A corpus stream contained no documents."""


class UnknownClassError(DataError):
    """A class label that is not part of the corpus was requested."""


class TrainingDataError(DataError):
    """Training cannot proceed (e.g. a class has no usable words)."""


class DimensionMismatchError(DataError):
    """Two artifacts disagree on the ambient vector dimension."""


class NumericalError(WordspaceError):
    """Numerically infeasible request."""


class SubspaceRankError(NumericalError):
    """Requested subspace dimension exceeds the numerical rank cap.

    Carries the largest selectable dimension.
    """

    def __init__(self, requested, cap):
        super().__init__(
            f"requested subspace dimension {requested} exceeds the rank cap {cap}"
        )
        self.requested = requested
        self.cap = cap


class DegenerateInputError(NumericalError):
    """Input vectors unusable for subspace modeling (e.g. zero norm)."""


class WeightError(NumericalError):
    """A column weight was zero, negative, or non-finite."""


class NonFiniteScoreError(NumericalError, ValueError):
    """Finite model values produced a non-finite prediction score."""


@contextlib.contextmanager
def solver_errors(what):
    """Re-raise a LAPACK failure (``LinAlgError``) or an ARPACK one
    (``ArpackError``, ``ArpackNoConvergence`` included) as `NumericalError`."""
    try:
        yield
    except (np.linalg.LinAlgError, ArpackError) as err:
        raise NumericalError(f"{what} failed: {err}") from None


class DegenerateTestError(NumericalError):
    """A significance test is undefined (zero variance of differences)."""


class DegenerateQueryError(WordspaceError):
    """A query document has no usable content (empty or fully OOV)."""
