"""Exception hierarchy.

One root per CLI exit code: `ConfigError` for configuration problems
(exit 2), `DataError` for data problems (exit 3) and `NumericalError`
for numerical ones (exit 4).  A subclass exists only where some caller
catches it by name:

- `FormatError`: ``classifiers`` prefixes a stored subspace's refusal
  with its class index;
- `EmptyCorpusError`: ``wordspace classify`` answers an empty corpus
  with no output lines;
- `DegenerateTestError`: ``wordspace eval`` reports a pair of
  strategies that tied on every fold as undefined;
- `DegenerateQueryError`: ``classify`` and the evaluation map a query
  with no usable content to "unclassifiable" instead of aborting.  It
  sits outside the families because it is always recovered from.

`solver_errors` turns a solver's failure into a `NumericalError`.  It
knows numpy's ``LinAlgError`` alone; a caller whose solver raises other
types names them, as lsa names ARPACK's, so importing this module loads
no scipy.
"""

import contextlib

import numpy as np


class WordspaceError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(WordspaceError):
    """Invalid run configuration (bad paths, incompatible options)."""


class DataError(WordspaceError):
    """Malformed or unusable input data."""


class FormatError(DataError):
    """Structurally invalid file content (bad header, bad line)."""


class EmptyCorpusError(DataError):
    """A corpus stream contained no documents."""


class NumericalError(WordspaceError):
    """Numerically infeasible request."""


@contextlib.contextmanager
def solver_errors(what, *extra):
    """Re-raise a LAPACK failure (``LinAlgError``), or one of the ``extra``
    exception types the caller names (lsa: ARPACK's ``ArpackError``,
    ``ArpackNoConvergence`` included), as `NumericalError`."""
    try:
        yield
    except (np.linalg.LinAlgError, *extra) as err:
        raise NumericalError(f"{what} failed: {err}") from None


class DegenerateTestError(NumericalError):
    """A significance test is undefined (zero variance of differences)."""


class DegenerateQueryError(WordspaceError):
    """A query document has no usable content (empty or fully OOV)."""
