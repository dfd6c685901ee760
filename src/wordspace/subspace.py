"""Word subspaces and canonical-angle similarity.

A word subspace is the span of the leading principal directions of a
set of word vectors, computed by *uncentered* PCA: the basis consists
of eigenvectors of the autocorrelation matrix

    R = (1/N) * sum_i  x_i x_i^T

for the largest eigenvalues (no mean subtraction).  The frequency-
weighted variant scales column ``i`` of the data matrix by
``sqrt(w_i)`` before the decomposition, which is equivalent to
duplicating column ``i`` exactly ``w_i`` times when the weights are
integers.

Two subspaces are compared through their canonical angles: the
cosines are the singular values of ``Ba^T @ Bb`` for orthonormal bases
``Ba`` and ``Bb``, and the similarity is the mean of the ``t`` largest
squared cosines, a number in [0, 1].
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, NumericalError, solver_errors

# Relative spectrum threshold below which directions are treated as
# rank-deficient and excluded from selectable dimensions.
RANK_RTOL = 1e-10

# Largest entry of |B^T B - I| accepted from the Gram route of
# `_spectral_basis` (about 5000 float64 epsilons).  Forming X^T X
# squares the condition number, so directions near the RANK_RTOL cut
# can lose orthogonality (up to ~eps / RANK_RTOL); such a basis is
# recomputed by SVD instead.
ORTHONORMALITY_TOL = 1e-12

# Largest entry of |B^T B - I| accepted from a basis read from a
# container.  The bases `wordspace train` writes on the benchmark's
# inputs measure at most 5.2e-13 (full-rank classes) and 1.2e-14 at the
# default class dimension, and the Gram route itself accepts at most
# ORTHONORMALITY_TOL; a basis off by more than this was not written by
# this package, and the min(..., 1) clip of the scores would hide it.
LOAD_ORTHONORMALITY_TOL = 1e-10

# A capped fit solves only its leading eigenpairs when the eigenproblem's
# order is at least this many times the cap (see `_leading_eigh`).
PARTIAL_SOLVE_RATIO = 8

# Two eigenvalues of a partial solve closer than this fraction of the
# largest count as tied, and the full solve is taken instead.
TIE_RTOL = 1e-8

# Largest binary exponent of a data matrix's longest column norm for
# which the matrix is decomposed as it is; X X^T of a longer or shorter
# one could overflow or lose its small eigenvalues to underflow, so
# `_fit` rescales it.
SAFE_EXPONENT = 200

# Spectrum entries may come out of the solver as tiny negatives; they
# are clamped to zero down to this magnitude and rejected beyond it.
NEGATIVE_EIGENVALUE_TOL = 1e-12


@dataclass(frozen=True)
class Subspace:
    """Orthonormal basis with its retained-variance spectrum.

    ``basis`` is (ambient_dimension, dimension) with orthonormal
    columns; ``spectrum`` holds the matching eigenvalues of the
    (weighted) autocorrelation matrix, non-increasing; and
    ``source_word_count`` records how many vectors the subspace was
    built from.
    """

    basis: np.ndarray
    spectrum: np.ndarray
    source_word_count: int

    def __post_init__(self):
        basis = np.ascontiguousarray(self.basis, dtype=np.float64)
        spectrum = np.asarray(self.spectrum, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[1] < 1:
            raise NumericalError("basis must be a p x m matrix with m >= 1")
        if basis.shape[1] > basis.shape[0]:
            raise NumericalError("subspace dimension exceeds ambient dimension")
        if spectrum.shape != (basis.shape[1],):
            raise NumericalError("spectrum length must match basis dimension")
        if np.any(np.diff(spectrum) > 0):
            raise NumericalError("spectrum must be non-increasing")
        if np.any(spectrum < -NEGATIVE_EIGENVALUE_TOL):
            raise NumericalError("spectrum has a significantly negative entry")
        spectrum = np.maximum(spectrum, 0.0)
        basis.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def ambient_dimension(self):
        return self.basis.shape[0]

    @property
    def dimension(self):
        return self.basis.shape[1]

    def truncated(self, m: int) -> "Subspace":
        """Subspace of the ``m`` leading directions (m <= dimension)."""
        if m < 1:
            raise NumericalError(f"subspace dimension must be >= 1, got {m}")
        if m > self.dimension:
            raise NumericalError(f"requested subspace dimension {m} "
                                 f"exceeds the rank cap {self.dimension}")
        if m == self.dimension:
            return self
        return Subspace(self.basis[:, :m], self.spectrum[:m], self.source_word_count)


def orthonormality_defect(basis) -> float:
    """Largest entry of ``|B^T B - I|``; 0 for exactly orthonormal columns.

    A basis with huge finite entries overflows to inf or NaN, which the
    callers' ``<=`` tolerance tests refuse, so the overflow warnings are
    silenced rather than printed ahead of the refusal."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))))


def stored_subspace(basis, spectrum, source_word_count) -> Subspace:
    """A `Subspace` read back from a container: a broken invariant, a
    basis off orthonormal by more than LOAD_ORTHONORMALITY_TOL included,
    is a `FormatError`."""
    try:
        sub = Subspace(basis, spectrum, int(source_word_count))
    except NumericalError as err:
        raise FormatError(str(err)) from None
    check_stored_basis(sub.basis, "basis")
    return sub


def check_stored_basis(basis, name):
    """`FormatError` naming the container entry ``name`` when ``basis`` is
    off orthonormal by more than LOAD_ORTHONORMALITY_TOL."""
    defect = orthonormality_defect(basis)
    if not defect <= LOAD_ORTHONORMALITY_TOL:  # NaN too: an overflowing basis
        raise FormatError(f"{name} is not orthonormal: max |B^T B - I| = {defect:.3g}")


def unit_columns(X: np.ndarray) -> np.ndarray:
    """Scale each column to unit Euclidean norm.

    Raises `NumericalError` on a zero-norm column.
    """
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0.0):
        raise NumericalError("zero-norm column cannot be normalized")
    return X / norms


def _validate_data_matrix(X):
    """The p x N float64 data matrix and its column norms."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise NumericalError("need a p x N matrix with N >= 1 columns")
    if not np.all(np.isfinite(X)):
        raise NumericalError("data matrix contains non-finite values")
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0.0):
        raise NumericalError("data matrix contains a zero-norm column")
    return X, norms


def _spectral_basis(X, normalizer, max_dim=None):
    """Leading left singular directions of X with spectrum sigma^2 / normalizer.

    Returns the selectable directions (spectrum above RANK_RTOL of its
    largest entry), non-increasing; with a small ``max_dim``, only those
    among the ``max_dim + 1`` leading ones.  All routes give the
    eigenvectors of the (weighted) autocorrelation matrix:

    - p <= N: ``eigh(X @ X.T)``;
    - N < p (the Gram route): ``eigh(X.T @ X) = V diag(sigma^2) V^T``,
      then ``B = X V diag(1/sigma)`` for the selectable directions only.
      Eigenpairs are sorted by a stable descending sort, so tied
      directions keep the column order of X (first word first);
    - N < p when that ``B`` is off orthonormal by more than
      ORTHONORMALITY_TOL: an economy SVD of X followed by a QR that
      rebuilds exact orthonormality;
    - either eigenproblem with a small ``max_dim``: only its leading
      eigenpairs are solved (`_leading_eigh`).

    A zero X has no selectable direction: a (p, 0) basis.  A LAPACK
    failure escapes as ``LinAlgError``, which each caller names as its
    own solver's failure (`_fit` as the subspace eigensolver's).
    """
    p, n = X.shape
    if p <= n:
        evals, evecs = _leading_eigh(X @ X.T, max_dim)
        order = np.argsort(evals)[::-1]
        return _selectable(evecs[:, order], evals[order] / normalizer)
    evals, evecs = _leading_eigh(X.T @ X, max_dim)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    spectrum = evals / normalizer
    keep = _selectable_rank(spectrum)
    basis = (X @ evecs[:, order[:keep]]) / np.sqrt(evals[:keep])
    if keep == 0 or orthonormality_defect(basis) <= ORTHONORMALITY_TOL:
        return basis, spectrum[:keep]
    basis, sing, _ = np.linalg.svd(X, full_matrices=False)
    basis, _ = np.linalg.qr(basis)
    return _selectable(basis, (sing * sing) / normalizer)


def _leading_eigh(A, cap):
    """Eigenpairs of the symmetric ``A`` in ascending order: every one, or
    only the ``cap + 1`` largest when ``cap`` is small next to the order
    ``n`` of ``A`` (``PARTIAL_SOLVE_RATIO * cap <= n``).

    The partial solve is LAPACK ``syevr`` on an index range.  Its cost
    grows with the number of eigenpairs it keeps, the full solve's does
    not.  Times in ms on the benchmark's seed-1 tfmsm query matrices
    (median over 8 matrices of each order, best of 9 runs; 2-core VM,
    one BLAS thread), against ``k = cap``:

    ========  =====  =====  =====  =====  =====  =====
    n         full   k=1    k=5    k=10   k=20   k=40
    ========  =====  =====  =====  =====  =====  =====
    40-50     0.26   0.13   0.20   0.29   0.47
    75-85     0.71   0.28   0.43   0.51   0.78   1.40
    115-125   0.96   0.38   0.59   0.83   1.27   2.17
    300       7.17   2.49   3.18   3.86   4.97   7.36
    ========  =====  =====  =====  =====  =====  =====

    The two break even between ``n = 5 * cap`` and ``n = 9 * cap``
    (repeated runs on the shared VM differ by up to a third).

    Tied leading directions span a subspace, not a basis: the full solve
    lists them in the order `_spectral_basis` documents (first word
    first on the Gram route), the partial one in an order of its own.
    So when any two of the ``cap + 1`` computed eigenvalues, the larger
    of them selectable, differ by at most TIE_RTOL times the largest,
    the partial result is dropped for the full solve.  The partial route
    thus returns only when the kept directions are each unique, and then
    matches the full solve to roundoff; the ``(cap + 1)``-th eigenvalue
    is solved to see that the last kept direction is.
    """
    n = A.shape[0]
    if cap is not None and 1 <= cap <= n // PARTIAL_SOLVE_RATIO:
        import scipy.linalg
        # syevr, scipy's default for a standard problem
        evals, evecs = scipy.linalg.eigh(A, subset_by_index=[n - cap - 1, n - 1],
                                         check_finite=False)
        top = evals[-1]
        selectable = evals[1:] > RANK_RTOL * top
        if not np.any(selectable & (np.diff(evals) <= TIE_RTOL * top)):
            return evals, evecs
    return np.linalg.eigh(A)


def _selectable(basis, spectrum):
    keep = _selectable_rank(spectrum)
    return basis[:, :keep], spectrum[:keep]


def _selectable_rank(spectrum):
    if spectrum[0] <= 0.0:
        return 0
    return int(np.count_nonzero(spectrum > RANK_RTOL * spectrum[0]))


def _validate_weights(X, weights):
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (X.shape[1],):
        raise NumericalError(
            f"need one weight per column: got {w.shape} for {X.shape[1]} columns"
        )
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise NumericalError("weights must be positive finite reals")
    return w


def _fit(X, weights, max_dim):
    """Validate, decompose and keep at most ``max_dim`` leading directions
    (None keeps the full selectable rank).

    A fit capped well below the eigenproblem's order solves only its
    leading eigenpairs (`_leading_eigh`): it agrees with
    ``_fit(X, weights, None).truncated(m)`` to roundoff, and bitwise
    whenever the full solve is taken.  A (weighted) matrix whose longest
    column has a norm outside 2^-SAFE_EXPONENT .. 2^SAFE_EXPONENT is
    decomposed scaled by a power of two, which is exact, so that its
    products neither overflow nor underflow; the spectrum is scaled back.
    """
    X, norms = _validate_data_matrix(X)
    normalizer = float(X.shape[1])
    if weights is not None:
        w = _validate_weights(X, weights)
        root = np.sqrt(w)
        X, norms, normalizer = X * root, norms * root, float(np.sum(w))
    _, exponent = np.frexp(np.max(norms))
    with solver_errors("subspace eigensolver"):
        if abs(exponent) <= SAFE_EXPONENT:
            basis, spectrum = _spectral_basis(X, normalizer, max_dim)
        else:
            basis, spectrum = _spectral_basis(np.ldexp(X, -exponent), normalizer, max_dim)
            spectrum = np.ldexp(spectrum, 2 * exponent)
    cap = basis.shape[1]
    if cap == 0:
        raise NumericalError("data matrix has numerical rank zero")
    m = cap if max_dim is None else max(1, min(max_dim, cap))
    return Subspace(basis[:, :m], spectrum[:m], X.shape[1])


def full_word_subspace(X: np.ndarray, max_dim: int = None) -> Subspace:
    """Model a set of word vectors as a word subspace.

    Parameters
    ----------
    X : (p, N) array
        One word vector per column, all finite, none zero.
    max_dim : int, optional
        Dimension cap; the subspace keeps ``min(max_dim, rank)``
        directions, and all of the numerical rank when None.  A cap
        far below ``min(p, N)`` solves only the leading eigenpairs
        (see `_fit`).

    Returns
    -------
    Subspace
        Basis of the leading eigenvectors of the uncentered
        autocorrelation matrix, spectrum of matching eigenvalues.

    An exactly ``m``-dimensional subspace is
    ``full_word_subspace(X).truncated(m)``, which raises
    `NumericalError` when ``m`` exceeds the numerical rank; callers
    that sweep dimension grids likewise build this once and slice
    prefixes.
    """
    return _fit(X, None, max_dim)


def full_weighted_word_subspace(X: np.ndarray, weights, max_dim: int = None) -> Subspace:
    """Frequency-weighted variant of `full_word_subspace`.

    Column ``i`` is scaled by ``sqrt(weights[i])`` before the
    decomposition, and the spectrum is the squared singular values of
    the scaled matrix divided by ``sum(weights)``, so integer weights
    reproduce `full_word_subspace` on a column-duplicated matrix.
    """
    return _fit(X, weights, max_dim)


def canonical_cosines(a: Subspace, b: Subspace) -> np.ndarray:
    """Cosines of the canonical angles between two subspaces.

    The ``min(dim_a, dim_b)`` singular values of ``a.basis.T @ b.basis``,
    clamped into [0, 1], non-increasing.
    """
    if a.ambient_dimension != b.ambient_dimension:
        raise DataError(
            f"ambient dimensions differ: {a.ambient_dimension} vs {b.ambient_dimension}"
        )
    sing = np.linalg.svd(a.basis.T @ b.basis, compute_uv=False)
    return np.clip(sing, 0.0, 1.0)


def similarity(a: Subspace, b: Subspace, t: int) -> float:
    """Mean of the ``t`` largest squared canonical cosines (in [0, 1])."""
    limit = min(a.dimension, b.dimension)
    if not 1 <= t <= limit:
        raise NumericalError(
            f"angle count t={t} out of range [1, {limit}]"
        )
    if t == limit:
        # Sum of all squared canonical cosines is the squared Frobenius
        # norm of the basis product; no SVD needed.
        g = a.basis.T @ b.basis
        total = float(np.sum(g * g))
        return min(total / t, 1.0)
    cos = canonical_cosines(a, b)
    return float(np.mean(cos[:t] ** 2))
