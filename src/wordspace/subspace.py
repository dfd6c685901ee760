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

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    FormatError,
    NumericalError,
    SubspaceRankError,
    WeightError,
    solver_errors,
)

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

    def projector(self) -> np.ndarray:
        """Basis-independent representation ``B @ B.T``."""
        return self.basis @ self.basis.T

    def truncated(self, m: int) -> "Subspace":
        """Subspace of the ``m`` leading directions (m <= dimension)."""
        if not 1 <= m <= self.dimension:
            raise SubspaceRankError(m, self.dimension)
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
    defect = orthonormality_defect(sub.basis)
    if not defect <= LOAD_ORTHONORMALITY_TOL:  # NaN too: an overflowing basis
        raise FormatError(f"basis is not orthonormal: max |B^T B - I| = {defect:.3g}")
    return sub


def unit_columns(X: np.ndarray) -> np.ndarray:
    """Scale each column to unit Euclidean norm.

    Raises ``DegenerateInputError`` on a zero-norm column.
    """
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0.0):
        raise DegenerateInputError("zero-norm column cannot be normalized")
    return X / norms


def _validate_data_matrix(X):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise DegenerateInputError("need a p x N matrix with N >= 1 columns")
    if not np.all(np.isfinite(X)):
        raise DegenerateInputError("data matrix contains non-finite values")
    if np.any(np.linalg.norm(X, axis=0) == 0.0):
        raise DegenerateInputError("data matrix contains a zero-norm column")
    return X


def _spectral_basis(X, normalizer):
    """Leading left singular directions of X with spectrum sigma^2 / normalizer.

    Returns only the selectable directions (spectrum above RANK_RTOL of
    its largest entry), non-increasing.  All three routes give the
    eigenvectors of the (weighted) autocorrelation matrix:

    - p <= N: ``eigh(X @ X.T)``;
    - N < p (the Gram route): ``eigh(X.T @ X) = V diag(sigma^2) V^T``,
      then ``B = X V diag(1/sigma)`` for the selectable directions only.
      Eigenpairs are sorted by a stable descending sort, so tied
      directions keep the column order of X (first word first);
    - N < p when that ``B`` is off orthonormal by more than
      ORTHONORMALITY_TOL: an economy SVD of X followed by a QR that
      rebuilds exact orthonormality.

    A LAPACK failure is raised as `NumericalError`.
    """
    p, n = X.shape
    with solver_errors("subspace eigensolver"):
        if p <= n:
            evals, evecs = np.linalg.eigh(X @ X.T)
            order = np.argsort(evals)[::-1]
            return _selectable(evecs[:, order], evals[order] / normalizer)
        evals, evecs = np.linalg.eigh(X.T @ X)
        order = np.argsort(-evals, kind="stable")
        evals = evals[order]
        spectrum = evals / normalizer
        keep = _selectable_rank(spectrum)  # >= 1: X has a nonzero column
        basis = (X @ evecs[:, order[:keep]]) / np.sqrt(evals[:keep])
        if orthonormality_defect(basis) <= ORTHONORMALITY_TOL:
            return basis, spectrum[:keep]
        basis, sing, _ = np.linalg.svd(X, full_matrices=False)
        basis, _ = np.linalg.qr(basis)
    return _selectable(basis, (sing * sing) / normalizer)


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
        raise WeightError(
            f"need one weight per column: got {w.shape} for {X.shape[1]} columns"
        )
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise WeightError("weights must be positive finite reals")
    return w


def _fit(X, weights, max_dim):
    """Validate, decompose and keep at most ``max_dim`` leading directions
    (None keeps the full selectable rank)."""
    X = _validate_data_matrix(X)
    if weights is None:
        basis, spectrum = _spectral_basis(X, float(X.shape[1]))
    else:
        w = _validate_weights(X, weights)
        basis, spectrum = _spectral_basis(X * np.sqrt(w), float(np.sum(w)))
    cap = basis.shape[1]
    if cap == 0:
        raise DegenerateInputError("data matrix has numerical rank zero")
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
        directions, and all of the numerical rank when None.

    Returns
    -------
    Subspace
        Basis of the leading eigenvectors of the uncentered
        autocorrelation matrix, spectrum of matching eigenvalues.

    An exactly ``m``-dimensional subspace is
    ``full_word_subspace(X).truncated(m)``, which raises
    `SubspaceRankError` when ``m`` exceeds the numerical rank; callers
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
        raise DimensionMismatchError(
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
