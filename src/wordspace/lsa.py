"""Latent-semantic-analysis nearest-neighbor classifier.

The training feature matrix (terms x documents) is factorized once and
truncated to at most ``k`` leading singular triplets, those whose
sigma^2 is above RANK_RTOL of sigma_1^2, the rank cut of a subspace fit.
The factorization is the subspace module's eigensolver: the Gram route
``eigh(X^T X)`` when there are fewer documents than terms.  Every
document d is stored through the projection

    coords(d) = diag(1/sigma_k) @ U_k.T @ d

A query is placed in the class of the nearest training document, where
nearness is the cosine similarity computed in singular-value-weighted
coordinates, i.e. between ``sigma * coords`` vectors (equivalently
between ``U_k.T @ d`` vectors).  With ``k`` equal to the full rank this
reproduces exact-cosine nearest neighbor on the raw feature vectors,
because the training vectors lie in the span of ``U_k`` and the
query's out-of-span component shrinks every cosine by the same factor.

A matrix of query projections is scored with one GEMM against the
training documents, so an eval fold scores its validation documents at
one grid rank with one product.  A bag-of-words query is projected from
its ``(cols, vals)`` row by `kernels.row_product`, bitwise its row of
the CSR product that projects validation documents; a w2v query by one
``basis.T @ vec`` product.
A container is refused unless its singular values are positive and
non-increasing, its basis orthonormal and its weighted document norms
finite.
"""

import numpy as np

from .classifiers import Prediction, make_prediction
from .errors import (
    DataError,
    DegenerateQueryError,
    FormatError,
    NumericalError,
    solver_errors,
)
from .features import FeatureSpec, bow_row, dense_row, feature_matrix
from .kernels import row_product
from .subspace import _selectable_rank, _spectral_basis, check_stored_basis
from .utils import container_array, container_text


def truncated_svd(X, k: int):
    """The leading ``min(k, numerical rank)`` singular triplets of ``X``
    (descending, possibly none), as ``(U_k, sigma_k)``, with the rank cut
    a subspace fit makes: sigma^2 above RANK_RTOL of sigma_1^2.

    A CSR matrix asked for fewer than ``min(X.shape) - 1`` triplets goes
    to ARPACK, with a fixed deterministic start vector; any other matrix
    to the subspace eigensolver (`subspace._spectral_basis` with every
    eigenpair solved, so the triplets at a lower ``k`` are a bitwise
    prefix).  A zero matrix has no triplet.  Raises `NumericalError`
    when the solver fails.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    n_min = min(X.shape)
    if k < 1:
        raise NumericalError(f"subspace dimension must be >= 1, got {k}")
    if sp.issparse(X) and X.count_nonzero() == 0:
        return np.zeros((X.shape[0], 0)), np.zeros(0)  # ARPACK refuses a zero start
    with solver_errors("truncated SVD", spla.ArpackError):
        if sp.issparse(X) and k < n_min - 1:
            v0 = np.full(n_min, 1.0 / np.sqrt(n_min))
            u, s, _ = spla.svds(X, k=k, v0=v0)
            order = np.argsort(s)[::-1]
            u, s = u[:, order], s[order]
            rank = _selectable_rank(s * s)
            return u[:, :rank], s[:rank]
        dense = X.toarray() if sp.issparse(X) else np.asarray(X, dtype=np.float64)
        basis, spectrum = _spectral_basis(dense, 1.0)
    return basis[:, :k], np.sqrt(spectrum[:k])


class LsaModel:
    """Truncated factorization plus projected training documents.

    The weighted document coordinates are kept in class order (stable),
    so a class scores the best cosine of its own documents by one
    ``np.maximum.reduceat`` over the rows of one cosine matrix; a class
    without documents scores -1.0, as a class whose best cosine is not
    finite.
    """

    strategy = "lsa"

    def __init__(self, classes, labels, basis, sigma, doc_coords, spec: FeatureSpec):
        self.classes = tuple(classes)
        self.labels = tuple(labels)
        self.basis = basis            # (n_features, k)
        self.sigma = sigma            # (k,)
        self.doc_coords = doc_coords  # (n_docs, k) = diag(1/sigma) U^T d
        self.spec = spec
        self.embed_dim = spec.embed_dim if spec.name == "w2v" else None
        # the documents in class order (stable) and where each class starts
        column = {label: j for j, label in enumerate(self.classes)}
        by_class = np.array([column[label] for label in self.labels], dtype=np.intp)
        sizes = np.bincount(by_class, minlength=len(self.classes))
        self._has_docs = sizes > 0
        self._starts = (np.cumsum(sizes) - sizes)[self._has_docs]
        # weighted coordinates used for the cosine, in that order; norms
        # precomputed (an overflow is refused by from_container, not warned about)
        self._weighted = (doc_coords * sigma)[np.argsort(by_class, kind="stable")]
        with np.errstate(over="ignore", invalid="ignore"):
            self._norms = np.linalg.norm(self._weighted, axis=1)

    @property
    def rank(self):
        return self.sigma.size

    def container(self):
        return {"rank": self.rank}, {
            "labels": self.labels, "basis": self.basis, "sigma": self.sigma,
            "doc_coords": self.doc_coords, **self.spec.container(),
        }

    @classmethod
    def from_container(cls, hyper, arrays):
        spec = FeatureSpec.from_container(arrays)
        basis = container_array(arrays, "basis", spec.width, None)
        rank = basis.shape[1]
        labels = container_text(arrays, "labels")
        if set(labels) != set(arrays["classes"]):
            raise FormatError("lsa labels must name every class and only those")
        sigma = container_array(arrays, "sigma", rank)
        if not (np.all(sigma > 0.0) and np.all(np.diff(sigma) <= 0.0)):
            raise FormatError("lsa sigma must be positive and non-increasing")
        check_stored_basis(basis, "lsa basis")
        model = cls(arrays["classes"], labels, basis, sigma,
                    container_array(arrays, "doc_coords", len(labels), rank), spec)
        if not np.all(np.isfinite(model._norms)):
            raise FormatError("lsa weighted document norms are not finite")
        return model

    def truncated(self, k: int) -> "LsaModel":
        """The rank-``k`` model (k <= rank): the leading ``k`` columns of
        this factorization, as `train_lsa` at rank ``k`` would give."""
        return LsaModel(self.classes, self.labels, self.basis[:, :k], self.sigma[:k],
                        self.doc_coords[:, :k], self.spec)

    def class_scores_from_projection(self, projections):
        """Per-class best cosines, one row per row of ``projections``
        (``U.T @ d`` coordinates, at least ``rank`` columns; extra
        trailing ones from a wider factorization are ignored), by one
        GEMM; a one-row matrix is bitwise one query's GEMV.  A row whose
        projection is zero scores NaN throughout; a projection whose
        entries or cosine denominators are not finite is a
        `NumericalError`."""
        queries = np.asarray(projections, dtype=np.float64)[:, : self.rank]
        # each row's norm as np.linalg.norm takes it, by one dot product
        qnorms = np.sqrt((queries[:, np.newaxis, :] @ queries[:, :, np.newaxis]).ravel())
        zero = qnorms == 0.0
        denom = np.multiply.outer(self._norms, qnorms)
        # the stored norms are finite: an overflow here is a query's
        if not np.all(np.isfinite(denom) | zero):
            raise NumericalError("lsa query projection is not finite")
        sims = np.divide(self._weighted @ queries.T, denom,
                         out=np.full(denom.shape, -np.inf), where=denom > 0.0)
        # a class without documents gets no segment: reduceat would give
        # it the next class's first cosine
        best = np.full((len(self.classes), len(queries)), -np.inf)
        best[self._has_docs] = np.maximum.reduceat(sims, self._starts, axis=0)
        scores = np.where(np.isfinite(best), best, -1.0).T
        scores[zero] = np.nan
        return scores

    def predict(self, tokens, table=None) -> Prediction:
        # a non-finite projection is refused, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            if self.spec.name == "w2v":
                projection = self.basis.T @ dense_row(self.spec, tokens, table)
            else:
                projection = row_product(*bow_row(self.spec, tokens), self.basis)
            [scores] = self.class_scores_from_projection(projection[np.newaxis])
        if np.isnan(scores[0]):
            raise DegenerateQueryError("query has a zero projection")
        return make_prediction(self.classes, scores)


def train_lsa(corpus, spec: FeatureSpec, k: int, table=None) -> LsaModel:
    """Factorize the training term-document matrix at rank ``k``, or at
    its numerical rank when that is lower (possibly 0)."""
    import scipy.sparse as sp
    docs = list(corpus)
    feats = feature_matrix(spec, docs, table)
    X = feats.T if sp.issparse(feats) else feats.T.copy()  # terms x documents
    if X.shape[0] == 0:
        raise DataError("training corpus has an empty vocabulary")
    basis, sigma = truncated_svd(X, k)
    doc_coords = np.asarray(feats @ basis) / sigma
    return LsaModel(
        corpus.classes, [d.label for d in docs], basis, sigma, doc_coords, spec
    )
