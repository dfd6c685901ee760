"""Latent-semantic-analysis nearest-neighbor classifier.

The training feature matrix (terms x documents) is factorized once by
singular value decomposition and truncated to at most ``k`` leading
triplets.  Every document d is stored through the projection

    coords(d) = diag(1/sigma_k) @ U_k.T @ d

A query is placed in the class of the nearest training document, where
nearness is the cosine similarity computed in singular-value-weighted
coordinates, i.e. between ``sigma * coords`` vectors (equivalently
between ``U_k.T @ d`` vectors).  With ``k`` equal to the full rank this
reproduces exact-cosine nearest neighbor on the raw feature vectors,
because the training vectors lie in the span of ``U_k`` and the
query's out-of-span component shrinks every cosine by the same factor.

A bag-of-words query is projected from its ``(cols, vals)`` row by
`kernels.row_product`, bitwise its row of the CSR product that projects
validation documents; a w2v query by one ``basis.T @ vec`` product.
A container is refused unless its singular values are positive and
non-increasing, its basis orthonormal and its weighted document norms
finite.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
from .subspace import _selectable_rank, check_stored_basis
from .utils import container_array, container_text


def truncated_svd(X, k: int):
    """The leading ``min(k, numerical rank)`` singular triplets of ``X``
    (descending, possibly none), the rank cut as a subspace fit cuts it.

    Dense LAPACK for small or nearly-full requests, ARPACK with a fixed
    deterministic start vector otherwise.  Raises `NumericalError` when
    the solver fails.
    """
    n_min = min(X.shape)
    if k < 1:
        raise NumericalError(f"subspace dimension must be >= 1, got {k}")
    use_sparse = sp.issparse(X) and k < n_min - 1
    with solver_errors("truncated SVD"):
        if use_sparse:
            v0 = np.full(min(X.shape), 1.0 / np.sqrt(n_min))
            u, s, _ = spla.svds(X, k=k, v0=v0)
            order = np.argsort(s)[::-1]
            u, s = u[:, order], s[order]
        else:
            dense = X.toarray() if sp.issparse(X) else np.asarray(X, dtype=np.float64)
            u, s, _ = np.linalg.svd(dense, full_matrices=False)
            u, s = u[:, :k], s[:k]
    rank = _selectable_rank(s)
    return u[:, :rank], s[:rank]


class LsaModel:
    """Truncated factorization plus projected training documents.

    A class scores the best cosine of its own documents, taken with one
    ``np.maximum.reduceat`` over the cosines in class order (the
    documents are sorted by class once, here); a class without
    documents scores -1.0, as a class whose best cosine is not finite.
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
        # weighted coordinates used for the cosine; norms precomputed (an
        # overflow is refused by from_container, not warned about)
        self._weighted = doc_coords * sigma
        with np.errstate(over="ignore", invalid="ignore"):
            self._norms = np.linalg.norm(self._weighted, axis=1)
        # the documents in class order (stable) and where each class starts
        column = {label: j for j, label in enumerate(self.classes)}
        by_class = np.array([column[label] for label in self.labels], dtype=np.intp)
        self._by_class = np.argsort(by_class, kind="stable")
        sizes = np.bincount(by_class, minlength=len(self.classes))
        self._has_docs = sizes > 0
        self._starts = (np.cumsum(sizes) - sizes)[self._has_docs]

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

    def class_scores_from_projection(self, projection):
        """Per-class best cosine given ``U.T @ d`` coordinates (length
        >= rank; extra trailing entries from a wider factorization are
        ignored).  Returns None for a zero projection; a projection whose
        entries or cosine denominators are not finite is a
        `NumericalError`."""
        weighted_q = np.asarray(projection, dtype=np.float64)[: self.rank]
        qnorm = np.linalg.norm(weighted_q)
        if qnorm == 0.0:
            return None
        sims = self._weighted @ weighted_q
        denom = self._norms * qnorm
        # the stored norms are finite: an overflow here is the query's
        if not np.all(np.isfinite(denom)):
            raise NumericalError("lsa query projection is not finite")
        sims = np.divide(
            sims, denom, out=np.full_like(sims, -np.inf), where=denom > 0.0
        )
        # a class without documents gets no segment: reduceat would give
        # it the next class's first cosine
        best = np.full(len(self.classes), -np.inf)
        best[self._has_docs] = np.maximum.reduceat(sims[self._by_class], self._starts)
        return np.where(np.isfinite(best), best, -1.0)

    def predict(self, tokens, table=None) -> Prediction:
        # a non-finite projection is refused, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            if self.spec.name == "w2v":
                projection = self.basis.T @ dense_row(self.spec, tokens, table)
            else:
                projection = row_product(*bow_row(self.spec, tokens), self.basis)
            scores = self.class_scores_from_projection(projection)
        if scores is None:
            raise DegenerateQueryError("query has a zero projection")
        return make_prediction(self.classes, scores)


def train_lsa(corpus, spec: FeatureSpec, k: int, table=None) -> LsaModel:
    """Factorize the training term-document matrix at rank ``k``, or at
    its numerical rank when that is lower (possibly 0)."""
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
