"""Latent-semantic-analysis nearest-neighbor classifier.

The training feature matrix (terms x documents) is factorized once by
singular value decomposition and truncated to the ``k`` leading
triplets.  Every document d is stored through the projection

    coords(d) = diag(1/sigma_k) @ U_k.T @ d

A query is placed in the class of the nearest training document, where
nearness is the cosine similarity computed in singular-value-weighted
coordinates, i.e. between ``sigma * coords`` vectors (equivalently
between ``U_k.T @ d`` vectors).  With ``k`` equal to the full rank this
reproduces exact-cosine nearest neighbor on the raw feature vectors,
because the training vectors lie in the span of ``U_k`` and the
query's out-of-span component shrinks every cosine by the same factor.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .classifiers import Prediction, make_prediction
from .errors import (
    DegenerateQueryError,
    FormatError,
    SubspaceRankError,
    TrainingDataError,
    solver_errors,
)
from .features import FeatureSpec, feature_matrix
from .subspace import RANK_RTOL
from .utils import container_array, container_text


def truncated_svd(X, k: int):
    """Top-``k`` singular triplets of ``X`` (descending).

    Dense LAPACK for small or nearly-full requests, ARPACK with a fixed
    deterministic start vector otherwise.  Raises ``SubspaceRankError``
    when ``k`` exceeds the numerical rank and `NumericalError` when
    LAPACK fails.
    """
    n_min = min(X.shape)
    if k < 1:
        raise SubspaceRankError(k, n_min)
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
    if s.size < k or s[0] == 0.0 or s[-1] <= RANK_RTOL * s[0]:
        rank = 0 if s.size == 0 or s[0] == 0.0 else int(
            np.count_nonzero(s > RANK_RTOL * s[0])
        )
        raise SubspaceRankError(k, rank)
    return u, s


class LsaModel:
    """Truncated factorization plus projected training documents."""

    strategy = "lsa"

    def __init__(self, classes, labels, basis, sigma, doc_coords, spec: FeatureSpec):
        self.classes = tuple(classes)
        self.labels = tuple(labels)
        self.basis = basis            # (n_features, k)
        self.sigma = sigma            # (k,)
        self.doc_coords = doc_coords  # (n_docs, k) = diag(1/sigma) U^T d
        self.spec = spec
        self.embed_dim = spec.embed_dim if spec.name == "w2v" else None
        # weighted coordinates used for the cosine; norms precomputed
        self._weighted = doc_coords * sigma
        self._norms = np.linalg.norm(self._weighted, axis=1)
        self._class_members = {
            c: np.flatnonzero(np.asarray(self.labels, dtype=object) == c)
            for c in self.classes
        }

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
        return cls(arrays["classes"], labels, basis,
                   container_array(arrays, "sigma", rank),
                   container_array(arrays, "doc_coords", len(labels), rank),
                   spec)

    def truncated(self, k: int) -> "LsaModel":
        """The rank-``k`` model (k <= rank): the leading ``k`` columns of
        this factorization, as `train_lsa` at rank ``k`` would give."""
        return LsaModel(self.classes, self.labels, self.basis[:, :k], self.sigma[:k],
                        self.doc_coords[:, :k], self.spec)

    def class_scores_from_projection(self, projection):
        """Per-class best cosine given ``U.T @ d`` coordinates (length
        >= rank; extra trailing entries from a wider factorization are
        ignored).  Returns None for a zero projection."""
        weighted_q = np.asarray(projection, dtype=np.float64)[: self.rank]
        qnorm = np.linalg.norm(weighted_q)
        if qnorm == 0.0:
            return None
        sims = self._weighted @ weighted_q
        denom = self._norms * qnorm
        sims = np.divide(
            sims, denom, out=np.full_like(sims, -np.inf), where=denom > 0.0
        )
        scores = np.full(len(self.classes), -1.0)
        for j, c in enumerate(self.classes):
            best = np.max(sims[self._class_members[c]])
            scores[j] = best if np.isfinite(best) else -1.0
        return scores

    def predict(self, tokens, table=None) -> Prediction:
        from .corpus import Document

        row = feature_matrix(self.spec, [Document("_q", tuple(tokens))], table)
        vec = row.toarray()[0] if sp.issparse(row) else row[0]
        scores = self.class_scores_from_projection(self.basis.T @ vec)
        if scores is None:
            raise DegenerateQueryError("query has a zero projection")
        return make_prediction(self.classes, scores)


def train_lsa(corpus, spec: FeatureSpec, k: int, table=None) -> LsaModel:
    """Factorize the training term-document matrix at rank ``k``."""
    docs = list(corpus)
    feats = feature_matrix(spec, docs, table)
    X = feats.T if sp.issparse(feats) else feats.T.copy()  # terms x documents
    if X.shape[0] == 0:
        raise TrainingDataError("training corpus has an empty vocabulary")
    basis, sigma = truncated_svd(X, k)
    doc_coords = np.asarray(feats @ basis) / sigma
    return LsaModel(
        corpus.classes, [d.label for d in docs], basis, sigma, doc_coords, spec
    )
