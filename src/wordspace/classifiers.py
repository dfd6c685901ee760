"""Subspace-based classification strategies.

MSM models each class's distinct in-vocabulary words as a word
subspace and scores a query by the mean squared canonical cosine
between the query's subspace and each class subspace; the TF-weighted
variant weights every distinct word by its occurrence count (class
totals at training time, in-document counts at query time).  The
similarity-average baseline scores a query by the mean pairwise inner
product between the two sets of distinct unit word vectors.

All strategies share the prediction contract: per-class scores, the
argmax label, and a tie flag; ties are broken by class order with the
first class winning.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .embeddings import EmbeddingTable, lookup_all
from .errors import DataError, DegenerateQueryError, FormatError, NumericalError
from .subspace import (
    Subspace,
    full_weighted_word_subspace,
    full_word_subspace,
    similarity,
    stored_subspace,
    unit_columns,
)
from .utils import container_array

# Natural feature scheme per strategy; lsa and svm accept any.
DEFAULT_FEATURES = {
    "msm": "w2v",
    "tfmsm": "w2v",
    "sa": "w2v",
    "mvb": "binbow",
    "mnb": "tfbow",
    "lsa": "binbow",
    "svm": "binbow",
}


@dataclass(frozen=True)
class Prediction:
    """Chosen label with the per-class score vector that produced it."""

    label: str
    scores: np.ndarray
    tie: bool


def make_prediction(classes, scores) -> Prediction:
    """The `Prediction` of per-class ``scores``: the first class of the
    highest score, tied when another class has it too (``0.0 == -0.0``).
    A non-finite score is a `NumericalError`.  The decision is taken
    on Python floats, which for a handful of classes costs a fraction of
    the numpy reductions that would give the same answer."""
    scores = np.asarray(scores, dtype=np.float64)
    values = scores.tolist()
    if not all(map(math.isfinite, values)):
        raise NumericalError("prediction scores must be finite")
    top = max(values)
    return Prediction(classes[values.index(top)], scores, values.count(top) > 1)


def _positive_int(hyper, name, nullable=False):
    """The container's integer setting ``name``: an int >= 1 (not a bool),
    or None if ``nullable``, as a dimension cap left open is."""
    value = hyper[name]
    if not (type(value) is int and value >= 1 or nullable and value is None):
        raise FormatError(f"{name} must be a positive integer"
                          f"{' or null' if nullable else ''}, found {value!r}")
    return value


def _boolean(hyper, name):
    """The container's boolean setting ``name``: true or false, not a value
    that would only read as one."""
    value = hyper[name]
    if type(value) is not bool:
        raise FormatError(f"{name} must be a boolean, found {value!r}")
    return value


def class_vectors(corpus: Corpus, table: EmbeddingTable, label: str):
    """Distinct in-vocabulary word vectors of a class with class-total counts."""
    tokens = [t for doc in corpus.documents_of(label) for t in doc.tokens]
    matrix, counts, _ = lookup_all(table, tokens)
    if matrix.shape[1] == 0:
        raise DataError(f"class {label!r} has no in-vocabulary words")
    return matrix, counts


class SubspaceModel:
    """Per-class word subspaces plus query-time policies."""

    def __init__(self, strategy, classes, subspaces, *, class_dim, query_dim=None,
                 angle_count=None, normalize=True, embed_dim=None):
        self.strategy = strategy
        self.classes = tuple(classes)
        self.subspaces = dict(subspaces)
        self.class_dim = class_dim
        self.query_dim = query_dim
        self.angle_count = angle_count
        self.normalize = normalize
        self.embed_dim = embed_dim
        bases = [self.subspaces[label].basis for label in self.classes]
        self.class_dims = np.array([b.shape[1] for b in bases])
        self.class_starts = np.cumsum(self.class_dims) - self.class_dims
        # every class basis side by side, p x (sum of class dims), so one
        # GEMM gives the basis products of all classes with a query
        self.stacked_basis = np.hstack(bases)

    def basis_products(self, query: Subspace) -> np.ndarray:
        """``query.basis.T @ class_basis`` of every class side by side, in
        class order: columns ``class_starts[c]`` to ``class_starts[c] +
        class_dims[c]`` belong to class ``c``.  (The query-major product
        is the faster GEMM for the thin query bases of short documents.)"""
        return query.basis.T @ self.stacked_basis

    def container(self):
        """Hyperparameters and per-class arrays for the model container."""
        hyper = {
            "class_dim": self.class_dim,
            "query_dim": self.query_dim,
            "angle_count": self.angle_count,
            "normalize": self.normalize,
            "embed_dim": self.embed_dim,
        }
        arrays = {}
        for i, label in enumerate(self.classes):
            sub = self.subspaces[label]
            arrays[f"class_{i}_basis"] = sub.basis
            arrays[f"class_{i}_spectrum"] = sub.spectrum
            arrays[f"class_{i}_count"] = sub.source_word_count
        return hyper, arrays

    @classmethod
    def from_container(cls, hyper, arrays):
        classes, embed_dim = arrays["classes"], _positive_int(hyper, "embed_dim")
        subspaces = {}
        for i, label in enumerate(classes):
            basis = container_array(arrays, f"class_{i}_basis", embed_dim, None)
            spectrum = container_array(arrays, f"class_{i}_spectrum", basis.shape[1])
            count = container_array(arrays, f"class_{i}_count")
            try:
                subspaces[label] = stored_subspace(basis, spectrum, count)
            except FormatError as err:
                raise FormatError(f"class {i} subspace: {err}") from None
        normalize = _boolean(hyper, "normalize")
        caps = {name: _positive_int(hyper, name, nullable=True)
                for name in ("class_dim", "query_dim", "angle_count")}
        return cls(arrays["strategy"], classes, subspaces, **caps,
                   normalize=normalize, embed_dim=embed_dim)

    def predict(self, tokens, table: EmbeddingTable) -> Prediction:
        """Classify a token sequence by subspace similarity.

        The model's ``query_dim`` caps the query subspace dimension
        (rank-capped); see `predict_query` for the scoring.
        """
        return self.predict_query(query_subspace(
            tokens, table, self.query_dim, strategy=self.strategy, normalize=self.normalize))

    def predict_query(self, query: Subspace) -> Prediction:
        """Classify a query subspace built under the model's policies.

        A query wider than the model's ``query_dim`` is cut to its
        leading ``query_dim`` directions.  The model's ``angle_count``
        caps the number of canonical angles, None meaning every
        available angle, i.e. min(class dim, query dim).
        """
        if self.query_dim is not None and query.dimension > self.query_dim:
            query = query.truncated(self.query_dim)
        limits = np.minimum(self.class_dims, query.dimension)
        if self.angle_count is None or self.angle_count >= limits.max():
            # every angle: the sum of squared cosines is the squared Frobenius
            # norm of each class's block of the stacked basis product
            g = self.basis_products(query)
            sums = np.add.reduceat(np.einsum("ij,ij->j", g, g), self.class_starts)
            scores = np.minimum(sums / limits, 1.0)
        else:
            scores = np.array([
                similarity(self.subspaces[label], query, min(limit, self.angle_count))
                for label, limit in zip(self.classes, limits)
            ])
        return make_prediction(self.classes, scores)


def _word_subspace(matrix, counts, max_dim, normalize, strategy):
    """The ``strategy`` subspace of a word set, class or query alike: its
    word vectors (unit length with ``normalize``), weighted by their
    ``counts`` for tfmsm, capped at ``max_dim`` dimensions."""
    if normalize:
        matrix = unit_columns(matrix)
    if strategy == "tfmsm":
        return full_weighted_word_subspace(matrix, counts, max_dim)
    return full_word_subspace(matrix, max_dim)


def _train_subspace_model(strategy, corpus, table, class_dim, normalize):
    subspaces = {}
    for label in corpus.classes:
        matrix, counts = class_vectors(corpus, table, label)
        subspaces[label] = _word_subspace(matrix, counts, class_dim, normalize, strategy)
    return SubspaceModel(
        strategy, corpus.classes, subspaces, class_dim=class_dim, normalize=normalize,
        embed_dim=table.dimension,
    )


def train_msm(corpus: Corpus, table: EmbeddingTable, class_dim: int = None,
              normalize: bool = True) -> SubspaceModel:
    """Model each class's distinct words as a word subspace.

    ``class_dim`` is a policy upper bound: every class uses
    ``min(class_dim, numerical rank)`` dimensions (full rank if None).
    """
    return _train_subspace_model("msm", corpus, table, class_dim, normalize)


def train_tfmsm(corpus: Corpus, table: EmbeddingTable, class_dim: int = None,
                normalize: bool = True) -> SubspaceModel:
    """As `train_msm` but each word is weighted by its class frequency."""
    return _train_subspace_model("tfmsm", corpus, table, class_dim, normalize)


def query_subspace(tokens, table: EmbeddingTable, query_dim: int = None, *,
                   strategy, normalize) -> Subspace:
    """The query document's subspace under the policies of a ``strategy``
    (msm or tfmsm) model that does or does not ``normalize`` its vectors."""
    matrix, counts, _ = lookup_all(table, tokens)
    if matrix.shape[1] == 0:
        raise DegenerateQueryError("query has no in-vocabulary words")
    return _word_subspace(matrix, counts, query_dim, normalize, strategy)


class SimilarityAverageModel:
    """Mean pairwise inner product between sets of distinct unit vectors.

    The double sum over all vector pairs factorizes into the inner
    product of the two set-sum vectors, so each class is stored as the
    sum of its distinct unit word vectors plus the set size.
    """

    strategy = "sa"

    def __init__(self, classes, sums, counts, *, embed_dim, normalize=True):
        self.classes = tuple(classes)
        self.sums = np.asarray(sums, dtype=np.float64)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.embed_dim = embed_dim
        self.normalize = normalize  # kept for the model container; SA always normalizes

    def container(self):
        return ({"normalize": self.normalize, "embed_dim": self.embed_dim},
                {"sums": self.sums, "counts": self.counts})

    @classmethod
    def from_container(cls, hyper, arrays):
        classes, embed_dim = arrays["classes"], _positive_int(hyper, "embed_dim")
        counts = container_array(arrays, "counts", len(classes))
        if not np.all(counts >= 1):  # a class has at least one word
            raise FormatError("sa counts must be at least 1")
        return cls(classes, container_array(arrays, "sums", len(classes), embed_dim),
                   counts, embed_dim=embed_dim, normalize=_boolean(hyper, "normalize"))

    def predict(self, tokens, table: EmbeddingTable) -> Prediction:
        matrix, _, _ = lookup_all(table, tokens)
        if matrix.shape[1] == 0:
            raise DegenerateQueryError("query has no in-vocabulary words")
        matrix = unit_columns(matrix)
        qsum = matrix.sum(axis=1)
        scores = (self.sums @ qsum) / (self.counts * matrix.shape[1])
        return make_prediction(self.classes, scores)


def train_sa(corpus: Corpus, table: EmbeddingTable,
             normalize: bool = True) -> SimilarityAverageModel:
    """One sum-of-unit-vectors artifact per class."""
    sums = np.zeros((len(corpus.classes), table.dimension), dtype=np.float64)
    counts = np.zeros(len(corpus.classes), dtype=np.int64)
    for j, label in enumerate(corpus.classes):
        matrix, _ = class_vectors(corpus, table, label)
        matrix = unit_columns(matrix)
        sums[j] = matrix.sum(axis=1)
        counts[j] = matrix.shape[1]
    return SimilarityAverageModel(
        corpus.classes, sums, counts, embed_dim=table.dimension, normalize=normalize
    )
