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

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .embeddings import EmbeddingTable, lookup_all
from .errors import (
    DegenerateQueryError,
    FormatError,
    NonFiniteScoreError,
    TrainingDataError,
)
from .subspace import (
    Subspace,
    full_weighted_word_subspace,
    full_word_subspace,
    similarity,
    stored_subspace,
    unit_columns,
)
from .utils import container_array

log = logging.getLogger(__name__)

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
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise NonFiniteScoreError("prediction scores must be finite")
    best = int(np.argmax(scores))
    tie = int(np.count_nonzero(scores == scores[best])) > 1
    return Prediction(classes[best], scores, tie)


def _embed_dim(hyper):
    """The container's embedding dimension, a positive int."""
    dim = hyper["embed_dim"]
    if type(dim) is not int or dim < 1:
        raise FormatError(f"embed_dim must be a positive integer, found {dim!r}")
    return dim


def _int_or_none(hyper, name):
    """A serving cap of the container (query_dim, angle_count): an int or None."""
    value = hyper[name]
    if value is not None and type(value) is not int:
        raise FormatError(f"{name} must be an integer or null, found {value!r}")
    return value


def class_vectors(corpus: Corpus, table: EmbeddingTable, label: str):
    """Distinct in-vocabulary word vectors of a class with class-total counts."""
    tokens = [t for doc in corpus.documents_of(label) for t in doc.tokens]
    matrix, counts, oov = lookup_all(table, tokens)
    if matrix.shape[1] == 0:
        raise TrainingDataError(f"class {label!r} has no in-vocabulary words")
    if oov:
        log.debug("class %s: %d words out of vocabulary", label, len(oov))
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

    @property
    def weighted(self):
        return self.strategy == "tfmsm"

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
        classes, embed_dim = arrays["classes"], _embed_dim(hyper)
        subspaces = {}
        for i, label in enumerate(classes):
            basis = container_array(arrays, f"class_{i}_basis", embed_dim, None)
            spectrum = container_array(arrays, f"class_{i}_spectrum", basis.shape[1])
            count = container_array(arrays, f"class_{i}_count")
            try:
                subspaces[label] = stored_subspace(basis, spectrum, count)
            except FormatError as err:
                raise FormatError(f"class {i} subspace: {err}") from None
        return cls(
            arrays["strategy"], classes, subspaces,
            class_dim=hyper["class_dim"], query_dim=_int_or_none(hyper, "query_dim"),
            angle_count=_int_or_none(hyper, "angle_count"), normalize=hyper["normalize"],
            embed_dim=embed_dim,
        )

    def predict(self, tokens, table: EmbeddingTable) -> Prediction:
        """Classify a token sequence by subspace similarity.

        The model's ``query_dim`` caps the query subspace dimension
        (rank-capped); its ``angle_count`` caps the number of canonical
        angles, None meaning every available angle, i.e. min(class dim,
        query dim).
        """
        query = query_subspace(self, tokens, table, self.query_dim)
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


def _train_subspace_model(strategy, corpus, table, class_dim, normalize, weighted):
    subspaces = {}
    for label in corpus.classes:
        matrix, counts = class_vectors(corpus, table, label)
        if normalize:
            matrix = unit_columns(matrix)
        if weighted:
            sub = full_weighted_word_subspace(matrix, counts, class_dim)
        else:
            sub = full_word_subspace(matrix, class_dim)
        subspaces[label] = sub
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
    return _train_subspace_model("msm", corpus, table, class_dim, normalize, False)


def train_tfmsm(corpus: Corpus, table: EmbeddingTable, class_dim: int = None,
                normalize: bool = True) -> SubspaceModel:
    """As `train_msm` but each word is weighted by its class frequency."""
    return _train_subspace_model("tfmsm", corpus, table, class_dim, normalize, True)


def query_subspace(model: SubspaceModel, tokens, table: EmbeddingTable,
                   query_dim: int = None) -> Subspace:
    """Build the query document's subspace under the model's policies."""
    matrix, counts, _ = lookup_all(table, tokens)
    if matrix.shape[1] == 0:
        raise DegenerateQueryError("query has no in-vocabulary words")
    if model.normalize:
        matrix = unit_columns(matrix)
    if model.weighted:
        return full_weighted_word_subspace(matrix, counts, query_dim)
    return full_word_subspace(matrix, query_dim)


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
        classes, embed_dim = arrays["classes"], _embed_dim(hyper)
        return cls(classes, container_array(arrays, "sums", len(classes), embed_dim),
                   container_array(arrays, "counts", len(classes)),
                   embed_dim=embed_dim, normalize=hyper["normalize"])

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
