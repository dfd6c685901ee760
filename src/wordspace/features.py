"""Document feature builders for the vector-space classifiers.

Bag-of-words features come in binary / term-frequency / TF-IDF
weightings over a training vocabulary; embedding features represent a
document by the mean of its distinct in-vocabulary word vectors.
`bow_row` builds every bag-of-words row, the ones `feature_matrix`
stacks and the query rows the baselines score: a binbow row from the
distinct vocabulary terms alone, a tfbow or tfidfbow row from the term
counts of `first_occurrence_counts`, the counter `lookup_all` uses too.
TF-IDF statistics are always taken from the training corpus and reused
for validation/test featurization.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corpus import Corpus
from .embeddings import first_occurrence_counts, lookup_all
from .errors import ConfigError, FormatError
from .subspace import unit_columns
from .utils import container_array, container_text

FEATURE_NAMES = ("binbow", "tfbow", "tfidfbow", "w2v")


@dataclass
class FeatureSpec:
    """Frozen featurization recipe learned from a training corpus."""

    name: str
    terms: tuple = ()
    idf_log: np.ndarray = field(default_factory=lambda: np.zeros(0))
    embed_dim: int = 0
    normalize: bool = True

    @property
    def width(self):
        return self.embed_dim if self.name == "w2v" else len(self.terms)

    @cached_property
    def index(self):
        """Term -> column map of the bag-of-words vocabulary."""
        return {t: j for j, t in enumerate(self.terms)}

    def container(self):
        """Model-container entries of this recipe."""
        return {
            "spec_name": self.name,
            "spec_terms": self.terms,
            "spec_idf_log": np.asarray(self.idf_log, dtype=np.float64),
            "spec_embed_dim": self.embed_dim,
            "spec_normalize": int(self.normalize),
        }

    @classmethod
    def from_container(cls, arrays):
        name = container_text(arrays, "spec_name", str)
        terms = container_text(arrays, "spec_terms")
        if name not in FEATURE_NAMES:
            raise FormatError(f"unknown feature scheme {name!r}")
        return cls(
            name=name,
            terms=terms,
            idf_log=np.asarray(container_array(arrays, "spec_idf_log", len(terms)),
                               dtype=np.float64),
            embed_dim=int(container_array(arrays, "spec_embed_dim")),
            normalize=bool(int(container_array(arrays, "spec_normalize"))),
        )


def fit_feature_spec(name: str, train: Corpus, table=None, normalize=True) -> FeatureSpec:
    """Learn the featurization recipe from ``train``: the vocabulary in
    first-occurrence order and, for tfidfbow, the IDF table."""
    if name not in FEATURE_NAMES:
        raise ConfigError(f"unknown feature scheme {name!r}")
    if name == "w2v":
        if table is None:
            raise ConfigError("w2v features require an embedding table")
        return FeatureSpec(name, embed_dim=table.dimension, normalize=normalize)
    terms = tuple(dict.fromkeys(t for doc in train for t in doc.tokens))
    idf_log = np.zeros(len(terms))
    if name == "tfidfbow":
        # document frequencies: the column sums of the presence matrix
        presence = feature_matrix(FeatureSpec("binbow", terms=terms), train.documents)
        n = len(train)
        idf_log = np.array([math.log10(n / df) for df in presence.sum(axis=0).A1],
                           dtype=np.float64)
    return FeatureSpec(name, terms=terms, idf_log=idf_log, normalize=normalize)


def bow_row(spec: FeatureSpec, tokens):
    """One document's bag-of-words row as ``(cols, vals)`` numpy arrays:
    its nonzero weights, by first occurrence of their terms.  A binbow
    row reads no counts: its columns are the distinct vocabulary terms,
    in the first-seen order `dict.fromkeys` keeps, as `Counter` keeps it."""
    if spec.name == "binbow":
        index = spec.index
        cols = np.array([index[t] for t in dict.fromkeys(tokens) if t in index],
                        dtype=np.intp)
        return cols, np.ones(cols.size)
    cols, counts, _ = first_occurrence_counts(spec.index, tokens)
    if spec.name == "tfbow":
        return cols, counts.astype(np.float64)
    vals = counts * spec.idf_log[cols]
    nonzero = vals != 0.0  # a term in every training document has idf 0
    return cols[nonzero], vals[nonzero]


def dense_row(spec: FeatureSpec, tokens, table=None):
    """One document's w2v feature row: the mean of its distinct
    in-vocabulary word vectors (unit vectors when ``spec.normalize``),
    zeros without one, and bitwise its row of `feature_matrix`."""
    if table is None:
        raise ConfigError("w2v featurization requires an embedding table")
    vec = np.zeros(spec.embed_dim, dtype=np.float64)
    block, _, _ = lookup_all(table, tokens)
    if block.shape[1]:
        vec[:] = (unit_columns(block) if spec.normalize else block).mean(axis=1)
    return vec


def feature_matrix(spec: FeatureSpec, docs, table=None):
    """Featurize documents; rows align with ``docs``.

    Returns a CSR matrix for bag-of-words schemes and a dense float64
    array for embedding features.  Documents with no usable tokens get
    an all-zero row.
    """
    if spec.name == "w2v":
        out = np.zeros((len(docs), spec.embed_dim), dtype=np.float64)
        for i, doc in enumerate(docs):
            out[i] = dense_row(spec, doc.tokens, table)
        return out

    import scipy.sparse as sp
    rows = [bow_row(spec, doc.tokens) for doc in docs]
    indptr = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum([cols.size for cols, _ in rows], out=indptr[1:])
    return sp.csr_matrix(
        (np.concatenate([vals for _, vals in rows] or [np.zeros(0)]),
         np.concatenate([cols for cols, _ in rows] or [np.zeros(0, np.intp)]),
         indptr),
        shape=(len(docs), len(spec.terms)),
    )
