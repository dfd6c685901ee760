"""Document feature builders for the vector-space classifiers.

Bag-of-words features come in binary / term-frequency / TF-IDF
weightings over a training vocabulary; embedding features represent a
document by the mean of its distinct in-vocabulary word vectors.
TF-IDF statistics are always taken from the training corpus and reused
for validation/test featurization.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, Vocabulary
from .embeddings import lookup_all
from .errors import ConfigError, FormatError
from .subspace import unit_columns
from .utils import container_array, container_text

# CLI feature names -> bag-of-words weighting schemes.
FEATURE_NAMES = ("binbow", "tfbow", "tfidfbow", "w2v")
_BOW_SCHEME = {"binbow": "binary", "tfbow": "tf", "tfidfbow": "tfidf"}


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
    """Learn the featurization recipe (vocabulary, IDF table) from ``train``."""
    if name not in FEATURE_NAMES:
        raise ConfigError(f"unknown feature scheme {name!r}")
    if name == "w2v":
        if table is None:
            raise ConfigError("w2v features require an embedding table")
        return FeatureSpec(name, embed_dim=table.dimension, normalize=normalize)
    vocab = Vocabulary.from_corpus(train)
    idf_log = np.zeros(len(vocab))
    if name == "tfidfbow":
        df = train.document_frequencies()
        n = len(train)
        idf_log = np.array(
            [math.log10(n / df[t]) for t in vocab.terms], dtype=np.float64
        )
    return FeatureSpec(name, terms=vocab.terms, idf_log=idf_log, normalize=normalize)


def _bow_row(spec: FeatureSpec, tokens):
    index = spec.index
    counts = {}
    for t in tokens:
        j = index.get(t)
        if j is not None:
            counts[j] = counts.get(j, 0) + 1
    cols, vals = [], []
    for j, n in counts.items():
        if spec.name == "binbow":
            w = 1.0
        elif spec.name == "tfbow":
            w = float(n)
        else:
            w = n * spec.idf_log[j]
        if w != 0.0:
            cols.append(j)
            vals.append(w)
    return cols, vals


def feature_matrix(spec: FeatureSpec, docs, table=None):
    """Featurize documents; rows align with ``docs``.

    Returns a CSR matrix for bag-of-words schemes and a dense float64
    array for embedding features.  Documents with no usable tokens get
    an all-zero row.
    """
    if spec.name == "w2v":
        if table is None:
            raise ConfigError("w2v featurization requires an embedding table")
        out = np.zeros((len(docs), spec.embed_dim), dtype=np.float64)
        for i, doc in enumerate(docs):
            block, _, _ = lookup_all(table, doc.tokens)
            if block.shape[1]:
                out[i] = (unit_columns(block) if spec.normalize else block).mean(axis=1)
        return out

    data, indices, indptr = [], [], [0]
    for doc in docs:
        cols, vals = _bow_row(spec, doc.tokens)
        indices.extend(cols)
        data.extend(vals)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(docs), len(spec.terms)),
    )
