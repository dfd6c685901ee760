"""Multi-variate Bernoulli and multinomial naive Bayes.

Both models share the same smoothed estimates over the training
vocabulary V:

    prior(c)     = (1 + docs_in_class) / (n_classes + n_docs)
    P(word | c)  = (1 + docs_in_class_containing_word) / (n_classes + n_docs)

The Bernoulli model scores a document by the presence/absence of every
vocabulary term; the multinomial model scores it by per-term occurrence
counts (the class-independent document-length factor is dropped, which
leaves the argmax unchanged).  Scoring happens in log space; query
words outside the training vocabulary are ignored.

Documents are read through `features`: the vocabulary and the presence
counts come from the binbow scheme, and a query is its binbow (mvb) or
tfbow (mnb) row over ``terms``, as ``(cols, vals)`` arrays, times one
table through `kernels.row_product` (no sparse matrix per query).
"""

from dataclasses import dataclass

import numpy as np

from .classifiers import DEFAULT_FEATURES, Prediction, make_prediction
from .corpus import Corpus
from .errors import DataError
from .features import FeatureSpec, bow_row, feature_matrix, fit_feature_spec
from .kernels import row_product
from .utils import container_array, container_text

# Smoothed probabilities are < 1 by construction, but log1p(-P) still
# deserves a guard against pathological inputs.
_MAX_PROB = 1.0 - 1e-12


@dataclass
class NaiveBayesModel:
    """Log-space probability tables for one of the two event models."""

    kind: str  # "mvb" or "mnb"
    classes: tuple
    terms: tuple
    log_prior: np.ndarray       # (n_classes,)
    log_prob: np.ndarray        # (n_terms, n_classes)
    log_not_prob: np.ndarray    # (n_terms, n_classes); used by mvb only

    def __post_init__(self):
        self.spec = FeatureSpec(DEFAULT_FEATURES[self.kind], terms=self.terms)
        if self.kind == "mvb":
            # every term absent, then each present term swaps its factor
            self._base = self.log_prior + self.log_not_prob.sum(axis=0)
            self._table = self.log_prob - self.log_not_prob
        else:
            self._base, self._table = self.log_prior, self.log_prob

    @property
    def strategy(self):
        return self.kind

    def predict(self, tokens, table=None) -> Prediction:
        # a non-finite score is refused by make_prediction, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            scores = self._base + row_product(*bow_row(self.spec, tokens), self._table)
        return make_prediction(self.classes, scores)

    def container(self):
        return {}, {"terms": self.terms, "log_prior": self.log_prior,
                    "log_prob": self.log_prob, "log_not_prob": self.log_not_prob}

    @classmethod
    def from_container(cls, hyper, arrays):
        terms = container_text(arrays, "terms")
        shape = (len(terms), len(arrays["classes"]))
        return cls(arrays["strategy"], arrays["classes"], terms,
                   container_array(arrays, "log_prior", shape[1]),
                   container_array(arrays, "log_prob", *shape),
                   container_array(arrays, "log_not_prob", *shape))


def _fit(kind: str, corpus: Corpus) -> NaiveBayesModel:
    spec = fit_feature_spec("binbow", corpus)
    if not spec.terms:
        raise DataError("training corpus has an empty vocabulary")
    denom = len(corpus.classes) + len(corpus)
    labels = np.asarray([doc.label for doc in corpus], dtype=object)
    one_hot = (labels[:, None] == np.asarray(corpus.classes, dtype=object)).astype(np.float64)
    log_prior = np.log((1.0 + one_hot.sum(axis=0)) / denom)

    # docs-in-class-containing-term counts: presence (docs x terms) by class
    df = feature_matrix(spec, list(corpus)).T @ one_hot
    prob = np.minimum((1.0 + df) / denom, _MAX_PROB)
    return NaiveBayesModel(kind, corpus.classes, spec.terms, log_prior,
                           np.log(prob), np.log1p(-prob))


def train_mvb(corpus: Corpus) -> NaiveBayesModel:
    """Bernoulli event model over binary term presence."""
    return _fit("mvb", corpus)


def train_mnb(corpus: Corpus) -> NaiveBayesModel:
    """Multinomial event model over term counts."""
    return _fit("mnb", corpus)
