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
"""

from dataclasses import dataclass

import numpy as np

from .classifiers import Prediction, make_prediction
from .corpus import Corpus, Vocabulary
from .errors import TrainingDataError
from .utils import container_array

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
    absent_base: np.ndarray     # (n_classes,) column sums of log_not_prob

    def __post_init__(self):
        self._index = {t: j for j, t in enumerate(self.terms)}

    @property
    def strategy(self):
        return self.kind

    def predict(self, tokens, table=None, **_ignored) -> Prediction:
        counts = {}
        for t in tokens:
            j = self._index.get(t)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        if self.kind == "mvb":
            scores = self.log_prior + self.absent_base
            for j in counts:
                scores = scores + (self.log_prob[j] - self.log_not_prob[j])
        else:
            scores = self.log_prior.copy()
            for j, n in counts.items():
                scores = scores + n * self.log_prob[j]
        return make_prediction(self.classes, scores)

    def container(self):
        return {}, {"terms": self.terms, "log_prior": self.log_prior,
                    "log_prob": self.log_prob, "log_not_prob": self.log_not_prob}

    @classmethod
    def from_container(cls, hyper, arrays):
        shape = (len(arrays["terms"]), len(arrays["classes"]))
        log_not_prob = container_array(arrays, "log_not_prob", *shape)
        return cls(arrays["strategy"], arrays["classes"], arrays["terms"],
                   container_array(arrays, "log_prior", shape[1]),
                   container_array(arrays, "log_prob", *shape),
                   log_not_prob, log_not_prob.sum(axis=0))

    def class_posteriors(self, tokens) -> np.ndarray:
        """Normalized class posteriors for a document (sums to 1)."""
        scores = self.predict(tokens).scores
        shifted = np.exp(scores - np.max(scores))
        return shifted / shifted.sum()


def _fit(kind: str, corpus: Corpus) -> NaiveBayesModel:
    vocab = Vocabulary.from_corpus(corpus)
    if len(vocab) == 0:
        raise TrainingDataError("training corpus has an empty vocabulary")
    n_classes = len(corpus.classes)
    denom = n_classes + len(corpus)

    class_doc_counts = np.array(
        [len(corpus.indices_of(c)) for c in corpus.classes], dtype=np.float64
    )
    log_prior = np.log((1.0 + class_doc_counts) / denom)

    # docs-in-class-containing-term counts
    df = np.zeros((len(vocab), n_classes), dtype=np.float64)
    class_pos = {c: j for j, c in enumerate(corpus.classes)}
    for doc in corpus:
        j = class_pos[doc.label]
        for t in set(doc.tokens):
            df[vocab.index[t], j] += 1.0

    prob = np.minimum((1.0 + df) / denom, _MAX_PROB)
    log_prob = np.log(prob)
    log_not_prob = np.log1p(-prob)
    return NaiveBayesModel(
        kind, corpus.classes, vocab.terms, log_prior, log_prob, log_not_prob,
        log_not_prob.sum(axis=0),
    )


def train_mvb(corpus: Corpus) -> NaiveBayesModel:
    """Bernoulli event model over binary term presence."""
    return _fit("mvb", corpus)


def train_mnb(corpus: Corpus) -> NaiveBayesModel:
    """Multinomial event model over term counts."""
    return _fit("mnb", corpus)
