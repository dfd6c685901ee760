import math

import numpy as np
import pytest

from helpers import (
    enumerate_nb_corpora,
    nb_oracle_maximizers,
    nb_queries,
    nb_scores_by_token_loop,
    nb_tables_by_loop,
)
from wordspace.bayes import train_mnb, train_mvb
from wordspace.corpus import Corpus, Document
from wordspace.errors import TrainingDataError
from wordspace.model_io import load_model, save_model

# Document counts of the 8-class reference corpus (7674 documents).
CLASS_SIZES = {
    "acq": 2292, "crude": 374, "earn": 3923, "grain": 51,
    "interest": 271, "money-fx": 293, "ship": 144, "trade": 326,
}


class TestPriors:
    def test_smoothed_prior_on_reference_distribution(self):
        docs = []
        for label, size in CLASS_SIZES.items():
            docs.extend(Document(label, ("tok",)) for _ in range(size))
        model = train_mvb(Corpus(docs))
        grain = model.classes.index("grain")
        assert math.exp(model.log_prior[grain]) == pytest.approx(52 / 7682,
                                                                 rel=1e-12)
        priors = np.exp(model.log_prior)
        assert priors.sum() == pytest.approx((7674 + 8) / 7682)


class TestMvb:
    def test_hand_likelihood(self):
        # two classes, two docs: P(a|c0) = (1+1)/4 = 0.5, P(b|c0) = 1/4;
        # a document containing only "a" scores 0.5 * (1 - 0.25) = 0.375
        corpus = Corpus([Document("c0", ("a",)), Document("c1", ("b",))])
        model = train_mvb(corpus)
        pred = model.predict(("a",))
        likelihood = math.exp(pred.scores[0] - model.log_prior[0])
        assert likelihood == pytest.approx(0.375, rel=1e-12)

    def test_identical_classes_tie(self):
        corpus = Corpus([Document("c0", ("a", "b")), Document("c1", ("a", "b"))])
        pred = train_mvb(corpus).predict(("a",))
        assert pred.tie and pred.label == "c0"

    def test_unseen_query_words_ignored(self):
        corpus = Corpus([Document("c0", ("a",)), Document("c1", ("b",))])
        model = train_mvb(corpus)
        np.testing.assert_array_equal(model.predict(("a",)).scores,
                                      model.predict(("a", "zzz")).scores)


class TestMnb:
    def test_hand_two_class_preference(self):
        # P(a|c0) = (1+3)/10 = 0.4, P(a|c1) = 1/10, equal priors;
        # query "a a" prefers c0 by 0.16 vs 0.01
        docs = [Document("c0", ("a", "b")), Document("c0", ("a",)),
                Document("c0", ("a", "b")), Document("c0", ("b",)),
                Document("c1", ("b",)), Document("c1", ("b", "b")),
                Document("c1", ("b",)), Document("c1", ("b",))]
        model = train_mnb(Corpus(docs))
        pred = model.predict(("a", "a"))
        assert pred.label == "c0"
        gap = pred.scores[0] - pred.scores[1]
        assert gap == pytest.approx(2 * (math.log(0.4) - math.log(0.1)), rel=1e-12)

    def test_empty_document_falls_back_to_priors(self):
        corpus = Corpus([Document("c0", ("a",)), Document("c1", ("b",)),
                         Document("c1", ("c",))])
        model = train_mnb(corpus)
        pred = model.predict(())
        np.testing.assert_allclose(pred.scores, model.log_prior)
        assert pred.label == "c1"  # larger prior

    def test_single_class_corpus(self):
        model = train_mnb(Corpus([Document("only", ("a", "b"))]))
        assert model.predict(("b",)).label == "only"

    def test_empty_vocabulary_errors(self):
        with pytest.raises(TrainingDataError):
            train_mnb(Corpus([Document("c0", ()), Document("c1", ())]))


class TestBruteForceOracle:
    """Exact-arithmetic check of both event models on tiny corpora.

    The implementation scores in log space, so two classes whose exact
    scores are equal (different factorizations of the same product) can
    come out microscopically apart; the prediction is accepted iff the
    chosen class attains the exact maximum.
    """

    @pytest.mark.parametrize("kind,train", [("mvb", train_mvb),
                                            ("mnb", train_mnb)])
    def test_exhaustive_tiny_corpora(self, kind, train):
        cases = enumerate_nb_corpora()
        assert len(cases) >= 500
        checked = 0
        for contents, labels, vocab in cases:
            corpus = Corpus([Document(lab, toks)
                             for lab, toks in zip(labels, contents)])
            model = train(corpus)
            for query in nb_queries(vocab):
                maximizers = nb_oracle_maximizers(
                    kind, list(contents), labels, list(corpus.classes), vocab,
                    list(query),
                )
                got = model.predict(query)
                assert got.label in maximizers
                if len(maximizers) == 1:
                    assert {got.label} == maximizers
                checked += 1
        assert checked >= 3000


def _seeded_corpus(seed, n_docs=60, n_classes=5, n_words=40):
    """Documents of 0-25 tokens drawn with repeats from a shared pool."""
    rng = np.random.default_rng(seed)
    pool = [f"w{i}" for i in range(n_words)]
    return Corpus([
        Document(f"c{rng.integers(n_classes)}",
                 tuple(rng.choice(pool, size=rng.integers(0, 26)).tolist()))
        for _ in range(n_docs)
    ])


def _seeded_queries(seed, vocab_size=40, count=50):
    """Queries mixing training words, repeats and out-of-vocabulary words."""
    rng = np.random.default_rng(seed)
    pool = [f"w{i}" for i in range(vocab_size + 10)] + ["oov_a", "oov_b"]
    return [()] + [tuple(rng.choice(pool, size=rng.integers(1, 40)).tolist())
                   for _ in range(count)]


class TestFeaturesPathParity:
    """The bag-of-words path of `features` against the former token loops."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("train", [train_mvb, train_mnb])
    def test_scores_match_token_loop(self, seed, train):
        model = train(_seeded_corpus(seed))
        for query in _seeded_queries(seed + 100):
            np.testing.assert_allclose(model.predict(query).scores,
                                       nb_scores_by_token_loop(model, query),
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("train", [train_mvb, train_mnb])
    def test_container_tables_equal_loop_tables(self, seed, train, tmp_path):
        corpus = _seeded_corpus(seed)
        path = tmp_path / "nb.npz"
        save_model(train(corpus), path)
        terms, log_prior, log_prob, log_not_prob = nb_tables_by_loop(corpus)
        with np.load(path) as saved:
            assert tuple(saved["terms"].tolist()) == terms
            for name, want in (("log_prior", log_prior), ("log_prob", log_prob),
                               ("log_not_prob", log_not_prob)):
                assert saved[name].dtype == want.dtype
                np.testing.assert_array_equal(saved[name], want)
        loaded, query = load_model(path), _seeded_queries(seed)[1]
        np.testing.assert_allclose(loaded.predict(query).scores,
                                   nb_scores_by_token_loop(loaded, query),
                                   rtol=1e-12, atol=0.0)
