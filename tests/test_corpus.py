import io
import logging
import math

import numpy as np
import pytest

from wordspace.classifiers import class_vectors
from wordspace.corpus import Corpus, Document, parse_corpus
from wordspace.embeddings import EmbeddingTable
from wordspace.errors import (
    DataError,
    EmptyCorpusError,
    FormatError,
    TrainingDataError,
    UnknownClassError,
)
from wordspace.features import feature_matrix, fit_feature_spec


def bow_row(spec, doc):
    """One featurized document as {column: weight} over its stored entries."""
    row = feature_matrix(spec, [doc])
    return dict(zip(row.indices.tolist(), row.data.tolist()))


class TestParseCorpus:
    def test_two_documents(self):
        corpus = parse_corpus(io.StringIO("earn stocks rose\nacq firm buys firm\n"))
        assert len(corpus) == 2
        assert corpus.classes == ("earn", "acq")
        assert corpus.documents[1].tokens == ("firm", "buys", "firm")

    def test_empty_stream(self):
        with pytest.raises(EmptyCorpusError):
            parse_corpus(io.StringIO(""))

    def test_duplicate_lines_kept(self):
        corpus = parse_corpus(io.StringIO("a x y\na x y\n"))
        assert len(corpus) == 2

    def test_label_only_line_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            corpus = parse_corpus(io.StringIO("earn\nacq one two\n"))
        assert len(corpus) == 2
        assert corpus.documents[0].tokens == ()
        assert any("no tokens" in r.message for r in caplog.records)

    def test_whitespace_only_line_is_error(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_corpus(io.StringIO("earn ok\n   \n"))

    def test_blank_lines_skipped(self):
        corpus = parse_corpus(io.StringIO("a x\n\nb y\n"))
        assert len(corpus) == 2

    def test_tab_separator(self):
        corpus = parse_corpus(io.StringIO("earn\tstocks rose\n"))
        assert corpus.documents[0].label == "earn"
        assert corpus.documents[0].tokens == ("stocks", "rose")


class TestTermStatistics:
    doc = Document("c", ("apple", "apple", "pie"))

    def test_tf_counts(self):
        spec = fit_feature_spec("tfbow", Corpus([self.doc, Document("d", ("kiwi",))]))
        weights = bow_row(spec, self.doc)
        assert weights[spec.index["apple"]] == 2
        assert spec.index["kiwi"] not in weights
        assert weights[spec.index["pie"]] == 1

    def _four_docs(self):
        return Corpus([
            Document("a", ("w", "x")),
            Document("a", ("w", "y")),
            Document("b", ("x", "y")),
            Document("b", ("y", "z")),
        ])

    def test_idf_values(self):
        spec = fit_feature_spec("tfidfbow", self._four_docs())
        assert spec.idf_log[spec.index["w"]] == math.log10(2.0)   # in 2 of 4
        assert spec.idf_log[spec.index["y"]] == math.log10(4 / 3)
        # the vocabulary holds training terms only, so every idf is defined
        assert "missing" not in spec.index

    def test_idf_all_documents(self):
        corpus = Corpus([Document("a", ("q",)), Document("b", ("q",)),
                         Document("a", ("q",)), Document("b", ("q",))])
        spec = fit_feature_spec("tfidfbow", corpus)
        assert spec.idf_log[spec.index["q"]] == 0.0


class TestBow:
    train = Corpus([Document("c", ("a", "b"))])

    def test_tf_weights(self):
        spec = fit_feature_spec("tfbow", self.train)
        assert bow_row(spec, Document("c", ("a", "a", "b"))) == {0: 2.0, 1: 1.0}

    def test_binary_weights(self):
        spec = fit_feature_spec("binbow", self.train)
        assert bow_row(spec, Document("c", ("a", "a", "b"))) == {0: 1.0, 1: 1.0}

    def test_tfidf_hand_value(self):
        # "a" twice in the query doc, present in 1 of 10 training docs:
        # 2 * log10(10/1) = 2.0
        train = Corpus([Document("c", ("a",))] +
                       [Document("c", ("b",)) for _ in range(9)])
        spec = fit_feature_spec("tfidfbow", train)
        weights = bow_row(spec, Document("q", ("a", "a")))
        assert weights == {spec.index["a"]: pytest.approx(2.0, abs=1e-15)}

    def test_vocab_external_terms_dropped(self):
        spec = fit_feature_spec("tfbow", Corpus([Document("c", ("a",))]))
        assert bow_row(spec, Document("c", ("a", "zzz"))) == {0: 1.0}

    def test_zero_tfidf_weight_dropped(self):
        # a term present in every document has log10(idf) == 0
        stats = Corpus([Document("c", ("a", "b")), Document("c", ("a",))])
        spec = fit_feature_spec("tfidfbow", stats)
        weights = bow_row(spec, Document("q", ("a", "b")))
        assert spec.index["a"] not in weights
        assert weights[spec.index["b"]] == pytest.approx(math.log10(2.0))

    def test_tf_matches_pointwise_oracle(self):
        rng = np.random.default_rng(11)
        spec = fit_feature_spec("tfbow", Corpus([Document("c", ("a", "b", "c", "d"))]))
        for _ in range(25):
            tokens = tuple(rng.choice(["a", "b", "c", "d", "zz"],
                                      size=rng.integers(0, 10)).tolist())
            doc = Document("c", tokens)
            weights = bow_row(spec, doc)
            for j, term in enumerate(spec.terms):
                assert weights.get(j, 0.0) == tokens.count(term)

    def test_binary_equals_tf_support(self):
        rng = np.random.default_rng(12)
        train = Corpus([Document("c", ("a", "b", "c"))])
        tf_spec = fit_feature_spec("tfbow", train)
        bin_spec = fit_feature_spec("binbow", train)
        for _ in range(25):
            tokens = tuple(rng.choice(["a", "b", "c"],
                                      size=rng.integers(1, 8)).tolist())
            doc = Document("c", tokens)
            tf_vec = bow_row(tf_spec, doc)
            bin_vec = bow_row(bin_spec, doc)
            assert set(tf_vec) == set(bin_vec)
            assert all(v == 1.0 for v in bin_vec.values())


class TestClassWordMultiset:
    """`class_vectors`: a class's distinct words with class-total counts."""

    table = EmbeddingTable(["a", "b", "c", "d", "x"], np.eye(5))

    def words_and_counts(self, corpus, label):
        matrix, counts = class_vectors(corpus, self.table, label)
        words = [self.table.words[int(np.argmax(col))] for col in matrix.T]
        return words, counts

    def test_union_with_counts(self):
        corpus = Corpus([Document("c", ("a", "b")), Document("c", ("b", "c")),
                         Document("d", ("x",))])
        words, counts = self.words_and_counts(corpus, "c")
        assert words == ["a", "b", "c"]
        assert counts.tolist() == [1, 2, 1]

    def test_empty_document_class(self):
        corpus = Corpus([Document("c", ()), Document("d", ("x",))])
        with pytest.raises(TrainingDataError):
            class_vectors(corpus, self.table, "c")

    def test_repeated_word(self):
        corpus = Corpus([Document("c", ("a", "a", "a"))])
        words, counts = self.words_and_counts(corpus, "c")
        assert words == ["a"] and counts.tolist() == [3]

    def test_unknown_class(self):
        corpus = Corpus([Document("c", ("a",))])
        with pytest.raises(UnknownClassError):
            class_vectors(corpus, self.table, "nope")

    def test_totals_partition_token_count(self):
        rng = np.random.default_rng(5)
        docs = []
        for i in range(12):
            label = f"c{rng.integers(0, 3)}"
            tokens = tuple(rng.choice(["a", "b", "c", "d"],
                                      size=rng.integers(0, 6)).tolist())
            docs.append(Document(label, tokens))
        corpus = Corpus(docs)
        total = sum(len(d.tokens) for d in corpus)
        by_class = sum(
            self.words_and_counts(corpus, c)[1].sum() for c in corpus.classes
        )
        assert by_class == total


class TestDocumentValidation:
    def test_rejects_empty_label(self):
        with pytest.raises(DataError):
            Document("", ("a",))

    def test_rejects_whitespace_token(self):
        with pytest.raises(DataError):
            Document("c", ("a b",))
