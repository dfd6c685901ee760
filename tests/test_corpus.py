import gc
import io
import logging
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import (
    INLINE_BREAKS,
    LINE_ENDS,
    SOURCE_KINDS,
    SPACES,
    check_tokens_by_loop,
    parse_corpus_by_loop,
    text_source,
    whole,
)
from wordspace import corpus as corpus_module
from wordspace.classifiers import class_vectors
from wordspace.corpus import Corpus, Document, is_word, parse_corpus
from wordspace.embeddings import EmbeddingTable
from wordspace.errors import DataError, EmptyCorpusError, FormatError
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

    @pytest.mark.parametrize("end", LINE_ENDS)
    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_lines_end_at_line_ends_only(self, kind, end, tmp_path):
        for sep in (" ", *INLINE_BREAKS):
            for bom in ("", "\ufeff"):
                text = f"{bom}c0 a{sep}b{end}{end}c1 c{end}"
                corpus = parse_corpus(text_source(kind, text, tmp_path))
                assert corpus.classes == ("c0", "c1")
                assert [d.tokens for d in corpus] == [("a", "b"), ("c",)]
                # the whitespace-only line is the third, counting real line ends
                text = f"{bom}c0 a{sep}b{end}{end}{sep}{end}c1 c{end}"
                with pytest.raises(FormatError, match=r"^corpus line 3: whitespace only"):
                    parse_corpus(text_source(kind, text, tmp_path))

    @pytest.mark.parametrize("kind", ["path", "bytes"])
    def test_invalid_utf8_names_its_byte_in_the_file(self, kind, tmp_path):
        raw = b"\xef\xbb\xbf" + b"c0 a b\n" * 5000 + b"c1 \xff\n"
        path = tmp_path / "corpus.txt"
        path.write_bytes(raw)
        with pytest.raises(FormatError) as err:
            parse_corpus(path if kind == "path" else io.BytesIO(raw))
        assert str(err.value) == (
            "corpus is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
            f"in position {raw.index(0xFF)}: invalid start byte")


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
        with pytest.raises(DataError, match=whole("class 'c' has no in-vocabulary words")):
            class_vectors(corpus, self.table, "c")

    def test_repeated_word(self):
        corpus = Corpus([Document("c", ("a", "a", "a"))])
        words, counts = self.words_and_counts(corpus, "c")
        assert words == ["a"] and counts.tolist() == [3]

    def test_unknown_class(self):
        corpus = Corpus([Document("c", ("a",))])
        with pytest.raises(DataError, match=whole("unknown class 'nope'")):
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

    def test_rejects_every_whitespace_code_point_and_the_empty_token(self):
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert len(spaces) == 29
        for c in spaces:
            for token in (c, "a" + c, c + "b", "a" + c + "b"):
                with pytest.raises(DataError):
                    Document("c", (token,))
        with pytest.raises(DataError):
            Document("c", ("",))
        # not whitespace to str.isspace(): kept
        assert Document("c", ("a\u200bb", "\x00")).tokens == ("a\u200bb", "\x00")


# every character str.split breaks at
def outcome(parse, source):
    """What ``parse`` makes of ``source``: its documents and classes, or
    its refusal's type and message."""
    try:
        corpus = parse(source)
    except DataError as err:
        return type(err), str(err)
    return [(d.label, d.tokens) for d in corpus], corpus.classes


@st.composite
def corpus_texts(draw):
    """A corpus text: lines of fields drawn from a few words, so tokens
    repeat, between runs of any whitespace, each line ended by a line
    end, behind an optional byte-order mark."""
    gap = st.text(st.sampled_from(SPACES), max_size=3)
    words = st.sampled_from(["c0", "c1", "wheat", "a\u200bb", "\x00", "é", "x"])
    text = draw(st.sampled_from(["", "\ufeff"]))
    for fields in draw(st.lists(st.lists(words, max_size=6), max_size=8)):
        text += "".join(draw(gap) + f for f in fields) + draw(gap)
        text += draw(st.sampled_from(LINE_ENDS))
    return text


class TestParseParity:
    """`parse_corpus` against the parse loop it replaced, which kept one
    ``str`` per token occurrence."""

    def test_drawn_texts_parse_as_by_the_loop(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("parity")

        @settings(derandomize=True, database=None, deadline=None, max_examples=200,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(corpus_texts(), st.sampled_from(SOURCE_KINDS))
        @example("\ufeffc0" + "x".join(SPACES) + "x\r\nc1 x x\rc0 wheat\n", "lines")
        def check(text, kind):
            want = outcome(parse_corpus_by_loop, text_source(kind, text, root))
            assert outcome(parse_corpus, text_source(kind, text, root)) == want
            if isinstance(want[0], list):
                shared = {}
                for doc in parse_corpus(text_source(kind, text, root)):
                    assert all(shared.setdefault(t, t) is t for t in doc.tokens)

        check()

    def test_equal_tokens_are_one_object(self):
        corpus = parse_corpus(io.StringIO("c0 wheat corn wheat\nc1 corn wheat\n"))
        first, second = (doc.tokens for doc in corpus)
        assert first[0] is first[2] is second[1]
        assert first[1] is second[0]

    def test_parsed_corpus_holds_each_distinct_token_once(self):
        # 100,000 Zipf-drawn tokens over 1,000 words, 50 to a document
        rng = np.random.default_rng(24)
        p = 1.0 / np.arange(1, 1001)
        draws = rng.choice(1000, size=100_000, p=p / p.sum()).reshape(-1, 50)
        text = "".join(f"c{i % 8} " + " ".join(f"word{j}" for j in row) + "\n"
                       for i, row in enumerate(draws))

        def held(parse):
            source = io.StringIO(text)
            gc.collect()
            tracemalloc.start()
            try:
                corpus = parse(source)
                size = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert sum(len(d.tokens) for d in corpus) == 100_000
            return size

        assert held(parse_corpus) <= held(parse_corpus_by_loop) / 3


def refusal(check, tokens):
    """The type and message of what ``check(tokens)`` raises, or None."""
    try:
        check(tokens)
    except Exception as err:  # whatever it is, it is compared
        return type(err), str(err)
    return None


class TestDocumentRefusalParity:
    """`Document` refuses as the per-token loop it tests a document before."""

    def test_same_refusal_as_the_loop(self):
        bad = [c + t for c in SPACES for t in ("", "b")]
        bad += ["a" + t for t in bad] + ["", None, 1, b"a b", b"ab"]
        for token in bad:
            for tokens in ((token,), ("a", token), (token, "b", ""), ("a", "b", token)):
                assert refusal(lambda ts: Document("c", ts), tokens) \
                    == refusal(check_tokens_by_loop, tokens)

    def test_none_and_int_raise_attribute_error_and_bytes_pass(self):
        with pytest.raises(AttributeError):
            Document("c", (1,))
        with pytest.raises(AttributeError):
            Document("c", ("a", None))
        assert Document("c", (b"ab", "a")).tokens == (b"ab", "a")

    def test_the_pattern_matches_exactly_what_isspace_accepts(self):
        pattern = corpus_module._SPACE
        assert [c for c in map(chr, range(sys.maxunicode + 1))
                if (pattern.match(c) is not None) != c.isspace()] == []


class TestWordRule:
    """One rule for a label, a token and a model's class label."""

    @pytest.mark.parametrize("text,want", [
        ("grain", True), ("a\u200bb", True), ("", False), ("gr\tain", False),
        ("gr\nain", False), (" grain", False), ("grain\u3000", False),
    ])
    def test_is_word(self, text, want):
        assert is_word(text) is want

    @pytest.mark.parametrize("label", ["gr\tain", "gr\nain", " c", "c\u2028"])
    def test_document_refuses_a_label_with_whitespace(self, label):
        with pytest.raises(DataError, match=whole(f"document label {label!r} contains whitespace")):
            Document(label, ("a",))

    def test_empty_label_keeps_its_message(self):
        with pytest.raises(DataError, match=whole("document label must be non-empty")):
            Document("", ("a",))
