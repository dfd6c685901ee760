import io
import struct
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
    load_binary_by_record,
    load_text_by_loop,
    table_index_by_word_loop,
    text_source,
    whole,
)
from wordspace import embeddings
from wordspace.embeddings import (
    EmbeddingTable,
    filter_roman,
    first_occurrence_counts,
    load_binary,
    load_text,
    lookup_all,
    save_text,
)
from wordspace.errors import DataError, FormatError


def pack_binary(entries, dim, header_count=None, trailing_newline=True):
    count = len(entries) if header_count is None else header_count
    out = f"{count} {dim}\n".encode()
    for word, vec in entries:
        out += (word if isinstance(word, bytes) else word.encode()) + b" "
        out += struct.pack(f"<{len(vec)}f", *vec)
        if trailing_newline:
            out += b"\n"
    return out


class TestLoadBinary:
    def test_two_records(self):
        raw = pack_binary([("ab", [1.0, 0.0, 0.0]), ("cd", [0.0, 1.0, 0.0])], 3)
        table = load_binary(io.BytesIO(raw))
        assert len(table) == 2
        assert table.dimension == 3
        np.testing.assert_array_equal(table.vector("ab"), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(table.vector("cd"), [0.0, 1.0, 0.0])

    def test_empty_table(self):
        table = load_binary(io.BytesIO(b"0 5\n"))
        assert len(table) == 0
        assert table.dimension == 5

    def test_no_record_newlines(self):
        raw = pack_binary([("a", [1.0]), ("b", [2.0])], 1, trailing_newline=False)
        table = load_binary(io.BytesIO(raw))
        assert len(table) == 2
        np.testing.assert_array_equal(table.vector("b"), [2.0])

    def test_truncated_second_record(self):
        full = pack_binary([("ab", [1.0, 0.0, 0.0]), ("cd", [0.0, 1.0, 0.0])], 3,
                           header_count=2)
        offset = 4 + len(b"ab ") + 12 + 1  # header + first record + newline
        raw = full[:offset]  # the second (incomplete) record starts at the cut
        with pytest.raises(DataError, match=whole(
                "binary embedding stream ended while reading word 2 of 2"
                f" (record starting at byte offset {offset})")):
            load_binary(io.BytesIO(raw))

    def test_truncated_inside_vector(self):
        raw = pack_binary([("ab", [1.0, 2.0, 3.0])], 3)[:-6]
        offset = len(b"1 3\n")  # the record right after the header
        with pytest.raises(DataError, match=whole(
                "binary embedding stream ended inside the vector of 'ab'"
                f" (record starting at byte offset {offset})")):
            load_binary(io.BytesIO(raw))

    def test_malformed_header(self):
        for raw in (b"nope\n...", b"3\nrest", b"-1 4\n", b"2 0\n", b"\xff\xfe x\n"):
            with pytest.raises(FormatError):
                load_binary(io.BytesIO(raw))

    def test_duplicate_word(self):
        raw = pack_binary([("dup", [1.0]), ("dup", [2.0])], 1)
        with pytest.raises(DataError, match=whole("duplicate word in embedding file: 'dup'")):
            load_binary(io.BytesIO(raw))
        # the table refuses the repeat once the file is parsed: a later
        # fault is reported first
        offset = len(b"3 1\n") + 2 * len(b"dup 1234\n")
        with pytest.raises(DataError, match=whole(
                "binary embedding stream ended while reading word 3 of 3"
                f" (record starting at byte offset {offset})")):
            load_binary(io.BytesIO(pack_binary([("dup", [1.0]), ("dup", [2.0])], 1,
                                               header_count=3) + b"more"))
        with pytest.raises(DataError, match="non-finite"):
            load_binary(io.BytesIO(pack_binary([("dup", [1.0]), ("dup", [2.0]),
                                                ("nan", [float("nan")])], 1)))

    def test_invalid_utf8_collision_keeps_first(self, caplog):
        # both words decode to "caf\ufffd"; the first one wins
        raw = pack_binary([(b"caf\xe9", [1.0]), (b"caf\xff", [2.0])], 1)
        with caplog.at_level("WARNING", logger="wordspace.embeddings"):
            table = load_binary(io.BytesIO(raw))
        assert len(table) == 1
        assert table.vector("caf\ufffd")[0] == 1.0
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and "dropped 1 " in warnings[0].getMessage()

    def test_identical_invalid_utf8_words_still_duplicate(self):
        for word in (b"caf\xe9", "caf\ufffd".encode()):
            raw = pack_binary([(word, [1.0]), (b"x", [0.0]), (word, [2.0])], 1)
            with pytest.raises(DataError,
                               match=whole("duplicate word in embedding file: 'caf\ufffd'")):
                load_binary(io.BytesIO(raw))

    def test_float32_values_widened_exactly(self):
        value = 0.1  # not representable; parsed value must equal the f32
        raw = pack_binary([("w", [value])], 1)
        table = load_binary(io.BytesIO(raw))
        assert table.vector("w")[0] == np.float32(value)


def test_load_peak_is_the_file_and_the_float32_table(tmp_path):
    # a float64 table would hold twice the float32 one beside the file's bytes
    n, dim = 20000, 300
    records = np.zeros(n, dtype=[("word", "S6"), ("space", "S1"),
                                 ("vector", "<f4", dim), ("newline", "S1")])
    records["word"] = [f"w{i:05d}".encode() for i in range(n)]
    records["space"] = b" "
    records["vector"] = np.random.default_rng(0).standard_normal((n, dim))
    records["newline"] = b"\n"
    path = tmp_path / "vectors.bin"
    path.write_bytes(f"{n} {dim}\n".encode() + records.tobytes())
    del records
    tracemalloc.start()
    try:
        table = load_binary(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix_bytes = n * dim * 4
    assert table._matrix.dtype == np.float32 and table._matrix.nbytes == matrix_bytes
    word_allowance = 200 * n  # the word list, index and tuple, and their strings
    assert peak < path.stat().st_size + matrix_bytes + word_allowance


class TestLoadText:
    def test_infer_dimension_without_header(self):
        table = load_text(io.StringIO("a 1.0 0.0\nb 0.0 1.0\n"))
        assert len(table) == 2
        assert table.dimension == 2
        np.testing.assert_array_equal(table.vector("a"), [1.0, 0.0])

    def test_header_component_mismatch(self):
        with pytest.raises(FormatError, match="line 2"):
            load_text(io.StringIO("1 2\na 1.0\n"))

    def test_header_consistent(self):
        table = load_text(io.StringIO("1 2\na 1.0 2.0\n"))
        assert table.vector("a").tolist() == [1.0, 2.0]

    def test_header_count_mismatch(self):
        with pytest.raises(FormatError, match="declared 3"):
            load_text(io.StringIO("3 2\na 1.0 2.0\n"))

    def test_inconsistent_later_line(self):
        with pytest.raises(FormatError, match="line 3"):
            load_text(io.StringIO("a 1 2\nb 3 4\nc 5\n"))

    def test_non_numeric_component(self):
        with pytest.raises(FormatError, match="line 1"):
            load_text(io.StringIO("a x y\n"))

    def test_empty_stream(self):
        with pytest.raises(FormatError):
            load_text(io.StringIO(""))

    def test_invalid_integer_header_rejected(self):
        with pytest.raises(FormatError):
            load_text(io.StringIO("-1 4\n"))
        with pytest.raises(FormatError):
            load_text(io.StringIO("2 0\n"))

    def test_word_that_looks_numeric_is_data(self):
        # "a 1.0" is a word plus one component, not a header
        table = load_text(io.StringIO("a 1.0\nb 2.0\n"))
        assert table.dimension == 1 and len(table) == 2

    def test_values_are_pythons_float_of_each_component(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = [" ".join([f"w{i}"] + [f"{v:.{rng.integers(1, 18)}g}"
                                       for v in rng.standard_normal(7)])
                 for i in range(50)]
        text = "50 7\n" + "\n".join(lines) + "\n"
        want = np.array([[float(c) for c in line.split()[1:]] for line in lines])
        for source in (io.StringIO(text), io.BytesIO(text.encode())):
            table = load_text(source)
            assert table.words == tuple(line.split()[0] for line in lines)
            assert table._matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("end", LINE_ENDS)
    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_lines_end_at_line_ends_only(self, kind, end, tmp_path):
        for sep in (" ", *INLINE_BREAKS):
            for bom in ("", "\ufeff"):
                text = f"{bom}3 2{end}a 1{sep}2{end}{end}b 3 4{end}c{sep}5 6{end}"
                table = load_text(text_source(kind, text, tmp_path))
                assert table.words == ("a", "b", "c")
                assert table._matrix.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
                # the short line is the third, counting real line ends
                text = f"{bom}a 1{sep}2{end}{end}b{sep}3{end}"
                with pytest.raises(FormatError, match=r"^text embedding line 3: "
                                                      r"expected 2 components, got 1$"):
                    load_text(text_source(kind, text, tmp_path))

    @pytest.mark.parametrize("kind", ["path", "bytes"])
    def test_invalid_utf8_names_its_byte_in_the_file(self, kind, tmp_path):
        raw = b"\xef\xbb\xbf" + b"w 1.0 2.0\n" * 5000 + b"\xff 1.0 2.0\n"
        path = tmp_path / "vecs.txt"
        path.write_bytes(raw)
        with pytest.raises(FormatError) as err:
            load_text(path if kind == "path" else io.BytesIO(raw))
        assert str(err.value) == (
            "text embedding stream is not valid UTF-8: 'utf-8' codec can't decode "
            f"byte 0xff in position {raw.index(0xFF)}: invalid start byte")

    def test_header_only_is_an_empty_table(self):
        table = load_text(io.StringIO("0 3\n"))
        assert len(table) == 0 and table.dimension == 3

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        table = EmbeddingTable(["alpha", "beta", "x_1"], rng.standard_normal((3, 4)))
        path = tmp_path / "vecs.txt"
        save_text(table, path)
        again = load_text(path)
        assert again.words == table.words
        for w in table.words:
            np.testing.assert_array_equal(again.vector(w), table.vector(w))


def loaded(load, source):
    """What ``load`` makes of ``source``: the words, dtype, shape and bytes
    of its table's matrix, or its refusal's type and message."""
    try:
        table = load(source)
    except DataError as err:
        return type(err), str(err)
    matrix = table._matrix
    return table.words, matrix.dtype.str, matrix.shape, matrix.tobytes()


# the separators within a line: `read_lines` ends a line at the others
INLINE_SPACES = tuple(c for c in SPACES if c not in "\r\n")
# components the C reader parses, each as `float` does
C_GRAMMAR = ("0", "-0", "1", "+.5", "1.", "2.5E-3", "-1e-400", "5e-324",
             "1.7976931348623157e308", "0." + "3" * 60, "12345678901234567890.5e-30")
# components `float` accepts and the C reader refuses
FLOAT_ONLY = ("1_0", "2_5.0_1", "\u0661\u0662", "\uff11", "\u0663.\u0665e\u0661")
NOT_FINITE = ("inf", "-Infinity", "nan", "1e400")
NOT_NUMBERS = ("x", "1,5", "0x10", "1\x00", "1__0", "_1", "1_", "1e", "--1")


@st.composite
def text_tables(draw):
    """A text table: an optional header, right or wrong, then lines of a
    word and components drawn from one of three pools, between runs of
    any whitespace within a line, with blank lines; mostly regular rows,
    sometimes ragged ones."""
    dim = draw(st.integers(1, 3))
    pool = draw(st.sampled_from([C_GRAMMAR, C_GRAMMAR + FLOAT_ONLY,
                                 C_GRAMMAR + FLOAT_ONLY + NOT_FINITE + NOT_NUMBERS]))
    component = st.one_of(st.sampled_from(pool),
                          st.floats(allow_nan=False, allow_infinity=False).map(repr))
    gap = st.text(st.sampled_from(INLINE_SPACES), min_size=1, max_size=2)
    ragged = draw(st.integers(0, 3)) == 0
    lines = []
    for i in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        word = draw(st.sampled_from([f"w{i}"] * 4 + ["w0", "1", "é", "a\x00"]))
        n = draw(st.integers(0, dim + 1)) if ragged else dim
        fields = [word] + [draw(component) for _ in range(n)]
        lines.append(draw(st.sampled_from(["", " "])) + "".join(f + draw(gap) for f in fields))
    words = sum(1 for line in lines if line.split())
    header = draw(st.sampled_from([None, None, f"{words} {dim}", f"{words} {dim}",
                                   f"{words + 1} {dim}", f"{words} {dim + 1}", "-1 2"]))
    if header is not None:
        lines.insert(0, header)
    text = draw(st.sampled_from(["", "\ufeff"]))
    return text + "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)


class TestTextParity:
    """`load_text` against the per-component loop it replaced."""

    def test_drawn_tables_load_as_by_the_loop(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("text-parity")

        @settings(derandomize=True, database=None, deadline=None, max_examples=300,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(text_tables(), st.sampled_from(SOURCE_KINDS))
        @example("a" + "".join(c + "1" for c in INLINE_SPACES)
                 + "\nb 1_0 \u0661" + " 2" * (len(INLINE_SPACES) - 2) + "\r\n", "lines")
        @example("a 1 -0\rb inf 2\n", "bytes")
        @example("a 1\n\nb\n", "text")
        def check(text, kind):
            want = loaded(load_text_by_loop, text_source(kind, text, root))
            assert loaded(load_text, text_source(kind, text, root)) == want

        check()

    def test_the_loop_runs_only_where_the_reader_refuses(self, monkeypatch):
        calls = []
        loop = embeddings._rows_by_loop
        monkeypatch.setattr(embeddings, "_rows_by_loop",
                            lambda *args: calls.append(args) or loop(*args))
        for text in ("2 2\na 1 -0\n\nb\t1e-3 .5 \n", "a 1\nb 2\n",
                     "a" + "".join(c + "1" for c in INLINE_SPACES) + "\n"):
            load_text(io.StringIO(text))
        assert calls == []
        # the last, a header alone, gives the reader no line
        for text in ("a 1_0 2\n", "a \u0661 2\n", "a 1 2\nb 3\n", "a 1 2\nb\n", "1 2\na 1\n",
                     "a x 2\n", "a\nb 1\n", "0 3\n"):
            calls.clear()
            try:
                load_text(io.StringIO(text))
            except FormatError:
                pass
            assert len(calls) == 1, text


def test_text_load_holds_the_text_twice_at_most(tmp_path):
    # `read_lines` holds the decoded text beside its lines, twice the
    # file's bytes; the C reader is fed one line's components at a time,
    # so its matrix fits beside the lines below that peak.  A list of
    # every line's components would hold the text a third time.
    n, dim = 20000, 300
    rng = np.random.default_rng(0)
    pool = np.array([f"{v:.6f}" for v in rng.standard_normal(1000)])
    path = tmp_path / "vectors.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {dim}\n")
        for i, row in enumerate(pool[rng.integers(0, 1000, (n, dim))].tolist()):
            fh.write(f"w{i:05d} {' '.join(row)}\n")
    tracemalloc.start()
    try:
        table = load_text(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table._matrix.shape == (n, dim)
    line_allowance = 200 * n  # each line's string header, the lists and the words
    assert peak < 2 * path.stat().st_size + line_allowance


@st.composite
def binary_tables(draw):
    """A binary table: records of words that may collide after U+FFFD
    replacement, behind runs of newlines, under a header that may
    declare one record more or less, cut at any byte or not at all."""
    dim = draw(st.integers(1, 3))
    word = st.sampled_from([b"a", b"b", b"caf\xe9", b"caf\xff", "caf\ufffd".encode(),
                            "é".encode(), b"a\nb", b"\xff", b"\x00"])
    vector = st.lists(st.floats(width=32), min_size=dim, max_size=dim)
    records = draw(st.lists(st.tuples(word, vector, st.integers(0, 2)), max_size=5))
    count = max(0, len(records) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    raw = f"{count} {dim}\n".encode() + b"".join(
        b"\n" * newlines + w + b" " + struct.pack(f"<{dim}f", *v)
        for w, v, newlines in records)
    if draw(st.booleans()):
        raw = raw[:draw(st.integers(0, len(raw)))]
    return raw


class TestBinaryParity:
    """`load_binary` against the record loop it replaced, which made one
    array per record."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(binary_tables())
    def test_drawn_tables_load_as_by_the_record_loop(self, raw):
        assert loaded(load_binary, io.BytesIO(raw)) \
            == loaded(load_binary_by_record, io.BytesIO(raw))

    def test_every_truncation_refuses_as_the_record_loop(self):
        raw = pack_binary([(b"caf\xe9", [1.0, -0.0]), (b"caf\xff", [3.0, 4.0]),
                           (b"ab", [5.0, 6.0])], 2).replace(b"\nab", b"\n\n\nab")
        for cut in range(len(raw) + 1):
            assert loaded(load_binary, io.BytesIO(raw[:cut])) \
                == loaded(load_binary_by_record, io.BytesIO(raw[:cut])), cut


class TestFilterRoman:
    def test_drops_non_roman(self):
        table = EmbeddingTable(["word", "слово"],
                               np.eye(2))
        kept = filter_roman(table)
        assert kept.words == ("word",)
        np.testing.assert_array_equal(kept.vector("word"), table.vector("word"))

    def test_empty_table(self):
        table = EmbeddingTable([], np.empty((0, 3)))
        assert len(filter_roman(table)) == 0

    def test_allowed_punctuation(self):
        table = EmbeddingTable(["re-use", "it's", "U.S.", "a_b", "x1"],
                               np.eye(5))
        assert filter_roman(table).words == table.words

    def test_idempotent(self):
        words = ["ok", "café", "no way"[:2], "B2B", "semi:colon"]
        table = EmbeddingTable(words, np.eye(len(words)))
        once = filter_roman(table)
        twice = filter_roman(once)
        assert once.words == twice.words

    def test_keeps_the_table_dtype(self):
        rows = np.random.default_rng(2).standard_normal((4, 3))
        for dtype in (np.float32, np.float64):
            table = EmbeddingTable(["a", "é", "b", "c d"], rows.astype(dtype))
            kept = filter_roman(table)
            assert kept.words == ("a", "b") and kept._matrix.dtype == dtype
            assert kept._matrix.tobytes() == table._matrix[[0, 2]].tobytes()


class TestLookupAll:
    def test_counts_and_order(self):
        table = EmbeddingTable(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        matrix, counts, oov = lookup_all(table, ["a", "a", "b"])
        assert matrix.shape == (2, 2)
        np.testing.assert_array_equal(matrix[:, 0], [1.0, 0.0])
        assert counts.tolist() == [2, 1]
        assert oov == []

    def test_all_oov(self):
        table = EmbeddingTable(["a"], np.array([[1.0]]))
        matrix, counts, oov = lookup_all(table, ["z"])
        assert matrix.shape == (1, 0)
        assert counts.size == 0
        assert oov == ["z"]

    def test_zero_vector_word_counts_as_oov(self):
        table = EmbeddingTable(["a", "b", "c"],
                               np.array([[1.0, 0.0], [0.0, -0.0], [0.0, 1.0]]))
        matrix, counts, oov = lookup_all(table, ["c", "a", "b", "a", "z"])
        np.testing.assert_array_equal(matrix, [[0.0, 1.0], [1.0, 0.0]])
        assert counts.tolist() == [1, 2]
        assert oov == ["b", "z"]
        assert "b" in table.words  # the table still holds the word and its vector
        np.testing.assert_array_equal(table.vector("b"), [0.0, 0.0])

    def test_vector_whose_norm_underflows_counts_as_oov(self):
        # nonzero entries whose squares underflow: unit_columns could not scale it
        table = EmbeddingTable(["a", "tiny"], np.array([[1.0, 0.0], [1e-200, 1e-200]]))
        _, _, oov = lookup_all(table, ["tiny", "a"])
        assert oov == ["tiny"]

    def test_empty_input(self):
        table = EmbeddingTable(["a"], np.array([[1.0]]))
        matrix, counts, oov = lookup_all(table, [])
        assert matrix.shape == (1, 0)
        assert counts.size == 0 and oov == []

    def test_count_sum_property(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable(["a", "b", "c"], np.eye(3))
        pool = ["a", "b", "c", "x", "y"]
        for _ in range(20):
            words = rng.choice(pool, size=rng.integers(0, 12)).tolist()
            _, counts, oov = lookup_all(table, words)
            oov_occurrences = sum(words.count(w) for w in oov)
            assert counts.sum() == len(words) - oov_occurrences

    def test_gather_matches_per_word_loop(self):
        # the former implementation: one vector() copy per distinct word
        def reference(table, words):
            kept, oov_seen, vocab = {}, {}, set(table.words)
            for w in words:
                if w in vocab:
                    kept[w] = kept.get(w, 0) + 1
                elif w not in oov_seen:
                    oov_seen[w] = None
            matrix = np.empty((table.dimension, len(kept)), dtype=np.float64)
            counts = np.empty(len(kept), dtype=np.int64)
            for j, (w, c) in enumerate(kept.items()):
                matrix[:, j] = table.vector(w)
                counts[j] = c
            return matrix, counts, list(oov_seen)

        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(40)]
        table = EmbeddingTable(words, rng.standard_normal((40, 7)))
        pool = words + [f"oov{i}" for i in range(10)]
        for _ in range(200):
            doc = rng.choice(pool, size=int(rng.integers(0, 60))).tolist()
            got, want = lookup_all(table, doc), reference(table, doc)
            assert got[0].shape == want[0].shape and got[0].flags.c_contiguous
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].dtype == want[1].dtype
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2]

    def test_float32_rows_widen_to_the_float64_tables(self):
        # a zero row and a subnormal one, whose float64 squared norm is not
        # zero: the same words are out of vocabulary in both tables
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((30, 9)).astype(np.float32)
        rows[4] = 0.0
        rows[5] = np.float32(1e-45)
        words = [f"w{i}" for i in range(30)]
        narrow, wide = EmbeddingTable(words, rows), EmbeddingTable(words, rows.astype(np.float64))
        assert narrow._matrix.dtype == np.float32 and wide._matrix.dtype == np.float64
        pool = words + ["oov"]
        for _ in range(50):
            doc = rng.choice(pool, size=int(rng.integers(0, 40))).tolist() + ["w4", "w5"]
            got, want = lookup_all(narrow, doc), lookup_all(wide, doc)
            assert got[0].dtype == np.float64 and got[0].flags.c_contiguous
            assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2] and "w4" in got[2] and "w5" not in got[2]


def test_first_occurrence_counts():
    values, counts, missing = first_occurrence_counts(
        {"a": 4, "b": 7}, ["b", "a", "b", "z", "a", "y", "z"])
    assert values.dtype == np.intp and counts.dtype == np.int64
    assert values.tolist() == [7, 4] and counts.tolist() == [2, 2]
    assert missing == ["z", "y"]


class TestTableValidation:
    def test_rejects_empty_word(self):
        with pytest.raises(DataError):
            EmbeddingTable(["", "b"], np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            EmbeddingTable(["a"], np.array([[np.inf]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_row_whose_squared_norm_overflows(self):
        # finite entries, but the norm overflows and x / inf would be 0
        with pytest.raises(FormatError, match="'big'"):
            EmbeddingTable(["a", "big"], np.array([[1.0, 0.0], [1e160, -1e160]]))
        with pytest.raises(FormatError, match="'big'"):
            load_text(io.StringIO("a 1.0 0.0\nbig 3e154 0.0\n"))
        EmbeddingTable(["edge"], np.array([[1.3e154]]))  # 1.69e308 still fits

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float32_rows(self):
        # the largest float32 values square within a float64: no overflow
        top = np.finfo(np.float32).max
        table = EmbeddingTable(["a"], np.full((1, 300), top, dtype=np.float32))
        assert table._matrix.dtype == np.float32 and table.vector("a")[0] == top
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(DataError, match="non-finite"):
                EmbeddingTable(["a", "b"], np.array([[1.0], [bad]], dtype=np.float32))
        assert EmbeddingTable(["a"], np.ones((1, 2), dtype=np.float16))._matrix.dtype == np.float64

    def test_rejects_duplicate(self):
        with pytest.raises(DataError, match=whole("duplicate word in embedding file: 'a'")):
            EmbeddingTable(["a", "a"], np.eye(2))

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.lists(st.text(alphabet="ab", max_size=2), max_size=8))
    def test_refusals_match_the_word_loop(self, words):
        def outcome(index_of):
            try:
                return "accepted", index_of(words)
            except DataError as err:
                return type(err), str(err)

        want = outcome(table_index_by_word_loop)
        if "" in words:  # the one precedence that changed: "" before any repeat
            want = DataError, "empty string is not a valid word key"
        assert outcome(lambda w: EmbeddingTable(w, np.ones((len(w), 1)))._index) == want

    def test_empty_word_is_refused_before_a_repeat(self):
        words = ["a", "a", ""]
        with pytest.raises(DataError, match=whole("duplicate word in embedding file: 'a'")):
            table_index_by_word_loop(words)
        with pytest.raises(DataError, match="empty string") as err:
            EmbeddingTable(words, np.eye(3))
        assert type(err.value) is DataError

    def test_vectors_read_only(self):
        table = EmbeddingTable(["a"], np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            table.vector("a")[0] = 5.0
