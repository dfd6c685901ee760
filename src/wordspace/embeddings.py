"""Pretrained word-embedding I/O.

Two on-disk formats are supported:

binary (``.bin``):
  Header: one ASCII line ``"<vocab_count> <dimension>\\n"``.
  Body per record: the word's bytes up to a single ASCII space,
  then ``dimension`` 32-bit little-endian IEEE-754 floats, optionally
  followed by one ``\\n``.  Any newlines before a word are consumed.

text (``.txt`` / ``.vec``):
  Optional header line ``"<count> <dim>"`` (two integer tokens).
  Each subsequent line: ``word c1 c2 ... cdim`` with decimal reals,
  space-separated, UTF-8.  Without a header the dimension is inferred
  from the first data line.

Vectors are stored exactly as parsed: binary tables in float32, their
file's precision, and text tables in float64, since their decimals are
not float32-exact.  `lookup_all` widens what it gathers to float64, so
every result downstream is the same as from a float64 table.  No
normalization or case folding happens here.  Tables are immutable after
construction and safe for concurrent reads.
"""

import array
import logging
import re
from collections import Counter

import numpy as np

from .errors import (
    DataError,
    DuplicateWordError,
    FormatError,
    TruncationError,
)
from .utils import read_lines

log = logging.getLogger(__name__)

_ROMAN_WORD = re.compile(r"[A-Za-z0-9_\-'.]+\Z")


class EmbeddingTable:
    """Immutable word -> vector map with a fixed dimension.

    Parameters
    ----------
    words : sequence of str
        Unique, non-empty keys (case-sensitive).
    matrix : (n, dimension) array
        One row per word; all entries must be finite, and so must each
        row's squared norm.  A float32 matrix is kept as float32 (the
        binary format's precision); any other becomes float64.
    """

    def __init__(self, words, matrix):
        matrix = np.asarray(matrix)
        if matrix.dtype != np.float32:
            matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise DataError("embedding matrix must be 2-D (one row per word)")
        if matrix.shape[0] != len(words):
            raise DataError(
                f"row count {matrix.shape[0]} does not match word count {len(words)}"
            )
        if matrix.shape[1] < 1:
            raise DataError("embedding dimension must be a positive integer")
        # squared norms in float64, with no float64 copy of float32 rows; a
        # non-finite entry makes its row's norm non-finite, and so does a
        # finite float64 row whose squared norm overflows
        sq_norms = np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64)
        huge = ~np.isfinite(sq_norms)
        if huge.any() and not np.all(np.isfinite(matrix[huge])):
            raise DataError("embedding matrix contains non-finite values")
        index = {}
        for i, word in enumerate(words):
            if word == "":
                raise DataError("empty string is not a valid word key")
            if word in index:
                raise DuplicateWordError(word)
            index[word] = i
        self._words = tuple(words)
        self._index = index
        self._matrix = matrix
        self._matrix.setflags(write=False)
        # a squared norm that overflows would normalize the word to zero;
        # `lookup_all` treats a word whose squared norm is zero, or
        # underflows to zero, as out of vocabulary: it has no usable
        # direction to span or to normalize.  A float32 row's squared norm
        # cannot overflow a float64, so such a table can only have zero rows
        huge = np.flatnonzero(huge)
        if huge.size:
            raise FormatError(f"vector of word {words[huge[0]]!r} is too large: "
                              "its squared norm overflows")
        zero = sq_norms == 0.0
        self._lookup = index if not zero.any() else {
            word: i for word, i in index.items() if not zero[i]}

    @property
    def dimension(self):
        return self._matrix.shape[1]

    @property
    def words(self):
        return self._words

    def __len__(self):
        return len(self._words)

    def vector(self, word):
        """Return a read-only view of the vector stored for ``word``."""
        return self._matrix[self._index[word]]


def _is_int(token):
    try:
        int(token)
    except ValueError:
        return False
    return True


def _parse_header_tokens(tokens, where):
    if len(tokens) != 2:
        raise FormatError(f"malformed header in {where}: expected '<count> <dim>'")
    try:
        count, dim = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise FormatError(f"malformed header in {where}: non-integer field") from None
    if count < 0 or dim < 1:
        raise FormatError(
            f"malformed header in {where}: count must be >= 0 and dimension >= 1"
        )
    if dim > np.iinfo(np.intp).max // 8:  # numpy cannot describe one float64 row
        raise FormatError(f"malformed header in {where}: dimension {dim} is too large")
    return count, dim


def load_binary(source) -> EmbeddingTable:
    """Parse the binary embedding format.

    ``source`` is a file path or a binary file object.  The values are
    stored as float32, the file's own precision, so the full 3M-word
    pretrained model takes about 3.6 GB beside the file's bytes while it
    loads; filter afterwards with `filter_roman`.
    """
    if hasattr(source, "read"):
        buf = source.read()
    else:
        with open(source, "rb") as fh:
            buf = fh.read()

    newline = buf.find(b"\n")
    if newline < 0:
        raise FormatError("malformed header in binary embedding stream: no newline")
    try:
        header = buf[:newline].decode("ascii")
    except UnicodeDecodeError:
        raise FormatError(
            "malformed header in binary embedding stream: not ASCII"
        ) from None
    count, dim = _parse_header_tokens(header.split(), "binary embedding stream")

    words = []
    pos = newline + 1
    record_bytes = 4 * dim
    # rows only for the records the bytes can hold, at 4 * dim + 2 bytes or
    # more each (a one-byte word, the space, the vector): a header that
    # declares more fails as truncated at the first record past them, and
    # without one row that fits, no array of its dim is asked for
    rows = min(count, (len(buf) - pos) // (record_bytes + 2))
    vectors = np.empty((rows, dim if rows or not count else 0), dtype=np.float32)
    seen = set()
    replaced = set()  # raw bytes of the words that decode with U+FFFD
    dropped = 0
    for i in range(count):
        while pos < len(buf) and buf[pos] == 0x0A:  # consume newlines between records
            pos += 1
        start = pos
        sep = buf.find(b" ", pos)
        if sep < 0:
            raise TruncationError(
                f"binary embedding stream ended while reading word {i + 1} of {count}",
                start,
            )
        raw_word = buf[pos:sep]
        if raw_word == b"":
            raise FormatError(f"empty word in binary embedding record {i + 1}")
        word = raw_word.decode("utf-8", errors="replace")
        # Decoding is one-to-one except where invalid bytes became U+FFFD,
        # so only such words can repeat without repeating their bytes.
        fresh = word not in seen
        if "\ufffd" in word:
            if raw_word in replaced:
                raise DuplicateWordError(word)
            replaced.add(raw_word)
        elif not fresh:
            raise DuplicateWordError(word)
        pos = sep + 1
        if pos + record_bytes > len(buf):
            raise TruncationError(
                f"binary embedding stream ended inside the vector of {word!r}",
                start,
            )
        if fresh:
            seen.add(word)
            vectors[len(words)] = np.frombuffer(buf, dtype="<f4", count=dim, offset=pos)
            words.append(word)
        else:
            dropped += 1
        pos += record_bytes
    if dropped:
        log.warning("dropped %d binary embedding words whose invalid UTF-8 bytes "
                    "decode to an earlier word", dropped)
    return EmbeddingTable(words, vectors[:len(words)])


def load_text(source) -> EmbeddingTable:
    """Parse the text embedding format (optional header, UTF-8)."""
    raw_lines = read_lines(source, "text embedding stream")

    words = []
    values = array.array("d")  # every component, row after row, as C doubles
    dim = None
    declared = None
    start_line = 1
    if raw_lines:
        first = raw_lines[0].split()
        if len(first) == 2 and all(_is_int(tok) for tok in first):
            # an integer pair can only be a header; validate it strictly
            declared = _parse_header_tokens(first, "text embedding stream")
            dim = declared[1]
            start_line = 2

    for lineno, line in enumerate(raw_lines[start_line - 1 :], start=start_line):
        fields = line.split()
        if not fields:
            continue
        word, comps = fields[0], fields[1:]
        if dim is None:
            dim = len(comps)
            if dim < 1:
                raise FormatError(
                    f"text embedding line {lineno}: no vector components"
                )
        if len(comps) != dim:
            raise FormatError(
                f"text embedding line {lineno}: expected {dim} components, "
                f"got {len(comps)}"
            )
        try:
            values.extend(map(float, comps))
        except ValueError:
            raise FormatError(
                f"text embedding line {lineno}: non-numeric component"
            ) from None
        words.append(word)
    del raw_lines

    if declared is not None and len(words) != declared[0]:
        raise FormatError(
            f"text embedding stream declared {declared[0]} words, found {len(words)}"
        )
    if dim is None:
        raise FormatError("text embedding stream is empty and has no header")
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(words), dim)
    return EmbeddingTable(words, matrix)


def save_text(table: EmbeddingTable, destination, header: bool = True):
    """Write ``table`` in the text format.

    Components are written with ``repr`` of their float64 value, so a
    reload reproduces the stored values exactly (as float64).
    """
    own = not hasattr(destination, "write")
    fh = open(destination, "w", encoding="utf-8") if own else destination
    try:
        if header:
            fh.write(f"{len(table)} {table.dimension}\n")
        for word in table.words:
            comps = " ".join(repr(float(v)) for v in table.vector(word))
            fh.write(f"{word} {comps}\n")
    finally:
        if own:
            fh.close()


def filter_roman(table: EmbeddingTable) -> EmbeddingTable:
    """Keep only words made of ASCII letters, digits and ``_ - ' .``."""
    rows = [i for i, w in enumerate(table.words) if _ROMAN_WORD.match(w)]
    return EmbeddingTable([table.words[i] for i in rows], table._matrix[rows])


def lookup_all(table: EmbeddingTable, words):
    """Map a word multiset to a matrix of distinct in-vocabulary vectors.

    A word whose vector has zero norm counts as out of vocabulary, and so
    does one whose squared norm underflows to zero (every component
    below about 1.5e-162 in magnitude).

    Parameters
    ----------
    table : EmbeddingTable
    words : iterable of str
        Word occurrences, order-significant.

    Returns
    -------
    matrix : (dimension, k) float64 array
        One column per distinct in-vocabulary word, in first-occurrence
        order.
    counts : (k,) int64 array
        Occurrence count of each kept word.
    oov : list of str
        Distinct out-of-vocabulary words, in first-occurrence order.
    """
    rows, counts, oov = first_occurrence_counts(table._lookup, words)
    # one gather; the transpose copy keeps the (dimension, k) result C-ordered
    # and widens float32 rows to float64, exactly
    matrix = np.ascontiguousarray(table._matrix[rows].T, dtype=np.float64)
    return matrix, counts, oov


def first_occurrence_counts(index, tokens):
    """Count the tokens that ``index`` maps, in first-occurrence order.

    Returns ``(values, counts, missing)``: the intp array of their
    ``index`` values, the int64 array of their counts, and the list of
    the distinct tokens ``index`` does not map, in first-occurrence order.
    ``index`` maps each token to a value of its own, so the order by token
    is the order by value.
    """
    values, counts, missing = [], [], []
    # Counter counts in C and keeps first-seen order: the loop runs over
    # distinct tokens only
    for token, n in Counter(tokens).items():
        j = index.get(token)
        if j is None:
            missing.append(token)
        else:
            values.append(j)
            counts.append(n)
    return np.array(values, dtype=np.intp), np.array(counts, dtype=np.int64), missing
