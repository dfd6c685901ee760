"""Labeled document collections.

Corpus file format: UTF-8 text, one document per line, the first
whitespace-delimited field is the class label and the remaining
fields are the pre-tokenized text.  Tokenization elsewhere in the
package is whitespace splitting only; no stemming or typo handling.
"""

import logging
import re
from dataclasses import dataclass

from .errors import DataError, EmptyCorpusError, FormatError
from .utils import read_lines

log = logging.getLogger(__name__)

# matches exactly the characters str.split breaks at (str.isspace)
_SPACE = re.compile(r"\s")


def is_word(text):
    """The rule for a label or token: a non-empty run without whitespace."""
    return text.split() == [text]


@dataclass(frozen=True)
class Document:
    """One labeled token sequence."""

    label: str
    tokens: tuple

    def __post_init__(self):
        if not self.label:
            raise DataError("document label must be non-empty")
        if not is_word(self.label):
            raise DataError(f"document label {self.label!r} contains whitespace")
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        # one test of the whole document; the loop below names the culprit
        # and keeps each refusal's exception for a token that is not a str
        try:
            clean = _SPACE.search("".join(tokens)) is None and "" not in tokens
        except TypeError:
            clean = False
        if not clean:
            for t in tokens:
                if not is_word(t):
                    raise DataError(f"token {t!r} is empty or contains whitespace")


class Corpus:
    """Immutable list of documents with per-class grouping.

    ``classes`` preserves first-appearance order; ``indices_of`` maps a
    label to the positions of its documents.
    """

    def __init__(self, documents):
        documents = tuple(documents)
        if not documents:
            raise EmptyCorpusError("empty corpus")
        by_class = {}
        for i, doc in enumerate(documents):
            by_class.setdefault(doc.label, []).append(i)
        self.documents = documents
        self.classes = tuple(by_class)
        self._by_class = {c: tuple(ix) for c, ix in by_class.items()}

    def __len__(self):
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def indices_of(self, label):
        if label not in self._by_class:
            raise DataError(f"unknown class {label!r}")
        return self._by_class[label]

    def documents_of(self, label):
        return tuple(self.documents[i] for i in self.indices_of(label))

    def subset(self, indices) -> "Corpus":
        """New corpus over a selection of document positions."""
        return Corpus(self.documents[i] for i in indices)


def parse_corpus(source) -> Corpus:
    """Parse a corpus stream (path, file object, or iterable of lines).

    Empty lines are skipped.  A line with a label but no tokens is
    accepted as an empty document (logged as a warning).  A non-empty
    line containing only whitespace has no label and is a format error.
    Equal tokens of one parse share one ``str``.
    """
    words = {}
    documents = []
    for lineno, line in enumerate(read_lines(source, "corpus"), start=1):
        if line == "":
            continue
        fields = line.split()
        if not fields:
            raise FormatError(f"corpus line {lineno}: whitespace only, no label")
        label, tokens = fields[0], fields[1:]
        if not tokens:
            log.warning("corpus line %d: document %r has no tokens", lineno, label)
        documents.append(Document(label, tuple(map(words.setdefault, tokens, tokens))))
    return Corpus(documents)
