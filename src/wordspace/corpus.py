"""Labeled document collections.

Corpus file format: UTF-8 text, one document per line, the first
whitespace-delimited field is the class label and the remaining
fields are the pre-tokenized text.  Tokenization elsewhere in the
package is whitespace splitting only; no stemming or typo handling.
"""

import logging
from dataclasses import dataclass

from .errors import DataError, EmptyCorpusError, FormatError, UnknownClassError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Document:
    """One labeled token sequence."""

    label: str
    tokens: tuple

    def __post_init__(self):
        if not self.label:
            raise DataError("document label must be non-empty")
        object.__setattr__(self, "tokens", tuple(self.tokens))
        for t in self.tokens:
            if (not t) or any(c.isspace() for c in t):
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
            raise UnknownClassError(f"unknown class {label!r}")
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
    """
    try:
        if hasattr(source, "read"):
            data = source.read()
            if isinstance(data, bytes):
                data = data.decode("utf-8")
            lines = data.splitlines()
        elif isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            with open(source, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        else:
            lines = [ln.rstrip("\n") for ln in source]
    except UnicodeDecodeError as err:
        raise FormatError(f"corpus is not valid UTF-8: {err}") from None

    documents = []
    for lineno, line in enumerate(lines, start=1):
        if line == "":
            continue
        fields = line.split()
        if not fields:
            raise FormatError(f"corpus line {lineno}: whitespace only, no label")
        label, tokens = fields[0], fields[1:]
        if not tokens:
            log.warning("corpus line %d: document %r has no tokens", lineno, label)
        documents.append(Document(label, tuple(tokens)))
    if not documents:
        raise EmptyCorpusError("empty corpus")
    return Corpus(documents)
