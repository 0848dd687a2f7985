"""Corpus loading, tokenization, and vocabulary construction.

Documents come in as raw text (JSON lines or one document per plain-text
line), get tokenized into lowercase word strings, and are indexed against
a frequency-filtered vocabulary.  One pass, ``scan_tokens``, tokenizes
each document once and numbers its words; the vocabulary counts and the
index are both read from its ids.  The vocabulary also carries the
subsampling keep-probability used to thin very frequent words during
embedding training.
"""

from __future__ import annotations

import itertools
import json
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CorpusError, EmptyVocabularyError, JsonReader, ValidationError

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# In ASCII, ``[^\W_]`` is exactly ``str.isalnum``: blank out everything else.
_ASCII_SEPARATORS = str.maketrans(
    {c: " " for c in map(chr, range(128)) if not c.isalnum()}
)


def tokenize(text: str) -> list[str]:
    """Split raw text into lowercase alphanumeric tokens.

    Punctuation and underscores separate tokens; anything matching a run
    of Unicode letters or digits survives.  Applying tokenize to the
    space-join of its own output returns the same tokens.  ASCII text
    takes a translate-and-split path that gives the regex's tokens.
    """
    text = text.lower()
    if text.isascii():
        return text.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(text)


@dataclass(frozen=True)
class Document:
    """One corpus document.

    ``tokens`` holds vocabulary indices once the document has been indexed
    against a vocabulary; it is None for freshly loaded documents.
    """

    id: str
    raw: str
    tokens: np.ndarray | None = None

    def __len__(self) -> int:
        return 0 if self.tokens is None else len(self.tokens)


@dataclass(frozen=True)
class Vocabulary:
    """Frequency-filtered word inventory.

    Words are ordered by descending corpus count with ties broken by the
    word string, so index 0 is the most frequent word.  ``total_tokens``
    counts every token seen in the corpus, including tokens of words that
    the minimum-count filter later discarded; the retained mass is
    ``counts.sum()``.
    """

    words: tuple[str, ...]
    counts: np.ndarray
    total_tokens: int
    keep_probability: np.ndarray

    @cached_property
    def index(self) -> dict[str, int]:
        """Each word's position in ``words``, built on first read."""
        return {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index


def keep_probabilities(counts: np.ndarray, threshold: float) -> np.ndarray:
    """Keep probability of every word, from its share of the counts' sum.

    ``min(1, sqrt(threshold / ratio))`` with ``ratio = counts[i] /
    counts.sum()``: words whose share of the corpus is at or below the
    threshold are always kept, and the keep probability decays with the
    square root of the excess frequency.
    """
    if not np.all(counts > 0):
        raise ValidationError("word counts must be positive")
    if not threshold > 0.0:
        raise ValidationError(f"subsample threshold must be positive, got {threshold}")
    ratios = counts / counts.sum()
    return np.minimum(1.0, np.sqrt(threshold / ratios))


@dataclass(frozen=True)
class TokenScan:
    """Every token of a corpus as a corpus-local word id, from one pass.

    ``words`` lists the distinct words in first-seen order, ``ids`` holds
    each token's index into ``words``, the documents end to end, and
    ``ends[i]`` is where document ``i``'s tokens end in ``ids``.
    """

    words: list[str]
    ids: np.ndarray
    ends: np.ndarray


def scan_tokens(docs: list[Document]) -> TokenScan:
    """Tokenize every document once and number its words as they come.

    No token string outlives its document: the pass keeps one 4-byte id
    per token and one entry per distinct word.
    """
    table: defaultdict[str, int] = defaultdict()
    table.default_factory = table.__len__
    word_id = table.__getitem__
    ids = array("i")
    ends = array("q")
    for doc in docs:
        ids.extend(map(word_id, tokenize(doc.raw)))
        ends.append(len(ids))
    return TokenScan(
        words=list(table),
        ids=np.frombuffer(ids, dtype=np.int32),
        ends=np.frombuffer(ends, dtype=np.int64),
    )


def _scan_of(docs: list[Document], scan: TokenScan | None) -> TokenScan:
    if scan is None:
        return scan_tokens(docs)
    if len(scan.ends) != len(docs):
        raise ValidationError(
            f"token scan covers {len(scan.ends)} documents, not {len(docs)}"
        )
    return scan


def build_vocabulary(
    docs: list[Document],
    min_count: int = 50,
    subsample_threshold: float = 1e-5,
    *,
    scan: TokenScan | None = None,
) -> Vocabulary:
    """Count tokens across documents and keep words seen at least min_count times.

    The counts come from one ``np.add.at`` over the ids of
    ``scan_tokens(docs)``; a caller that also indexes the documents passes
    the same ``scan`` to both functions, so each document is tokenized
    once.  Keep probabilities are computed from each retained word's
    share of the retained token mass.
    """
    if min_count < 1:
        raise ValidationError(f"min_count must be at least 1, got {min_count}")
    if not subsample_threshold > 0.0:
        raise ValidationError(
            f"subsample threshold must be positive, got {subsample_threshold}"
        )
    scan = _scan_of(docs, scan)
    # ``np.add.at`` reads the int32 ids as they are, where ``np.bincount``
    # would first copy them to 8 bytes each.
    counts = np.zeros(len(scan.words), dtype=np.int64)
    np.add.at(counts, scan.ids, 1)
    retained = np.flatnonzero(counts >= min_count)
    if not retained.size:
        raise EmptyVocabularyError(
            f"no word appears at least {min_count} times "
            f"({len(scan.words)} distinct words, {len(scan.ids)} tokens)"
        )
    # By word, then stably by descending count: ties keep the word order.
    by_word = np.array(sorted(retained.tolist(), key=scan.words.__getitem__))
    order = by_word[np.argsort(-counts[by_word], kind="stable")]
    counts = counts[order]
    return Vocabulary(
        words=tuple(scan.words[i] for i in order.tolist()),
        counts=counts,
        total_tokens=len(scan.ids),
        keep_probability=keep_probabilities(counts, subsample_threshold),
    )


def index_documents(
    docs: list[Document], vocab: Vocabulary, *, scan: TokenScan | None = None
) -> list[Document]:
    """Return documents with tokens mapped to vocabulary indices.

    Each distinct word of ``scan_tokens(docs)``, or of the ``scan`` the
    caller hands in, is looked up in the vocabulary once; that table maps
    every token id at once.  Tokens outside the vocabulary are dropped.
    Documents may end up empty; they stay in the corpus so downstream
    indexing lines up.
    """
    scan = _scan_of(docs, scan)
    lookup = vocab.index.get
    remap = np.fromiter(
        map(lookup, scan.words, itertools.repeat(-1)), np.int64, len(scan.words)
    )
    mapped = remap[scan.ids]
    dropped = np.flatnonzero(mapped < 0)
    tokens = mapped[mapped >= 0]
    ends = (scan.ends - np.searchsorted(dropped, scan.ends)).tolist()
    return [
        Document(id=doc.id, raw=doc.raw, tokens=tokens[start:end])
        for doc, start, end in zip(docs, [0, *ends], ends)
    ]


def load_corpus(path: str, fmt: str = "jsonl") -> list[Document]:
    """Load documents from a JSON-lines or plain-text file.

    JSON lines must be objects with a string ``text`` field and an
    optional string ``id``; missing ids are synthesized from the
    zero-based line number.  In plain format every line is one document
    with its line number as id.  Lines end at a line feed, a carriage
    return or both; other Unicode line separators, such as U+2028, are
    text.  A file that is not UTF-8 raises ``CorpusError``.
    """
    if fmt not in ("jsonl", "plain"):
        raise ValidationError(f"unknown corpus format {fmt!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.removesuffix("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    docs: list[Document] = []
    if fmt == "plain":
        for i, line in enumerate(lines):
            docs.append(Document(id=str(i), raw=line))
    else:
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {i + 1}: malformed JSON ({exc.msg})") from exc
            read = JsonReader(CorpusError, f"line {i + 1}: ", "record")
            text = read.value(read.object(record), "text", "str")
            doc_id = read.value(record, "id", "str") if "id" in record else str(i)
            docs.append(Document(id=doc_id, raw=text))
    seen: set[str] = set()
    for doc in docs:
        if doc.id in seen:
            raise CorpusError(f"duplicate document id {doc.id!r}")
        seen.add(doc.id)
    return docs
