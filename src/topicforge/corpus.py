"""Corpus loading, tokenization, and vocabulary construction.

Documents come in as raw text (JSON lines or one document per plain-text
line), get tokenized into lowercase word strings, and are indexed against
a frequency-filtered vocabulary.  The vocabulary also carries the
subsampling keep-probability used to thin very frequent words during
embedding training.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

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
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "index", {w: i for i, w in enumerate(self.words)}
        )

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


def build_vocabulary(
    docs: list[Document],
    min_count: int = 50,
    subsample_threshold: float = 1e-5,
) -> Vocabulary:
    """Count tokens across documents and keep words seen at least min_count times.

    Keep probabilities are computed from each retained word's share of the
    retained token mass.
    """
    if min_count < 1:
        raise ValidationError(f"min_count must be at least 1, got {min_count}")
    if not subsample_threshold > 0.0:
        raise ValidationError(
            f"subsample threshold must be positive, got {subsample_threshold}"
        )
    counter: Counter[str] = Counter()
    total = 0
    for doc in docs:
        toks = tokenize(doc.raw)
        total += len(toks)
        counter.update(toks)
    retained = [(w, c) for w, c in counter.items() if c >= min_count]
    if not retained:
        raise EmptyVocabularyError(
            f"no word appears at least {min_count} times "
            f"({len(counter)} distinct words, {total} tokens)"
        )
    retained.sort(key=itemgetter(0))
    retained.sort(key=itemgetter(1), reverse=True)
    words = tuple(w for w, _ in retained)
    counts = np.array([c for _, c in retained], dtype=np.int64)
    return Vocabulary(
        words=words,
        counts=counts,
        total_tokens=total,
        keep_probability=keep_probabilities(counts, subsample_threshold),
    )


def index_documents(docs: list[Document], vocab: Vocabulary) -> list[Document]:
    """Return documents with tokens mapped to vocabulary indices.

    Tokens outside the vocabulary are dropped.  Documents may end up
    empty; they stay in the corpus so downstream indexing lines up.
    """
    lookup = vocab.index.get
    indexed = []
    for doc in docs:
        tokens = tokenize(doc.raw)
        ids = np.fromiter(
            map(lookup, tokens, itertools.repeat(-1)), np.int64, len(tokens)
        )
        indexed.append(Document(id=doc.id, raw=doc.raw, tokens=ids[ids >= 0]))
    return indexed


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
