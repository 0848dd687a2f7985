"""Information-gain scoring of topics against a corpus.

A topic is worth something if knowing its words tells you which documents
you are looking at.  The score is pointwise mutual information between
documents and topic words, weighted by how concentrated each word is in
each document: ``sum P(d|w) * log2(P(d,w) / (P(d) P(w)))``.  Probabilities
are maximum-likelihood token estimates over vocabulary words; the log is
base 2, so scores are in bits.

Scoring comes in two forms: hard assignment (each document belongs to
exactly one topic, inner sum restricted to the topic's documents) and
mixture (each document weighs in on every topic through its topic
proportions).  Both go through one scorer: a topic's members are
``(document, weight)`` pairs, with weight 1 for a hard member and the
topic proportion for a mixture one, so a mixture with one-hot proportions
reproduces the hard score exactly.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import Document, Vocabulary
from .errors import JsonReader, ValidationError

_MODES = ("hard", "mixture")
_PROPORTION_TOLERANCE = 1e-6
# Words listed or scored per topic by default, as ``--top-n`` of both commands.
TOPIC_WORDS = 10


@dataclass(frozen=True)
class CooccurrenceStats:
    """Token co-occurrence counts between documents and vocabulary words.

    ``tokens`` holds every document's vocabulary indices end to end, in
    corpus order, so document i is the ``doc_totals[i]`` tokens after
    those of documents 0 to i - 1.  Only vocabulary words are counted
    anywhere, so ``doc_totals`` are vocabulary-token document lengths and
    ``total_tokens`` is their sum.  The scorer reads these arrays alone;
    ``joint[i]``, a dict of word index to its count in document i in
    first-occurrence order, is built on first read.
    """

    doc_ids: tuple[str, ...]
    doc_totals: np.ndarray
    word_counts: np.ndarray
    tokens: np.ndarray
    total_tokens: int
    vocabulary: Vocabulary

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def joint(self) -> tuple[dict[int, int], ...]:
        ends = np.cumsum(self.doc_totals).tolist()
        tokens = self.tokens.tolist()
        return tuple(
            dict(Counter(tokens[start:end]))
            for start, end in zip([0, *ends], ends)
        )


def build_stats(docs: list[Document], vocab: Vocabulary) -> CooccurrenceStats:
    """Count document/word co-occurrences over indexed documents."""
    for doc in docs:
        if doc.tokens is None:
            raise ValidationError(
                f"document {doc.id!r} is not indexed against the vocabulary"
            )
    doc_totals = np.array([len(doc.tokens) for doc in docs], dtype=np.int64)
    total = int(doc_totals.sum())
    if total == 0:
        raise ValidationError("corpus has no vocabulary tokens to count")
    tokens = np.concatenate([doc.tokens for doc in docs])
    return CooccurrenceStats(
        doc_ids=tuple(d.id for d in docs),
        doc_totals=doc_totals,
        word_counts=np.bincount(tokens, minlength=len(vocab)),
        tokens=tokens,
        total_tokens=total,
        vocabulary=vocab,
    )


@dataclass(frozen=True)
class TopicSpec:
    """Topics prepared for evaluation.

    ``topics`` holds each topic's distinct words.  Hard mode carries a full
    document-to-topic assignment; mixture mode carries per-document topic
    proportions that sum to one.
    """

    mode: str
    topics: tuple[tuple[str, ...], ...]
    assignments: dict[str, int] | None = None
    proportions: dict[str, tuple[float, ...]] | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not self.topics:
            raise ValidationError("need at least one topic")
        for t, words in enumerate(self.topics):
            for word, count in Counter(words).items():
                if count > 1:
                    raise ValidationError(f"topic {t} lists {word!r} {count} times")
        if self.mode == "hard":
            if self.assignments is None:
                raise ValidationError("hard mode requires assignments")
            k = len(self.topics)
            for doc_id, t in self.assignments.items():
                if not 0 <= t < k:
                    raise ValidationError(
                        f"document {doc_id!r} assigned to topic {t}, "
                        f"but only {k} topics exist"
                    )
        else:
            if self.proportions is None:
                raise ValidationError("mixture mode requires proportions")
            k = len(self.topics)
            for doc_id, row in self.proportions.items():
                if len(row) != k:
                    raise ValidationError(
                        f"document {doc_id!r} has {len(row)} proportions, "
                        f"expected {k}"
                    )
                if not (all(map(math.isfinite, row)) and min(row) >= 0):
                    raise ValidationError(
                        f"document {doc_id!r} has a negative or non-finite "
                        f"proportion"
                    )
                s = sum(row)
                if abs(s - 1.0) > _PROPORTION_TOLERANCE:
                    raise ValidationError(
                        f"proportions for document {doc_id!r} sum to {s:.6g}, "
                        f"not 1"
                    )

    @property
    def n_topics(self) -> int:
        return len(self.topics)


def _resolve_words(
    words: tuple[str, ...], vocab: Vocabulary, where: str
) -> list[int]:
    unknown = [w for w in words if w not in vocab]
    if unknown:
        raise ValidationError(f"{where}: words not in vocabulary: {unknown}")
    return [vocab.index[w] for w in words]


def _members(
    spec: TopicSpec, stats: CooccurrenceStats
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each topic's member document positions and weights, as two arrays.

    Hard mode gives every assigned document weight 1; mixture mode gives
    every document its non-zero proportions.  Members keep the order of
    the spec's ``assignments`` or ``proportions``.
    """
    keys = spec.assignments if spec.mode == "hard" else spec.proportions
    position = {doc_id: i for i, doc_id in enumerate(stats.doc_ids)}
    missing = [d for d in stats.doc_ids if d not in keys]
    extra = [d for d in keys if d not in position]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"{len(missing)} corpus documents unassigned")
        if extra:
            parts.append(f"{len(extra)} assigned ids not in corpus")
        raise ValidationError(
            "topic assignment does not cover the corpus exactly: "
            + ", ".join(parts)
        )
    n, k = len(keys), spec.n_topics
    docs = np.fromiter(map(position.__getitem__, keys), np.int64, n)
    if spec.mode == "hard":
        weights = np.zeros((n, k))
        weights[np.arange(n), np.fromiter(keys.values(), np.int64, n)] = 1.0
    else:
        rows = itertools.chain.from_iterable(keys.values())
        weights = np.fromiter(rows, np.float64, n * k).reshape(n, k)
    return [(docs[column != 0.0], column[column != 0.0]) for column in weights.T]


def _left_sum(values) -> float:
    """Add floats one at a time from the left with ``+=``.

    Builtin ``sum`` compensates its rounding from Python 3.12 on, which
    would change the last bits of a total between Python versions.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _topic_scores(
    spec: TopicSpec,
    topics: tuple[tuple[str, ...], ...],
    stats: CooccurrenceStats,
) -> list[float]:
    """Per topic t: ``sum_{w in W_t} sum_d weight * P(d|w) log2(P(d,w)/(P(d)P(w)))``.

    ``topics`` gives each topic's words W_t, which may be a prefix of the
    spec's list.  Words are the outer loop and members the inner one, so a
    hard topic sums its terms in the same order as a one-hot mixture topic.
    Only the non-zero terms are formed, each from Python ints, so the
    ratio is exact to one rounding however large the corpus.
    """
    members = _members(spec, stats)
    word_ids = [
        _resolve_words(words, stats.vocabulary, f"topic {t}")
        for t, words in enumerate(topics)
    ]
    # The topic words' non-zero document counts, keyed word * n_docs + doc
    # and sorted; a sentinel above every key keeps each searchsorted
    # position a valid index.
    wanted = np.zeros(len(stats.vocabulary), dtype=bool)
    wanted[[w for words in word_ids for w in words]] = True
    kept = np.flatnonzero(wanted[stats.tokens])
    doc = np.searchsorted(np.cumsum(stats.doc_totals), kept, side="right")
    keys, counts = np.unique(
        stats.tokens[kept] * stats.n_docs + doc, return_counts=True
    )
    keys = np.append(keys, np.iinfo(np.int64).max)
    n = stats.total_tokens
    scores = []
    for words, (docs, weights) in zip(word_ids, members):
        words = np.array(words, dtype=np.int64)
        pairs = words[:, None] * stats.n_docs + docs
        at = np.searchsorted(keys, pairs)
        rows, cols = np.nonzero(keys[at] == pairs)
        terms = zip(
            counts[at[rows, cols]].tolist(),
            stats.word_counts[words[rows]].tolist(),
            stats.doc_totals[docs[cols]].tolist(),
            weights[cols].tolist(),
        )
        scores.append(
            _left_sum(
                weight * (c / wc) * math.log2((c * n) / (doc_total * wc))
                for c, wc, doc_total, weight in terms
            )
        )
    return scores


def pwi_hard(spec: TopicSpec, stats: CooccurrenceStats) -> float:
    """Hard-assignment topic information gain, in bits.

    ``sum_t sum_{d in D_t} sum_{w in W_t} P(d|w) log2(P(d,w)/(P(d)P(w)))``
    where D_t are the documents assigned to topic t.
    """
    if spec.mode != "hard":
        raise ValidationError(f"expected a hard spec, got mode {spec.mode!r}")
    return _left_sum(_topic_scores(spec, spec.topics, stats))


def pwi_mixture(spec: TopicSpec, stats: CooccurrenceStats) -> float:
    """Mixture topic information gain, in bits.

    Every document contributes to every topic, weighted by its topic
    proportion:
    ``sum_d sum_t sum_{w in W_t} P(d|w) P(t|d) log2(P(d,w)/(P(d)P(w)))``.
    One-hot proportions make this identical to the hard score.
    """
    if spec.mode != "mixture":
        raise ValidationError(f"expected a mixture spec, got mode {spec.mode!r}")
    return _left_sum(_topic_scores(spec, spec.topics, stats))


def load_external_topics(path: str, vocab: Vocabulary) -> TopicSpec:
    """Load topics produced outside this package for evaluation.

    The file is a JSON object with ``mode`` (``hard`` or ``mixture``),
    ``topics`` (objects with a ``words`` list, all the same length), and
    either ``assignments`` (document id to topic index) or
    ``proportions`` (document id to a list of topic weights).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc.msg})") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    read = JsonReader(ValidationError, f"{path}: ", "file")
    mode = read.value(read.object(data), "mode", "str")
    if mode not in _MODES:
        raise ValidationError(f"{path}: mode must be one of {_MODES}, got {mode!r}")
    topics = [
        tuple(read.list(entry, "words", "str", f"topics[{t}]"))
        for t, entry in enumerate(read.list(data, "topics", "object"))
    ]
    sizes = sorted({len(t) for t in topics})
    if len(sizes) != 1 or sizes == [0]:
        raise ValidationError(
            f"{path}: topics must be a non-empty list, all with the same number "
            f"of words and at least one, got {sizes}"
        )
    for t, words in enumerate(topics):
        _resolve_words(words, vocab, f"{path}: topics[{t}]")
    if mode == "hard":
        assignments = {
            doc_id: read.check(t, "int", f"assignments[{doc_id!r}]")
            for doc_id, t in read.value(data, "assignments", "object").items()
        }
        return TopicSpec(mode="hard", topics=tuple(topics), assignments=assignments)
    rows = {}
    for doc_id, row in read.value(data, "proportions", "object").items():
        name = f"proportions[{doc_id!r}]"
        try:
            rows[doc_id] = tuple(map(float, read.check_list(row, "float", name)))
        except OverflowError:  # an integer too large for a double
            raise ValidationError(f"{path}: {name} must be a list of numbers") from None
    return TopicSpec(mode="mixture", topics=tuple(topics), proportions=rows)


@dataclass(frozen=True)
class TopicScore:
    topic_id: int
    words: tuple[str, ...]
    pwi: float


@dataclass(frozen=True)
class EvaluationReport:
    """Per-topic and total information gain at a fixed word budget."""

    mode: str
    top_n: int
    per_topic: tuple[TopicScore, ...]
    total: float

    @property
    def n_topics(self) -> int:
        return len(self.per_topic)


def evaluate(
    spec: TopicSpec, stats: CooccurrenceStats, top_n: int = TOPIC_WORDS
) -> EvaluationReport:
    """Score each topic's first ``top_n`` words against the corpus.

    Topics listing fewer than ``top_n`` words are clamped to what they
    have, with a warning.
    """
    if top_n < 1:
        raise ValidationError(f"top_n must be >= 1, got {top_n}")
    available = min(len(t) for t in spec.topics)
    if top_n > available:
        warnings.warn(
            f"requested top {top_n} words but some topics list only "
            f"{available}; clamping",
            stacklevel=2,
        )
    truncated = tuple(t[:top_n] for t in spec.topics)
    scores = [
        TopicScore(topic_id=t, words=words, pwi=pwi)
        for t, (words, pwi) in enumerate(
            zip(truncated, _topic_scores(spec, truncated, stats))
        )
    ]
    total = _left_sum(s.pwi for s in scores)
    return EvaluationReport(
        mode=spec.mode, top_n=top_n, per_topic=tuple(scores), total=total
    )


def random_baseline_spec(
    doc_ids: tuple[str, ...],
    vocab: Vocabulary,
    n_topics: int,
    words_per_topic: int,
    seed: int,
) -> TopicSpec:
    """Random partition with random topic words, for calibration baselines."""
    if n_topics < 1:
        raise ValidationError(f"n_topics must be >= 1, got {n_topics}")
    if words_per_topic > len(vocab):
        raise ValidationError(
            f"cannot draw {words_per_topic} distinct words from a "
            f"{len(vocab)}-word vocabulary"
        )
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, n_topics, size=len(doc_ids))
    topics = tuple(
        tuple(
            vocab.words[i]
            for i in rng.choice(len(vocab), size=words_per_topic, replace=False)
        )
        for _ in range(n_topics)
    )
    return TopicSpec(
        mode="hard",
        topics=topics,
        assignments={d: int(t) for d, t in zip(doc_ids, assignment)},
    )


def report_to_json(report: EvaluationReport) -> str:
    """Serialize a report as indented JSON."""
    return json.dumps(
        {
            "mode": report.mode,
            "top_n": report.top_n,
            "n_topics": report.n_topics,
            "total_pwi": report.total,
            "topics": [
                {"topic_id": s.topic_id, "pwi": s.pwi, "words": list(s.words)}
                for s in report.per_topic
            ],
        },
        indent=2,
    )


def report_to_csv(report: EvaluationReport) -> str:
    """Serialize a report as CSV with a trailing total row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["topic_id", "pwi", "words"])
    for s in report.per_topic:
        writer.writerow([s.topic_id, repr(s.pwi), " ".join(s.words)])
    writer.writerow(["total", repr(report.total), ""])
    return buf.getvalue()
