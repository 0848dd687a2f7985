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
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Document, Vocabulary
from .errors import ValidationError

_MODES = ("hard", "mixture")
_PROPORTION_TOLERANCE = 1e-6


@dataclass(frozen=True)
class CooccurrenceStats:
    """Token co-occurrence counts between documents and vocabulary words.

    ``joint[i]`` maps word index to its count in document i; only
    vocabulary words are counted anywhere, so ``doc_totals`` are
    vocabulary-token document lengths and ``total_tokens`` is their sum.
    """

    doc_ids: tuple[str, ...]
    doc_totals: np.ndarray
    word_counts: np.ndarray
    joint: tuple[dict[int, int], ...]
    total_tokens: int
    vocabulary: Vocabulary

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)


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
        joint=tuple(dict(Counter(doc.tokens.tolist())) for doc in docs),
        total_tokens=total,
        vocabulary=vocab,
    )


def pointwise_pwi(stats: CooccurrenceStats, doc_index: int, word_index: int) -> float:
    """``P(d,w) * log2(P(d,w) / (P(d) P(w)))`` for one document/word pair.

    Zero joint probability contributes zero.
    """
    joint_count = stats.joint[doc_index].get(word_index, 0)
    if joint_count == 0:
        return 0.0
    n = stats.total_tokens
    p_joint = joint_count / n
    ratio = (joint_count * n) / (
        int(stats.doc_totals[doc_index]) * int(stats.word_counts[word_index])
    )
    return p_joint * math.log2(ratio)


def mutual_information(stats: CooccurrenceStats) -> float:
    """Total mutual information between documents and words, in bits."""
    return sum(
        pointwise_pwi(stats, i, w)
        for i in range(stats.n_docs)
        for w in stats.joint[i]
    )


@dataclass(frozen=True)
class TopicSpec:
    """Topics prepared for evaluation.

    ``topics`` holds each topic's words.  Hard mode carries a full
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
) -> list[list[tuple[int, float]]]:
    """Each topic's ``(document position, weight)`` pairs.

    Hard mode gives every assigned document weight 1; mixture mode gives
    every document its non-zero proportions.
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
    members: list[list[tuple[int, float]]] = [[] for _ in spec.topics]
    if spec.mode == "hard":
        for doc_id, t in spec.assignments.items():
            members[t].append((position[doc_id], 1.0))
    else:
        for doc_id, row in spec.proportions.items():
            for t, weight in enumerate(row):
                if weight != 0.0:
                    members[t].append((position[doc_id], weight))
    return members


def _topic_scores(
    spec: TopicSpec,
    topics: tuple[tuple[str, ...], ...],
    stats: CooccurrenceStats,
) -> list[float]:
    """Per topic t: ``sum_{w in W_t} sum_d weight * P(d|w) log2(P(d,w)/(P(d)P(w)))``.

    ``topics`` gives each topic's words W_t, which may be a prefix of the
    spec's list.  Words are the outer loop and members the inner one, so a
    hard topic sums its terms in the same order as a one-hot mixture topic.
    """
    n = stats.total_tokens
    doc_totals = stats.doc_totals.tolist()
    scores = []
    for t, members in enumerate(_members(spec, stats)):
        total = 0.0
        for w in _resolve_words(topics[t], stats.vocabulary, f"topic {t}"):
            wc = int(stats.word_counts[w])
            for i, weight in members:
                joint_count = stats.joint[i].get(w, 0)
                if joint_count == 0:
                    continue
                ratio = (joint_count * n) / (doc_totals[i] * wc)
                total += weight * (joint_count / wc) * math.log2(ratio)
        scores.append(total)
    return scores


def pwi_hard(spec: TopicSpec, stats: CooccurrenceStats) -> float:
    """Hard-assignment topic information gain, in bits.

    ``sum_t sum_{d in D_t} sum_{w in W_t} P(d|w) log2(P(d,w)/(P(d)P(w)))``
    where D_t are the documents assigned to topic t.
    """
    if spec.mode != "hard":
        raise ValidationError(f"expected a hard spec, got mode {spec.mode!r}")
    return sum(_topic_scores(spec, spec.topics, stats))


def pwi_mixture(spec: TopicSpec, stats: CooccurrenceStats) -> float:
    """Mixture topic information gain, in bits.

    Every document contributes to every topic, weighted by its topic
    proportion:
    ``sum_d sum_t sum_{w in W_t} P(d|w) P(t|d) log2(P(d,w)/(P(d)P(w)))``.
    One-hot proportions make this identical to the hard score.
    """
    if spec.mode != "mixture":
        raise ValidationError(f"expected a mixture spec, got mode {spec.mode!r}")
    return sum(_topic_scores(spec, spec.topics, stats))


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
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    mode = data.get("mode")
    if mode not in _MODES:
        raise ValidationError(f"{path}: 'mode' must be one of {_MODES}, got {mode!r}")
    raw_topics = data.get("topics")
    if not isinstance(raw_topics, list) or not raw_topics:
        raise ValidationError(f"{path}: 'topics' must be a non-empty list")
    topics = []
    for t, entry in enumerate(raw_topics):
        if not isinstance(entry, dict) or "words" not in entry:
            raise ValidationError(
                f"{path}: topics[{t}] must be an object with a 'words' list"
            )
        words = entry["words"]
        if not isinstance(words, list) or not words or not all(
            isinstance(w, str) for w in words
        ):
            raise ValidationError(
                f"{path}: topics[{t}].words must be a non-empty list of strings"
            )
        topics.append(tuple(words))
    sizes = {len(t) for t in topics}
    if len(sizes) != 1:
        raise ValidationError(
            f"{path}: all topics must list the same number of words, got {sorted(sizes)}"
        )
    for t, words in enumerate(topics):
        _resolve_words(words, vocab, f"{path}: topics[{t}]")
    if mode == "hard":
        assignments = data.get("assignments")
        if not isinstance(assignments, dict):
            raise ValidationError(f"{path}: hard mode requires an 'assignments' object")
        clean = {}
        for doc_id, t in assignments.items():
            if not isinstance(t, int) or isinstance(t, bool):
                raise ValidationError(
                    f"{path}: assignments[{doc_id!r}] must be an integer"
                )
            clean[str(doc_id)] = t
        return TopicSpec(mode="hard", topics=tuple(topics), assignments=clean)
    proportions = data.get("proportions")
    if not isinstance(proportions, dict):
        raise ValidationError(f"{path}: mixture mode requires a 'proportions' object")
    rows = {}
    for doc_id, row in proportions.items():
        # Exact types: JSON numbers are int or float, and bool is excluded.
        if not isinstance(row, list) or not set(map(type, row)) <= {int, float}:
            raise ValidationError(
                f"{path}: proportions[{doc_id!r}] must be a list of numbers"
            )
        rows[str(doc_id)] = tuple(map(float, row))
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
    spec: TopicSpec, stats: CooccurrenceStats, top_n: int = 10
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
    total = sum(s.pwi for s in scores)
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
