"""Topic vectors, topic words, and hierarchical topic reduction.

A topic is the centroid of the document vectors assigned to one dense
cluster, computed in the original embedding space with noise documents
excluded.  Because documents and words share that space, the words
nearest a topic vector describe it.  Every document, including noise, is
then assigned to its nearest topic.  Topics can be merged down to a
target count by repeatedly folding the smallest topic into its most
similar neighbor with a size-weighted mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clustering import ClusterLabeling
from .embedding import (
    SemanticEmbedding,
    _rank_by_cosine,
    _unit_rows,
    nearest_words,  # noqa: F401  (tfbench wraps topicforge.topics:nearest_words)
    nearest_words_each,
)
from .errors import ValidationError
from .metric import TOPIC_WORDS, TopicSpec

_ZERO_NORM = "cannot assign with zero-norm vectors"


@dataclass(frozen=True)
class Topic:
    """One row of a ``TopicModel``: its vector, size, member documents,
    describing words and provenance."""

    vector: np.ndarray
    size: int
    words: tuple[tuple[str, float], ...]
    member_doc_ids: tuple[str, ...]
    provenance: tuple[int, ...]


@dataclass(frozen=True)
class MergeRecord:
    """One step of topic reduction, with sizes at merge time."""

    absorbed: int
    absorbing: int
    absorbed_size: int
    absorbing_size: int
    vector: np.ndarray


@dataclass(frozen=True)
class TopicModel:
    """Immutable topic table over one embedding.

    Row k of ``vectors`` is topic k's vector.  ``assignment[i]`` is the
    topic index of document i, so sizes always sum to the document count.
    ``merge_history``, empty for a freshly built model, gains one record
    per merge and is the only record of the merges: ``provenance`` is
    derived from it.  A topic's describing words are not stored: the
    ``topics`` view ranks them from the vectors when it is read.
    """

    vectors: np.ndarray
    assignment: np.ndarray
    embedding: SemanticEmbedding
    merge_history: tuple[MergeRecord, ...] = ()

    def __post_init__(self) -> None:
        """Record i names two distinct topics of the ``n_topics + merges - i``
        before it, with sizes that count documents."""
        for i, r in enumerate(self.merge_history):
            before = range(self.n_topics + len(self.merge_history) - i)
            if r.absorbed == r.absorbing or not (
                r.absorbed in before and r.absorbing in before
            ):
                raise ValidationError(
                    f"merge_history[{i}] merges topic {r.absorbed} into "
                    f"{r.absorbing}, not two of the {len(before)} topics before it"
                )
            sizes = (r.absorbed_size, r.absorbing_size)
            if min(sizes) < 0 or sum(sizes) > len(self.assignment):
                raise ValidationError(
                    f"merge_history[{i}] sizes {sizes[0]} and {sizes[1]} are not "
                    f"two counts of {len(self.assignment)} documents"
                )

    @cached_property
    def provenance(self) -> tuple[tuple[int, ...], ...]:
        """The original topic ids folded into each topic, in merge order:
        the merge history replayed over the original topics."""
        groups = [[k] for k in range(self.n_topics + len(self.merge_history))]
        for r in self.merge_history:
            groups[r.absorbing].extend(groups[r.absorbed])
            del groups[r.absorbed]
        return tuple(map(tuple, groups))

    @property
    def n_topics(self) -> int:
        return len(self.vectors)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return self.embedding.doc_ids

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_topics)

    @property
    def topics(self) -> tuple[Topic, ...]:
        """One ``Topic`` view per row of the table, each described by its
        ``TOPIC_WORDS`` nearest words."""
        sizes = self.sizes
        ranked = nearest_words_each(self.embedding, self.vectors, TOPIC_WORDS)
        return tuple(
            Topic(
                vector=self.vectors[k],
                size=int(sizes[k]),
                words=tuple(ranked[k]),
                member_doc_ids=tuple(
                    self.doc_ids[i] for i in np.flatnonzero(self.assignment == k)
                ),
                provenance=self.provenance[k],
            )
            for k in range(self.n_topics)
        )


def compute_topic_vectors(doc_vectors: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Centroid of each cluster's document vectors, noise excluded."""
    n_clusters = int(labels.max()) + 1
    if n_clusters < 1:
        raise ValidationError("labels contain no cluster")
    vectors = np.empty((n_clusters, doc_vectors.shape[1]))
    for k in range(n_clusters):
        members = labels == k
        if not np.any(members):
            raise ValidationError(f"cluster {k} has no members")
        vectors[k] = doc_vectors[members].mean(axis=0)
    return vectors


def _nearest_topics(unit_docs: np.ndarray, topic_vectors: np.ndarray) -> np.ndarray:
    sims = unit_docs @ _unit_rows(topic_vectors, _ZERO_NORM).T
    return np.argmax(sims, axis=1).astype(np.int64)


def assign_documents(
    doc_vectors: np.ndarray, topic_vectors: np.ndarray
) -> np.ndarray:
    """Assign every document to its highest-cosine topic.

    Noise documents are not special here: everything gets a topic.  Ties
    go to the lower topic index.  The cosines come from one BLAS product,
    so at a near-tie the winning topic depends on the BLAS kernel: the
    ``assign-tie`` row of the portability table in ``tests/test_cli.py``
    moves under ``OPENBLAS_CORETYPE=Haswell`` and ``=Prescott``.
    """
    return _nearest_topics(_unit_rows(doc_vectors, _ZERO_NORM), topic_vectors)


def build_topic_model(
    embedding: SemanticEmbedding,
    labeling: ClusterLabeling,
) -> TopicModel:
    """Turn a cluster labeling into a topic model.

    Topic vectors are cluster centroids without the noise documents;
    the final assignment covers every document.
    """
    if len(labeling.labels) != len(embedding.doc_vectors):
        raise ValidationError(
            f"labeling covers {len(labeling.labels)} documents, "
            f"embedding has {len(embedding.doc_vectors)}"
        )
    vectors = compute_topic_vectors(embedding.doc_vectors, labeling.labels)
    assignment = assign_documents(embedding.doc_vectors, vectors)
    return TopicModel(
        vectors=vectors,
        assignment=assignment,
        embedding=embedding,
    )


def reduce_topics(model: TopicModel, target: int) -> TopicModel:
    """Merge topics down to ``target`` and return the reduced model.

    Each step folds the smallest topic (ties: lowest index) into its
    nearest other topic by cosine (ties: lowest index).  The absorbing
    vector becomes the size-weighted mean of the pair, all documents are
    reassigned against the surviving vectors, and sizes are recomputed
    before the next step.  A target equal to the current count is a
    no-op and returns the model itself.  A topic with no documents merges
    like any other, and two empty topics merge to the mean of their
    vectors; a smallest topic whose vector is zero has no cosine to rank
    its partner by, and raises.
    """
    if not 1 <= target <= model.n_topics:
        raise ValidationError(
            f"target must be in [1, {model.n_topics}], got {target}"
        )
    if target == model.n_topics:
        return model
    embedding = model.embedding
    vectors = model.vectors.astype(np.float64)
    assignment = model.assignment
    history = list(model.merge_history)
    unit_docs = _unit_rows(embedding.doc_vectors, _ZERO_NORM).astype(vectors.dtype)
    while len(vectors) > target:
        sizes = np.bincount(assignment, minlength=len(vectors))
        s = int(np.argmin(sizes))
        [(order, _)] = _rank_by_cosine(vectors, [vectors[s]], 2)
        t = int(order[order != s][0])
        pair_total = int(sizes[s] + sizes[t])
        if pair_total > 0:
            merged = (sizes[s] * vectors[s] + sizes[t] * vectors[t]) / pair_total
        else:
            merged = (vectors[s] + vectors[t]) / 2.0
        history.append(
            MergeRecord(
                absorbed=s,
                absorbing=t,
                absorbed_size=int(sizes[s]),
                absorbing_size=int(sizes[t]),
                vector=merged,
            )
        )
        vectors[t] = merged
        vectors = np.delete(vectors, s, axis=0)
        assignment = _nearest_topics(unit_docs, vectors)
    return TopicModel(
        vectors=vectors,
        assignment=assignment,
        embedding=embedding,
        merge_history=tuple(history),
    )


def search_documents(
    model: TopicModel, query: np.ndarray, top_n: int = 10
) -> list[tuple[str, float]]:
    """Documents nearest the query vector, as (doc id, similarity)."""
    [(order, sims)] = _rank_by_cosine(model.embedding.doc_vectors, [query], top_n)
    return [(model.doc_ids[i], float(s)) for i, s in zip(order, sims)]


def search_topics(
    model: TopicModel, query: np.ndarray, top_n: int = 10
) -> list[tuple[int, float]]:
    """Topics nearest the query vector, as (topic index, similarity)."""
    [(order, sims)] = _rank_by_cosine(model.vectors, [query], top_n)
    return [(int(i), float(s)) for i, s in zip(order, sims)]


def model_topic_spec(model: TopicModel, words_per_topic: int = TOPIC_WORDS) -> TopicSpec:
    """Hard-assignment evaluation view of a topic model."""
    ranked = nearest_words_each(model.embedding, model.vectors, words_per_topic)
    words = [tuple(w for w, _ in topic) for topic in ranked]
    assignments = {
        doc_id: int(t) for doc_id, t in zip(model.doc_ids, model.assignment)
    }
    return TopicSpec(mode="hard", topics=tuple(words), assignments=assignments)


def topics_to_dicts(model: TopicModel, top_n: int = TOPIC_WORDS) -> list[dict]:
    """JSON-ready topic listing, largest topic first."""
    sizes = model.sizes
    order = sorted(range(model.n_topics), key=lambda k: (-sizes[k], k))
    ranked = nearest_words_each(model.embedding, model.vectors, top_n)
    return [
        {
            "topic_id": k,
            "size": int(sizes[k]),
            "words": [
                {"word": w, "similarity": round(float(s), 6)} for w, s in ranked[k]
            ],
            "merged_from": list(model.provenance[k]),
        }
        for k in order
    ]
