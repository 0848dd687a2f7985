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

import numpy as np

from .clustering import ClusterLabeling
from .embedding import (
    SemanticEmbedding,
    _rank_by_cosine,
    nearest_words,  # noqa: F401  (tfbench wraps topicforge.topics:nearest_words)
    nearest_words_each,
)
from .errors import ValidationError
from .metric import TopicSpec

# Words ranked for each ``Topic``; the default ``--top-n``.
TOPIC_WORDS = 10


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

    Row k of ``vectors`` is topic k's vector and ``provenance[k]`` the
    pre-reduction topic ids folded into it (a never-merged topic lists
    only itself).  ``assignment[i]`` is the topic index of document i, so
    sizes always sum to the document count.  ``merge_history`` is empty
    for a freshly built model and grows by one record per merge during
    reduction.  A topic's describing words are not stored: the ``topics``
    view ranks them from the vectors when it is read.
    """

    vectors: np.ndarray
    provenance: tuple[tuple[int, ...], ...]
    assignment: np.ndarray
    embedding: SemanticEmbedding
    merge_history: tuple[MergeRecord, ...] = ()

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


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0.0):
        raise ValidationError("cannot assign with zero-norm vectors")
    return vectors / norms[:, None]


def _nearest_topics(unit_docs: np.ndarray, topic_vectors: np.ndarray) -> np.ndarray:
    sims = unit_docs @ _unit_rows(topic_vectors).T
    return np.argmax(sims, axis=1).astype(np.int64)


def assign_documents(
    doc_vectors: np.ndarray, topic_vectors: np.ndarray
) -> np.ndarray:
    """Assign every document to its highest-cosine topic.

    Noise documents are not special here: everything gets a topic.  Ties
    go to the lower topic index.
    """
    return _nearest_topics(_unit_rows(doc_vectors), topic_vectors)


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
        provenance=tuple((k,) for k in range(len(vectors))),
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
    no-op and returns the model itself; a zero smallest topic raises.
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
    provenance = [list(p) for p in model.provenance]
    history = list(model.merge_history)
    unit_docs = _unit_rows(embedding.doc_vectors).astype(vectors.dtype)
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
        provenance[t].extend(provenance[s])
        vectors = np.delete(vectors, s, axis=0)
        del provenance[s]
        assignment = _nearest_topics(unit_docs, vectors)
    return TopicModel(
        vectors=vectors,
        provenance=tuple(tuple(p) for p in provenance),
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


def model_topic_spec(model: TopicModel, words_per_topic: int = 10) -> TopicSpec:
    """Hard-assignment evaluation view of a topic model."""
    ranked = nearest_words_each(model.embedding, model.vectors, words_per_topic)
    words = [tuple(w for w, _ in topic) for topic in ranked]
    assignments = {
        doc_id: int(t) for doc_id, t in zip(model.doc_ids, model.assignment)
    }
    return TopicSpec(mode="hard", topics=tuple(words), assignments=assignments)


def topics_to_dicts(model: TopicModel, top_n: int = 10) -> list[dict]:
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
