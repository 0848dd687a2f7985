"""Topic vectors, document assignment, reduction, and search."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicforge import (
    ClusterConfig,
    ClusterLabeling,
    EmbeddingConfig,
    ModelArchive,
    ReductionConfig,
    SemanticEmbedding,
    ValidationError,
    Vocabulary,
    build_huffman_coding,
    build_topic_model,
    nearest_words,
    reduce_topics,
    search_documents,
    search_topics,
)
from topicforge.persistence import archive_from_bytes, archive_to_bytes
from topicforge.topics import (
    TOPIC_WORDS,
    assign_documents,
    compute_topic_vectors,
    model_topic_spec,
    topics_to_dicts,
)

from oracles import provenance_after_merges


def make_vocab(words):
    counts = np.arange(len(words), 0, -1, dtype=np.int64)
    return Vocabulary(
        words=tuple(words),
        counts=counts,
        keep_probability=np.ones(len(words)),
    )


def fabricated_embedding(doc_vectors, word_vectors, words):
    vocab = make_vocab(words)
    return SemanticEmbedding(
        doc_vectors=np.asarray(doc_vectors, dtype=np.float64),
        word_vectors=np.asarray(word_vectors, dtype=np.float64),
        coding=build_huffman_coding(vocab, doc_vectors.shape[1]),
        vocabulary=vocab,
        doc_ids=tuple(f"d{i}" for i in range(len(doc_vectors))),
    )


def two_cluster_embedding():
    doc_vectors = np.array(
        [
            [1.0, 0.0],
            [0.9, 0.1],
            [1.0, 0.1],
            [0.95, 0.0],
            [0.0, 1.0],
            [0.1, 0.9],
        ]
    )
    word_vectors = np.array(
        [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.7, 0.7]]
    )
    return fabricated_embedding(
        doc_vectors, word_vectors, ["alpha", "beta", "gamma", "delta"]
    )


def two_cluster_model():
    emb = two_cluster_embedding()
    labeling = ClusterLabeling(
        labels=np.array([0, 0, 0, 0, 1, 1]),
        n_clusters=2,
        cluster_stability=np.array([1.0, 1.0]),
    )
    return build_topic_model(emb, labeling)


class TestTopicVectors:
    def test_centroids_exclude_noise(self):
        docs = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [99.0, 99.0]])
        labels = np.array([0, 0, 1, -1])
        vectors = compute_topic_vectors(docs, labels)
        assert np.allclose(vectors[0], [2.0, 0.0])
        assert np.allclose(vectors[1], [0.0, 2.0])

    def test_empty_cluster_rejected(self):
        docs = np.ones((3, 2))
        with pytest.raises(ValidationError, match="cluster 1"):
            compute_topic_vectors(docs, np.array([0, 0, 2]))

    def test_all_noise_rejected(self):
        with pytest.raises(ValidationError):
            compute_topic_vectors(np.ones((3, 2)), np.array([-1, -1, -1]))


class TestAssignDocuments:
    def test_assigns_every_document(self):
        docs = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.4]])
        topics = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert assign_documents(docs, topics).tolist() == [0, 1, 0]

    def test_tie_goes_to_lower_topic(self):
        docs = np.array([[1.0, 1.0]])
        topics = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert assign_documents(docs, topics).tolist() == [0]

    def test_rejects_zero_vectors(self):
        with pytest.raises(ValidationError):
            assign_documents(np.zeros((2, 2)), np.ones((1, 2)))

    @pytest.mark.parametrize(
        "docs,expected",
        [
            # Squared in float32, 3e19 overflows and 1e-30 underflows.
            ([[0.0, 3e19, 3e19], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1, 0, 1]),
            ([[1e-30, 2e-30, 0.0]], [1]),
        ],
    )
    def test_float32_documents_of_any_finite_magnitude(self, docs, expected):
        topics = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assigned = assign_documents(np.array(docs, np.float32), topics)
        assert assigned.tolist() == expected
        assert assign_documents(np.array(docs), topics).tolist() == expected


class TestBuildTopicModel:
    def test_sizes_and_members(self):
        model = two_cluster_model()
        assert model.n_topics == 2
        assert sum(t.size for t in model.topics) == 6
        assert model.topics[0].size == 4
        assert model.topics[0].member_doc_ids == ("d0", "d1", "d2", "d3")
        assert model.topics[1].member_doc_ids == ("d4", "d5")
        assert [t.provenance for t in model.topics] == [(0,), (1,)]
        assert model.merge_history == ()

    def test_topic_words_come_from_the_shared_space(self):
        model = two_cluster_model()
        assert [w for w, _ in model.topics[0].words[:2]] == ["alpha", "beta"]
        assert [w for w, _ in model.topics[1].words[:2]] == ["gamma", "delta"]

    def test_assignment_covers_noise_documents(self):
        emb = two_cluster_embedding()
        labeling = ClusterLabeling(
            labels=np.array([0, 0, 0, 0, 1, -1]),
            n_clusters=2,
            cluster_stability=np.array([1.0, 1.0]),
        )
        model = build_topic_model(emb, labeling)
        assert len(model.assignment) == 6
        assert model.assignment[5] == 1

    def test_rejects_mismatched_lengths(self):
        emb = two_cluster_embedding()
        labeling = ClusterLabeling(
            labels=np.zeros(3, dtype=np.int64),
            n_clusters=1,
            cluster_stability=np.array([1.0]),
        )
        with pytest.raises(ValidationError):
            build_topic_model(emb, labeling)


def three_cluster_model():
    # Sizes 4, 2, 5; the middle topic leans toward the first.
    doc_vectors = np.vstack(
        [
            np.tile([1.0, 0.0, 0.0], (4, 1)) + [[0.0, 0.01 * i, 0.0] for i in range(4)],
            np.tile([0.9, 0.4, 0.0], (2, 1)) + [[0.01 * i, 0.0, 0.0] for i in range(2)],
            np.tile([0.0, 0.0, 1.0], (5, 1)) + [[0.0, 0.01 * i, 0.0] for i in range(5)],
        ]
    )
    word_vectors = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.9, 0.4, 0.0],
            [0.0, 0.0, 1.0],
            [0.5, 0.5, 0.5],
        ]
    )
    emb = fabricated_embedding(
        doc_vectors, word_vectors, ["one", "two", "three", "four"]
    )
    labeling = ClusterLabeling(
        labels=np.array([0] * 4 + [1] * 2 + [2] * 5),
        n_clusters=3,
        cluster_stability=np.ones(3),
    )
    return build_topic_model(emb, labeling)


class TestReduceTopics:
    def test_smallest_merges_into_most_similar(self):
        model = three_cluster_model()
        v = model.vectors
        reduced = reduce_topics(model, 2)
        assert reduced.n_topics == 2
        record = reduced.merge_history[-1]
        assert record.absorbed == 1
        assert record.absorbing == 0
        assert record.absorbed_size == 2
        assert record.absorbing_size == 4
        expected = (2 * v[1] + 4 * v[0]) / 6
        assert np.allclose(reduced.topics[0].vector, expected)
        assert reduced.topics[0].provenance == (0, 1)
        assert reduced.topics[1].provenance == (2,)

    def test_sizes_reflow_after_each_merge(self):
        reduced = reduce_topics(three_cluster_model(), 2)
        assert sum(t.size for t in reduced.topics) == 11
        assert reduced.topics[0].size == 6
        assert reduced.topics[1].size == 5

    def test_reduce_to_one_collects_everything(self):
        reduced = reduce_topics(three_cluster_model(), 1)
        assert reduced.n_topics == 1
        assert reduced.topics[0].size == 11
        assert sorted(reduced.topics[0].provenance) == [0, 1, 2]
        assert len(reduced.merge_history) == 2
        assert np.all(reduced.assignment == 0)

    def test_history_accumulates_across_calls(self):
        step1 = reduce_topics(three_cluster_model(), 2)
        step2 = reduce_topics(step1, 1)
        assert len(step2.merge_history) == 2
        assert step2.merge_history[0] == step1.merge_history[0]

    def test_original_model_is_untouched(self):
        model = three_cluster_model()
        before = model.vectors.copy()
        reduce_topics(model, 1)
        assert np.array_equal(model.vectors, before)
        assert model.n_topics == 3
        assert model.merge_history == ()

    def test_target_equal_to_count_is_a_no_op(self):
        model = three_cluster_model()
        assert reduce_topics(model, 3) is model

    def test_zero_smallest_topic_has_no_partner(self):
        model = three_cluster_model()
        vectors = model.vectors.copy()
        vectors[1] = 0.0  # topic 1 is the smallest
        zeroed = dataclasses.replace(model, vectors=vectors)
        with pytest.raises(ValidationError, match="zero norm"):
            reduce_topics(zeroed, 2)

    @staticmethod
    def with_empty_topics(model, *vectors):
        """The model with topics appended that no document is nearest to."""
        return dataclasses.replace(model, vectors=np.vstack([model.vectors, vectors]))

    def test_empty_topic_merges_into_its_nearest(self):
        model = self.with_empty_topics(three_cluster_model(), [0.0, 1.0, 0.0])
        assert model.sizes.tolist() == [4, 2, 5, 0]
        reduced = reduce_topics(model, 3)
        record = reduced.merge_history[-1]
        assert (record.absorbed, record.absorbing) == (3, 1)
        assert (record.absorbed_size, record.absorbing_size) == (0, 2)
        assert np.array_equal(reduced.vectors[1], model.vectors[1])
        assert reduced.provenance == ((0,), (1, 3), (2,))
        assert reduced.sizes.tolist() == [4, 2, 5]

    def test_two_empty_topics_merge_to_their_mean(self):
        model = self.with_empty_topics(
            three_cluster_model(), [0.0, 1.0, 0.0], [0.0, 1.0, 0.2]
        )
        assert model.sizes.tolist() == [4, 2, 5, 0, 0]
        reduced = reduce_topics(model, 4)
        record = reduced.merge_history[-1]
        assert (record.absorbed, record.absorbing) == (3, 4)
        assert (record.absorbed_size, record.absorbing_size) == (0, 0)
        assert np.array_equal(reduced.vectors[3], [0.0, 1.0, 0.1])
        assert reduced.provenance == ((0,), (1,), (2,), (4, 3))

    @pytest.mark.parametrize("target", [0, 4, -1])
    def test_rejects_bad_targets(self, target):
        with pytest.raises(ValidationError):
            reduce_topics(three_cluster_model(), target)


@st.composite
def reduction_sessions(draw):
    """A random labeling of 2 to 12 clusters, a seed for its vectors, and
    the decreasing targets of one to four ``reduce`` sessions."""
    n_clusters = draw(st.integers(2, 12))
    labels = draw(
        st.lists(st.integers(-1, n_clusters - 1), min_size=0, max_size=30)
    )
    targets = draw(
        st.lists(st.integers(1, n_clusters - 1), min_size=1, max_size=4, unique=True)
    )
    return n_clusters, labels, draw(st.integers(0, 2**32 - 1)), sorted(targets)[::-1]


class TestProvenance:
    """``provenance`` replays the merge history as reduce_topics once kept it."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(reduction_sessions())
    def test_equals_the_bookkeeping_across_sessions(self, case):
        n_clusters, extra_labels, seed, targets = case
        rng = np.random.default_rng(seed)
        # Every cluster has a document; the drawn labels add more, and noise.
        labels = np.array(list(range(n_clusters)) + extra_labels)
        dim = 4
        embedding = dataclasses.replace(
            fabricated_embedding(
                rng.standard_normal((len(labels), dim)),
                rng.standard_normal((3, dim)),
                ["a", "b", "c"],
            ),
            epoch_losses=[1.0],
        )
        labeling = ClusterLabeling(
            labels=labels, n_clusters=n_clusters, cluster_stability=np.ones(n_clusters)
        )
        model = build_topic_model(embedding, labeling)
        expected = tuple((k,) for k in range(n_clusters))
        assert model.provenance == expected
        for target in targets:
            done = len(model.merge_history)
            model = reduce_topics(model, target)
            expected = provenance_after_merges(
                expected,
                [(r.absorbed, r.absorbing) for r in model.merge_history[done:]],
            )
            assert model.provenance == expected
            # The next session reduces the model as a load gives it back.
            archive = ModelArchive.from_pipeline(
                embedding,
                rng.standard_normal((len(labels), 2)),
                labeling,
                model,
                EmbeddingConfig(vector_size=dim, epochs=1, min_count=1),
                ReductionConfig(n_components=2),
                ClusterConfig(),
            )
            model = archive_from_bytes(archive_to_bytes(archive)).topic_model
            assert model.provenance == expected


class TestSearch:
    def test_search_documents_ranks_by_cosine(self):
        model = two_cluster_model()
        hits = search_documents(model, np.array([0.0, 1.0]), 2)
        assert [doc_id for doc_id, _ in hits] == ["d4", "d5"]
        assert hits[0][1] == pytest.approx(1.0)

    def test_search_topics_finds_the_right_topic(self):
        model = two_cluster_model()
        hits = search_topics(model, np.array([0.0, 1.0]), 1)
        assert hits[0][0] == 1

    def test_search_clamps_top_n(self):
        model = two_cluster_model()
        assert len(search_documents(model, np.array([1.0, 0.0]), 50)) == 6


class TestEvaluationViews:
    def test_model_topic_spec_is_a_valid_hard_spec(self):
        model = two_cluster_model()
        spec = model_topic_spec(model, 2)
        assert spec.mode == "hard"
        assert spec.n_topics == 2
        assert all(len(t) == 2 for t in spec.topics)
        assert set(spec.assignments) == set(model.doc_ids)
        assert spec.topics[0] == ("alpha", "beta")

    def test_topics_to_dicts_sorted_by_size(self):
        model = three_cluster_model()
        listing = topics_to_dicts(model, top_n=2)
        assert [e["topic_id"] for e in listing] == [2, 0, 1]
        assert [e["size"] for e in listing] == [5, 4, 2]
        assert listing[0]["merged_from"] == [2]
        assert len(listing[0]["words"]) == 2
        for e in listing:
            for w in e["words"]:
                assert set(w) == {"word", "similarity"}


def planted_model():
    """Four planted topics over 40 words in 8 dimensions, with the labeling
    they were built from; word rows 3 and 7 are equal, near topic 0, so
    ranking has to break their tie."""
    rng = np.random.default_rng(5)
    dim, n_topics = 8, 4
    centers = rng.standard_normal((n_topics, dim))
    doc_topic = np.repeat(np.arange(n_topics), [9, 6, 4, 3])
    doc_vectors = centers[doc_topic] + 0.3 * rng.standard_normal((len(doc_topic), dim))
    word_vectors = centers[np.arange(40) % n_topics] + 0.5 * rng.standard_normal(
        (40, dim)
    )
    word_vectors[3] = word_vectors[7] = centers[0] + 0.05
    emb = fabricated_embedding(doc_vectors, word_vectors, [f"w{i}" for i in range(40)])
    labeling = ClusterLabeling(
        labels=doc_topic,
        n_clusters=n_topics,
        cluster_stability=np.ones(n_topics),
    )
    return build_topic_model(emb, labeling), labeling


def stored_planted_model():
    """The planted model as a float32 model loaded back from an archive."""
    model, labeling = planted_model()
    model.embedding.epoch_losses.append(4.0)  # one loss for the one epoch below
    archive = ModelArchive.from_pipeline(
        model.embedding,
        np.zeros((len(labeling.labels), 5)),
        labeling,
        model,
        EmbeddingConfig(vector_size=model.embedding.vector_size, epochs=1, min_count=1),
        ReductionConfig(),
        ClusterConfig(),
    )
    return archive_from_bytes(archive_to_bytes(archive)).topic_model


class TestRankingBlocksOfTopics:
    """Words ranked for all topics at once equal per-topic ``nearest_words``."""

    def test_listing_and_spec(self):
        model = stored_planted_model()
        emb = model.embedding
        assert emb.word_vectors.dtype == np.float32
        top_n = 12
        expected = [nearest_words(emb, t.vector, top_n) for t in model.topics]
        assert ("w3", "w7") in {
            tuple(w for w, _ in ranked[:2]) for ranked in expected
        }
        for entry in topics_to_dicts(model, top_n):
            assert entry["words"] == [
                {"word": w, "similarity": round(s, 6)}
                for w, s in expected[entry["topic_id"]]
            ]
        spec = model_topic_spec(model, top_n)
        assert spec.topics == tuple(tuple(w for w, _ in r) for r in expected)

    def test_reduced_topics(self):
        model = stored_planted_model()
        emb = model.embedding
        reduced = reduce_topics(model, 2)
        for topic in reduced.topics:
            assert topic.vector.dtype == np.float64
            assert list(topic.words) == nearest_words(emb, topic.vector, TOPIC_WORDS)
        assert np.array_equal(
            reduced.assignment,
            assign_documents(emb.doc_vectors, reduced.vectors),
        )


class TestTopicWords:
    """A topic's words are its ``TOPIC_WORDS`` nearest, ranked when read
    (``test_reduced_topics`` checks a reduced model)."""

    @pytest.mark.parametrize(
        "make_model, dtype",
        [(lambda: planted_model()[0], np.float64), (stored_planted_model, np.float32)],
        ids=["built", "loaded"],
    )
    def test_words_are_the_nearest_words(self, make_model, dtype):
        model = make_model()
        assert model.vectors.dtype == dtype
        assert TOPIC_WORDS == 10 < len(model.embedding.vocabulary)
        for topic in model.topics:
            assert list(topic.words) == nearest_words(
                model.embedding, topic.vector, TOPIC_WORDS
            )
