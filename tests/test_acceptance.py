"""Acceptance suite: ten numbered release gates, one test each.

Run with ``pytest -v`` to get one pass/fail line per gate.  The heavier
gates share the session-scoped five-theme pipeline from conftest.
"""

import math
import struct
import time

import numpy as np
import pytest

from topicforge import (
    ArchiveError,
    ClusterConfig,
    Document,
    ModelArchive,
    ReductionConfig,
    TopicSpec,
    Vocabulary,
    build_huffman_coding,
    build_stats,
    build_vocabulary,
    cluster,
    hs_probability,
    index_documents,
    pwi_hard,
    pwi_mixture,
    random_baseline_spec,
    reduce,
    reduce_topics,
    train_step_dbow,
    train_step_skipgram,
)
from topicforge.corpus import tokenize
from topicforge.embedding import SemanticEmbedding
from topicforge.persistence import (
    FORMAT_VERSION,
    archive_from_bytes,
    archive_to_bytes,
)
from topicforge.reduction import smooth_knn_calibrate
from topicforge.topics import model_topic_spec

from conftest import FILLER_WORDS, THEME_WORDS
from oracles import (
    mst_weight_exhaustive,
    mst_weight_kruskal,
    pwi_oracle_hard,
    pwi_oracle_mixture,
    reachability_row,
)


def make_vocab(words, counts):
    counts = np.asarray(counts, dtype=np.int64)
    return Vocabulary(
        words=tuple(words),
        counts=counts,
        keep_probability=np.ones(len(words)),
    )


def test_c01_pwi_matches_brute_force_oracle_on_random_corpora():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(50):
        vocab_size = int(rng.integers(2, 51))
        alphabet = [f"w{i}" for i in range(vocab_size)]
        texts = []
        for _ in range(int(rng.integers(2, 21))):
            length = int(rng.integers(1, 40))
            texts.append(
                " ".join(alphabet[i] for i in rng.integers(0, vocab_size, length))
            )
        docs = [Document(id=f"d{i}", raw=t) for i, t in enumerate(texts)]
        vocab = build_vocabulary(docs, min_count=1)
        indexed = index_documents(docs, vocab)
        stats = build_stats(indexed, vocab)
        doc_tokens = {d.id: tokenize(d.raw) for d in indexed}
        words = list(vocab.words)
        n_topics = int(rng.integers(1, 6))
        per_topic = int(rng.integers(1, min(6, len(words) + 1)))
        topics = tuple(
            tuple(
                words[i]
                for i in rng.choice(len(words), size=per_topic, replace=False)
            )
            for _ in range(n_topics)
        )

        hard = TopicSpec(
            mode="hard",
            topics=topics,
            assignments={d: int(rng.integers(n_topics)) for d in stats.doc_ids},
        )
        topic_docs = [
            [d for d, t in hard.assignments.items() if t == k]
            for k in range(n_topics)
        ]
        expected = pwi_oracle_hard(doc_tokens, topics, topic_docs)
        assert pwi_hard(hard, stats) == pytest.approx(
            expected, rel=1e-9, abs=1e-12
        )

        rows = rng.random((stats.n_docs, n_topics)) + 1e-3
        rows /= rows.sum(axis=1, keepdims=True)
        mixture = TopicSpec(
            mode="mixture",
            topics=topics,
            proportions={
                d: tuple(rows[i]) for i, d in enumerate(stats.doc_ids)
            },
        )
        expected = pwi_oracle_mixture(doc_tokens, stats.doc_ids, rows, topics)
        assert pwi_mixture(mixture, stats) == pytest.approx(
            expected, rel=1e-9, abs=1e-12
        )
    assert time.perf_counter() - start < 10.0


def test_c02_pwi_analytic_hand_corpus():
    docs = [Document(id="d1", raw="a a b"), Document(id="d2", raw="b c c")]
    vocab = build_vocabulary(docs, min_count=1)
    stats = build_stats(index_documents(docs, vocab), vocab)

    one_word = TopicSpec(
        mode="hard", topics=(("a",),), assignments={"d1": 0, "d2": 0}
    )
    assert pwi_hard(one_word, stats) == pytest.approx(1.0)

    without_b = TopicSpec(
        mode="hard",
        topics=(("a",), ("c",)),
        assignments={"d1": 0, "d2": 1},
    )
    with_b = TopicSpec(
        mode="hard",
        topics=(("a", "b"), ("c", "b")),
        assignments={"d1": 0, "d2": 1},
    )
    base = pwi_hard(without_b, stats)
    assert pwi_hard(with_b, stats) == pytest.approx(base, abs=1e-15)

    one_hot = TopicSpec(
        mode="mixture",
        topics=(("a",), ("c",)),
        proportions={"d1": (1.0, 0.0), "d2": (0.0, 1.0)},
    )
    assert abs(pwi_mixture(one_hot, stats) - base) < 1e-12


def test_c03_hierarchical_softmax_sums_to_one():
    rng = np.random.default_rng(103)
    n_words, dim = 257, 30
    vocab = make_vocab(
        [f"w{i}" for i in range(n_words)], rng.integers(1, 1000, n_words)
    )
    coding = build_huffman_coding(vocab, dim)
    coding.inner_node_vectors = rng.standard_normal((n_words - 1, dim))
    for _ in range(100):
        predictor = rng.standard_normal(dim)
        total = sum(hs_probability(predictor, w, coding) for w in range(n_words))
        assert abs(total - 1.0) < 1e-6


def test_c04_step_gradients_match_central_differences():
    rng = np.random.default_rng(104)
    h = 1e-5
    lr = 0.1
    for trial in range(100):
        n_words = int(rng.integers(2, 41))
        dim = int(rng.integers(2, 21))
        vocab = make_vocab(
            [f"w{i}" for i in range(n_words)], rng.integers(1, 500, n_words)
        )
        coding = build_huffman_coding(vocab, dim)
        coding.inner_node_vectors = rng.standard_normal((n_words - 1, dim))
        embedding = SemanticEmbedding(
            doc_vectors=rng.standard_normal((2, dim)),
            word_vectors=rng.standard_normal((n_words, dim)),
            coding=coding,
            vocabulary=vocab,
            doc_ids=("d0", "d1"),
        )
        word = int(rng.integers(n_words))
        use_dbow = trial % 2 == 0
        if use_dbow:
            row = int(rng.integers(2))
            matrix = embedding.doc_vectors
        else:
            row = int(rng.integers(n_words))
            matrix = embedding.word_vectors
        pred_before = matrix[row].copy()
        inner_before = coding.inner_node_vectors.copy()

        def loss_at(p):
            saved = matrix[row].copy()
            matrix[row] = p
            value = -math.log(hs_probability(p, word, coding))
            matrix[row] = saved
            return value

        fd_pred = np.empty(dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd_pred[i] = (
                loss_at(pred_before + e) - loss_at(pred_before - e)
            ) / (2 * h)
        points = coding.paths[word]
        fd_inner = np.empty((len(points), dim))
        for r, node in enumerate(points):
            for i in range(dim):
                saved = coding.inner_node_vectors[node, i]
                coding.inner_node_vectors[node, i] = saved + h
                up = loss_at(pred_before)
                coding.inner_node_vectors[node, i] = saved - h
                down = loss_at(pred_before)
                coding.inner_node_vectors[node, i] = saved
                fd_inner[r, i] = (up - down) / (2 * h)

        if use_dbow:
            train_step_dbow(embedding, row, word, lr)
        else:
            train_step_skipgram(embedding, row, word, lr)
        step_grad_pred = (pred_before - matrix[row]) / lr
        step_grad_inner = (
            inner_before[points] - coding.inner_node_vectors[points]
        ) / lr
        assert np.allclose(step_grad_pred, fd_pred, rtol=1e-4, atol=1e-7)
        assert np.allclose(step_grad_inner, fd_inner, rtol=1e-4, atol=1e-7)
        off_path = np.setdiff1d(np.arange(n_words - 1), points)
        assert np.array_equal(
            coding.inner_node_vectors[off_path], inner_before[off_path]
        )


def test_c05_mst_oracle_and_blob_outlier_instance():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    from topicforge.clustering import build_mst, core_distances, mutual_reachability

    # The tree every cluster() call builds, on the view it builds it from;
    # every third trial's points are integers, so weights tie and points repeat.
    for trial in range(20):
        n = int(rng.integers(4, 11))
        points = rng.uniform(0.0, 10.0, (n, int(rng.integers(1, 6))))
        if trial % 3 == 2:
            points = np.round(points)
        view = mutual_reachability(points, core_distances(points, int(rng.integers(1, n))))
        m = np.array([reachability_row(view, j) for j in range(n)])
        weight = build_mst(view)[:, 2].sum()
        if n <= 7:
            assert weight == pytest.approx(mst_weight_exhaustive(m))
        else:
            assert weight == pytest.approx(mst_weight_kruskal(m))

    centers = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)]
    blobs = [
        rng.normal(c, 0.5, (30, 2)) for c in centers
    ]
    outliers = np.array(
        [[60.0, 60.0], [-50.0, 40.0], [45.0, -45.0], [-40.0, -40.0], [80.0, 0.0]]
    )
    points = np.vstack(blobs + [outliers])
    labeling = cluster(points, ClusterConfig(min_cluster_size=15))
    assert labeling.n_clusters == 3
    assert set(np.flatnonzero(labeling.labels == -1)) == {90, 91, 92, 93, 94}
    for k in range(3):
        blob_labels = set(labeling.labels[30 * k : 30 * (k + 1)])
        assert len(blob_labels) == 1
        assert -1 not in blob_labels
    assert time.perf_counter() - start < 30.0


def test_c06_smooth_knn_calibration_and_blob_separation():
    rng = np.random.default_rng(106)
    for _ in range(1000):
        k = int(rng.integers(2, 31))
        d = rng.random(k) * rng.uniform(0.05, 5.0) + 1e-4
        rho = d[d > 0].min()
        if d.max() <= rho:
            continue
        rho_out, sigma = smooth_knn_calibrate(d)
        total = float(np.exp(-np.maximum(d - rho_out, 0.0) / sigma).sum())
        assert abs(total - math.log2(k)) < 1e-5

    _, sigma = smooth_knn_calibrate(np.array([1.0, 2.0, 3.0]))
    assert sigma == pytest.approx(1.1334, abs=1e-3)

    base = np.random.default_rng(1060)
    a = base.normal(0.0, 0.05, (40, 20))
    a[:, 0] += 1.0
    b = base.normal(0.0, 0.05, (40, 20))
    b[:, 1] += 1.0
    points = np.vstack([a, b])
    for seed in range(10):
        config = ReductionConfig(
            n_neighbors=10, n_components=5, layout_epochs=150, seed=seed
        )
        coords = reduce(points, config)
        first, second = coords[:40], coords[40:]
        intra = np.mean(
            [
                np.linalg.norm(x - y)
                for x in first[:10]
                for y in first[10:20]
            ]
        )
        inter = np.mean(
            [np.linalg.norm(x - y) for x in first[:10] for y in second[:10]]
        )
        assert intra < inter, f"seed {seed}: intra {intra:.3f} vs inter {inter:.3f}"


THEME_UNION = {w for words in THEME_WORDS.values() for w in words}
FILLER_SET = set(FILLER_WORDS)


def test_c07_end_to_end_five_theme_corpus(five_theme_pipeline):
    pipe = five_theme_pipeline
    assert pipe["train_seconds"] < 300.0
    assert pipe["labeling"].n_clusters >= 5

    reduced = reduce_topics(pipe["model"], 5)
    assert reduced.n_topics == 5

    themes = pipe["doc_themes"]
    n_docs = len(themes)
    purity_hits = 0
    for k in range(5):
        member_themes = [
            themes[i] for i in np.flatnonzero(reduced.assignment == k)
        ]
        if member_themes:
            purity_hits += max(member_themes.count(t) for t in set(member_themes))
    assert purity_hits / n_docs >= 0.7

    for topic in reduced.topics:
        top10 = [w for w, _ in topic.words[:10]]
        theme_count = sum(w in THEME_UNION for w in top10)
        filler_count = sum(w in FILLER_SET for w in top10)
        assert theme_count >= 7, f"topic words too diluted: {top10}"
        assert filler_count <= 1, f"fillers crept in: {top10}"


def test_c08_model_beats_random_baselines_threefold(five_theme_pipeline):
    pipe = five_theme_pipeline
    embedding = pipe["embedding"]
    vocab = embedding.vocabulary
    indexed = index_documents(pipe["docs"], vocab)
    stats = build_stats(indexed, vocab)

    reduced = reduce_topics(pipe["model"], 5)
    model_pwi = pwi_hard(model_topic_spec(reduced, 10), stats)
    assert model_pwi > 0.0
    for seed in range(10):
        baseline = random_baseline_spec(
            embedding.doc_ids, vocab, n_topics=5, words_per_topic=10, seed=seed
        )
        baseline_pwi = pwi_hard(baseline, stats)
        assert model_pwi > 3.0 * baseline_pwi, (
            f"seed {seed}: model {model_pwi:.4f} vs baseline {baseline_pwi:.4f}"
        )


def test_c09_reduction_invariants_along_the_whole_chain(five_theme_pipeline):
    model = five_theme_pipeline["model"]
    n_docs = len(model.assignment)
    prev = model
    for target in range(model.n_topics - 1, 0, -1):
        nxt = reduce_topics(prev, target)
        assert nxt.n_topics == prev.n_topics - 1
        assert len(nxt.merge_history) == len(prev.merge_history) + 1
        assert sum(t.size for t in nxt.topics) == n_docs
        assert int(np.bincount(nxt.assignment).sum()) == n_docs

        record = nxt.merge_history[-1]
        sizes = np.bincount(prev.assignment, minlength=prev.n_topics)
        vectors = prev.vectors
        s, t = record.absorbed, record.absorbing
        assert record.absorbed_size == sizes[s]
        assert record.absorbing_size == sizes[t]
        assert sizes[s] == sizes.min()
        expected = (sizes[s] * vectors[s] + sizes[t] * vectors[t]) / (
            sizes[s] + sizes[t]
        )
        # After np.delete, the absorbing topic's row moves up if s was before it.
        assert np.allclose(nxt.vectors[t - (s < t)], expected, rtol=0.0, atol=1e-12)
        prev = nxt
    assert prev.n_topics == 1


def test_c10_archive_round_trip_and_rejection(five_theme_pipeline, tmp_path):
    pipe = five_theme_pipeline
    emb_cfg, red_cfg, clu_cfg = pipe["configs"]
    archive = ModelArchive.from_pipeline(
        pipe["embedding"],
        pipe["coords"],
        pipe["labeling"],
        pipe["model"],
        emb_cfg,
        red_cfg,
        clu_cfg,
    )
    data = archive_to_bytes(archive)
    loaded = archive_from_bytes(data)
    assert archive_to_bytes(loaded) == data

    with pytest.raises(ArchiveError):
        archive_from_bytes(b"NOPE" + data[4:])
    with pytest.raises(ArchiveError):
        archive_from_bytes(data[:4] + struct.pack("<I", FORMAT_VERSION + 1) + data[8:])
    with pytest.raises(ArchiveError):
        archive_from_bytes(data[: len(data) // 2])
    with pytest.raises(ArchiveError):
        archive_from_bytes(data + b"\x00")
