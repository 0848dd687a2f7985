"""Huffman coding, hierarchical softmax, training steps, and similarity."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from topicforge import (
    Document,
    EmbeddingConfig,
    HuffmanCoding,
    SemanticEmbedding,
    ValidationError,
    Vocabulary,
    build_huffman_coding,
    compose_query,
    hs_probability,
    nearest_words,
    train,
    train_step_dbow,
    train_step_skipgram,
)
from topicforge.embedding import _rank_by_cosine

from conftest import make_two_theme_docs
from oracles import huffman_paths_oracle


def hs_loss_gradients(predictor, word, coding):
    """Negative log-likelihood of a word given a predictor, with gradients.

    Returns ``(loss, grad_predictor, grad_inner)`` where ``grad_inner``
    has one row per inner node on the word's path, aligned with
    ``coding.paths[word]``.  Both gradients are evaluated at the current
    parameter values.
    """
    points = coding.paths[word]
    if points.size == 0:
        d = predictor.shape[0]
        return 0.0, np.zeros(d), np.zeros((0, d))
    nodes = coding.inner_node_vectors[points]
    z = nodes @ predictor
    loss = float(np.logaddexp(0.0, -coding.signs[word] * z).sum())
    g = expit(z) - coding.labels[word]
    return loss, g @ nodes, np.outer(g, predictor)


def cosine_similarity(a, b):
    """Cosine of the angle between two vectors; zero vectors are an error."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    return float(a @ b) / (na * nb)


def make_vocab(words, counts):
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    return Vocabulary(
        words=tuple(words),
        counts=counts,
        total_tokens=total,
        keep_probability=np.ones(len(words)),
    )


def random_coding(rng, n_words, dim, scale=1.0):
    counts = rng.integers(1, 1000, size=n_words)
    coding = build_huffman_coding(make_vocab([f"w{i}" for i in range(n_words)], counts), dim)
    coding.inner_node_vectors = scale * rng.standard_normal(
        coding.inner_node_vectors.shape
    )
    return coding


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = EmbeddingConfig()
        assert cfg.vector_size == 300
        assert cfg.window == 15
        assert cfg.epochs == 40
        assert cfg.min_count == 50
        assert cfg.subsample_threshold == 1e-5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vector_size": 0},
            {"window": 0},
            {"epochs": 0},
            {"min_count": 0},
            {"subsample_threshold": 0.0},
            {"subsample_threshold": float("nan")},
            {"vector_size": float("nan")},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            EmbeddingConfig(**kwargs)


class TestHuffman:
    def test_hand_case_code_lengths(self):
        coding = build_huffman_coding(make_vocab("abcd", [4, 2, 1, 1]), 4)
        assert [len(p) for p in coding.paths] == [1, 2, 3, 3]

    def test_paths_start_at_root(self):
        coding = build_huffman_coding(make_vocab("abcde", [9, 7, 5, 3, 1]), 4)
        root = len(coding.paths) - 2
        for path in coding.paths:
            assert path[0] == root

    def test_kraft_equality(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            counts = rng.integers(1, 500, size=n)
            coding = build_huffman_coding(
                make_vocab([f"w{i}" for i in range(n)], counts), 2
            )
            kraft = sum(2.0 ** -len(p) for p in coding.paths)
            assert kraft == pytest.approx(1.0, abs=1e-12)

    def test_strictly_more_frequent_word_never_longer(self):
        # At equal counts either order is optimal, so only strict pairs
        # constrain the lengths.
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(3, 25))
            counts = np.sort(rng.integers(1, 300, size=n))[::-1]
            coding = build_huffman_coding(
                make_vocab([f"w{i}" for i in range(n)], counts), 2
            )
            lengths = [len(p) for p in coding.paths]
            for i in range(n - 1):
                if counts[i] > counts[i + 1]:
                    assert lengths[i] <= lengths[i + 1]

    def test_weighted_code_length_is_optimal(self):
        # The sum of merged weights in any optimal merge sequence equals
        # the minimal total weighted code length.
        import heapq

        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            counts = rng.integers(1, 300, size=n)
            coding = build_huffman_coding(
                make_vocab([f"w{i}" for i in range(n)], counts), 2
            )
            heap = list(map(int, counts))
            heapq.heapify(heap)
            optimal = 0
            while len(heap) > 1:
                a, b = heapq.heappop(heap), heapq.heappop(heap)
                optimal += a + b
                heapq.heappush(heap, a + b)
            lengths = np.array([len(p) for p in coding.paths])
            assert int((lengths * counts).sum()) == optimal

    def test_deterministic_under_ties(self):
        counts = [5, 5, 5, 5, 5, 5]
        a = build_huffman_coding(make_vocab("abcdef", counts), 2)
        b = build_huffman_coding(make_vocab("abcdef", counts), 2)
        for pa, pb in zip(a.paths, b.paths):
            assert np.array_equal(pa, pb)
        for la, lb in zip(a.labels, b.labels):
            assert np.array_equal(la, lb)

    def test_equals_the_tagged_tuple_tree(self):
        # Counts of 1-5 make ties common, so the tie rule decides most merges.
        rng = np.random.default_rng(13)
        inputs = [[7], [3, 1], [2, 5, 1], [5] * 6] + [
            rng.integers(1, 6, size=int(rng.integers(1, 301))).tolist()
            for _ in range(200)
        ]
        for counts in inputs:
            n = len(counts)
            coding = HuffmanCoding(np.array(counts), np.zeros((n - 1, 2)))
            paths, codes = huffman_paths_oracle(counts)
            assert len(coding.paths) == len(coding.signs) == len(coding.labels) == n
            for w in range(n):
                assert coding.paths[w].dtype == np.int32
                assert coding.paths[w].tolist() == paths[w]
                assert coding.signs[w].tolist() == [1.0 - 2.0 * b for b in codes[w]]
                assert coding.labels[w].tolist() == [1.0 - b for b in codes[w]]

    def test_takes_a_stored_inner_node_block(self):
        vocab = make_vocab("abcd", [4, 2, 1, 1])
        block = np.arange(6.0).reshape(3, 2)
        assert build_huffman_coding(vocab, 2, block).inner_node_vectors is block
        with pytest.raises(ValidationError):
            build_huffman_coding(vocab, 3, block)

    def test_single_word_vocabulary(self):
        coding = build_huffman_coding(make_vocab(["only"], [7]), 3)
        assert coding.paths[0].size == 0
        assert coding.inner_node_vectors.shape == (0, 3)
        assert hs_probability(np.ones(3), 0, coding) == 1.0


class TestHsProbability:
    def test_zero_inner_vectors_give_code_length_probabilities(self):
        coding = build_huffman_coding(make_vocab("abcd", [4, 2, 1, 1]), 4)
        probs = [hs_probability(np.ones(4), w, coding) for w in range(4)]
        assert probs == pytest.approx([0.5, 0.25, 0.125, 0.125])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            coding = random_coding(rng, n, dim=8, scale=2.0)
            pred = rng.standard_normal(8)
            total = sum(hs_probability(pred, w, coding) for w in range(n))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_word(self):
        coding = build_huffman_coding(make_vocab("ab", [2, 1]), 2)
        with pytest.raises(ValidationError):
            hs_probability(np.ones(2), 2, coding)
        with pytest.raises(ValidationError):
            hs_probability(np.ones(2), -1, coding)


class TestGradients:
    def test_loss_matches_probability(self):
        rng = np.random.default_rng(5)
        coding = random_coding(rng, 12, dim=6)
        pred = rng.standard_normal(6)
        for w in range(12):
            loss, _, _ = hs_loss_gradients(pred, w, coding)
            assert loss == pytest.approx(-math.log(hs_probability(pred, w, coding)))

    def test_central_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        for _ in range(25):
            n = int(rng.integers(2, 30))
            dim = int(rng.integers(2, 10))
            coding = random_coding(rng, n, dim)
            pred = rng.standard_normal(dim)
            w = int(rng.integers(n))
            loss, grad_pred, grad_inner = hs_loss_gradients(pred, w, coding)

            def loss_at(p):
                return -math.log(hs_probability(p, w, coding))

            fd_pred = np.empty(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd_pred[i] = (loss_at(pred + e) - loss_at(pred - e)) / (2 * h)
            assert np.allclose(grad_pred, fd_pred, rtol=1e-4, atol=1e-7)

            points = coding.paths[w]
            for r, node in enumerate(points):
                for i in range(dim):
                    saved = coding.inner_node_vectors[node, i]
                    coding.inner_node_vectors[node, i] = saved + h
                    up = loss_at(pred)
                    coding.inner_node_vectors[node, i] = saved - h
                    down = loss_at(pred)
                    coding.inner_node_vectors[node, i] = saved
                    fd = (up - down) / (2 * h)
                    assert grad_inner[r, i] == pytest.approx(
                        fd, rel=1e-4, abs=1e-7
                    )

    def test_empty_path_has_zero_gradients(self):
        coding = build_huffman_coding(make_vocab(["only"], [1]), 3)
        loss, grad_pred, grad_inner = hs_loss_gradients(np.ones(3), 0, coding)
        assert loss == 0.0
        assert np.all(grad_pred == 0)
        assert grad_inner.shape == (0, 3)


def tiny_embedding(rng, n_docs=3, n_words=5, dim=4):
    vocab = make_vocab([f"w{i}" for i in range(n_words)], rng.integers(1, 9, n_words))
    coding = build_huffman_coding(vocab, dim)
    coding.inner_node_vectors = 0.1 * rng.standard_normal(
        coding.inner_node_vectors.shape
    )
    return SemanticEmbedding(
        doc_vectors=0.1 * rng.standard_normal((n_docs, dim)),
        word_vectors=0.1 * rng.standard_normal((n_words, dim)),
        coding=coding,
        vocabulary=vocab,
        doc_ids=tuple(f"d{i}" for i in range(n_docs)),
    )


class TestTrainingSteps:
    def test_returned_loss_predates_the_update(self):
        rng = np.random.default_rng(7)
        emb = tiny_embedding(rng)
        frozen = train_step_skipgram(emb, 1, 2, lr=0.0)
        moving = train_step_skipgram(emb, 1, 2, lr=0.5)
        assert moving == frozen
        assert train_step_skipgram(emb, 1, 2, lr=0.0) < frozen

    def test_zero_lr_changes_nothing(self):
        rng = np.random.default_rng(8)
        emb = tiny_embedding(rng)
        words_before = emb.word_vectors.copy()
        inner_before = emb.coding.inner_node_vectors.copy()
        train_step_skipgram(emb, 0, 3, lr=0.0)
        assert np.array_equal(emb.word_vectors, words_before)
        assert np.array_equal(emb.coding.inner_node_vectors, inner_before)

    def test_step_is_exactly_one_gradient_move(self):
        rng = np.random.default_rng(9)
        lr = 0.05
        emb = tiny_embedding(rng)
        pred_before = emb.word_vectors[2].copy()
        inner_before = emb.coding.inner_node_vectors.copy()
        _, grad_pred, grad_inner = hs_loss_gradients(pred_before, 4, emb.coding)
        train_step_skipgram(emb, 2, 4, lr=lr)
        assert np.allclose(emb.word_vectors[2], pred_before - lr * grad_pred)
        expected_inner = inner_before.copy()
        expected_inner[emb.coding.paths[4]] -= lr * grad_inner
        assert np.allclose(emb.coding.inner_node_vectors, expected_inner)

    def test_dbow_moves_the_document_row(self):
        rng = np.random.default_rng(10)
        emb = tiny_embedding(rng)
        docs_before = emb.doc_vectors.copy()
        words_before = emb.word_vectors.copy()
        train_step_dbow(emb, 1, 2, lr=0.1)
        assert not np.array_equal(emb.doc_vectors[1], docs_before[1])
        assert np.array_equal(emb.doc_vectors[0], docs_before[0])
        assert np.array_equal(emb.word_vectors, words_before)

    # Five words and three documents: rows past either end, and words past
    # either end, must raise rather than wrap.
    @pytest.mark.parametrize(
        "step, row, word",
        [
            (train_step_skipgram, -1, 2), (train_step_skipgram, 5, 2),
            (train_step_skipgram, 0, -1), (train_step_skipgram, 0, 5),
            (train_step_dbow, -1, 2), (train_step_dbow, 3, 2),
            (train_step_dbow, 0, -1), (train_step_dbow, 0, 5),
        ],
    )
    def test_indices_out_of_range_raise(self, step, row, word):
        emb = tiny_embedding(np.random.default_rng(12))
        before = [emb.word_vectors.copy(), emb.doc_vectors.copy(),
                  emb.coding.inner_node_vectors.copy()]
        with pytest.raises(ValidationError, match=r"index -?\d+ out of range"):
            step(emb, row, word, 0.1)
        after = [emb.word_vectors, emb.doc_vectors, emb.coding.inner_node_vectors]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_repeated_steps_make_the_word_likely(self):
        rng = np.random.default_rng(11)
        emb = tiny_embedding(rng)
        first = train_step_skipgram(emb, 0, 3, lr=0.2)
        for _ in range(300):
            last = train_step_skipgram(emb, 0, 3, lr=0.2)
        assert last < first
        assert hs_probability(emb.word_vectors[0], 3, emb.coding) > 0.9


class TestTrain:
    def small_config(self, **overrides):
        base = dict(
            vector_size=16,
            window=4,
            epochs=5,
            min_count=2,
            subsample_threshold=1e-2,
            seed=42,
        )
        base.update(overrides)
        return EmbeddingConfig(**base)

    def test_shapes_and_doc_ids(self):
        docs, _ = make_two_theme_docs(20)
        emb = train(docs, self.small_config())
        assert emb.doc_vectors.shape == (40, 16)
        assert emb.word_vectors.shape == (len(emb.vocabulary), 16)
        assert emb.coding.inner_node_vectors.shape == (len(emb.vocabulary) - 1, 16)
        assert emb.doc_ids == tuple(d.id for d in docs)
        assert emb.vector_size == 16
        assert np.all(np.isfinite(emb.doc_vectors))
        assert np.all(np.isfinite(emb.word_vectors))

    def test_same_seed_is_bit_identical(self):
        docs, _ = make_two_theme_docs(15)
        a = train(docs, self.small_config())
        b = train(docs, self.small_config())
        assert np.array_equal(a.doc_vectors, b.doc_vectors)
        assert np.array_equal(a.word_vectors, b.word_vectors)
        assert np.array_equal(
            a.coding.inner_node_vectors, b.coding.inner_node_vectors
        )
        assert a.epoch_losses == b.epoch_losses

    def test_different_seed_differs(self):
        docs, _ = make_two_theme_docs(15)
        a = train(docs, self.small_config(seed=1))
        b = train(docs, self.small_config(seed=2))
        assert not np.array_equal(a.doc_vectors, b.doc_vectors)

    def test_loss_decreases_over_epochs(self):
        docs, _ = make_two_theme_docs(30)
        emb = train(docs, self.small_config(epochs=8))
        assert len(emb.epoch_losses) == 8
        assert emb.epoch_losses[-1] < emb.epoch_losses[0]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            train([], self.small_config())

    def test_tokenizes_each_document_once(self, tokenized_texts):
        docs, _ = make_two_theme_docs(10)
        train(docs, self.small_config(epochs=1))
        assert tokenized_texts == [d.raw for d in docs]

    def test_documents_without_vocabulary_tokens_rejected(self):
        # Each of these words occurs once, below min_count=2.  Kept, the
        # documents' untrained vectors would form a topic of their own.
        docs, _ = make_two_theme_docs(20)
        empty = [
            Document(id=f"oov{i:02d}", raw=f"qux{i}a qux{i}b qux{i}c")
            for i in range(12)
        ]
        with pytest.raises(
            ValidationError,
            match=r"12 documents have no in-vocabulary token "
            r"\(first: oov00, oov01, oov02, oov03, oov04\)",
        ):
            train(docs[:20] + empty + docs[20:], self.small_config())

    def test_docs_land_near_their_theme_words(self, small_trained):
        emb, docs, themes = small_trained
        vocab = emb.vocabulary
        ocean = emb.word_vectors[vocab.index["wave"]]
        music = emb.word_vectors[vocab.index["violin"]]
        ocean_docs = emb.doc_vectors[[t == "ocean" for t in themes]]
        to_ocean = np.mean(
            [cosine_similarity(d, ocean) for d in ocean_docs]
        )
        to_music = np.mean(
            [cosine_similarity(d, music) for d in ocean_docs]
        )
        assert to_ocean > to_music


def rank_by_full_sort(matrix, query, top_n):
    """Top-n rows by cosine from a stable argsort of every row, with the
    row norms in float64 and the similarities in the scores' precision."""
    norms = np.linalg.norm(matrix.astype(np.float64), axis=1)
    rows = matrix.astype(np.result_type(matrix, query), copy=False)
    qn = float(np.linalg.norm(query.astype(np.float64)))
    dots = rows @ query
    sims = np.where(
        norms > 0.0, dots / (np.maximum(norms, 1e-300) * qn), -np.inf
    ).astype(dots.dtype)
    order = np.argsort(-sims, kind="stable")[:top_n]
    return order, sims[order]


# The reference divides 0 by 0 for zero rows, and infinite rows divide inf
# by inf, before np.where masks or keeps the result.
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestRankByCosine:
    def matrix(self, dtype=np.float64):
        rng = np.random.default_rng(4)
        # Small integer entries make exact cosine ties between distinct rows.
        m = rng.integers(-2, 3, size=(40, 3)).astype(dtype)
        m[7] = m[3]
        m[21] = m[3]
        m[[0, 11, 30]] = 0.0
        return m

    def check(self, matrix, queries, top_n):
        ranked = _rank_by_cosine(matrix, queries, top_n)
        assert len(ranked) == len(queries)
        for (order, sims), query in zip(ranked, queries):
            ref_order, ref_sims = rank_by_full_sort(matrix, query, top_n)
            assert np.array_equal(order, ref_order)
            assert np.array_equal(sims, ref_sims, equal_nan=True)
            assert sims.dtype == ref_sims.dtype

    @pytest.mark.parametrize("top_n", [1, 39, 40, 45])
    def test_equals_the_full_sort(self, top_n):
        matrix = self.matrix()
        queries = np.vstack([matrix[3], matrix[5], [1.0, -0.5, 0.25]])
        self.check(matrix, queries, top_n)

    @pytest.mark.parametrize("top_n", [1, 39, 40, 45])
    def test_float32_queries(self, top_n):
        for matrix in (self.matrix(np.float32), self.matrix()):
            queries = np.vstack([matrix[3], matrix[8]]).astype(np.float32)
            self.check(matrix, queries, top_n)

    @pytest.mark.parametrize("top_n", [1, 39, 40, 45])
    def test_float32_zero_rows_warn_nothing(self, top_n):
        # A 1e-300 floor under the norms rounds to 0 in float32, and 0 / 0
        # warns; the zero rows must still rank last.
        matrix = self.matrix(np.float32)
        queries = matrix[[3, 8]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _rank_by_cosine(matrix, queries, top_n)
        self.check(matrix, queries, top_n)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_large_finite_rows_do_not_overflow_the_norm(self, dtype):
        # Squared in float32, 1e20 overflows to inf: row 0 would rank last.
        matrix = np.array([[1e20, 1e20, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype)
        query = np.array([[1.0, 1.0, 0.0]], dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(order, sims)] = _rank_by_cosine(matrix, query, 3)
        assert order.tolist() == [0, 1, 2]
        assert sims[0] == pytest.approx(1.0)
        self.check(matrix, query, 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_large_finite_queries_do_not_overflow_the_norm(self, dtype):
        # The matrix above plus a unit row that alone meets the query, so
        # no dot product overflows; squared in float32, the query's norm would.
        matrix = np.array(
            [[1e20, 1e20, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(order, sims)] = _rank_by_cosine(matrix, np.array([[0.0, 0.0, 1e20]], dtype), 4)
            query = compose_query([matrix[0]])
        assert order.tolist() == [3, 0, 1, 2]
        assert sims.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert query.tolist() == pytest.approx([2**-0.5, 2**-0.5, 0.0])
        self.check(matrix, np.array([[0.0, 0.0, 1e20]], dtype), 4)

    def test_large_rows_against_large_queries_do_not_overflow_the_product(self):
        # Formed in float32, row 0 times itself overflows to inf.
        matrix = np.array(
            [[1e20, 1e20, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], np.float32
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(order, sims)] = _rank_by_cosine(matrix, matrix[:1], 3)
        assert order.tolist() == [0, 1, 2]
        assert sims[0] == 1.0

    def test_rows_whose_own_product_overflows(self):
        # Row 0 sums past the float32 limit against any query of ones,
        # even with the query scaled into [0.5, 1).
        matrix = np.array(
            [[3e38, 3e38, 3e38], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], np.float32
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(order, sims)] = _rank_by_cosine(matrix, np.ones((1, 3), np.float32), 3)
        assert order.tolist() == [0, 1, 2]
        assert sims[0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_power_of_two_query_scales_give_equal_similarities(self, dtype):
        matrix = np.random.default_rng(5).standard_normal((50, 8)).astype(dtype)
        queries = matrix[[3, 8]] + np.array(0.1, dtype)
        ranked = _rank_by_cosine(matrix, queries, 10)
        for e in (-100, -1, 1, 100):
            for (order, sims), (ref_order, ref_sims) in zip(
                _rank_by_cosine(matrix, np.ldexp(queries, e), 10), ranked
            ):
                assert np.array_equal(order, ref_order)
                assert np.array_equal(sims, ref_sims)

    @pytest.mark.parametrize("top_n", [1, 39, 40, 45])
    def test_nan_and_infinite_rows(self, top_n):
        matrix = self.matrix()
        matrix[5] = np.nan
        # An infinite row scores NaN, which sorts after every number.
        matrix[[9, 17, 25]] = [np.inf, 1.0, 0.0]
        self.check(matrix, np.vstack([matrix[3], matrix[12]]), top_n)

    @pytest.mark.parametrize("top_n", [1, 36, 37, 38, 39, 40, 45])
    def test_kth_value_nan(self, top_n):
        # A NaN query scores every row NaN but the zero rows' -inf.
        self.check(self.matrix(), np.array([[np.nan, 1.0, 0.0]]), top_n)


class TestSimilarity:
    def test_cosine_hand_values(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
        assert cosine_similarity(np.array([2.0, 0.0]), np.array([5.0, 0.0])) == 1.0
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([-3.0, 0.0])) == -1.0

    def test_cosine_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.zeros(3), np.ones(3))

    def fabricated(self):
        vocab = make_vocab("abcd", [4, 3, 2, 1])
        coding = build_huffman_coding(vocab, 2)
        word_vectors = np.array(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        )
        return SemanticEmbedding(
            doc_vectors=np.zeros((1, 2)),
            word_vectors=word_vectors,
            coding=coding,
            vocabulary=vocab,
            doc_ids=("d0",),
        )

    def test_nearest_words_ranks_and_breaks_ties_low(self):
        emb = self.fabricated()
        result = nearest_words(emb, np.array([1.0, 0.0]), 4)
        assert [w for w, _ in result] == ["a", "c", "d", "b"]
        assert result[0][1] == pytest.approx(1.0)
        assert result[1][1] == pytest.approx(1.0)

    def test_nearest_words_clamps_top_n(self):
        emb = self.fabricated()
        assert len(nearest_words(emb, np.array([1.0, 0.0]), 99)) == 4

    def test_nearest_words_rejects_zero_query(self):
        with pytest.raises(ValidationError):
            nearest_words(self.fabricated(), np.zeros(2), 3)

    def test_compose_query_mean_difference(self):
        pos = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        q = compose_query(pos)
        assert np.allclose(q, np.array([1.0, 1.0]) / math.sqrt(2))
        assert np.linalg.norm(q) == pytest.approx(1.0)

    def test_compose_query_with_negatives(self):
        q = compose_query([np.array([2.0, 0.0])], [np.array([0.0, 2.0])])
        assert np.allclose(q, np.array([1.0, -1.0]) / math.sqrt(2))

    def test_compose_query_rejects_cancellation(self):
        v = np.array([1.0, 1.0])
        with pytest.raises(ValidationError):
            compose_query([v], [v])

    def test_compose_query_rejects_empty(self):
        with pytest.raises(ValidationError):
            compose_query([])
