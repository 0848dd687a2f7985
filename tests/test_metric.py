"""Information-gain scoring: hand values, oracle equivalence, validation."""

import json
import math

import numpy as np
import pytest

from topicforge import (
    Document,
    TopicSpec,
    ValidationError,
    build_stats,
    build_vocabulary,
    evaluate,
    index_documents,
    load_external_topics,
    mutual_information,
    pointwise_pwi,
    pwi_hard,
    pwi_mixture,
    random_baseline_spec,
)
from topicforge.corpus import tokenize
from topicforge.metric import report_to_csv, report_to_json

from oracles import pwi_oracle_hard, pwi_oracle_mixture


def corpus_stats(texts, min_count=1):
    docs = [Document(id=f"d{i}", raw=t) for i, t in enumerate(texts)]
    vocab = build_vocabulary(docs, min_count=min_count)
    indexed = index_documents(docs, vocab)
    return indexed, vocab, build_stats(indexed, vocab)


def hand_stats():
    # d0 = "a a b", d1 = "b c c": N = 6, every word appears twice.
    return corpus_stats(["a a b", "b c c"])


class TestBuildStats:
    def test_counts(self):
        _, vocab, stats = hand_stats()
        assert stats.total_tokens == 6
        assert stats.doc_totals.tolist() == [3, 3]
        assert stats.word_counts.tolist() == [2, 2, 2]
        a = vocab.index["a"]
        assert stats.joint[0][a] == 2
        assert a not in stats.joint[1]

    def test_requires_indexed_documents(self):
        docs = [Document(id="d0", raw="a a b")]
        vocab = build_vocabulary(docs, min_count=1)
        with pytest.raises(ValidationError, match="indexed"):
            build_stats(docs, vocab)

    def test_rejects_tokenless_corpus(self):
        docs = [Document(id="d0", raw="a b")]
        vocab = build_vocabulary(docs, min_count=1)
        empty = [
            Document(id="d0", raw="", tokens=np.array([], dtype=np.int64))
        ]
        with pytest.raises(ValidationError, match="no vocabulary tokens"):
            build_stats(empty, vocab)
        with pytest.raises(ValidationError, match="no vocabulary tokens"):
            build_stats([], vocab)

    def test_joint_rows_are_dicts_in_first_occurrence_order(self):
        # Callers take len() of each row to count non-zeros, so the rows
        # must stay plain dicts of word index -> count.
        rng = np.random.default_rng(19)
        for _ in range(5):
            texts, _ = random_corpus(rng)
            indexed, vocab, stats = corpus_stats(texts)
            pairs = 0
            word_counts = np.zeros(len(vocab), dtype=np.int64)
            for doc, row in zip(indexed, stats.joint):
                tokens = doc.tokens.tolist()
                assert type(row) is dict
                assert list(row) == list(dict.fromkeys(tokens))
                assert row == {w: tokens.count(w) for w in row}
                pairs += len(set(tokens))
                np.add.at(word_counts, tokens, 1)
            assert sum(len(row) for row in stats.joint) == pairs
            assert stats.word_counts.dtype == np.int64
            assert stats.word_counts.tolist() == word_counts.tolist()


class TestHandValues:
    def test_pointwise(self):
        _, vocab, stats = hand_stats()
        # P(d0,a) = 1/3, P(d0) = 1/2, P(a) = 1/3: one bit of lift.
        assert pointwise_pwi(stats, 0, vocab.index["a"]) == pytest.approx(1 / 3)
        # b is spread evenly, so its pointwise term vanishes.
        assert pointwise_pwi(stats, 0, vocab.index["b"]) == pytest.approx(0.0)
        assert pointwise_pwi(stats, 1, vocab.index["a"]) == 0.0

    def test_mutual_information(self):
        _, _, stats = hand_stats()
        assert mutual_information(stats) == pytest.approx(2 / 3)

    def test_hard_score(self):
        _, _, stats = hand_stats()
        spec = TopicSpec(
            mode="hard",
            topics=(("a",), ("c",)),
            assignments={"d0": 0, "d1": 1},
        )
        assert pwi_hard(spec, stats) == pytest.approx(2.0)

    def test_evenly_spread_word_contributes_nothing(self):
        _, _, stats = hand_stats()
        with_b = TopicSpec(
            mode="hard",
            topics=(("a", "b"), ("c", "b")),
            assignments={"d0": 0, "d1": 1},
        )
        assert pwi_hard(with_b, stats) == pytest.approx(2.0)

    def test_one_hot_mixture_equals_hard(self):
        _, _, stats = hand_stats()
        hard = TopicSpec(
            mode="hard",
            topics=(("a",), ("c",)),
            assignments={"d0": 0, "d1": 1},
        )
        mixture = TopicSpec(
            mode="mixture",
            topics=(("a",), ("c",)),
            proportions={"d0": (1.0, 0.0), "d1": (0.0, 1.0)},
        )
        assert pwi_mixture(mixture, stats) == pwi_hard(hard, stats)


def random_corpus(rng):
    vocab_size = int(rng.integers(3, 15))
    words = [f"w{i}" for i in range(vocab_size)]
    texts = []
    for _ in range(int(rng.integers(2, 12))):
        length = int(rng.integers(1, 30))
        texts.append(" ".join(words[i] for i in rng.integers(0, vocab_size, length)))
    return texts, words


def random_hard_spec(rng, doc_ids, words):
    n_topics = int(rng.integers(1, 5))
    topics = tuple(
        tuple(
            words[i]
            for i in rng.choice(len(words), size=min(3, len(words)), replace=False)
        )
        for _ in range(n_topics)
    )
    assignments = {d: int(rng.integers(n_topics)) for d in doc_ids}
    return TopicSpec(mode="hard", topics=topics, assignments=assignments)


def random_mixture_spec(rng, doc_ids, words):
    n_topics = int(rng.integers(1, 5))
    topics = tuple(
        tuple(
            words[i]
            for i in rng.choice(len(words), size=min(3, len(words)), replace=False)
        )
        for _ in range(n_topics)
    )
    proportions = {}
    for d in doc_ids:
        row = rng.random(n_topics) + 1e-3
        proportions[d] = tuple(row / row.sum())
    return TopicSpec(mode="mixture", topics=topics, proportions=proportions)


class TestOracleEquivalence:
    def test_hard_matches_triple_sum(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            texts, _ = random_corpus(rng)
            indexed, vocab, stats = corpus_stats(texts)
            doc_tokens = {d.id: tokenize(d.raw) for d in indexed}
            spec = random_hard_spec(rng, stats.doc_ids, list(vocab.words))
            topic_docs = [
                [d for d, t in spec.assignments.items() if t == k]
                for k in range(spec.n_topics)
            ]
            expected = pwi_oracle_hard(doc_tokens, spec.topics, topic_docs)
            got = pwi_hard(spec, stats)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_mixture_matches_triple_sum(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            texts, _ = random_corpus(rng)
            indexed, vocab, stats = corpus_stats(texts)
            doc_tokens = {d.id: tokenize(d.raw) for d in indexed}
            spec = random_mixture_spec(rng, stats.doc_ids, list(vocab.words))
            proportions = [spec.proportions[d] for d in stats.doc_ids]
            expected = pwi_oracle_mixture(
                doc_tokens, stats.doc_ids, proportions, spec.topics
            )
            got = pwi_mixture(spec, stats)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_mixture_per_topic_matches_triple_sum(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            texts, _ = random_corpus(rng)
            indexed, vocab, stats = corpus_stats(texts)
            doc_tokens = {d.id: tokenize(d.raw) for d in indexed}
            spec = random_mixture_spec(rng, stats.doc_ids, list(vocab.words))
            report = evaluate(spec, stats, top_n=3)
            for t, score in enumerate(report.per_topic):
                column = [(spec.proportions[d][t],) for d in stats.doc_ids]
                expected = pwi_oracle_mixture(
                    doc_tokens, stats.doc_ids, column, (spec.topics[t],)
                )
                assert score.pwi == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_one_hot_mixture_equals_hard_on_random_corpora(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            texts, _ = random_corpus(rng)
            _, vocab, stats = corpus_stats(texts)
            hard = random_hard_spec(rng, stats.doc_ids, list(vocab.words))
            one_hot = {
                d: tuple(
                    1.0 if k == t else 0.0 for k in range(hard.n_topics)
                )
                for d, t in hard.assignments.items()
            }
            mixture = TopicSpec(
                mode="mixture", topics=hard.topics, proportions=one_hot
            )
            # Same documents in the same order: the weight-1 members are
            # scored in the same order, so the sums are bit-equal.
            assert pwi_mixture(mixture, stats) == pwi_hard(hard, stats)


class TestSpecValidation:
    def good_kwargs(self):
        return dict(
            mode="hard", topics=(("a",),), assignments={"d0": 0}
        )

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError):
            TopicSpec(mode="soft", topics=(("a",),), assignments={"d0": 0})

    def test_rejects_empty_topics(self):
        with pytest.raises(ValidationError):
            TopicSpec(mode="hard", topics=(), assignments={})

    def test_rejects_missing_assignments(self):
        with pytest.raises(ValidationError):
            TopicSpec(mode="hard", topics=(("a",),))

    def test_rejects_assignment_out_of_range(self):
        with pytest.raises(ValidationError):
            TopicSpec(mode="hard", topics=(("a",),), assignments={"d0": 1})

    def test_rejects_bad_proportions(self):
        topics = (("a",), ("b",))
        with pytest.raises(ValidationError, match="proportions"):
            TopicSpec(mode="mixture", topics=topics, proportions={"d0": (1.0,)})
        with pytest.raises(ValidationError, match="negative"):
            TopicSpec(
                mode="mixture", topics=topics, proportions={"d0": (1.5, -0.5)}
            )
        with pytest.raises(ValidationError, match="sum"):
            TopicSpec(
                mode="mixture", topics=topics, proportions={"d0": (0.5, 0.4)}
            )
        with pytest.raises(ValidationError, match="'d0' has .*non-finite"):
            TopicSpec(
                mode="mixture",
                topics=topics,
                proportions={"d0": (math.nan, 1.0)},
            )

    def test_accepts_tiny_proportion_slack(self):
        TopicSpec(
            mode="mixture",
            topics=(("a",), ("b",)),
            proportions={"d0": (0.5, 0.5 + 5e-7)},
        )

    def test_pwi_rejects_partition_gaps(self):
        _, _, stats = hand_stats()
        missing = TopicSpec(
            mode="hard", topics=(("a",),), assignments={"d0": 0}
        )
        with pytest.raises(ValidationError, match="unassigned"):
            pwi_hard(missing, stats)
        extra = TopicSpec(
            mode="hard",
            topics=(("a",),),
            assignments={"d0": 0, "d1": 0, "ghost": 0},
        )
        with pytest.raises(ValidationError, match="not in corpus"):
            pwi_hard(extra, stats)

    def test_pwi_rejects_unknown_words(self):
        _, _, stats = hand_stats()
        spec = TopicSpec(
            mode="hard",
            topics=(("a", "zzz"),),
            assignments={"d0": 0, "d1": 0},
        )
        with pytest.raises(ValidationError, match="zzz"):
            pwi_hard(spec, stats)

    def test_pwi_rejects_wrong_mode(self):
        _, _, stats = hand_stats()
        hard = TopicSpec(
            mode="hard", topics=(("a",),), assignments={"d0": 0, "d1": 0}
        )
        with pytest.raises(ValidationError):
            pwi_mixture(hard, stats)


class TestEvaluate:
    def spec_and_stats(self):
        _, _, stats = hand_stats()
        spec = TopicSpec(
            mode="hard",
            topics=(("a", "b"), ("c", "b")),
            assignments={"d0": 0, "d1": 1},
        )
        return spec, stats

    def test_per_topic_scores_sum_to_total(self):
        spec, stats = self.spec_and_stats()
        report = evaluate(spec, stats, top_n=2)
        assert report.total == pytest.approx(sum(s.pwi for s in report.per_topic))
        assert report.total == pytest.approx(2.0)
        assert [s.topic_id for s in report.per_topic] == [0, 1]

    def test_top_n_truncates_words(self):
        spec, stats = self.spec_and_stats()
        report = evaluate(spec, stats, top_n=1)
        assert report.per_topic[0].words == ("a",)
        assert report.total == pytest.approx(2.0)

    def test_clamps_with_warning(self):
        spec, stats = self.spec_and_stats()
        with pytest.warns(UserWarning, match="clamping"):
            report = evaluate(spec, stats, top_n=5)
        assert report.per_topic[0].words == ("a", "b")

    def test_rejects_bad_top_n(self):
        spec, stats = self.spec_and_stats()
        with pytest.raises(ValidationError):
            evaluate(spec, stats, top_n=0)

    def test_json_report_round_trips(self):
        spec, stats = self.spec_and_stats()
        report = evaluate(spec, stats, top_n=2)
        data = json.loads(report_to_json(report))
        assert data["mode"] == "hard"
        assert data["n_topics"] == 2
        assert data["total_pwi"] == pytest.approx(2.0)
        assert data["topics"][0]["words"] == ["a", "b"]

    def test_csv_report_exact_floats(self):
        spec, stats = self.spec_and_stats()
        report = evaluate(spec, stats, top_n=2)
        lines = report_to_csv(report).strip().splitlines()
        assert lines[0] == "topic_id,pwi,words"
        assert len(lines) == 4
        total_row = lines[-1].split(",")
        assert total_row[0] == "total"
        assert float(total_row[1]) == report.total


class TestRandomBaseline:
    def test_is_a_valid_partition(self):
        texts, _ = random_corpus(np.random.default_rng(23))
        _, vocab, stats = corpus_stats(texts)
        spec = random_baseline_spec(stats.doc_ids, vocab, 3, 2, seed=0)
        assert spec.mode == "hard"
        assert set(spec.assignments) == set(stats.doc_ids)
        for topic in spec.topics:
            assert len(set(topic)) == len(topic) == 2
        pwi_hard(spec, stats)  # scores without raising

    def test_seeded(self):
        texts, _ = random_corpus(np.random.default_rng(24))
        _, vocab, stats = corpus_stats(texts)
        a = random_baseline_spec(stats.doc_ids, vocab, 3, 2, seed=5)
        b = random_baseline_spec(stats.doc_ids, vocab, 3, 2, seed=5)
        c = random_baseline_spec(stats.doc_ids, vocab, 3, 2, seed=6)
        assert a == b
        assert a != c

    def test_rejects_oversized_word_draw(self):
        texts, _ = random_corpus(np.random.default_rng(25))
        _, vocab, stats = corpus_stats(texts)
        with pytest.raises(ValidationError):
            random_baseline_spec(stats.doc_ids, vocab, 2, len(vocab) + 1, seed=0)


class TestLoadExternalTopics:
    def write(self, tmp_path, payload):
        path = tmp_path / "topics.json"
        path.write_text(
            payload if isinstance(payload, str) else json.dumps(payload)
        )
        return str(path)

    def vocab(self):
        _, vocab, _ = hand_stats()
        return vocab

    def test_loads_hard_spec(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "mode": "hard",
                "topics": [{"words": ["a"]}, {"words": ["c"]}],
                "assignments": {"d0": 0, "d1": 1},
            },
        )
        spec = load_external_topics(path, self.vocab())
        assert spec.topics == (("a",), ("c",))
        assert spec.assignments == {"d0": 0, "d1": 1}

    def test_loads_mixture_spec(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "mode": "mixture",
                "topics": [{"words": ["a"]}, {"words": ["c"]}],
                "proportions": {"d0": [0.7, 0.3], "d1": [0.2, 0.8]},
            },
        )
        spec = load_external_topics(path, self.vocab())
        assert spec.mode == "mixture"
        assert spec.proportions["d0"] == (0.7, 0.3)

    @pytest.mark.parametrize(
        "payload,match",
        [
            ("{not json", "not valid JSON"),
            ("[1, 2]", "object"),
            ({"mode": "fuzzy", "topics": [{"words": ["a"]}]}, "mode"),
            ({"mode": "hard", "topics": []}, "non-empty"),
            ({"mode": "hard", "topics": [{"terms": ["a"]}]}, "words"),
            ({"mode": "hard", "topics": [{"words": ["a", 3]}]}, "strings"),
            (
                {
                    "mode": "hard",
                    "topics": [{"words": ["a"]}, {"words": ["b", "c"]}],
                    "assignments": {"d0": 0, "d1": 1},
                },
                "same number",
            ),
            (
                {
                    "mode": "hard",
                    "topics": [{"words": ["zebra"]}],
                    "assignments": {"d0": 0, "d1": 0},
                },
                "zebra",
            ),
            ({"mode": "hard", "topics": [{"words": ["a"]}]}, "assignments"),
            (
                {
                    "mode": "hard",
                    "topics": [{"words": ["a"]}],
                    "assignments": {"d0": True},
                },
                "integer",
            ),
            ({"mode": "mixture", "topics": [{"words": ["a"]}]}, "proportions"),
            (
                {
                    "mode": "mixture",
                    "topics": [{"words": ["a"]}],
                    "proportions": {"d0": ["high"]},
                },
                "numbers",
            ),
            (
                {
                    "mode": "mixture",
                    "topics": [{"words": ["a"]}, {"words": ["c"]}],
                    "proportions": {"d0": [math.nan, 1.0], "d1": [0.0, 1.0]},
                },
                "non-finite",
            ),
        ],
    )
    def test_rejects_malformed_files(self, tmp_path, payload, match):
        path = self.write(tmp_path, payload)
        with pytest.raises(ValidationError, match=match):
            load_external_topics(path, self.vocab())

    @pytest.mark.parametrize(
        "row,message",
        [
            ([True, 0.0], "{path}: proportions['d1'] must be a list of numbers"),
            (["0.5", 0.5], "{path}: proportions['d1'] must be a list of numbers"),
            ([None, 1.0], "{path}: proportions['d1'] must be a list of numbers"),
            ({"a": 1.0}, "{path}: proportions['d1'] must be a list of numbers"),
            ([math.nan, 1.0], "document 'd1' has a negative or non-finite proportion"),
            ([math.inf, 1.0], "document 'd1' has a negative or non-finite proportion"),
            ([1.5, -0.5], "document 'd1' has a negative or non-finite proportion"),
            ([0.5, 0.4], "proportions for document 'd1' sum to 0.9, not 1"),
            ([1], "document 'd1' has 1 proportions, expected 2"),
        ],
    )
    def test_mixture_row_messages(self, tmp_path, row, message):
        path = self.write(
            tmp_path,
            {
                "mode": "mixture",
                "topics": [{"words": ["a"]}, {"words": ["c"]}],
                "proportions": {"d0": [1, 0], "d1": row},
            },
        )
        with pytest.raises(ValidationError) as excinfo:
            load_external_topics(path, self.vocab())
        assert str(excinfo.value) == message.format(path=path)

    def test_mixture_rows_become_float_tuples(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "mode": "mixture",
                "topics": [{"words": ["a"]}, {"words": ["c"]}],
                "proportions": {"d0": [1, 0], "d1": [0.25, 0.75]},
            },
        )
        proportions = load_external_topics(path, self.vocab()).proportions
        assert proportions == {"d0": (1.0, 0.0), "d1": (0.25, 0.75)}
        assert {type(p) for row in proportions.values() for p in row} == {float}
