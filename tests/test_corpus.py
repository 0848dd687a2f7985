"""Tokenization, vocabulary construction, and corpus loading."""

import json
import math
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicforge import (
    CorpusError,
    Document,
    EmptyVocabularyError,
    ValidationError,
    build_vocabulary,
    index_documents,
    load_corpus,
    tokenize,
)
from topicforge.corpus import keep_probabilities, scan_tokens

from oracles import index_oracle, vocabulary_oracle


def subsample_keep_probability(frequency_ratio, threshold):
    """Probability of keeping a word occurrence during training.

    ``min(1, sqrt(threshold / frequency_ratio))``, one word at a time: the
    scalar reference for ``keep_probabilities``.
    """
    if not frequency_ratio > 0.0:
        raise ValueError(f"frequency ratio must be positive, got {frequency_ratio}")
    if not threshold > 0.0:
        raise ValueError(f"subsample threshold must be positive, got {threshold}")
    return min(1.0, math.sqrt(threshold / frequency_ratio))


class TestTokenize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("Hello, World! It's 2024.") == [
            "hello", "world", "it", "s", "2024",
        ]

    def test_underscore_separates(self):
        assert tokenize("snake_case_name") == ["snake", "case", "name"]

    def test_digits_and_unicode_letters_survive(self):
        assert tokenize("café 42 straße") == ["café", "42", "straße"]

    def test_empty_and_symbol_only_input(self):
        assert tokenize("") == []
        assert tokenize("!!! --- ???") == []

    def test_idempotent_under_rejoin(self):
        rng = np.random.default_rng(0)
        alphabet = "abc XY,.z12_-'"
        for _ in range(50):
            text = "".join(
                alphabet[i] for i in rng.integers(0, len(alphabet), size=40)
            )
            toks = tokenize(text)
            assert tokenize(" ".join(toks)) == toks

    @given(st.text())
    def test_matches_the_unicode_regex(self, text):
        assert tokenize(text) == re.findall(r"[^\W_]+", text.lower())

    @given(
        st.text(
            alphabet=string.ascii_letters + string.digits + string.punctuation
            + " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"
        )
    )
    def test_ascii_text_matches_the_unicode_regex(self, text):
        assert tokenize(text) == re.findall(r"[^\W_]+", text.lower())

    @pytest.mark.parametrize(
        "text,tokens",
        [
            ("İstanbul_café", ["i", "stanbul", "café"]),
            ("Kelvin \u212a sign", ["kelvin", "k", "sign"]),
            ("naïve—résumé_ABC", ["naïve", "résumé", "abc"]),
            ("\ufb01le x\u00b2 \uff13\uff14", ["\ufb01le", "x\u00b2", "\uff13\uff14"]),
            ("straße\u00a0x\u2028y_Z", ["straße", "x", "y", "z"]),
        ],
    )
    def test_mixed_ascii_and_other_text(self, text, tokens):
        assert tokenize(text) == tokens


class TestKeepProbability:
    def test_rare_word_always_kept(self):
        assert subsample_keep_probability(1e-6, 1e-5) == 1.0

    def test_at_threshold_kept(self):
        assert subsample_keep_probability(1e-5, 1e-5) == 1.0

    def test_frequent_word_damped(self):
        p = subsample_keep_probability(1e-3, 1e-5)
        assert p == pytest.approx(math.sqrt(1e-5 / 1e-3))
        assert p < 1.0

    def test_monotone_in_frequency(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = float(rng.uniform(1e-6, 1e-2))
            f1, f2 = sorted(rng.uniform(1e-6, 0.5, size=2))
            assert subsample_keep_probability(f1, t) >= subsample_keep_probability(
                f2, t
            )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            subsample_keep_probability(0.0, 1e-5)
        with pytest.raises(ValueError):
            subsample_keep_probability(0.1, 0.0)
        with pytest.raises(ValueError):
            subsample_keep_probability(0.1, float("nan"))
        with pytest.raises(ValueError):
            subsample_keep_probability(float("nan"), 1e-5)

    @pytest.mark.parametrize("threshold", [1e-5, 1e-3, 7e-3, 0.5, 1 / 3])
    def test_vectorised_form_is_bit_equal(self, threshold):
        # Counts out of a total of one million, so counts 10, 1,000, 7,000
        # and 500,000 have ratios exactly at the first four thresholds.
        counts = np.concatenate([np.arange(1, 601), [1_000, 7_000, 500_000]])
        counts = np.append(counts, 1_000_000 - counts.sum())
        total = int(counts.sum())
        expected = np.array(
            [subsample_keep_probability(int(c) / total, threshold) for c in counts]
        )
        assert np.array_equal(keep_probabilities(counts, threshold), expected)

    def test_vectorised_form_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            keep_probabilities(np.array([3, 0, 1]), 1e-5)
        with pytest.raises(ValidationError):
            keep_probabilities(np.array([3, 2, 1]), 0.0)
        with pytest.raises(ValidationError):
            keep_probabilities(np.array([3, 2, 1]), float("nan"))
        with pytest.raises(ValidationError):
            keep_probabilities(np.array([3.0, np.nan, 1.0]), 1e-5)


class TestBuildVocabulary:
    def docs(self):
        return [
            Document(id="a", raw="apple apple apple banana banana cherry"),
            Document(id="b", raw="apple banana fig"),
        ]

    def test_orders_by_count_then_word(self):
        vocab = build_vocabulary(self.docs(), min_count=1)
        assert vocab.words == ("apple", "banana", "cherry", "fig")
        assert vocab.counts.tolist() == [4, 3, 1, 1]

    def test_min_count_filters(self):
        vocab = build_vocabulary(self.docs(), min_count=3)
        assert vocab.words == ("apple", "banana")
        # total_tokens still counts the filtered words' occurrences
        assert vocab.total_tokens == 9
        assert int(vocab.counts.sum()) == 7

    def test_tie_break_is_alphabetical(self):
        docs = [Document(id="0", raw="pear kiwi pear kiwi lime lime")]
        vocab = build_vocabulary(docs, min_count=1)
        assert vocab.words == ("kiwi", "lime", "pear")

    def test_keep_probability_uses_retained_mass(self):
        vocab = build_vocabulary(self.docs(), min_count=3, subsample_threshold=0.5)
        expected = [min(1.0, math.sqrt(0.5 / (c / 7))) for c in (4, 3)]
        assert vocab.keep_probability.tolist() == pytest.approx(expected)

    def test_index_lookup(self):
        vocab = build_vocabulary(self.docs(), min_count=1)
        assert vocab.index["apple"] == 0
        assert "apple" in vocab
        assert "durian" not in vocab

    def test_empty_vocabulary_raises(self):
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary(self.docs(), min_count=10)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            build_vocabulary(self.docs(), min_count=0)
        with pytest.raises(ValidationError):
            build_vocabulary(self.docs(), subsample_threshold=0.0)
        with pytest.raises(ValidationError):
            build_vocabulary(self.docs(), subsample_threshold=float("nan"))


def index_by_comprehension(docs, vocab):
    """Token ids of each document, one Python lookup per token."""
    return [
        np.array(
            [vocab.index[t] for t in tokenize(d.raw) if t in vocab.index],
            dtype=np.int64,
        )
        for d in docs
    ]


class TestIndexDocuments:
    def test_equals_the_comprehension(self):
        docs = [
            Document(id="a", raw="Apple, banana_apple! cherry"),
            Document(id="b", raw="zzz yyy unseen"),
            Document(id="c", raw=""),
            Document(id="d", raw="!!! ---"),
            Document(id="e", raw="café Straße apple café banana"),
            Document(id="f", raw="İstanbul_café cherry"),
        ]
        train_docs = [
            Document(id="v", raw="apple banana cherry café straße"),
            Document(id="w", raw="apple banana cherry café straße"),
        ]
        vocab = build_vocabulary(train_docs, min_count=2)
        indexed = index_documents(docs, vocab)
        for doc, expected in zip(indexed, index_by_comprehension(docs, vocab)):
            assert doc.tokens.dtype == np.int64
            assert np.array_equal(doc.tokens, expected)
        assert [len(d) for d in indexed] == [4, 0, 0, 0, 5, 2]

    def test_maps_tokens_and_drops_oov(self):
        docs = [
            Document(id="a", raw="apple banana apple"),
            Document(id="b", raw="cherry banana"),
        ]
        vocab = build_vocabulary(docs, min_count=2)
        indexed = index_documents(docs, vocab)
        assert indexed[0].tokens.tolist() == [
            vocab.index["apple"], vocab.index["banana"], vocab.index["apple"],
        ]
        assert indexed[1].tokens.tolist() == [vocab.index["banana"]]

    def test_keeps_empty_documents(self):
        docs = [
            Document(id="a", raw="apple apple"),
            Document(id="b", raw="zzz yyy"),
        ]
        vocab = build_vocabulary(docs, min_count=2)
        indexed = index_documents(docs, vocab)
        assert len(indexed) == 2
        assert len(indexed[1]) == 0


# Pieces of corpus text: ASCII and other scripts, a final sigma, a dotted
# capital I, composed and combining accents, digits, and separators down to
# NUL and a lone surrogate.  Few distinct words, so counts tie often.
TEXT_PIECES = [
    "a", "ab", "Ab", "x1", "7", "\u03a3\u0391\u03a3", "\u03c3\u03b1\u03c2",
    "\u0130", "caf\u00e9", "cafe\u0301", "\u0301", "snake_case", " ", "_",
    "\r", "\x00", "\ud800", "\u00a0", ",",
]
corpus_texts = st.lists(
    st.lists(st.sampled_from(TEXT_PIECES), max_size=16).map("".join)
    | st.text(max_size=12),
    max_size=10,
)


class TestOnePass:
    """One tokenizing pass against the per-document loops it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(corpus_texts, st.sampled_from([1, 3]))
    def test_matches_the_per_document_loops(self, texts, min_count):
        docs = [Document(id=str(i), raw=t) for i, t in enumerate(texts)]
        try:
            words, counts, total, keep = vocabulary_oracle(docs, min_count, 1e-2)
        except ValueError as exc:
            with pytest.raises(EmptyVocabularyError) as info:
                build_vocabulary(docs, min_count, 1e-2)
            assert str(info.value) == str(exc)
            return
        scan = scan_tokens(docs)
        for vocab in (
            build_vocabulary(docs, min_count, 1e-2),
            build_vocabulary(docs, min_count, 1e-2, scan=scan),
        ):
            assert vocab.words == tuple(words)
            assert vocab.counts.dtype == np.int64
            assert vocab.counts.tolist() == counts
            assert type(vocab.total_tokens) is int and vocab.total_tokens == total
            assert vocab.keep_probability.tolist() == keep
        for indexed in (
            index_documents(docs, vocab),
            index_documents(docs, vocab, scan=scan),
        ):
            for doc, expected in zip(indexed, index_oracle(docs, vocab.index), strict=True):
                assert doc.tokens.dtype == np.int64
                assert doc.tokens.tolist() == expected.tolist()

    @settings(max_examples=100, deadline=None)
    @given(corpus_texts, corpus_texts)
    def test_indexes_against_another_corpus_vocabulary(self, texts, others):
        # As ``evaluate --model`` does with the archive's vocabulary.
        docs = [Document(id=str(i), raw=t) for i, t in enumerate(texts)]
        source = [Document(id=str(i), raw=t) for i, t in enumerate(others + ["a"])]
        vocab = build_vocabulary(source, min_count=1)
        got = index_documents(docs, vocab)
        for doc, expected in zip(got, index_oracle(docs, vocab.index), strict=True):
            assert doc.tokens.dtype == np.int64
            assert doc.tokens.tolist() == expected.tolist()

    def test_numbers_words_as_they_come(self):
        docs = [
            Document(id="a", raw="b a b"),
            Document(id="b", raw=""),
            Document(id="c", raw="c, A"),
        ]
        scan = scan_tokens(docs)
        assert scan.words == ["b", "a", "c"]
        assert scan.ids.tolist() == [0, 1, 0, 2, 1]
        assert scan.ends.tolist() == [3, 3, 5]

    def test_rejects_a_scan_of_other_documents(self):
        docs = [Document(id="a", raw="apple apple"), Document(id="b", raw="apple")]
        scan = scan_tokens(docs[:1])
        with pytest.raises(ValidationError, match="covers 1 documents, not 2"):
            build_vocabulary(docs, min_count=1, scan=scan)
        vocab = build_vocabulary(docs, min_count=1)
        with pytest.raises(ValidationError, match="covers 1 documents, not 2"):
            index_documents(docs, vocab, scan=scan)


class TestLoadCorpus:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [
            {"id": "x", "text": "first document"},
            {"text": "second has no id"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
        docs = load_corpus(str(path))
        assert [(d.id, d.raw) for d in docs] == [
            ("x", "first document"),
            ("1", "second has no id"),
        ]

    def test_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "a"}\n\n{"text": "b"}\n')
        assert len(load_corpus(str(path))) == 2

    def test_plain_format(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("line one\nline two\n")
        docs = load_corpus(str(path), fmt="plain")
        assert [(d.id, d.raw) for d in docs] == [("0", "line one"), ("1", "line two")]

    @pytest.mark.parametrize(
        "separator", ["\u2028", "\u0085"], ids=["U+2028", "U+0085"]
    )
    def test_jsonl_record_keeps_unicode_line_separators(self, tmp_path, separator):
        path = tmp_path / "corpus.jsonl"
        text = f"one{separator}two"
        record = json.dumps({"id": "a", "text": text}, ensure_ascii=False)
        path.write_text(
            record + "\n" + json.dumps({"text": "b"}) + "\n", encoding="utf-8"
        )
        docs = load_corpus(str(path))
        assert [(d.id, d.raw) for d in docs] == [("a", text), ("1", "b")]

    @pytest.mark.parametrize(
        "separator", ["\u2028", "\u0085"], ids=["U+2028", "U+0085"]
    )
    def test_plain_line_keeps_unicode_line_separators(self, tmp_path, separator):
        path = tmp_path / "corpus.txt"
        path.write_bytes(f"one{separator}two\r\nthree\rfour\n".encode("utf-8"))
        docs = load_corpus(str(path), fmt="plain")
        assert [d.raw for d in docs] == [f"one{separator}two", "three", "four"]

    @pytest.mark.parametrize("fmt", ["jsonl", "plain"])
    def test_invalid_utf8_names_the_file(self, tmp_path, fmt):
        path = tmp_path / "latin1.txt"
        path.write_bytes('{"text": "caf\xe9"}\n'.encode("latin-1"))
        with pytest.raises(CorpusError, match="latin1.txt: not valid UTF-8"):
            load_corpus(str(path), fmt=fmt)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok"}\n{not json}\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(str(path))

    def test_non_object_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('["not", "an", "object"]\n')
        with pytest.raises(CorpusError, match="object"):
            load_corpus(str(path))

    def test_missing_text_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(CorpusError, match="text"):
            load_corpus(str(path))

    def test_wrong_text_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": 5}\n')
        with pytest.raises(CorpusError, match="string"):
            load_corpus(str(path))

    def test_wrong_id_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 3, "text": "a"}\n')
        with pytest.raises(CorpusError, match="^line 1: id must be a string, got 3$"):
            load_corpus(str(path))

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(str(path))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_corpus(str(tmp_path / "whatever"), fmt="xml")

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(str(tmp_path / "nope.jsonl"))
