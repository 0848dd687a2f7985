"""Archive format: round trips, field fidelity, and corruption rejection."""

import dataclasses
import functools
import gc
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicforge import (
    ArchiveError,
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
    cluster,
    hs_probability,
    load_model,
    persistence,
    reduce,
    reduce_topics,
    save_model,
    train,
    train_step_dbow,
    train_step_skipgram,
)
from topicforge.cli import _write_manifest
from topicforge.persistence import FORMAT_VERSION, archive_from_bytes, archive_to_bytes

from conftest import make_two_theme_docs, mutate_header


@functools.cache
def build_archive():
    docs, _ = make_two_theme_docs(25, seed=9)
    emb_cfg = EmbeddingConfig(
        vector_size=12,
        window=4,
        epochs=6,
        min_count=2,
        subsample_threshold=1e-2,
        seed=1,
    )
    red_cfg = ReductionConfig(
        n_neighbors=8, n_components=3, layout_epochs=60, seed=1
    )
    clu_cfg = ClusterConfig(min_cluster_size=5)
    embedding = train(docs, emb_cfg)
    coords = reduce(embedding.doc_vectors, red_cfg)
    labeling = cluster(coords, clu_cfg)
    model = build_topic_model(embedding, labeling)
    return ModelArchive.from_pipeline(
        embedding, coords, labeling, model, emb_cfg, red_cfg, clu_cfg
    )


@pytest.fixture(scope="module")
def archive():
    return build_archive()


@pytest.fixture(scope="module")
def merged_archive(archive):
    """The test archive reduced to one topic, so it has a merge history."""
    if archive.topic_model.n_topics < 2:
        pytest.skip("needs at least two topics to merge")
    return dataclasses.replace(
        archive, topic_model=reduce_topics(archive.topic_model, 1)
    )


def header_at(header, path):
    """The header object at a path such as ``vocabulary`` or ``merge_history[0]``."""
    for part in re.findall(r"[a-z_]+|\d+", path):
        header = header[int(part) if part.isdigit() else part]
    return header


def set_record(**values):
    """A header tamper that sets fields of the first merge record."""

    def tamper(h):
        h["merge_history"][0].update(values)

    return tamper


@functools.cache
def archive_bytes():
    return archive_to_bytes(build_archive())


class TestRoundTrip:
    def test_bytes_are_stable(self, archive):
        data = archive_to_bytes(archive)
        loaded = archive_from_bytes(data)
        assert archive_to_bytes(loaded) == data

    def test_declares_four_blocks(self, archive):
        # The header states no block shape: the bytes after it are the four
        # arrays in _MATRIX_NAMES order, each sized from the header's counts.
        assert persistence._MATRIX_NAMES == (
            "doc_vectors",
            "word_vectors",
            "reduced_coords",
            "topic_vectors",
        )
        embedding = archive.embedding
        blocks = (
            embedding.doc_vectors,
            embedding.word_vectors,
            archive.reduced_coords,
            archive.topic_model.vectors,
        )
        data = archive_to_bytes(archive)
        (header_len,) = struct.unpack("<I", data[8:12])
        assert data[12 + header_len :] == b"".join(
            np.ascontiguousarray(block, dtype="<f4").tobytes() for block in blocks
        )

    def test_vocabulary_repeats_no_config_value(self, archive):
        data = archive_to_bytes(archive)
        (header_len,) = struct.unpack("<I", data[8:12])
        header = json.loads(data[12 : 12 + header_len])
        assert set(header["vocabulary"]) == {"words", "counts"}

    def test_header_stores_nothing_derived(self, archive):
        # Topic words are ranked on read and the cluster count is the
        # number of stabilities, so neither is stored.
        data = archive_to_bytes(archive)
        (header_len,) = struct.unpack("<I", data[8:12])
        header = json.loads(data[12 : 12 + header_len])
        assert "topic_words" not in header
        assert "n_clusters" not in header
        assert "matrices" not in header
        assert set(header["cluster_config"]) == {"min_cluster_size"}

    def test_file_round_trip(self, archive, tmp_path):
        path = str(tmp_path / "model.tpfg")
        save_model(archive, path)
        loaded = load_model(path)
        assert archive_to_bytes(loaded) == archive_to_bytes(archive)

    def test_fields_survive(self, archive):
        loaded = archive_from_bytes(archive_to_bytes(archive))
        assert loaded.embedding_config == archive.embedding_config
        assert loaded.reduction_config == archive.reduction_config
        assert loaded.cluster_config == archive.cluster_config
        assert loaded.embedding.doc_ids == archive.embedding.doc_ids
        assert loaded.embedding.vocabulary.words == archive.embedding.vocabulary.words
        assert np.array_equal(
            loaded.embedding.vocabulary.counts, archive.embedding.vocabulary.counts
        )
        assert np.array_equal(
            loaded.embedding.vocabulary.keep_probability,
            archive.embedding.vocabulary.keep_probability,
        )
        assert loaded.embedding.epoch_losses == archive.embedding.epoch_losses
        assert np.array_equal(loaded.labeling.labels, archive.labeling.labels)
        assert loaded.labeling.n_clusters == archive.labeling.n_clusters
        assert np.array_equal(
            loaded.topic_model.assignment, archive.topic_model.assignment
        )
        for a, b in zip(loaded.topic_model.topics, archive.topic_model.topics):
            assert a.words == b.words
            assert a.size == b.size
            assert a.provenance == b.provenance
            assert a.member_doc_ids == b.member_doc_ids

    def test_matrices_bit_identical(self, archive):
        loaded = archive_from_bytes(archive_to_bytes(archive))
        assert np.array_equal(
            loaded.embedding.doc_vectors, archive.embedding.doc_vectors
        )
        assert np.array_equal(
            loaded.embedding.word_vectors, archive.embedding.word_vectors
        )
        assert np.array_equal(loaded.reduced_coords, archive.reduced_coords)
        assert np.array_equal(
            loaded.topic_model.vectors,
            archive.topic_model.vectors,
        )

    def test_loaded_model_has_no_output_layer(self, archive, tmp_path):
        # The file stores no inner-node vectors, so neither the archive in
        # memory nor a loaded one carries a coding, and every step refuses.
        assert archive.embedding.coding is None
        path = str(tmp_path / "model.tpfg")
        save_model(archive, path)
        embedding = load_model(path).embedding
        assert embedding.coding is None
        steps = (
            lambda: train_step_skipgram(embedding, 0, 1, 0.025),
            lambda: train_step_dbow(embedding, 0, 1, 0.025),
            lambda: hs_probability(embedding.word_vectors[0], 1, embedding.coding),
        )
        for step in steps:
            with pytest.raises(ValidationError, match="no hierarchical-softmax"):
                step()

    def test_merge_history_survives(self, archive):
        if archive.topic_model.n_topics < 2:
            pytest.skip("needs at least two topics to merge")
        reduced = reduce_topics(archive.topic_model, 1)
        smaller = ModelArchive.from_pipeline(
            archive.embedding,
            archive.reduced_coords,
            archive.labeling,
            reduced,
            archive.embedding_config,
            archive.reduction_config,
            archive.cluster_config,
        )
        loaded = archive_from_bytes(archive_to_bytes(smaller))
        assert loaded.topic_model.merge_history == reduced.merge_history


class TestRejection:
    def test_bad_magic(self, archive):
        data = archive_to_bytes(archive)
        with pytest.raises(ArchiveError, match="magic"):
            archive_from_bytes(b"XXXX" + data[4:])

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9, 99])
    def test_unsupported_version(self, archive, version):
        data = archive_to_bytes(archive)
        stamped = data[:4] + struct.pack("<I", version) + data[8:]
        expected = rf"unsupported archive version {version} \(expected {FORMAT_VERSION}\)"
        with pytest.raises(ArchiveError, match=expected):
            archive_from_bytes(stamped)

    def test_too_short(self):
        with pytest.raises(ArchiveError, match="truncated"):
            archive_from_bytes(b"TPFG\x01")

    def test_truncated_header(self, archive):
        data = archive_to_bytes(archive)
        with pytest.raises(ArchiveError, match="truncated inside the header"):
            archive_from_bytes(data[:20])

    def test_garbled_header(self, archive):
        data = archive_to_bytes(archive)
        (header_len,) = struct.unpack("<I", data[8:12])
        garbled = data[:12] + b"x" * header_len + data[12 + header_len :]
        with pytest.raises(ArchiveError, match="not valid JSON"):
            archive_from_bytes(garbled)

    def test_missing_header_key(self, archive):
        data = mutate_header(
            archive_to_bytes(archive), lambda h: h.pop("labels")
        )
        with pytest.raises(ArchiveError, match="'labels'"):
            archive_from_bytes(data)

    @pytest.mark.parametrize(
        "path,key",
        [("vocabulary", "counts"), ("reduction_config", "seed")],
    )
    def test_missing_nested_key(self, archive, path, key):
        data = mutate_header(
            archive_to_bytes(archive), lambda h: header_at(h, path).pop(key)
        )
        with pytest.raises(ArchiveError) as excinfo:
            archive_from_bytes(data)
        assert str(excinfo.value) == f"archive header is missing '{path}.{key}'"

    def test_config_section_with_an_unknown_field(self, archive):
        def widen(h):
            # Format 5's reduction setting, now a constant.
            h["reduction_config"]["negative_sample_rate"] = 5

        data = mutate_header(archive_to_bytes(archive), widen)
        with pytest.raises(ArchiveError) as excinfo:
            archive_from_bytes(data)
        assert str(excinfo.value) == (
            "archive reduction_config has unknown fields ['negative_sample_rate']"
        )

    def test_zero_topic_row(self, archive):
        # topic_vectors is the last block, so its last row ends the file.
        row = archive.embedding_config.vector_size * 4
        data = archive_to_bytes(archive)
        data = data[:-row] + bytes(row)
        with pytest.raises(ArchiveError) as excinfo:
            archive_from_bytes(data)
        last = archive.topic_model.n_topics - 1
        assert str(excinfo.value) == f"matrix 'topic_vectors' has zero rows [{last}]"

    def test_truncated_matrix_block(self, archive):
        data = archive_to_bytes(archive)
        with pytest.raises(ArchiveError, match="truncated inside matrix"):
            archive_from_bytes(data[:-10])

    def test_trailing_bytes(self, archive):
        data = archive_to_bytes(archive)
        with pytest.raises(ArchiveError, match="trailing"):
            archive_from_bytes(data + b"\x00\x00")

    def test_label_out_of_range(self, archive):
        def tamper(h):
            h["labels"][0] = 99

        data = mutate_header(archive_to_bytes(archive), tamper)
        with pytest.raises(ArchiveError, match="labels out of range"):
            archive_from_bytes(data)

    def test_assignment_out_of_range(self, archive):
        def tamper(h):
            h["assignment"][0] = 999

        data = mutate_header(archive_to_bytes(archive), tamper)
        with pytest.raises(ArchiveError, match="assignment out of range"):
            archive_from_bytes(data)

    def test_non_finite_matrix(self, archive):
        data = bytearray(archive_to_bytes(archive))
        (header_len,) = struct.unpack("<I", bytes(data[8:12]))
        start = 12 + header_len
        data[start : start + 4] = struct.pack("<f", float("nan"))
        with pytest.raises(ArchiveError, match="non-finite"):
            archive_from_bytes(bytes(data))

    def test_shape_mismatch(self, archive):
        def shrink(h):
            h["doc_ids"].pop()

        data = mutate_header(archive_to_bytes(archive), shrink)
        # One document less sizes two blocks a row shorter than the file
        # holds; the length check must catch it, never a silent misread.
        row_bytes = 4 * (
            archive.embedding_config.vector_size
            + archive.reduction_config.n_components
        )
        with pytest.raises(ArchiveError) as excinfo:
            archive_from_bytes(data)
        assert str(excinfo.value) == (
            f"archive has {row_bytes} unexpected trailing bytes"
        )

    def test_topic_block_of_the_wrong_width(self, archive):
        def narrow(h):
            h["embedding_config"]["vector_size"] //= 2

        data = mutate_header(archive_to_bytes(archive), narrow)
        with pytest.raises(ArchiveError, match="unexpected trailing bytes"):
            archive_from_bytes(data)

        def one_topic_more(h):
            # The topics are the clusters less the merges, so a new
            # cluster, which a document must use, is one topic more.
            h["labels"][0] = len(h["cluster_stability"])
            h["cluster_stability"].append(1.0)

        data = mutate_header(archive_to_bytes(archive), one_topic_more)
        with pytest.raises(
            ArchiveError, match="truncated inside matrix 'topic_vectors'"
        ):
            archive_from_bytes(data)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda h: h["doc_ids"].__setitem__(1, h["doc_ids"][0]), "document ids"),
            (
                lambda h: h["vocabulary"]["words"].__setitem__(
                    1, h["vocabulary"]["words"][0]
                ),
                "repeats a word",
            ),
            (
                lambda h: h["cluster_stability"].__setitem__(0, -3.0),
                "stabilities must be non-negative",
            ),
            (
                lambda h: h["cluster_stability"].__setitem__(0, float("nan")),
                "stabilities must be non-negative",
            ),
            (
                lambda h: h["cluster_stability"].append(1.0),
                "labels do not use every cluster",
            ),
            (lambda h: h["epoch_losses"].pop(), "epoch losses for"),
            (
                lambda h: h["epoch_losses"].__setitem__(0, float("nan")),
                "archive epoch_losses must be finite and at least 0",
            ),
            (
                lambda h: h["epoch_losses"].__setitem__(0, -0.5),
                "archive epoch_losses must be finite and at least 0",
            ),
        ],
        ids=[
            "duplicate_doc_id",
            "duplicate_word",
            "negative_stability",
            "nan_stability",
            "stability_without_label",
            "epoch_loss_missing",
            "nan_epoch_loss",
            "negative_epoch_loss",
        ],
    )
    def test_self_inconsistent_header(self, archive, tamper, message):
        data = mutate_header(archive_to_bytes(archive), tamper)
        with pytest.raises(ArchiveError, match=message):
            archive_from_bytes(data)

    def test_infinite_stability_loads(self, archive):
        # A split at distance 0 has lambda infinity, so clustering can
        # give a cluster an infinite stability.
        def tamper(h):
            h["cluster_stability"][0] = float("inf")

        loaded = archive_from_bytes(mutate_header(archive_to_bytes(archive), tamper))
        assert loaded.labeling.cluster_stability[0] == float("inf")

    def test_topic_count_is_the_clusters_less_the_merges(self, merged_archive):
        def unmerge(h):
            h["merge_history"].pop()

        data = mutate_header(archive_to_bytes(merged_archive), unmerge)
        with pytest.raises(
            ArchiveError, match="truncated inside matrix 'topic_vectors'"
        ):
            archive_from_bytes(data)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (
                set_record(absorbed=99),
                r"merge_history\[0\] merges topic 99 into \d+, not two of the "
                r"\d+ topics before it",
            ),
            (set_record(absorbing=-1), r"merge_history\[0\] merges topic \d+ into -1,"),
            (
                set_record(absorbed=99, absorbing=99),
                r"merge_history\[0\] merges topic 99 into 99,",
            ),
            (
                set_record(absorbed_size=-7, absorbing_size=-8),
                r"merge_history\[0\] sizes -7 and -8 are not two counts of \d+ "
                "documents",
            ),
            (
                set_record(absorbed_size=10**6),
                r"merge_history\[0\] sizes 1000000 and \d+ are not two counts",
            ),
            (
                # The merged archive has one topic left, so one more merge
                # makes as many merges as clusters.
                lambda h: h["merge_history"].append(h["merge_history"][0]),
                r"archive merge_history has (\d+) merges of \1 clusters, "
                "which leaves no topic",
            ),
        ],
        ids=[
            "index_out_of_range",
            "negative_index",
            "equal_indices",
            "negative_sizes",
            "sizes_above_the_document_count",
            "more_merges_than_clusters",
        ],
    )
    def test_inconsistent_merge_history(self, merged_archive, tamper, message):
        data = mutate_header(archive_to_bytes(merged_archive), tamper)
        with pytest.raises(ArchiveError, match=message):
            archive_from_bytes(data)

    @pytest.mark.parametrize(
        "fixture,path,key",
        # Format 6's block manifest, format 3's repeated config value, and
        # format 9's unread token total and merged vector.
        [
            ("archive", "", "matrices"),
            ("archive", "vocabulary", "min_count"),
            ("archive", "vocabulary", "total_tokens"),
            ("merged_archive", "merge_history[0]", "vector"),
        ],
        ids=["header", "vocabulary", "vocabulary_total_tokens", "merge_record"],
    )
    def test_header_object_with_an_unknown_field(self, request, fixture, path, key):
        def widen(h):
            header_at(h, path)[key] = []

        data = mutate_header(archive_to_bytes(request.getfixturevalue(fixture)), widen)
        with pytest.raises(ArchiveError) as excinfo:
            archive_from_bytes(data)
        named = path or "header"
        assert str(excinfo.value) == f"archive {named} has unknown fields [{key!r}]"

    def test_empty_vocabulary(self, archive):
        def empty(h):
            h["vocabulary"]["words"] = []
            h["vocabulary"]["counts"] = []

        data = mutate_header(archive_to_bytes(archive), empty)
        with pytest.raises(ArchiveError, match="vocabulary is empty"):
            archive_from_bytes(data)

    @pytest.mark.parametrize("count", [0, -3])
    def test_non_positive_count(self, archive, count):
        def tamper(h):
            h["vocabulary"]["counts"][-1] = count

        data = mutate_header(archive_to_bytes(archive), tamper)
        with pytest.raises(ArchiveError, match="counts must be positive"):
            archive_from_bytes(data)

    def test_bad_config_value(self, archive):
        def poison(h):
            h["embedding_config"]["vector_size"] = -5

        data = mutate_header(archive_to_bytes(archive), poison)
        with pytest.raises(ArchiveError, match="validation"):
            archive_from_bytes(data)

        def nan_neighbors(h):
            # JSON as Python reads it admits NaN, which is a float, not an int.
            h["reduction_config"]["n_neighbors"] = float("nan")

        data = mutate_header(archive_to_bytes(archive), nan_neighbors)
        with pytest.raises(
            ArchiveError,
            match="reduction_config.n_neighbors must be an integer, got nan",
        ):
            archive_from_bytes(data)

    @pytest.mark.parametrize(
        "section,key,value,expected",
        [
            ("reduction_config", "n_neighbors", 15.5, "an integer"),
            ("reduction_config", "n_components", True, "an integer"),
            ("embedding_config", "window", "5", "an integer"),
            ("embedding_config", "subsample_threshold", True, "a number"),
            ("embedding_config", "subsample_threshold", "0.01", "a number"),
        ],
    )
    def test_config_value_of_the_wrong_type(
        self, archive, section, key, value, expected
    ):
        def poison(h):
            header_at(h, section)[key] = value

        data = mutate_header(archive_to_bytes(archive), poison)
        with pytest.raises(ArchiveError) as excinfo:
            archive_from_bytes(data)
        assert str(excinfo.value) == (
            f"archive {section}.{key} must be {expected}, got {value!r}"
        )

    def test_config_values_of_every_admitted_type(self, archive):
        def widen(h):
            h["embedding_config"]["subsample_threshold"] = 1

        loaded = archive_from_bytes(mutate_header(archive_to_bytes(archive), widen))
        assert loaded.embedding_config.subsample_threshold == 1

    # What each header list holds, as the loader's message names it.
    LIST_KINDS = {
        "labels": "integers",
        "assignment": "integers",
        "vocabulary.counts": "integers",
        "vocabulary.words": "strings",
        "doc_ids": "strings",
        "cluster_stability": "numbers",
        "epoch_losses": "numbers",
    }

    @pytest.mark.parametrize(
        "key,value,named",
        [
            ("labels", 0.9, "labels"),
            ("assignment", "3", "assignment"),
            ("assignment", True, "assignment"),
            ("vocabulary.counts", 2.5, "vocabulary.counts"),
            ("vocabulary.counts", True, "vocabulary.counts"),
            ("vocabulary.words", 7, "vocabulary.words"),
            ("doc_ids", 7, "doc_ids"),
            ("cluster_stability", "0.5", "cluster_stability"),
            ("epoch_losses", "4", "epoch_losses"),
        ],
    )
    def test_integer_list_of_the_wrong_type(self, archive, key, value, named):
        def poison(h):
            header_at(h, key)[0] = value

        data = mutate_header(archive_to_bytes(archive), poison)
        with pytest.raises(ArchiveError) as excinfo:
            archive_from_bytes(data)
        many = self.LIST_KINDS[key]
        assert str(excinfo.value) == f"archive {named} must be a list of {many}"

    def test_merge_count_of_the_wrong_type(self, merged_archive):
        def poison(h):
            h["merge_history"][0]["absorbed_size"] = 2.0

        data = mutate_header(archive_to_bytes(merged_archive), poison)
        with pytest.raises(ArchiveError) as excinfo:
            archive_from_bytes(data)
        assert str(excinfo.value) == (
            "archive merge_history[0].absorbed_size must be an integer, got 2.0"
        )

    def test_topic_model_of_other_clusters(self, archive):
        # A topic model's original topics are its labeling's clusters.
        model = archive.topic_model
        wider = dataclasses.replace(model, vectors=np.vstack([model.vectors] * 2))
        n = archive.labeling.n_clusters
        with pytest.raises(ValidationError) as excinfo:
            ModelArchive.from_pipeline(
                archive.embedding,
                archive.reduced_coords,
                archive.labeling,
                wider,
                archive.embedding_config,
                archive.reduction_config,
                archive.cluster_config,
            )
        assert str(excinfo.value) == (
            f"topic model has {2 * n} original topics, labeling has {n} clusters"
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_model(str(tmp_path / "nope.tpfg"))


@functools.cache
def wide_archive():
    """4,000 documents of 512 dimensions over a 2-word vocabulary, so the
    matrix blocks outweigh the header and the rest of what a load builds."""
    rng = np.random.default_rng(4)
    n_docs, dim = 4000, 512
    vocab = Vocabulary(
        words=("a", "b"),
        counts=np.array([2, 1]),
        keep_probability=np.ones(2),
    )
    embedding = SemanticEmbedding(
        doc_vectors=rng.standard_normal((n_docs, dim)),
        word_vectors=rng.standard_normal((2, dim)),
        coding=build_huffman_coding(vocab, dim),
        vocabulary=vocab,
        doc_ids=tuple(f"d{i}" for i in range(n_docs)),
        epoch_losses=[4.0],
    )
    labeling = ClusterLabeling(
        labels=np.arange(n_docs) % 2, n_clusters=2, cluster_stability=np.ones(2)
    )
    return ModelArchive.from_pipeline(
        embedding,
        rng.standard_normal((n_docs, 5)),
        labeling,
        build_topic_model(embedding, labeling),
        EmbeddingConfig(vector_size=dim, epochs=1, min_count=1),
        ReductionConfig(),
        ClusterConfig(),
    )


def block_bytes(archive):
    embedding = archive.embedding
    return sum(
        m.nbytes
        for m in (
            embedding.doc_vectors,
            embedding.word_vectors,
            archive.reduced_coords,
            archive.topic_model.vectors,
        )
    )


def traced_peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs, its result included."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockIO:
    """Blocks go between file and arrays without intermediate buffers."""

    def test_load_holds_each_block_once(self, tmp_path):
        archive = wide_archive()
        path = str(tmp_path / "wide.tpfg")
        save_model(archive, path)
        assert traced_peak(load_model, path) < 1.5 * block_bytes(archive)

    def test_save_streams_the_blocks(self, tmp_path):
        archive = wide_archive()
        path = str(tmp_path / "wide.tpfg")
        assert traced_peak(save_model, archive, path) < 0.5 * block_bytes(archive)

    def test_file_and_bytes_load_alike(self, archive, tmp_path):
        path = tmp_path / "model.tpfg"
        save_model(archive, str(path))
        from_file = load_model(str(path))
        from_bytes = archive_from_bytes(path.read_bytes())
        assert archive_to_bytes(from_file) == archive_to_bytes(from_bytes)
        assert archive_to_bytes(from_file) == path.read_bytes()

    def test_oversized_block_rejected_before_allocation(self, tmp_path):
        archive = wide_archive()

        def inflate(h):
            h["embedding_config"]["vector_size"] = 10**9

        path = tmp_path / "inflated.tpfg"
        path.write_bytes(mutate_header(archive_to_bytes(archive), inflate))

        def load():
            with pytest.raises(ArchiveError, match="truncated inside matrix"):
                load_model(str(path))

        assert traced_peak(load) < 0.1 * block_bytes(archive)


def load_or_archive_error(data):
    try:
        archive_from_bytes(data)
    except ArchiveError:
        pass


class TestFuzz:
    """Damaged archives either load or raise ArchiveError, nothing else.

    The bytes come from ``archive_bytes`` rather than a fixture so that a
    falsifying example does not print the whole archive.
    """

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(draw=st.data())
    def test_truncation(self, draw):
        data = archive_bytes()
        n = draw.draw(st.integers(0, len(data) - 1))
        load_or_archive_error(data[:n])

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(draw=st.data())
    def test_single_byte_flip(self, draw):
        data = bytearray(archive_bytes())
        # Half the draws land in the magic, version and JSON header, where
        # a flip changes structure rather than one float.
        (header_len,) = struct.unpack("<I", data[8:12])
        pos = draw.draw(
            st.one_of(
                st.integers(0, 12 + header_len - 1),
                st.integers(0, len(data) - 1),
            )
        )
        data[pos] ^= draw.draw(st.integers(1, 255))
        load_or_archive_error(bytes(data))


class TestAtomicWrite:
    def test_failed_save_keeps_old_archive(self, archive, tmp_path, fail_writes):
        path = tmp_path / "model.tpfg"
        save_model(archive, str(path))
        before = path.read_bytes()
        fail_writes()
        with pytest.raises(OSError, match="no space"):
            save_model(archive, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.tpfg"]

    def test_failed_manifest_keeps_old_manifest(self, tmp_path, fail_writes):
        artifact = tmp_path / "topics.txt"
        artifact.write_text("topic 0\n")
        manifest = tmp_path / "topics.txt.manifest.json"
        run = {"command": "topics", "argv": [], "started_at": "2026-01-01T00:00:00"}
        _write_manifest(str(artifact), run, {}, {}, {})
        before = manifest.read_bytes()
        fail_writes()
        with pytest.raises(OSError, match="no space"):
            _write_manifest(str(artifact), dict(run, argv=["again"]), {}, {}, {})
        assert manifest.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == [
            "topics.txt",
            "topics.txt.manifest.json",
        ]
