"""Binary model archives.

An archive is a single file: the magic bytes ``TPFG``, a little-endian
u32 format version, a length-prefixed UTF-8 JSON header, then raw
little-endian float32 matrix blocks in row-major order, in the order of
``_MATRIX_NAMES``.  Each block's shape is sized from the header's counts:
the document ids, the vocabulary words, the vector size, the layout
components and the clusters less the merges.  The blocks are stored (and
kept in memory) as float32, stabilities, epoch losses and merge vectors
as JSON doubles, so a save/load round trip is bit-identical.

Everything is validated before anything is returned: wrong magic, an
unsupported version, a truncated file, counts that do not account for
the file's length or a header value missing or of the wrong JSON kind
raise ``ArchiveError`` and never yield a partially loaded model.  Block
sizes are checked against the file length before any block is
allocated, and each block is read straight into its own array.  Older
versions are rejected, not converted; the README lists what each one
stored.  No command reads the hierarchical-softmax inner-node vectors
after a load, so the archive omits them and a loaded model carries no
output layer: it can be queried, reduced, evaluated and exported, but not
trained further.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .clustering import ClusterConfig, ClusterLabeling
from .corpus import Vocabulary, keep_probabilities
from .embedding import (
    EmbeddingConfig,
    SemanticEmbedding,
    build_huffman_coding,  # noqa: F401  (tfbench wraps the name in this module)
)
from .errors import ArchiveError, JsonReader, ValidationError
from .reduction import ReductionConfig
from .topics import MergeRecord, TopicModel

MAGIC = b"TPFG"
FORMAT_VERSION = 9

_MATRIX_NAMES = (
    "doc_vectors",
    "word_vectors",
    "reduced_coords",
    "topic_vectors",
)
_HEADER_KEYS = (
    "embedding_config", "reduction_config", "cluster_config", "vocabulary",
    "doc_ids", "epoch_losses", "labels", "cluster_stability", "assignment",
    "merge_history",
)


@dataclass
class ModelArchive:
    """Everything a trained pipeline produced, in storage precision."""

    embedding_config: EmbeddingConfig
    reduction_config: ReductionConfig
    cluster_config: ClusterConfig
    reduced_coords: np.ndarray
    labeling: ClusterLabeling
    topic_model: TopicModel

    @property
    def embedding(self) -> SemanticEmbedding:
        return self.topic_model.embedding

    @classmethod
    def from_pipeline(
        cls,
        embedding: SemanticEmbedding,
        reduced_coords: np.ndarray,
        labeling: ClusterLabeling,
        topic_model: TopicModel,
        embedding_config: EmbeddingConfig,
        reduction_config: ReductionConfig,
        cluster_config: ClusterConfig,
    ) -> "ModelArchive":
        """Cast a pipeline's float64 results down to storage precision;
        the coding, which the file does not store, is dropped.  The topic
        model's original topics must be ``labeling``'s clusters."""
        originals = topic_model.n_topics + len(topic_model.merge_history)
        if originals != labeling.n_clusters:
            raise ValidationError(
                f"topic model has {originals} original topics, "
                f"labeling has {labeling.n_clusters} clusters"
            )
        f4 = lambda a: np.ascontiguousarray(a, dtype=np.float32)  # noqa: E731
        stored = dataclasses.replace(
            embedding,
            doc_vectors=f4(embedding.doc_vectors),
            word_vectors=f4(embedding.word_vectors),
            coding=None,
            epoch_losses=list(embedding.epoch_losses),
        )
        return cls(
            embedding_config=embedding_config,
            reduction_config=reduction_config,
            cluster_config=cluster_config,
            reduced_coords=f4(reduced_coords),
            labeling=labeling,
            topic_model=dataclasses.replace(
                topic_model,
                vectors=f4(topic_model.vectors),
                assignment=topic_model.assignment.astype(np.int64, copy=False),
                embedding=stored,
            ),
        )


def _archive_parts(archive: ModelArchive) -> list:
    """The archive as a sequence of buffers: the magic, version and header
    bytes, then each matrix block, in ``_MATRIX_NAMES`` order, as a
    little-endian float32 array."""
    topic_model = archive.topic_model
    embedding = topic_model.embedding
    blocks = {
        "doc_vectors": embedding.doc_vectors,
        "word_vectors": embedding.word_vectors,
        "reduced_coords": archive.reduced_coords,
        "topic_vectors": topic_model.vectors,
    }
    vocab = embedding.vocabulary
    header = {
        "embedding_config": dataclasses.asdict(archive.embedding_config),
        "reduction_config": dataclasses.asdict(archive.reduction_config),
        "cluster_config": dataclasses.asdict(archive.cluster_config),
        "vocabulary": {
            "words": list(vocab.words),
            "counts": [int(c) for c in vocab.counts],
            "total_tokens": vocab.total_tokens,
        },
        "doc_ids": list(embedding.doc_ids),
        "epoch_losses": [float(x) for x in embedding.epoch_losses],
        "labels": [int(x) for x in archive.labeling.labels],
        "cluster_stability": [float(x) for x in archive.labeling.cluster_stability],
        "assignment": [int(x) for x in topic_model.assignment],
        "merge_history": [
            {
                "absorbed": r.absorbed,
                "absorbing": r.absorbing,
                "absorbed_size": r.absorbed_size,
                "absorbing_size": r.absorbing_size,
                "vector": [float(x) for x in r.vector],
            }
            for r in topic_model.merge_history
        ],
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return [
        MAGIC,
        struct.pack("<II", FORMAT_VERSION, len(header_bytes)),
        header_bytes,
        *(np.ascontiguousarray(blocks[name], dtype="<f4") for name in _MATRIX_NAMES),
    ]


def archive_to_bytes(archive: ModelArchive) -> bytes:
    """Serialize an archive to its on-disk byte sequence."""
    return b"".join(_archive_parts(archive))


def write_atomically(path: str, *parts) -> None:
    """Replace the file at ``path`` with the concatenated ``parts``.

    Each part is a bytes-like object written as it is.  The bytes go to a
    temporary file beside ``path`` that is renamed over it only once fully
    written, so a failed write leaves any existing file untouched; the
    temporary file is removed on failure.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_model(archive: ModelArchive, path: str) -> None:
    """Write the archive to disk atomically, one block at a time."""
    write_atomically(path, *_archive_parts(archive))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ArchiveError(message)


def archive_from_bytes(data: bytes) -> ModelArchive:
    """Parse and validate an archive byte sequence, as ``load_model`` does."""
    return _read_archive(io.BytesIO(data))


def load_model(path: str) -> ModelArchive:
    """Read and validate an archive from disk.

    Each matrix block is read from the file straight into its own array.
    """
    with open(path, "rb") as fh:
        return _read_archive(fh)


def _read_archive(fh: BinaryIO) -> ModelArchive:
    """Bytes that do not form a valid archive raise ``ArchiveError``, nothing else."""
    try:
        return _parse_archive(fh)
    except ArchiveError:
        raise
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise ArchiveError(f"archive header failed validation: {exc}") from exc


_read = JsonReader(ArchiveError, "archive ", "header")


def _known(obj: dict, keys, path: str) -> None:
    """The header object ``obj`` at ``path`` holds no key outside ``keys``."""
    unknown = sorted(set(obj) - set(keys))
    _require(not unknown, f"archive {path} has unknown fields {unknown}")


def _record(cls: type, obj: dict, path: str, **given):
    """``cls`` from the header object ``obj``, which holds exactly its fields."""
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    _known(obj, kinds, path)
    read = {k: _read.value(obj, k, kinds[k], path) for k in kinds if k not in given}
    return cls(**read, **given)


def _parse_config(cls: type, header: dict, key: str):
    return _record(cls, _read.value(header, key, "object"), key)


def _parse_archive(fh: BinaryIO) -> ModelArchive:
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    _require(size >= 12, "archive is truncated before the header")
    magic, version, header_len = struct.unpack("<4sII", fh.read(12))
    _require(magic == MAGIC, "not a topicforge archive (bad magic bytes)")
    _require(
        version == FORMAT_VERSION,
        f"unsupported archive version {version} (expected {FORMAT_VERSION})",
    )
    _require(size >= 12 + header_len, "archive is truncated inside the header")
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArchiveError(f"archive header is not valid JSON: {exc}") from exc
    _known(_read.object(header), _HEADER_KEYS, "header")
    embedding_config = _parse_config(EmbeddingConfig, header, "embedding_config")
    reduction_config = _parse_config(ReductionConfig, header, "reduction_config")
    cluster_config = _parse_config(ClusterConfig, header, "cluster_config")
    v = _read.value(header, "vocabulary", "object")
    _known(v, ("words", "counts", "total_tokens"), "vocabulary")
    words = tuple(_read.list(v, "words", "str", "vocabulary"))
    counts = np.array(_read.list(v, "counts", "int", "vocabulary"), dtype=np.int64)
    _require(len(words) >= 1, "archive vocabulary is empty")
    _require(len(counts) == len(words), "vocabulary words and counts differ in number")
    _require(len(set(words)) == len(words), "archive vocabulary repeats a word")
    _require(bool(np.all(counts > 0)), "vocabulary counts must be positive")
    total_tokens = _read.value(v, "total_tokens", "int", "vocabulary")
    _require(
        total_tokens >= sum(counts.tolist()),
        "vocabulary total_tokens is below the sum of its counts",
    )
    vocab = Vocabulary(
        words=words,
        counts=counts,
        total_tokens=total_tokens,
        keep_probability=keep_probabilities(
            counts, embedding_config.subsample_threshold
        ),
    )
    doc_ids = tuple(_read.list(header, "doc_ids", "str"))
    _require(len(set(doc_ids)) == len(doc_ids), "archive document ids repeat")
    stability = np.array(
        _read.list(header, "cluster_stability", "float"), dtype=np.float64
    )
    n_clusters = len(stability)
    labels = np.array(_read.list(header, "labels", "int"), dtype=np.int64)
    _require(
        bool(np.all((labels >= -1) & (labels < n_clusters))),
        "cluster labels out of range",
    )
    _require(bool(np.all(stability >= 0)), "cluster stabilities must be non-negative")
    _require(
        np.array_equal(np.unique(labels[labels >= 0]), np.arange(n_clusters)),
        "cluster labels do not use every cluster",
    )
    dim = embedding_config.vector_size
    history = []
    for i, r in enumerate(_read.list(header, "merge_history", "object")):
        path = f"merge_history[{i}]"
        vector = np.array(_read.list(r, "vector", "float", path), dtype=np.float64)
        _require(len(vector) == dim, f"archive {path}.vector must have {dim} values")
        _require(
            bool(np.isfinite(vector).all()), f"archive {path}.vector must be finite"
        )
        history.append(_record(MergeRecord, r, path, vector=vector))
    n_docs, n_words = len(doc_ids), len(words)
    n_topics = n_clusters - len(history)
    _require(
        n_topics >= 1,
        f"archive merge_history has {len(history)} merges of {n_clusters} "
        "clusters, which leaves no topic",
    )
    shapes = {
        "doc_vectors": (n_docs, dim),
        "word_vectors": (n_words, dim),
        "reduced_coords": (n_docs, reduction_config.n_components),
        "topic_vectors": (n_topics, dim),
    }
    offset = 12 + header_len
    for name in _MATRIX_NAMES:
        rows, cols = shapes[name]
        offset += rows * cols * 4
        _require(size >= offset, f"archive is truncated inside matrix {name!r}")
    _require(
        offset == size, f"archive has {size - offset} unexpected trailing bytes"
    )
    _require(len(labels) == n_docs, "label count does not match document count")
    assignment = np.array(_read.list(header, "assignment", "int"), dtype=np.int64)
    _require(len(assignment) == n_docs, "assignment does not cover every document")
    _require(
        bool(np.all((assignment >= 0) & (assignment < n_topics))),
        "topic assignment out of range",
    )
    epoch_losses = [float(x) for x in _read.list(header, "epoch_losses", "float")]
    _require(
        len(epoch_losses) == embedding_config.epochs,
        f"archive has {len(epoch_losses)} epoch losses for "
        f"{embedding_config.epochs} epochs",
    )
    _require(
        all(0 <= x < np.inf for x in epoch_losses),
        "archive epoch_losses must be finite and at least 0",
    )
    blocks: dict[str, np.ndarray] = {}
    for name in _MATRIX_NAMES:
        blocks[name] = block = np.empty(shapes[name], dtype="<f4")
        _require(
            fh.readinto(block) == block.nbytes,
            f"archive is truncated inside matrix {name!r}",
        )
        _require(
            bool(np.isfinite(block).all()),
            f"matrix {name!r} contains non-finite values",
        )
    zero = np.flatnonzero(~blocks["topic_vectors"].any(axis=1))
    _require(not zero.size, f"matrix 'topic_vectors' has zero rows {zero.tolist()}")
    embedding = SemanticEmbedding(
        doc_vectors=blocks["doc_vectors"],
        word_vectors=blocks["word_vectors"],
        coding=None,
        vocabulary=vocab,
        doc_ids=doc_ids,
        epoch_losses=epoch_losses,
    )
    return ModelArchive(
        embedding_config=embedding_config,
        reduction_config=reduction_config,
        cluster_config=cluster_config,
        reduced_coords=blocks["reduced_coords"],
        labeling=ClusterLabeling(
            labels=labels, n_clusters=n_clusters, cluster_stability=stability
        ),
        topic_model=TopicModel(
            vectors=blocks["topic_vectors"],
            assignment=assignment,
            embedding=embedding,
            merge_history=tuple(history),
        ),
    )
