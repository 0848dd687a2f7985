"""Binary model archives.

An archive is a single file: the magic bytes ``TPFG``, a little-endian
u32 format version, a length-prefixed UTF-8 JSON header, then raw
little-endian float32 matrix blocks in row-major order, in the order the
header declares.  The blocks are stored (and kept in memory) as float32,
stabilities, epoch losses and merge vectors as JSON doubles, so a
save/load round trip is bit-identical.

Everything is validated before anything is returned: wrong magic, an
unsupported version, a truncated file, inconsistent shapes or a header
value missing or of the wrong JSON kind raise ``ArchiveError`` and never
yield a partially loaded model.  Block sizes are checked against the
file length before any block is allocated, and each block is read
straight into its own array.  Older versions are rejected, not
converted: version 1 stored the word matrix twice, version 2's
reduction config carried three options that no longer exist, version
3's configs carried ``min_dist``, ``initial_lr`` and ``final_lr``, and
its vocabulary repeated the embedding config's ``min_count`` and
``subsample_threshold``, version 4 stored each topic's ranked words, the
cluster count beside the stabilities, and a ``min_samples`` cluster
setting, and version 5's reduction config carried
``negative_sample_rate``.
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
    build_huffman_coding,
)
from .errors import ArchiveError
from .reduction import ReductionConfig
from .topics import MergeRecord, TopicModel

MAGIC = b"TPFG"
FORMAT_VERSION = 6

_MATRIX_NAMES = (
    "doc_vectors",
    "word_vectors",
    "inner_node_vectors",
    "reduced_coords",
    "topic_vectors",
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
        """Cast a pipeline's float64 results down to storage precision."""
        f4 = lambda a: np.ascontiguousarray(a, dtype=np.float32)  # noqa: E731
        stored = dataclasses.replace(
            embedding,
            doc_vectors=f4(embedding.doc_vectors),
            word_vectors=f4(embedding.word_vectors),
            coding=dataclasses.replace(
                embedding.coding,
                inner_node_vectors=f4(embedding.coding.inner_node_vectors),
            ),
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
    bytes, then each matrix block as a little-endian float32 array."""
    topic_model = archive.topic_model
    embedding = topic_model.embedding
    matrices = {
        "doc_vectors": embedding.doc_vectors,
        "word_vectors": embedding.word_vectors,
        "inner_node_vectors": embedding.coding.inner_node_vectors,
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
        "topic_provenance": [list(p) for p in topic_model.provenance],
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
        "matrices": [
            {"name": name, "rows": int(m.shape[0]), "cols": int(m.shape[1])}
            for name, m in matrices.items()
        ],
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return [
        MAGIC,
        struct.pack("<II", FORMAT_VERSION, len(header_bytes)),
        header_bytes,
        *(np.ascontiguousarray(m, dtype="<f4") for m in matrices.values()),
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
    """Bytes that do not form a valid archive raise ``ArchiveError`` and no
    other exception; a missing header key is named by its dotted path."""
    try:
        return _parse_archive(fh)
    except ArchiveError:
        raise
    except KeyError as exc:
        raise ArchiveError(f"archive header is missing {exc}") from exc
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise ArchiveError(f"archive header failed validation: {exc}") from exc


# The JSON kinds of header values, which a field's annotation names: the
# exact types each admits (``true``, ``2.5`` and ``"3"`` are not integers),
# and how a message names one value and a list of them.
_KINDS = {
    "int": ({int}, "an integer", "integers"),
    "float": ({int, float}, "a number", "numbers"),
    "str": ({str}, "a string", "strings"),
    "list": ({list}, "a list", "lists"),
    "object": ({dict}, "a JSON object", "JSON objects"),
}


def _get(obj, key, path: str):
    """``obj[key]`` and its dotted name; a missing key raises ``KeyError(name)``."""
    name = f"{path}[{key}]" if type(key) is int else f"{path}.{key}" if path else key
    try:
        return obj[key], name
    except KeyError:
        raise KeyError(name) from None


def _value(obj, key, kind: str, path: str = ""):
    """``obj[key]``, which must be one JSON value of ``kind``."""
    value, name = _get(obj, key, path)
    types, one, _ = _KINDS[kind]
    if type(value) not in types:  # format the message, a repr, only on failure
        raise ArchiveError(f"archive {name} must be {one}, got {value!r:.60}")
    return value


def _list(obj, key, kind: str, path: str = "") -> list:
    """``obj[key]``, which must be a list of JSON values of ``kind``."""
    values, name = _get(obj, key, path)
    types, _, many = _KINDS[kind]
    _require(
        type(values) is list and set(map(type, values)) <= types,
        f"archive {name} must be a list of {many}",
    )
    return values


def _record(cls: type, obj: dict, path: str, **given):
    """``cls`` from the header object ``obj``, which holds exactly its fields."""
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(obj) - set(kinds))
    _require(not unknown, f"archive {path} has unknown fields {unknown}")
    read = {k: _value(obj, k, kinds[k], path) for k in kinds if k not in given}
    return cls(**read, **given)


def _parse_config(cls: type, header: dict, key: str):
    return _record(cls, _value(header, key, "object"), key)


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
    _require(isinstance(header, dict), "archive header must be a JSON object")
    manifest = _list(header, "matrices", "object")
    _require(
        tuple(m.get("name") for m in manifest) == _MATRIX_NAMES,
        f"archive must declare matrices {list(_MATRIX_NAMES)}",
    )
    shapes: dict[str, tuple[int, int]] = {}
    offset = 12 + header_len
    for i, m in enumerate(manifest):
        rows, cols = (_value(m, k, "int", f"matrices[{i}]") for k in ("rows", "cols"))
        _require(rows >= 0 and cols >= 0, f"matrix {m['name']} has negative shape")
        offset += rows * cols * 4
        _require(size >= offset, f"archive is truncated inside matrix {m['name']!r}")
        shapes[m["name"]] = (rows, cols)
    _require(
        offset == size, f"archive has {size - offset} unexpected trailing bytes"
    )
    embedding_config = _parse_config(EmbeddingConfig, header, "embedding_config")
    reduction_config = _parse_config(ReductionConfig, header, "reduction_config")
    cluster_config = _parse_config(ClusterConfig, header, "cluster_config")
    v = _value(header, "vocabulary", "object")
    words = tuple(_list(v, "words", "str", "vocabulary"))
    counts = np.array(_list(v, "counts", "int", "vocabulary"), dtype=np.int64)
    _require(len(words) >= 1, "archive vocabulary is empty")
    _require(len(counts) == len(words), "vocabulary words and counts differ in number")
    _require(bool(np.all(counts > 0)), "vocabulary counts must be positive")
    vocab = Vocabulary(
        words=words,
        counts=counts,
        total_tokens=_value(v, "total_tokens", "int", "vocabulary"),
        keep_probability=keep_probabilities(
            counts, embedding_config.subsample_threshold
        ),
    )
    _require(len(vocab.index) == len(words), "archive vocabulary repeats a word")
    doc_ids = tuple(_list(header, "doc_ids", "str"))
    _require(len(set(doc_ids)) == len(doc_ids), "archive document ids repeat")
    n_docs = len(doc_ids)
    n_words = len(words)
    dim = embedding_config.vector_size
    n_topics = shapes["topic_vectors"][0]
    shape_checks = (
        ("doc_vectors", (n_docs, dim)),
        ("word_vectors", (n_words, dim)),
        ("inner_node_vectors", (max(n_words - 1, 0), dim)),
        ("reduced_coords", (n_docs, reduction_config.n_components)),
        ("topic_vectors", (n_topics, dim)),
    )
    for name, shape in shape_checks:
        _require(
            shapes[name] == shape,
            f"matrix {name!r} has shape {shapes[name]}, expected {shape}",
        )
    labels = np.array(_list(header, "labels", "int"), dtype=np.int64)
    stability = np.array(_list(header, "cluster_stability", "float"), dtype=np.float64)
    n_clusters = len(stability)
    _require(len(labels) == n_docs, "label count does not match document count")
    _require(
        bool(np.all((labels >= -1) & (labels < n_clusters))),
        "cluster labels out of range",
    )
    assignment = np.array(_list(header, "assignment", "int"), dtype=np.int64)
    _require(len(assignment) == n_docs, "assignment does not cover every document")
    provenance = _list(header, "topic_provenance", "list")
    _require(
        len(provenance) == n_topics,
        "topic provenance does not match the topic vector count",
    )
    _require(
        n_topics > 0 and bool(np.all((assignment >= 0) & (assignment < n_topics))),
        "topic assignment out of range",
    )
    provenance = tuple(
        tuple(_list(provenance, k, "int", "topic_provenance"))
        for k in range(n_topics)
    )
    history = []
    for i, r in enumerate(_list(header, "merge_history", "object")):
        path = f"merge_history[{i}]"
        vector = np.array(_list(r, "vector", "float", path), dtype=np.float64)
        _require(len(vector) == dim, f"archive {path}.vector must have {dim} values")
        history.append(_record(MergeRecord, r, path, vector=vector))
    blocks: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        blocks[name] = block = np.empty(shape, dtype="<f4")
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
    coding = build_huffman_coding(vocab, dim, blocks["inner_node_vectors"])
    embedding = SemanticEmbedding(
        doc_vectors=blocks["doc_vectors"],
        word_vectors=blocks["word_vectors"],
        coding=coding,
        vocabulary=vocab,
        doc_ids=doc_ids,
        epoch_losses=[float(x) for x in _list(header, "epoch_losses", "float")],
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
            provenance=provenance,
            assignment=assignment,
            embedding=embedding,
            merge_history=tuple(history),
        ),
    )
