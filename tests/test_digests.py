"""Committed SHA-256 digests of the outputs whose bytes do not depend on the CPU.

Other tests require two runs in one checkout to agree; these pin the bytes
across commits.  Each output is recomputed from small inputs built only
from literals, ``rng.random`` and ``rng.integers``, and its digest must
equal the one in ``output_digests.json``.  A change that means to move
bytes rewrites that file with ``PYTHONPATH=src python
tests/test_digests.py``, which prints each digest it adds, moves or
removes, and names each of them, and why, in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from topicforge import (
    ClusterConfig,
    ClusterLabeling,
    Document,
    EmbeddingConfig,
    FuzzyGraph,
    ModelArchive,
    ReductionConfig,
    SemanticEmbedding,
    TopicModel,
    TopicSpec,
    Vocabulary,
    build_stats,
    build_vocabulary,
    cluster,
    index_documents,
)
from topicforge.clustering import build_mst, core_distances, mutual_reachability
from topicforge.embedding import _rank_by_cosine
from topicforge.metric import evaluate, report_to_json
from topicforge.persistence import archive_from_bytes, archive_to_bytes
from topicforge.reduction import knn_graph, optimize_layout
from topicforge.topics import MergeRecord

DIGESTS = Path(__file__).with_name("output_digests.json")


def knn_bytes():
    points = np.random.default_rng(601).random((400, 16)) - 0.5
    indices, distances = knn_graph(points, 15)
    return indices.tobytes() + distances.tobytes()


def layout_bytes():
    rng = np.random.default_rng(602)
    n, m = 300, 2_000
    ends = rng.integers(0, n, (2, m))
    ends[1] = (ends[0] + 1 + rng.integers(0, n - 1, m)) % n
    graph = FuzzyGraph(
        n_points=n,
        heads=ends.min(axis=0),
        tails=ends.max(axis=0),
        weights=0.05 + 0.95 * rng.random(m),
    )
    config = ReductionConfig(n_components=3, layout_epochs=30)
    return optimize_layout(graph, config, np.random.default_rng(603)).tobytes()


def blob_points():
    """800 points around 6 centers, with a run of equal rows and an
    integer-valued tail, so that many reachability weights tie."""
    rng = np.random.default_rng(604)
    centers = 20.0 * rng.random((6, 4))
    points = centers[rng.integers(0, 6, 800)] + rng.random((800, 4))
    points[100:120] = points[5]
    points[700:] = rng.integers(0, 20, (100, 4))
    return points


def mst_bytes():
    points = blob_points()
    return build_mst(mutual_reachability(points, core_distances(points, 10))).tobytes()


def cluster_bytes():
    out = b""
    for min_cluster_size in (5, 10, 30):
        labeling = cluster(blob_points(), ClusterConfig(min_cluster_size=min_cluster_size))
        out += labeling.labels.tobytes() + labeling.cluster_stability.tobytes()
    return out


# Words and separators a corpus document is drawn from: ASCII and other
# scripts, a final sigma, a dotted capital I that lowercases to i plus a
# combining dot, decomposed accents, digits, and every kind of separator
# the tokenizer meets, down to NUL and a lone surrogate.
CORPUS_PIECES = (
    "apple", "Apple", "banana", "x2", "42", "\u03a3\u0391\u03a3", "\u03c3\u03b1\u03c2",
    "\u0130stanbul", "caf\u00e9", "cafe\u0301", "n\u0303o", "stra\u00dfe", "STRASSE",
    "\u65e5\u672c\u8a9e", "snake_case",
    " ", "_", "\r", "\x00", "\ud800", ", ", "\u0301", "\u00a0", "-", "\t",
)


def corpus_documents():
    """120 documents of 0-30 pieces drawn from ``CORPUS_PIECES``, skewed
    toward the early ones, plus literal documents: empty, separators only,
    and two words that tie on count."""
    rng = np.random.default_rng(607)
    docs = [
        Document(id="empty", raw=""),
        Document(id="separators", raw=" _\r\x00\ud800\u0301,\t"),
        Document(id="tie", raw="kiwi lime lime kiwi Kiwi_LIME"),
    ]
    n = len(CORPUS_PIECES)
    for d in range(120):
        length = int(rng.integers(0, 31))
        picks = np.minimum(rng.integers(0, n, length), rng.integers(0, n, length))
        pieces = [CORPUS_PIECES[i] for i in picks]
        joins = rng.integers(0, 2, length)
        raw = "".join(p + (" " if j else "") for p, j in zip(pieces, joins))
        docs.append(Document(id=f"d{d}", raw=raw))
    return docs


def corpus_bytes():
    docs = corpus_documents()
    out = b""
    for min_count in (1, 4):
        vocab = build_vocabulary(docs, min_count=min_count, subsample_threshold=1e-2)
        indexed = index_documents(docs, vocab)
        out += "\n".join(vocab.words).encode("utf-8", "surrogatepass")
        out += vocab.counts.tobytes() + np.int64(vocab.total_tokens).tobytes()
        out += vocab.keep_probability.tobytes()
        out += np.array([len(d) for d in indexed], dtype=np.int64).tobytes()
        out += b"".join(d.tokens.astype(np.int64).tobytes() for d in indexed)
    return out


def evaluation_inputs():
    """A 60-document corpus over 30 words, skewed toward the low ones, with
    empty documents, and four 6-word topics."""
    rng = np.random.default_rng(605)
    words = [f"w{i:02d}" for i in range(30)]
    docs = []
    for d in range(60):
        length = int(rng.integers(0, 25))
        ids = np.minimum(rng.integers(0, 30, length), rng.integers(0, 30, length))
        docs.append(Document(id=f"d{d}", raw=" ".join(words[i] for i in ids)))
    vocab = build_vocabulary(docs, min_count=1)
    stats = build_stats(index_documents(docs, vocab), vocab)
    topics = tuple(tuple(words[6 * t : 6 * t + 6]) for t in range(4))
    return rng, docs, stats, topics


def evaluate_hard_bytes():
    rng, docs, stats, topics = evaluation_inputs()
    assignments = {doc.id: int(t) for doc, t in zip(docs, rng.integers(0, 4, len(docs)))}
    spec = TopicSpec(mode="hard", topics=topics, assignments=assignments)
    return report_to_json(evaluate(spec, stats, 5)).encode()


def evaluate_mixture_bytes():
    rng, docs, stats, topics = evaluation_inputs()
    weights = rng.random((len(docs), 4))
    weights[rng.random((len(docs), 4)) < 0.3] = 0.0
    weights[:, 0] += 0.01
    proportions = {
        doc.id: tuple(map(float, row / row.sum())) for doc, row in zip(docs, weights)
    }
    spec = TopicSpec(mode="mixture", topics=topics, proportions=proportions)
    return report_to_json(evaluate(spec, stats, 5)).encode()


def ranking_bytes():
    """The orders and similarities of ``_rank_by_cosine``, as ``nearest_words``
    ranks them, on 3,000 float32 word rows with a run of equal rows, a zero
    row and 300 rows that differ from their neighbors in the last bit, for
    five float32 queries and one float64 query."""
    rng = np.random.default_rng(608)
    matrix = (rng.random((3_000, 64)) - 0.5).astype(np.float32)
    matrix[1_000:1_020] = matrix[7]
    matrix[2_000] = 0.0
    matrix[2_500:2_800] = np.nextafter(matrix[2_200:2_500], np.float32(1.0))
    queries = matrix[[7, 2_200, 11, 12, 13]] + np.float32(0.01)
    out = b""
    for query_block in (queries, queries[:1].astype(np.float64)):
        for order, sims in _rank_by_cosine(matrix, query_block, 25):
            out += order.astype("<i8").tobytes() + sims.tobytes()
    return out


def archive_bytes():
    """A 12-document, 9-word archive with three topics, the second merged
    from two, built from its parts so that no training and no BLAS product
    enters."""
    rng = np.random.default_rng(606)
    n_docs, n_words, dim = 12, 9, 6
    counts = np.sort(rng.integers(1, 50, n_words))[::-1]
    vocab = Vocabulary(
        words=tuple(f"w{i}" for i in range(n_words)),
        counts=counts,
        total_tokens=int(counts.sum()) + 7,
        keep_probability=np.ones(n_words),
    )
    doc_vectors = rng.random((n_docs, dim)) - 0.5
    word_vectors = rng.random((n_words, dim)) - 0.5
    # Format 7 stored these inner-node vectors; drawing them still keeps
    # every later draw, so only the version word and that block moved.
    rng.random((n_words - 1, dim))
    embedding = SemanticEmbedding(
        doc_vectors=doc_vectors,
        word_vectors=word_vectors,
        coding=None,
        vocabulary=vocab,
        doc_ids=tuple(f"d{i}" for i in range(n_docs)),
        epoch_losses=[float(x) for x in 3.0 + rng.random(4)],
    )
    labeling = ClusterLabeling(
        labels=rng.integers(-1, 4, n_docs),
        n_clusters=4,
        cluster_stability=rng.random(4),
    )
    # Topic 3 of four merged into topic 1, as reduce_topics records it.
    merge = MergeRecord(
        absorbed=3,
        absorbing=1,
        absorbed_size=2,
        absorbing_size=3,
        vector=rng.random(dim),
    )
    model = TopicModel(
        vectors=0.1 + rng.random((3, dim)),
        assignment=rng.integers(0, 3, n_docs),
        embedding=embedding,
        merge_history=(merge,),
    )
    archive = ModelArchive.from_pipeline(
        embedding,
        rng.random((n_docs, 2)) * 10.0,
        labeling,
        model,
        EmbeddingConfig(vector_size=dim, window=3, epochs=4, min_count=2, seed=7),
        ReductionConfig(n_neighbors=4, n_components=2, layout_epochs=20, seed=8),
        ClusterConfig(min_cluster_size=3),
    )
    data = archive_to_bytes(archive)
    archive_from_bytes(data)  # the bytes form an archive that loads
    return data


OUTPUTS = {
    "corpus": corpus_bytes,
    "knn_graph": knn_bytes,
    "optimize_layout": layout_bytes,
    "mst_edges": mst_bytes,
    "cluster": cluster_bytes,
    "evaluate_hard_json": evaluate_hard_bytes,
    "evaluate_mixture_json": evaluate_mixture_bytes,
    "nearest_words": ranking_bytes,
    "archive": archive_bytes,
}


def digest(name):
    return hashlib.sha256(OUTPUTS[name]()).hexdigest()


def test_every_output_has_a_committed_digest():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(OUTPUTS)


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_bytes_match_the_committed_digest(name):
    committed = json.loads(DIGESTS.read_text())[name]
    assert digest(name) == committed, f"the bytes of {name} moved"


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text())
    new = {name: digest(name) for name in sorted(OUTPUTS)}
    for name in sorted(old.keys() | new.keys()):
        if name not in old:
            print(f"added {name}")
        elif name not in new:
            print(f"removed {name}")
        elif old[name] != new[name]:
            print(f"moved {name}")
    DIGESTS.write_text(json.dumps(new, indent=2) + "\n")
