"""The rows of the portability table in ``test_cli.py``.

``python portability.py COMMANDS WORKDIR`` runs each ``row: argv`` of
the JSON object COMMANDS in a new directory WORKDIR, then six probes that
run kernels on fixed inputs, and prints one ``row digest`` line per row.
A command's digest is that of the file it writes or, if it writes none,
of what it prints.  With ``ONE_CPU`` set in its environment the process
first pins itself to one CPU, so every layout runs on one thread.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from topicforge import ClusterConfig, cluster
from topicforge.cli import main
from topicforge.clustering import build_mst, core_distances, mutual_reachability
from topicforge.embedding import _rank_by_cosine
from topicforge.reduction import FuzzyGraph, ReductionConfig, knn_graph, optimize_layout
from topicforge.topics import assign_documents

ONE_CPU = "PORTABILITY_ONE_CPU"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digests(commands, workdir):
    Path(workdir).mkdir()
    with contextlib.chdir(workdir):
        for row, argv in commands.items():
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                if main(argv) != 0:
                    raise RuntimeError(f"{row}: {argv} failed")
            if "--output" in argv:
                yield row, sha256(Path(argv[argv.index("--output") + 1]).read_bytes())
            else:
                yield row, sha256(printed.getvalue().encode("utf-8"))
    yield from probe_digests()


def probe_digests():
    rng = np.random.default_rng(37)
    matrix = rng.standard_normal((12_000, 300)).astype(np.float32)
    queries = matrix[rng.integers(0, 12_000, 40)]
    queries += rng.standard_normal((40, 300)).astype(np.float32)
    ranked = _rank_by_cosine(matrix, queries, 10)
    yield "rank", sha256(b"".join(o.tobytes() + s.tobytes() for o, s in ranked))

    rng = np.random.default_rng(35)
    n, m = 400, 3000
    heads = rng.integers(0, n, m)
    tails = (heads + 1 + rng.integers(0, n - 1, m)) % n
    graph = FuzzyGraph(n, heads, tails, rng.uniform(0.05, 1.0, m))
    config = ReductionConfig(layout_epochs=40, seed=36)
    coords = optimize_layout(graph, config, np.random.default_rng(config.seed))
    yield "layout", sha256(coords.tobytes())
    points = rng.uniform(-10.0, 10.0, (12, 5))[rng.integers(0, 12, 1500)]
    points += rng.normal(0.0, 0.7, points.shape)
    edges = build_mst(mutual_reachability(points, core_distances(points, 15)))
    yield "mst", sha256(edges.tobytes())
    labels = cluster(points, ClusterConfig(min_cluster_size=15)).labels
    yield "cluster-labels", sha256(labels.astype("<i8").tobytes())
    centers = rng.standard_normal((20, 300))
    blobs = centers[rng.integers(0, 20, 2000)] + 0.3 * rng.standard_normal((2000, 300))
    indices, distances = knn_graph(blobs, 15)
    yield "knn", sha256(indices.tobytes() + distances.tobytes())

    # Every document is the exact midpoint of two unit topics: a tie that
    # only the rounding of the document-topic products can break.
    rng = np.random.default_rng(41)
    topics = rng.standard_normal((40, 300))
    topics /= np.linalg.norm(topics, axis=1, keepdims=True)
    first = rng.integers(0, 40, 20_000)
    second = (first + 1 + rng.integers(0, 39, 20_000)) % 40
    docs = (topics[first] + topics[second]) / 2.0
    yield "assign-tie", sha256(assign_documents(docs, topics).tobytes())


if __name__ == "__main__":
    if os.environ.get(ONE_CPU):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for row, digest in digests(json.loads(sys.argv[1]), sys.argv[2]):
        print(row, digest)
