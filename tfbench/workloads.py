"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same bytes on disk.  The program under test only ever sees the files
written here (a JSONL corpus, a ``.npy`` point matrix, a model archive
and an external topic file), never the seed.

* ``five_theme_corpus`` is a copy of the ``make_theme_corpus`` recipe in
  ``tests/conftest.py``; at seed 20250815 it yields the same documents.
* ``planted_points`` draws Gaussian blobs plus broad noise in 300-d.
* ``build_cli_archive`` assembles a topic model for a Zipfian corpus with
  planted topics through public API calls only, without training.
"""

from __future__ import annotations

import json
import os

import numpy as np

from topicforge.clustering import ClusterConfig, ClusterLabeling
from topicforge.corpus import Document, build_vocabulary
from topicforge.embedding import (
    EmbeddingConfig,
    SemanticEmbedding,
    build_huffman_coding,
)
from topicforge.persistence import ModelArchive, save_model
from topicforge.reduction import ReductionConfig
from topicforge.topics import build_topic_model

THEME_WORDS = {
    "ocean": [
        "ocean", "wave", "tide", "coral", "reef", "shark", "whale", "kelp",
        "current", "salt", "harbor", "sailor", "vessel", "anchor", "buoy",
        "lagoon", "plankton", "dolphin", "seabed", "brine", "gull", "surf",
        "island", "atoll", "fathom", "trawler", "estuary", "driftwood",
        "barnacle", "seagrass", "tsunami", "maritime", "nautical", "spray",
        "foam", "shoal", "squid", "eel", "pearl", "abyss",
    ],
    "forest": [
        "forest", "tree", "moss", "fern", "canopy", "timber", "bark", "root",
        "sapling", "grove", "owl", "deer", "fox", "fungus", "lichen", "pine",
        "oak", "birch", "cedar", "maple", "thicket", "underbrush", "meadow",
        "trail", "ranger", "wolf", "badger", "acorn", "leaf", "branch",
        "twig", "stump", "clearing", "woodland", "bramble", "ivy", "willow",
        "elm", "beetle", "woodpecker",
    ],
    "desert": [
        "desert", "dune", "sand", "cactus", "oasis", "camel", "scorpion",
        "mirage", "mesa", "canyon", "arroyo", "tumbleweed", "lizard", "viper",
        "drought", "sandstorm", "nomad", "caravan", "sunbaked", "arid",
        "badland", "butte", "gulch", "saguaro", "yucca", "jackal", "vulture",
        "saltpan", "sirocco", "wadi", "sagebrush", "coyote", "roadrunner",
        "adobe", "pueblo", "flint", "ridge", "scrub", "gravel", "ember",
    ],
    "city": [
        "city", "street", "subway", "tower", "plaza", "traffic", "neon",
        "taxi", "market", "bridge", "tunnel", "skyline", "pavement", "alley",
        "tram", "station", "museum", "cafe", "theater", "district", "mayor",
        "council", "borough", "apartment", "elevator", "crosswalk", "vendor",
        "billboard", "curb", "gutter", "lamppost", "sewer", "transit",
        "commuter", "pedestrian", "boulevard", "monument", "fountain",
        "rooftop", "siren",
    ],
    "orchestra": [
        "orchestra", "violin", "cello", "oboe", "flute", "brass", "timpani",
        "conductor", "symphony", "sonata", "concerto", "aria", "tempo",
        "crescendo", "harmony", "melody", "chord", "octave", "rehearsal",
        "podium", "baton", "strings", "woodwind", "clarinet", "bassoon",
        "trombone", "trumpet", "harp", "piccolo", "viola", "overture",
        "quartet", "ensemble", "maestro", "fortissimo", "pizzicato",
        "vibrato", "cadenza", "scherzo", "encore",
    ],
}

FILLER_WORDS = [
    "about", "after", "again", "almost", "along", "always", "another",
    "around", "because", "before", "began", "being", "below", "between",
    "brought", "called", "certain", "common", "could", "during", "early",
    "enough", "every", "found", "general", "given", "group", "having",
    "however", "indeed", "instead", "itself", "known", "large", "later",
    "least", "little", "longer", "making", "manner", "middle", "might",
    "moment", "nearly", "nothing", "often", "other", "particular", "perhaps",
    "place", "rather", "really", "several", "simple", "small", "something",
    "sometimes", "still", "though", "toward",
]


# The five-theme corpus, as ``make_theme_corpus`` in tests/conftest.py
# builds it: 200 docs per theme of 14-22 tokens, each token a theme word
# with probability 0.72 and a filler word otherwise.
THEME_DOCS_PER_THEME = 200
THEME_PROB = 0.72
THEME_MIN_LEN = 14
THEME_MAX_LEN = 22


def five_theme_corpus(seed):
    """Theme-flavored documents; returns (documents, doc_themes).

    The draw order matches ``tests/conftest.py::make_theme_corpus``, so
    the same seed gives the same texts and ids.
    """
    rng = np.random.default_rng(seed)
    docs = []
    doc_themes = []
    i = 0
    for theme, words in THEME_WORDS.items():
        for _ in range(THEME_DOCS_PER_THEME):
            length = int(rng.integers(THEME_MIN_LEN, THEME_MAX_LEN + 1))
            toks = [
                words[rng.integers(len(words))]
                if rng.random() < THEME_PROB
                else FILLER_WORDS[rng.integers(len(FILLER_WORDS))]
                for _ in range(length)
            ]
            docs.append(Document(id=f"d{i:04d}", raw=" ".join(toks)))
            doc_themes.append(theme)
            i += 1
    return docs, doc_themes


def write_corpus(path, docs):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps({"id": doc.id, "text": doc.raw}) + "\n")


# The cluster-5k points: 5,000 vectors in 300-d, 20 Gaussian blobs of
# Dirichlet(2) sizes with at least 40 points each, sigma 0.35 around N(0, 1)
# centers, plus 5% broad N(0, 1) noise.
POINTS = 5_000
POINTS_DIM = 300
BLOBS = 20
BLOB_MIN = 40
BLOB_SIGMA = 0.35
POINTS_NOISE_SHARE = 0.05


def planted_points(seed):
    """Gaussian blobs around N(0, 1) centers plus broad N(0, 1) noise.

    Blob sizes are Dirichlet(2) shares of the planted points with a floor
    of ``BLOB_MIN`` each.  Rows are shuffled; ``labels`` gives each row's
    blob, -1 for broad noise.
    """
    rng = np.random.default_rng(seed)
    n_noise = int(round(POINTS_NOISE_SHARE * POINTS))
    n_planted = POINTS - n_noise
    shares = rng.dirichlet(np.full(BLOBS, 2.0))
    sizes = BLOB_MIN + rng.multinomial(n_planted - BLOBS * BLOB_MIN, shares)
    centers = rng.standard_normal((BLOBS, POINTS_DIM))
    labels = np.concatenate([np.repeat(np.arange(BLOBS), sizes), np.full(n_noise, -1)])
    points = np.empty((POINTS, POINTS_DIM))
    points[:n_planted] = centers[labels[:n_planted]] + BLOB_SIGMA * rng.standard_normal(
        (n_planted, POINTS_DIM)
    )
    points[n_planted:] = rng.standard_normal((n_noise, POINTS_DIM))
    order = rng.permutation(POINTS)
    return points[order], labels[order]


# The cli-session archive: a Zipfian background vocabulary, planted topics
# with their own words, and vectors placed so that topic words and topic
# documents sit near their topic's center.
CLI_TYPES = 15_000
CLI_TOPICS = 40
CLI_DOCS = 3_000
CLI_DIM = 300
CLI_TOPIC_WORDS = 50
CLI_TOPIC_SHARE = 0.35
CLI_MIN_COUNT = 2

# One block of the command mix, in commands per 20: search documents 30%,
# search topics 15%, topics --format json 20%, evaluate --model 15%,
# evaluate --external (mixture) 10%, reduce --to 20 10%.
CLI_MIX = {
    "search_documents": 6,
    "search_topics": 3,
    "topics": 4,
    "evaluate": 3,
    "evaluate_external": 2,
    "reduce": 2,
}
CLI_SEARCH_TOP_N = {"search_documents": 10, "search_topics": 5}
CLI_REDUCE_TO = 20


def cli_corpus(seed):
    """Documents with one planted topic each; returns (docs, doc_topic, topic_words).

    Each token is a topic word with probability ``CLI_TOPIC_SHARE`` and a
    Zipf(1.05) background word otherwise.  ``topic_words[k]`` lists topic
    k's words, most probable first.
    """
    rng = np.random.default_rng(seed)
    by_rank = np.array([f"w{i:05d}" for i in rng.permutation(CLI_TYPES)])
    background = 1.0 / (np.arange(CLI_TYPES) + 2.7) ** 1.05
    background /= background.sum()
    picked = rng.choice(
        CLI_TYPES - 500, CLI_TOPICS * CLI_TOPIC_WORDS, replace=False
    )
    topic_words = by_rank[500:][picked].reshape(CLI_TOPICS, CLI_TOPIC_WORDS)
    within = 1.0 / (np.arange(CLI_TOPIC_WORDS) + 1.0) ** 0.8
    within /= within.sum()
    doc_topic = rng.permutation(np.arange(CLI_DOCS) % CLI_TOPICS)
    lengths = rng.integers(80, 161, size=CLI_DOCS)
    n_topic = rng.binomial(lengths, CLI_TOPIC_SHARE)
    topic_draws = rng.choice(CLI_TOPIC_WORDS, n_topic.sum(), p=within)
    background_draws = by_rank[
        rng.choice(CLI_TYPES, (lengths - n_topic).sum(), p=background)
    ]
    topic_end = np.cumsum(n_topic)
    background_end = np.cumsum(lengths - n_topic)
    docs = []
    for i in range(CLI_DOCS):
        toks = np.concatenate(
            [
                topic_words[doc_topic[i]][
                    topic_draws[topic_end[i] - n_topic[i] : topic_end[i]]
                ],
                background_draws[background_end[i] - (lengths[i] - n_topic[i]) : background_end[i]],
            ]
        )
        docs.append(Document(id=f"c{i:04d}", raw=" ".join(rng.permutation(toks))))
    return docs, doc_topic, topic_words


def build_cli_archive(seed, docs, doc_topic, topic_words):
    """Model archive over the cli corpus, assembled without training."""
    rng = np.random.default_rng([seed, 1])
    vocab = build_vocabulary(docs, CLI_MIN_COUNT, 1e-5)
    centers = rng.standard_normal((CLI_TOPICS, CLI_DIM))
    word_vectors = rng.standard_normal((len(vocab), CLI_DIM))
    for k, words in enumerate(topic_words):
        rows = [vocab.index[w] for w in words if w in vocab.index]
        word_vectors[rows] = centers[k] + 0.8 * rng.standard_normal(
            (len(rows), CLI_DIM)
        )
    doc_vectors = centers[doc_topic] + 0.7 * rng.standard_normal(
        (len(docs), CLI_DIM)
    )
    coding = build_huffman_coding(vocab, CLI_DIM)
    coding.inner_node_vectors = 0.1 * rng.standard_normal(
        coding.inner_node_vectors.shape
    )
    embedding = SemanticEmbedding(
        doc_vectors=doc_vectors,
        word_vectors=word_vectors,
        coding=coding,
        vocabulary=vocab,
        doc_ids=tuple(d.id for d in docs),
        epoch_losses=[4.0],
    )
    labeling = ClusterLabeling(
        labels=doc_topic.astype(np.int64),
        n_clusters=CLI_TOPICS,
        cluster_stability=np.ones(CLI_TOPICS),
    )
    model = build_topic_model(embedding, labeling)
    projection = rng.standard_normal((CLI_DIM, 5)) / np.sqrt(CLI_DIM)
    return ModelArchive.from_pipeline(
        embedding,
        doc_vectors @ projection,
        labeling,
        model,
        EmbeddingConfig(
            vector_size=CLI_DIM,
            epochs=1,
            min_count=CLI_MIN_COUNT,
            subsample_threshold=1e-5,
        ),
        ReductionConfig(),
        ClusterConfig(),
    )


def external_topics(seed, doc_ids, doc_topic, topic_words):
    """Mixture-mode topic file: 0.7 on the planted topic, 0.15 on two others."""
    rng = np.random.default_rng([seed, 2])
    proportions = {}
    for doc_id, k in zip(doc_ids, doc_topic):
        others = rng.choice(CLI_TOPICS - 1, 2, replace=False)
        others = others + (others >= k)
        row = [0] * CLI_TOPICS
        row[int(k)] = 0.7
        for j in others:
            row[int(j)] = 0.15
        proportions[doc_id] = row
    return {
        "mode": "mixture",
        "topics": [{"words": [str(w) for w in words[:10]]} for words in topic_words],
        "proportions": proportions,
    }


def cli_block(seed, paths, topic_words):
    """One shuffled block of CLI commands in the ``CLI_MIX`` proportions.

    Each entry is ``{"kind", "argv", "topic"}``; ``topic`` is the planted
    topic a search query was drawn from, else None.
    """
    rng = np.random.default_rng([seed, 3])
    kinds = [kind for kind, count in CLI_MIX.items() for _ in range(count)]
    ops = []
    for kind in (kinds[i] for i in rng.permutation(len(kinds))):
        topic = None
        if kind.startswith("search"):
            topic = int(rng.integers(CLI_TOPICS))
            words = rng.choice(topic_words[topic][:5], 2, replace=False)
            argv = [
                "search", "--model", paths["model"],
                "--words", ",".join(str(w) for w in words),
                "--what", kind.split("_")[1],
                "--top-n", str(CLI_SEARCH_TOP_N[kind]),
            ]
        elif kind == "topics":
            argv = ["topics", "--model", paths["model"], "--format", "json"]
        elif kind == "evaluate":
            argv = ["evaluate", "--model", paths["model"], "--corpus", paths["corpus"]]
        elif kind == "evaluate_external":
            argv = [
                "evaluate", "--external", paths["external"],
                "--corpus", paths["corpus"],
            ]
        else:
            argv = [
                "reduce", "--model", paths["model"],
                "--to", str(CLI_REDUCE_TO), "--output", paths["reduced"],
            ]
        ops.append({"kind": kind, "argv": argv, "topic": topic})
    return ops


# Set-up per workload: write the inputs under ``workdir`` and return a
# JSON-ready plan that the measuring process reads back.

TRAIN_ARGS = [
    "--vector-size", "50", "--window", "5", "--min-count", "5",
    "--subsample-threshold", "1e-3", "--min-cluster-size", "15",
    "--epochs", "4", "--seed", "11",
]


def setup_train(seed, workdir):
    docs, themes = five_theme_corpus(seed)
    corpus = os.path.join(workdir, "corpus.jsonl")
    write_corpus(corpus, docs)
    return {"corpus": corpus, "themes": themes, "train_args": TRAIN_ARGS}


def setup_cluster(seed, workdir):
    points, labels = planted_points(seed)
    path = os.path.join(workdir, "points.npy")
    np.save(path, points)
    return {"points": path, "labels": labels.tolist()}


def setup_cli(seed, workdir):
    docs, doc_topic, topic_words = cli_corpus(seed)
    paths = {
        name: os.path.join(workdir, file)
        for name, file in (
            ("model", "model.tpfg"),
            ("corpus", "corpus.jsonl"),
            ("external", "external.json"),
            ("reduced", "reduced.tpfg"),
        )
    }
    write_corpus(paths["corpus"], docs)
    save_model(build_cli_archive(seed, docs, doc_topic, topic_words), paths["model"])
    with open(paths["external"], "w", encoding="utf-8") as fh:
        json.dump(
            external_topics(seed, [d.id for d in docs], doc_topic, topic_words), fh
        )
    return {
        "paths": paths,
        "doc_topic": {d.id: int(k) for d, k in zip(docs, doc_topic)},
        "ops": cli_block(seed, paths, topic_words),
    }


SETUPS = {
    "train-five-theme": setup_train,
    "cluster-5k": setup_cluster,
    "cli-session": setup_cli,
}
