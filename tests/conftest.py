"""Shared fixtures: synthetic corpora and one session-scoped trained pipeline."""

import json
import os
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import topicforge
from topicforge import (
    ClusterConfig,
    EmbeddingConfig,
    ReductionConfig,
    build_topic_model,
    cluster,
    reduce,
    train,
)
from topicforge.corpus import Document


SRC = str(Path(topicforge.__file__).parents[1])


def python_command(*args, pythonpath=SRC, **env):
    """Keyword arguments for ``subprocess.run`` or ``Popen`` that run
    ``python *args`` with ``env`` added to this process's environment and
    ``pythonpath`` as its ``PYTHONPATH``, capturing its output as text."""
    return {
        "args": [sys.executable, *args],
        "env": dict(os.environ, PYTHONPATH=pythonpath, **env),
        "stdout": subprocess.PIPE,
        "stderr": subprocess.PIPE,
        "text": True,
    }


def copy_package(root):
    """Copy the topicforge sources under ``root``, without any cache, and
    return the directory to put on ``PYTHONPATH``: a first use there builds
    the kernel library from nothing."""
    shutil.copytree(
        Path(topicforge.__file__).parent,
        Path(root) / "topicforge",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return str(root)


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


def make_theme_corpus(
    n_docs_per_theme,
    themes=None,
    theme_prob=0.72,
    min_len=14,
    max_len=22,
    seed=20250815,
):
    """Build a synthetic corpus of theme-flavored documents.

    Each document draws most tokens from one theme's word list and the rest
    from a shared filler pool. Returns (documents, doc_themes).
    """
    rng = np.random.default_rng(seed)
    if themes is None:
        themes = list(THEME_WORDS)
    docs = []
    doc_themes = []
    i = 0
    for theme in themes:
        words = THEME_WORDS[theme]
        for _ in range(n_docs_per_theme):
            length = int(rng.integers(min_len, max_len + 1))
            toks = [
                words[rng.integers(len(words))]
                if rng.random() < theme_prob
                else FILLER_WORDS[rng.integers(len(FILLER_WORDS))]
                for _ in range(length)
            ]
            docs.append(Document(id=f"d{i:04d}", raw=" ".join(toks)))
            doc_themes.append(theme)
            i += 1
    return docs, doc_themes


def make_two_theme_docs(n_per_theme=60, seed=7):
    docs, themes = make_theme_corpus(
        n_per_theme, themes=["ocean", "orchestra"], seed=seed
    )
    return docs, themes


@pytest.fixture(scope="session")
def five_theme_pipeline():
    """Train the full pipeline once on a five-theme corpus; reused downstream.

    Keys: docs, doc_themes, embedding, coords, labeling, model, configs,
    train_seconds, total_seconds.
    """
    docs, doc_themes = make_theme_corpus(200)
    emb_cfg = EmbeddingConfig(
        vector_size=50,
        window=5,
        epochs=40,
        min_count=5,
        subsample_threshold=1e-3,
        seed=11,
    )
    red_cfg = ReductionConfig(n_neighbors=15, n_components=5, seed=11)
    clu_cfg = ClusterConfig(min_cluster_size=15)

    t0 = time.perf_counter()
    embedding = train(docs, emb_cfg)
    t1 = time.perf_counter()
    coords = reduce(embedding.doc_vectors, red_cfg)
    labeling = cluster(coords, clu_cfg)
    model = build_topic_model(embedding, labeling)
    t2 = time.perf_counter()

    return {
        "docs": docs,
        "doc_themes": doc_themes,
        "embedding": embedding,
        "coords": coords,
        "labeling": labeling,
        "model": model,
        "configs": (emb_cfg, red_cfg, clu_cfg),
        "train_seconds": t1 - t0,
        "total_seconds": t2 - t0,
    }


@pytest.fixture(scope="session")
def small_trained():
    """A quick two-theme embedding for unit tests that need real vectors."""
    docs, themes = make_two_theme_docs()
    cfg = EmbeddingConfig(
        vector_size=24,
        window=5,
        epochs=12,
        min_count=2,
        subsample_threshold=1e-2,
        seed=3,
    )
    return train(docs, cfg), docs, themes


class HalfWriter:
    """File stand-in that writes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("no space left on device")


@pytest.fixture
def fail_writes(monkeypatch):
    """Call to make every later file write from the package's writers fail.

    Both modules that open files, ``persistence`` and ``cli``, get an
    ``open`` whose files opened for writing take half of the first chunk
    and raise; files opened for reading work as usual.
    """
    from topicforge import cli, persistence

    real_open = open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfWriter(fh) if "w" in mode else fh

    def fail():
        for module in (persistence, cli):
            monkeypatch.setattr(module, "open", failing_open, raising=False)

    return fail


@pytest.fixture
def tokenized_texts(monkeypatch):
    """Every text ``corpus.tokenize`` is called on, in call order."""
    from topicforge import corpus

    calls = []
    real_tokenize = corpus.tokenize

    def tokenize(text):
        calls.append(text)
        return real_tokenize(text)

    monkeypatch.setattr(corpus, "tokenize", tokenize)
    return calls


def mutate_header(data, mutate):
    """Rewrite the header JSON in place, keeping the matrix blocks."""
    (header_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + header_len])
    mutate(header)
    hb = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return data[:8] + struct.pack("<I", len(hb)) + hb + data[12 + header_len :]

