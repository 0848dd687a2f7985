"""The bench's wrap points still name topicforge functions and read its results.

tfbench times each layer by rebinding names in topicforge's module
namespaces (``tfbench/layers.py``).  A binding that no longer resolves
only drops its metrics from a traced run, with a note, so a refactor
that moves or renames one of those names must fail here instead.
"""

import importlib
import os
import sys
from collections import Counter

from topicforge import Document, build_stats, build_vocabulary, index_documents

TFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tfbench")


def import_bench(monkeypatch):
    """tfbench's ``layers`` and ``spans`` modules, imported from its folder."""
    monkeypatch.syspath_prepend(TFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("spans", "stats", "layers"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("layers"), importlib.import_module("spans")


def test_every_bench_binding_resolves(monkeypatch):
    layers, spans = import_bench(monkeypatch)
    bindings = [b for b, _ in layers.WRAPS + layers.COUNTS + layers.ALLOCS]
    assert bindings
    unresolved = []
    for binding in bindings:
        try:
            spans.resolve(binding)
        except LookupError:
            unresolved.append(binding)
    assert unresolved == []


def test_stats_hook_counts_the_nonzero_pairs(monkeypatch):
    # The traced run's ``metric.nonzeros`` comes from a hook that reads a
    # real ``build_stats`` result, so it must keep counting the distinct
    # (document, word) pairs whatever the stats hold.
    layers, spans = import_bench(monkeypatch)
    texts = ["a a b", "b c c c", "", "d", "a b c d a"]
    docs = [Document(id=f"d{i}", raw=t) for i, t in enumerate(texts)]
    vocab = build_vocabulary(docs, min_count=1)
    indexed = index_documents(docs, vocab)
    recorder = spans.Recorder()
    binding = "topicforge.cli:build_stats"
    traced = spans.span_wrapper(recorder)(build_stats, dict(layers.WRAPS)[binding])
    traced(indexed, vocab)
    pairs = sum(len(Counter(d.tokens.tolist())) for d in indexed)
    assert pairs == 9
    assert recorder.data["metric.build_stats"]["nonzeros"] == pairs
