"""The bench's wrap points still name topicforge functions.

tfbench times each layer by rebinding names in topicforge's module
namespaces (``tfbench/layers.py``).  A binding that no longer resolves
only drops its metrics from a traced run, with a note, so a refactor
that moves or renames one of those names must fail here instead.
"""

import importlib
import os
import sys

TFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tfbench")


def test_every_bench_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(TFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("spans", "stats", "layers"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    bindings = [b for b, _ in layers.WRAPS + layers.COUNTS + layers.ALLOCS]
    assert bindings
    unresolved = []
    for binding in bindings:
        try:
            spans.resolve(binding)
        except LookupError:
            unresolved.append(binding)
    assert unresolved == []
