"""Where the traced run wraps topicforge, and the per-layer metrics it derives.

The layers are the package's modules.  Each wrap point is the binding a
caller looks the function up through, so a call from ``cli`` into
``reduction.reduce`` goes through ``topicforge.cli:reduce`` while the
cluster-5k workload, which calls the module directly, goes through
``topicforge.reduction:reduce``.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from spans import self_times
from stats import hs_steps_expected, scheduled_layout_updates

LAYERS = (
    "corpus", "embedding", "reduction", "clustering", "topics", "metric",
    "persistence", "cli", "bench",
)


def _docs_loaded(rec, span, args, result):
    rec.add(span.name, "docs", len(result))


def _train_indexed(rec, span, args, result):
    if span.parent is not None and rec.spans[span.parent].name == "embedding.train":
        rec.put(span.name, "train_tokens", [d.tokens for d in result])


def _trained(rec, span, args, result):
    rec.put(span.name, "config", args[1])
    rec.put(span.name, "keep", result.vocabulary.keep_probability)
    rec.put(span.name, "final_loss", result.epoch_losses[-1])


def _graph(rec, span, args, result):
    rec.add(span.name, "edges", len(result.weights))
    rec.add(
        span.name,
        "layout_updates",
        scheduled_layout_updates(result.weights, args[1].layout_epochs),
    )


def _clustered(rec, span, args, result):
    rec.put(span.name, "n_clusters", result.n_clusters)
    rec.put(span.name, "noise_fraction", result.noise_count / len(result.labels))


def _merged(rec, span, args, result):
    rec.add(span.name, "merges", len(result.merge_history) - len(args[0].merge_history))


def _stats(rec, span, args, result):
    rec.add(span.name, "nonzeros", sum(len(row) for row in result.joint))


def _evaluated(rec, span, args, result):
    rec.add(span.name, f"{args[0].mode}_s", span.duration)
    rec.add(span.name, f"{args[0].mode}_calls")


def _saved(rec, span, args, result):
    rec.put(span.name, "archive_mb", os.path.getsize(args[1]) / 2**20)


# (binding, span name or (span name, hook)).  Only functions called a
# bounded number of times per op appear here; the per-step training
# helpers do not.
WRAPS = [
    ("topicforge.cli:load_corpus", ("corpus.load_corpus", _docs_loaded)),
    ("topicforge.corpus:build_vocabulary", "corpus.build_vocabulary"),
    ("topicforge.embedding:build_vocabulary", "corpus.build_vocabulary"),
    ("topicforge.cli:index_documents", "corpus.index_documents"),
    ("topicforge.embedding:index_documents", ("corpus.index_documents", _train_indexed)),
    ("topicforge.cli:train", ("embedding.train", _trained)),
    ("topicforge.embedding:build_huffman_coding", "embedding.build_huffman_coding"),
    ("topicforge.persistence:build_huffman_coding", "embedding.build_huffman_coding"),
    ("topicforge.topics:nearest_words", "embedding.nearest_words"),
    ("topicforge.cli:compose_query", "embedding.compose_query"),
    ("topicforge.cli:reduce", "reduction.reduce"),
    ("topicforge.reduction:reduce", "reduction.reduce"),
    ("topicforge.reduction:knn_graph", "reduction.knn_graph"),
    ("topicforge.reduction:fuzzy_simplicial_set", ("reduction.fuzzy_simplicial_set", _graph)),
    ("topicforge.reduction:optimize_layout", "reduction.optimize_layout"),
    ("topicforge.cli:cluster", ("clustering.cluster", _clustered)),
    ("topicforge.clustering:cluster", ("clustering.cluster", _clustered)),
    ("topicforge.clustering:core_distances", "clustering.core_distances"),
    ("topicforge.clustering:mutual_reachability", "clustering.mutual_reachability"),
    ("topicforge.clustering:build_mst", "clustering.build_mst"),
    ("topicforge.clustering:condense_tree", "clustering.condense_tree"),
    ("topicforge.clustering:extract_clusters", "clustering.extract_clusters"),
    ("topicforge.cli:build_topic_model", "topics.build_topic_model"),
    ("topicforge.cli:reduce_topics", ("topics.reduce_topics", _merged)),
    ("topicforge.cli:search_documents", "topics.search_documents"),
    ("topicforge.cli:search_topics", "topics.search_topics"),
    ("topicforge.cli:topics_to_dicts", "topics.topics_to_dicts"),
    ("topicforge.cli:model_topic_spec", "topics.model_topic_spec"),
    ("topicforge.cli:build_stats", ("metric.build_stats", _stats)),
    ("topicforge.cli:evaluate", ("metric.evaluate", _evaluated)),
    ("topicforge.cli:load_external_topics", "metric.load_external_topics"),
    ("topicforge.cli:report_to_json", "metric.report_to_json"),
    ("topicforge.cli:report_to_csv", "metric.report_to_csv"),
    ("topicforge.cli:load_model", "persistence.load_model"),
    ("topicforge.cli:save_model", ("persistence.save_model", _saved)),
    ("topicforge.persistence:ModelArchive.from_pipeline", "persistence.from_pipeline"),
]

# Counted, not timed: called once per document.
COUNTS = [("topicforge.corpus:tokenize", "corpus.tokenize")]

# Peak traced allocation, in a pass of its own.
ALLOCS = [
    ("topicforge.cli:reduce", "reduction.peak_alloc_mb"),
    ("topicforge.reduction:reduce", "reduction.peak_alloc_mb"),
    ("topicforge.cli:cluster", "clustering.peak_alloc_mb"),
    ("topicforge.clustering:cluster", "clustering.peak_alloc_mb"),
    ("topicforge.cli:load_model", "persistence.load_peak_alloc_mb"),
]

CLI_KINDS = ("topics", "search", "reduce", "evaluate", "evaluate_external")

# Share of the untraced wall time by which a traced pass may differ from
# it beyond the measured tracing overhead: the machine's pass-to-pass
# noise (identical runs have differed by about 25%).
NOISE_SHARE = 0.25


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


class TracedPass:
    """One traced pass, aggregated by span name.

    Every accessor notes the span names (or allocation keys) it reads in
    ``read``, so a metric computed from a wrap point that is gone can be
    told apart from a measured zero.
    """

    def __init__(self, rec, peaks, untraced_wall, traced_wall, latencies, span_cost):
        self.spans = rec.spans
        self.data = rec.data
        self.peaks = peaks
        self.untraced_wall = untraced_wall
        self.traced_wall = traced_wall
        self.latencies = latencies
        self.totals = defaultdict(float)
        self.calls_of = defaultdict(int)
        for span in self.spans:
            self.totals[span.name] += span.duration
            self.calls_of[span.name] += 1
        self.selfs = self_times(self.spans)
        self.layer_self = defaultdict(float)
        for span, own in zip(self.spans, self.selfs):
            self.layer_self[span.layer] += own
        self.overhead = span_cost * len(self.spans) + rec.hook_s
        self.span_cost = span_cost
        self.read = set()

    def total(self, *names):
        self.read.update(names)
        return sum(self.totals[n] for n in names)

    def calls(self, *names):
        self.read.update(names)
        return sum(self.calls_of[n] for n in names)

    def per_call(self, *names):
        return _ratio(self.total(*names), self.calls(*names))

    def per_call_under(self, name, caller):
        """Seconds per call of ``name`` made directly from ``caller``."""
        self.read.update((name, caller))
        durations = [
            s.duration
            for s in self.spans
            if s.name == name and s.parent is not None
            and self.spans[s.parent].name == caller
        ]
        return _ratio(sum(durations), len(durations))

    def datum(self, name, key, default=0.0):
        self.read.add(name)
        return self.data.get(name, {}).get(key, default)

    def peak(self, key):
        self.read.add(key)
        return self.peaks.get(key, 0.0)

    def self_time(self, name, minus):
        """Total self time of ``name`` spans with only ``minus`` children taken out."""
        self.read.update((name, *minus))
        selfs = self_times(self.spans, subtract=lambda child: child.name in minus)
        return sum(own for span, own in zip(self.spans, selfs) if span.name == name)


def _train_self(t):
    return t.self_time(
        "embedding.train", ("corpus.build_vocabulary", "corpus.index_documents")
    )


def _hs_expected(t):
    config = t.datum("embedding.train", "config", None)
    keep = t.datum("embedding.train", "keep", None)
    tokens = t.datum("corpus.index_documents", "train_tokens", None)
    if config is None or keep is None or tokens is None:
        return 0.0
    return hs_steps_expected(tokens, keep, config.window, config.epochs)


def _evaluate_s(mode):
    def value(t):
        return _ratio(
            t.datum("metric.evaluate", f"{mode}_s"),
            t.datum("metric.evaluate", f"{mode}_calls"),
        )

    return value


def _cli_p50_ms(kind):
    def value(t):
        return 1000.0 * statistics.median(t.latencies.get(kind) or [0.0])

    return value


def _layer_self(layer):
    return lambda t: t.layer_self[layer]


# name -> (unit, value of a TracedPass).  Times ending in _s are seconds
# per call, averaged over the traced pass; <layer>.self_s is the layer's
# total self time in the pass.
PER_LAYER = {
    "corpus.load_s": ("s", lambda t: t.per_call("corpus.load_corpus")),
    "corpus.vocab_s": ("s", lambda t: t.per_call("corpus.build_vocabulary")),
    "corpus.index_s": ("s", lambda t: t.per_call("corpus.index_documents")),
    "corpus.tokenize_passes": ("calls/doc", lambda t: _ratio(
        t.datum("corpus.tokenize", "calls"), t.datum("corpus.load_corpus", "docs")
    )),
    "embedding.train_s": ("s", lambda t: _ratio(_train_self(t), t.calls("embedding.train"))),
    "embedding.hs_steps_expected": ("count", _hs_expected),
    "embedding.hs_steps_per_s": ("1/s", lambda t: _ratio(_hs_expected(t), _train_self(t))),
    "embedding.final_loss": ("nats", lambda t: t.datum("embedding.train", "final_loss")),
    "embedding.huffman_s": ("s", lambda t: t.per_call("embedding.build_huffman_coding")),
    **{
        f"embedding.huffman_in_{label}_s": (
            "s",
            lambda t, caller=caller: t.per_call_under("embedding.build_huffman_coding", caller),
        )
        for label, caller in (
            ("train", "embedding.train"),
            ("from_pipeline", "persistence.from_pipeline"),
            ("load", "persistence.load_model"),
        )
    },
    "embedding.nearest_words_calls": ("count", lambda t: t.calls("embedding.nearest_words")),
    "embedding.nearest_words_s": ("s", lambda t: t.per_call("embedding.nearest_words")),
    "reduction.knn_s": ("s", lambda t: t.per_call("reduction.knn_graph")),
    "reduction.calibrate_s": ("s", lambda t: _ratio(
        t.total("reduction.fuzzy_simplicial_set") - t.total("reduction.knn_graph"),
        t.calls("reduction.fuzzy_simplicial_set"),
    )),
    "reduction.layout_s": ("s", lambda t: t.per_call("reduction.optimize_layout")),
    "reduction.graph_edges": ("count", lambda t: _ratio(
        t.datum("reduction.fuzzy_simplicial_set", "edges"),
        t.calls("reduction.fuzzy_simplicial_set"),
    )),
    "reduction.layout_updates_per_s": ("1/s", lambda t: _ratio(
        t.datum("reduction.fuzzy_simplicial_set", "layout_updates"),
        t.total("reduction.optimize_layout"),
    )),
    "reduction.peak_alloc_mb": ("MB", lambda t: t.peak("reduction.peak_alloc_mb")),
    "clustering.core_s": ("s", lambda t: t.per_call("clustering.core_distances")),
    "clustering.mreach_s": ("s", lambda t: t.per_call("clustering.mutual_reachability")),
    "clustering.mst_s": ("s", lambda t: t.per_call("clustering.build_mst")),
    "clustering.condense_s": ("s", lambda t: _ratio(
        t.total("clustering.condense_tree", "clustering.extract_clusters"),
        t.calls("clustering.condense_tree"),
    )),
    "clustering.peak_alloc_mb": ("MB", lambda t: t.peak("clustering.peak_alloc_mb")),
    "clustering.n_clusters": ("count", lambda t: t.datum("clustering.cluster", "n_clusters")),
    "clustering.noise_fraction": (
        "fraction", lambda t: t.datum("clustering.cluster", "noise_fraction")
    ),
    "topics.build_s": ("s", lambda t: t.per_call("topics.build_topic_model")),
    "topics.reduce_s": ("s", lambda t: t.per_call("topics.reduce_topics")),
    "topics.merges": ("count", lambda t: t.datum("topics.reduce_topics", "merges")),
    "topics.search_s": (
        "s", lambda t: t.per_call("topics.search_documents", "topics.search_topics")
    ),
    "topics.listing_s": (
        "s", lambda t: t.per_call("topics.topics_to_dicts", "topics.model_topic_spec")
    ),
    "metric.stats_s": ("s", lambda t: t.per_call("metric.build_stats")),
    "metric.nonzeros": ("count", lambda t: t.datum("metric.build_stats", "nonzeros")),
    "metric.evaluate_hard_s": ("s", _evaluate_s("hard")),
    "metric.evaluate_mixture_s": ("s", _evaluate_s("mixture")),
    "persistence.save_s": ("s", lambda t: t.per_call("persistence.save_model")),
    "persistence.load_s": ("s", lambda t: t.per_call("persistence.load_model")),
    "persistence.archive_mb": ("MB", lambda t: t.datum("persistence.save_model", "archive_mb")),
    "persistence.load_peak_alloc_mb": (
        "MB", lambda t: t.peak("persistence.load_peak_alloc_mb")
    ),
    **{f"cli.{kind}_p50_ms": ("ms", _cli_p50_ms(kind)) for kind in CLI_KINDS},
    **{f"{layer}.self_s": ("s", _layer_self(layer)) for layer in LAYERS},
    "trace.untraced_wall_s": ("s", lambda t: t.untraced_wall),
    "trace.traced_wall_s": ("s", lambda t: t.traced_wall),
    "trace.self_sum_s": ("s", lambda t: sum(t.selfs)),
    "trace.overhead_s": ("s", lambda t: t.overhead),
    "trace.span_cost_us": ("us", lambda t: 1e6 * t.span_cost),
    "trace.pass_noise_s": ("s", lambda t: sum(t.selfs) - t.untraced_wall - t.overhead),
    "trace.spans": ("count", lambda t: len(t.spans)),
}


def missing_names(missing_bindings):
    """Span names and allocation keys fed by at least one binding that is gone."""
    gone = set(missing_bindings)
    names = set()
    for binding, spec in WRAPS:
        if binding in gone:
            names.add(spec[0] if isinstance(spec, tuple) else spec)
    for binding, key in COUNTS + ALLOCS:
        if binding in gone:
            names.add(key)
    return names


def layer_metrics(traced, missing_bindings):
    """Per-layer metrics of a ``TracedPass``.

    Returns ``(metrics, missing)`` where ``missing`` names every metric
    left out because a name it reads comes from a wrap point that no
    longer exists.
    """
    gone = missing_names(missing_bindings)
    metrics = {}
    missing = []
    for name, (unit, value) in PER_LAYER.items():
        traced.read = set()
        figure = value(traced)
        if traced.read & gone:
            missing.append(name)
        else:
            metrics[name] = {"value": float(figure), "unit": unit}
    return metrics, missing


def blocking_path(traced):
    """Check that the self times add up to the untraced wall time.

    The self times cover the traced pass, which is the untraced work plus
    the measured tracing overhead, give or take the machine's pass-to-pass
    noise of ``NOISE_SHARE`` of the untraced wall time.  Returns
    ``(ok, note)``.
    """
    self_sum = sum(traced.selfs)
    noise = self_sum - traced.untraced_wall - traced.overhead
    band = NOISE_SHARE * traced.untraced_wall
    ok = abs(noise) <= band
    note = (
        f"blocking path {'holds' if ok else 'FAILS'}: self times {self_sum:.3f} s = "
        f"untraced wall {traced.untraced_wall:.3f} s + tracing overhead "
        f"{traced.overhead:.4f} s + noise {noise:+.3f} s (allowed +-{band:.3f} s)"
    )
    return ok, note
