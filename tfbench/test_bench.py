"""Tests of the benchmark's own logic.

Run with ``python -m pytest tfbench``.  They need no workload run.
"""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Patcher, Recorder, Span, self_times, span_cost, span_wrapper  # noqa: E402


def _load_conftest():
    spec = importlib.util.spec_from_file_location(
        "tests_conftest", os.path.join(ROOT, "tests", "conftest.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_five_theme_corpus_matches_the_test_fixture_recipe():
    conftest = _load_conftest()
    want_docs, want_themes = conftest.make_theme_corpus(200)
    docs, themes = workloads.five_theme_corpus(20250815)
    assert [(d.id, d.raw) for d in docs] == [(d.id, d.raw) for d in want_docs]
    assert themes == want_themes


def test_generators_are_pure_functions_of_the_seed():
    a, la = workloads.planted_points(3)
    b, lb = workloads.planted_points(3)
    assert np.array_equal(a, b) and np.array_equal(la, lb)
    assert a.shape == (5000, 300)
    assert (la == -1).sum() == 250
    sizes = np.bincount(la[la >= 0])
    assert len(sizes) == 20 and sizes.min() >= 40


@pytest.mark.parametrize(
    "n, want_q, want_beyond",
    [(40, 75.0, 10), (60, 75.0, 15), (99, 75.0, 24), (100, 90.0, 10), (1000, 99.0, 10)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, want_q, want_beyond):
    values = list(range(n, 0, -1))
    q, value, beyond = stats.tail_percentile(values)
    assert (q, beyond) == (want_q, want_beyond)
    assert sum(v > value for v in values) == beyond


def test_tail_percentile_without_enough_samples_reports_the_maximum():
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


def test_self_time_subtracts_direct_children_once():
    spans = [
        Span("cli.train", 0.0, 10.0, None, 0),
        Span("corpus.build_vocabulary", 1.0, 3.0, 0, 0),
        Span("corpus.index_documents", 4.0, 6.0, 0, 0),
        Span("embedding.build_huffman_coding", 4.5, 5.5, 2, 0),
        Span("corpus.index_documents", 7.0, 8.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.0])
    only_vocab = self_times(spans, subtract=lambda s: s.name.endswith("vocabulary"))
    assert only_vocab[0] == pytest.approx(8.0)


def test_wrapped_calls_nest_under_their_caller():
    rec = Recorder()
    make = span_wrapper(rec)
    leaf = make(lambda: 1, "embedding.leaf")
    caller = make(lambda: leaf() + leaf(), "topics.caller")
    root = rec.open("cli.op")
    assert caller() == 2
    rec.close(root)
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("cli.op", None),
        ("topics.caller", 0),
        ("embedding.leaf", 1),
        ("embedding.leaf", 1),
    ]
    assert sum(self_times(rec.spans)) == pytest.approx(rec.spans[0].duration)


def test_patcher_restores_functions_and_classmethods():
    import topicforge.persistence as persistence
    import topicforge.reduction as reduction

    before_fn = reduction.knn_graph
    before_cm = vars(persistence.ModelArchive)["from_pipeline"]
    rec = Recorder()
    patcher = Patcher(
        [
            ("topicforge.reduction:knn_graph", "reduction.knn_graph"),
            ("topicforge.persistence:ModelArchive.from_pipeline", "persistence.from_pipeline"),
        ],
        span_wrapper(rec),
    )
    patcher.install()
    try:
        assert reduction.knn_graph is not before_fn
        assert isinstance(vars(persistence.ModelArchive)["from_pipeline"], classmethod)
        reduction.knn_graph(np.eye(4) + 0.1, 2)
    finally:
        patcher.uninstall()
    assert reduction.knn_graph is before_fn
    assert vars(persistence.ModelArchive)["from_pipeline"] is before_cm
    assert [s.name for s in rec.spans] == ["reduction.knn_graph"]


def _traced_pass(rec, untraced_wall=1.0, traced_wall=1.0, span_cost=0.0):
    return layers.TracedPass(rec, {}, untraced_wall, traced_wall, {}, span_cost)


def test_missing_wrap_point_is_reported_not_zero():
    patcher = Patcher([("topicforge.reduction:no_such_function", "x")], span_wrapper(Recorder()))
    patcher.install()
    patcher.uninstall()
    assert patcher.missing == ["topicforge.reduction:no_such_function"]

    metrics, missing = layers.layer_metrics(
        _traced_pass(Recorder()), ["topicforge.reduction:knn_graph"]
    )
    assert "reduction.knn_s" in missing and "reduction.knn_s" not in metrics
    assert "reduction.calibrate_s" in missing
    # Present but not called on this workload: a measured zero.
    assert metrics["clustering.mst_s"]["value"] == 0.0
    assert set(metrics) | set(missing) == set(layers.PER_LAYER)


def test_metrics_fed_by_hooks_and_counters_go_missing_with_their_wrap_point():
    gone = ["topicforge.cli:train", "topicforge.corpus:tokenize"]
    _, missing = layers.layer_metrics(_traced_pass(Recorder()), gone)
    for name in (
        "embedding.train_s", "embedding.hs_steps_expected", "embedding.final_loss",
        "embedding.huffman_in_train_s", "corpus.tokenize_passes",
    ):
        assert name in missing
    assert "embedding.huffman_in_load_s" not in missing


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert listed == {name: unit for name, (unit, _) in layers.PER_LAYER.items()}


def test_blocking_path_allows_overhead_and_noise_only():
    rec = Recorder()
    rec.spans = [Span("cli.search", 0.0, 1.2, None, 0), Span("persistence.load_model", 0.1, 1.0, 0, 0)]
    rec.hook_s = 0.05
    # Self times 1.2 s = untraced 1.0 s + 2 spans x 0.075 s + hooks 0.05 s.
    assert layers.blocking_path(_traced_pass(rec, 1.0, 1.2, 0.075))[0]
    # Measured overhead 0.05 s leaves 0.15 s unexplained, within the 0.25 s band.
    assert layers.blocking_path(_traced_pass(rec, 1.0, 1.2, 0.0))[0]
    # Against a 0.8 s untraced pass, 0.35 s is unexplained: beyond 0.2 s.
    ok, note = layers.blocking_path(_traced_pass(rec, 0.8, 1.2, 0.0))
    assert not ok and "FAILS" in note


def test_span_cost_is_small_and_positive():
    cost = span_cost()
    assert 0.0 <= cost < 1e-3


def test_every_wrap_point_exists_at_this_commit():
    patcher = Patcher(layers.WRAPS + layers.COUNTS + layers.ALLOCS, lambda fn, spec: fn)
    patcher.install()
    patcher.uninstall()
    assert patcher.missing == []


def test_hs_steps_expected_matches_a_hand_count():
    tokens = [np.array([0, 1, 2]), np.array([1]), np.array([2, 0])]
    keep = [1.0, 0.5, 0.25]
    # window 1: doc 0 gives .5 + (1 + .25) + .5, doc 1 nothing, doc 2 1 + .25.
    assert stats.hs_steps_expected(tokens, keep, window=1, epochs=1) == pytest.approx(7.0)
    # window 2: doc 0 gives .75 + 1.25 + 1.5, doc 2 again 1.25; three epochs.
    assert stats.hs_steps_expected(tokens, keep, window=2, epochs=3) == pytest.approx(28.5)


def test_scheduled_layout_updates_follow_the_layout_schedule():
    weights = np.array([1.0, 0.5, 0.3, 0.07])
    epochs = 50
    period = weights.max() / weights
    next_sample = period.copy()
    due_total = 0
    for epoch in range(epochs):
        due = next_sample <= epoch
        due_total += int(due.sum())
        next_sample[due] += period[due]
    assert stats.scheduled_layout_updates(weights, epochs) == due_total


def test_purity_and_mutual_information():
    assert stats.purity([0, 0, 1, 1, -1], [5, 5, 6, 5, 6], ignore=-1) == pytest.approx(0.75)
    assert stats.mutual_information_bits([0, 0, 1, 1], [7, 7, 8, 8]) == pytest.approx(1.0)
    assert stats.mutual_information_bits([0, 1, 0, 1], [7, 7, 8, 8]) == pytest.approx(0.0)


def test_run_without_sources_fails_without_a_result(tmp_path):
    bench = tmp_path / "tfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cluster-5k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
