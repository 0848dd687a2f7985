"""The measuring process: one workload's passes, checks and metrics.

A pass is one unit of repeated work: one ``train`` command, one
reduce-then-cluster of the planted points, or one block of CLI commands.
Only the calls into topicforge inside ``scope(...)`` are timed; the
correctness checks after them are not.  Every pass of a run repeats the
same inputs, so each op's output key must match the first pass's, and a
mismatch counts as a failed op.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import topicforge.cli
import topicforge.clustering
import topicforge.reduction
from topicforge.corpus import index_documents, load_corpus
from topicforge.metric import build_stats, pwi_hard
from topicforge.persistence import load_model
from topicforge.topics import model_topic_spec, reduce_topics

import layers
import stats
import workloads
from spans import (
    Patcher,
    Recorder,
    alloc_wrapper,
    count_wrapper,
    span_cost,
    span_wrapper,
)

MIN_PASSES = 2
THEME_UNION = {w for words in workloads.THEME_WORDS.values() for w in words}


@dataclass
class Op:
    kind: str
    latency: float
    ok: bool
    key: str | None = None
    problem: str | None = None


@dataclass
class Pass:
    ops: list[Op]
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(op.latency for op in self.ops)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = topicforge.cli.main(list(argv))
    return rc, buf.getvalue()


# Errors a check can meet in a wrong output; each marks the op failed.
CHECK_ERRORS = (ValueError, KeyError, OSError)


class TrainFiveTheme:
    """``topicforge train`` on the five-theme corpus, checked as gate c07 checks."""

    def __init__(self, plan, workdir):
        self.themes = plan["themes"]
        self.output = f"{workdir}/model.tpfg"
        self.argv = ["train", "--corpus", plan["corpus"], "--output", self.output]
        self.argv += plan["train_args"]
        self.docs = load_corpus(plan["corpus"])

    def run_pass(self, scope):
        with scope("cli.train"):
            t0 = time.perf_counter()
            rc, _ = _cli(self.argv)
            latency = time.perf_counter() - t0
        quality = {}
        try:
            problems = [f"exit {rc}"] if rc != 0 else self._check(quality)
            key = _sha256(self.output)
        except CHECK_ERRORS as exc:
            problems, key = [repr(exc)], None
        return Pass([Op("train", latency, not problems, key, "; ".join(problems))], quality)

    def _check(self, quality):
        archive = load_model(self.output)
        if archive.labeling.n_clusters < 5:
            return [f"{archive.labeling.n_clusters} clusters < 5"]
        reduced = reduce_topics(archive.topic_model, 5)
        problems = []
        quality["purity"] = stats.purity(reduced.assignment.tolist(), self.themes)
        if quality["purity"] < 0.7:
            problems.append(f"purity {quality['purity']:.3f} < 0.7")
        for k, topic in enumerate(reduced.topics):
            hits = sum(w in THEME_UNION for w, _ in topic.words[:10])
            if hits < 7:
                problems.append(f"topic {k} has {hits} theme words < 7")
        vocab = archive.embedding.vocabulary
        quality["pwi_bits"] = pwi_hard(
            model_topic_spec(reduced, 10),
            build_stats(index_documents(self.docs, vocab), vocab),
        )
        return problems


class Cluster5k:
    """``reduction.reduce`` then ``clustering.cluster`` on planted vectors."""

    def __init__(self, plan, workdir):
        self.points = np.load(plan["points"])
        self.planted = plan["labels"]

    def run_pass(self, scope):
        error = None
        with scope("bench.cluster_op"):
            t0 = time.perf_counter()
            try:
                coords = topicforge.reduction.reduce(
                    self.points, topicforge.reduction.ReductionConfig()
                )
                labeling = topicforge.clustering.cluster(
                    coords, topicforge.clustering.ClusterConfig(min_cluster_size=15)
                )
            except ValueError as exc:
                error = exc
            latency = time.perf_counter() - t0
        if error is not None:
            return Pass([Op("cluster", latency, False, problem=repr(error))])
        found = labeling.labels.tolist()
        purity = stats.purity(found, self.planted, ignore=-1)
        problems = []
        if labeling.n_clusters < 20:
            problems.append(f"{labeling.n_clusters} clusters < 20")
        if purity < 0.9:
            problems.append(f"planted purity {purity:.3f} < 0.9")
        key = hashlib.sha256(labeling.labels.astype("<i8").tobytes()).hexdigest()
        op = Op("cluster", latency, not problems, key, "; ".join(problems))
        quality = {
            "purity": purity,
            "pwi_bits": stats.mutual_information_bits(found, self.planted),
        }
        return Pass([op], quality)


class CliSession:
    """A replayed block of CLI commands against a synthetic archive."""

    def __init__(self, plan, workdir):
        self.ops = plan["ops"]
        self.doc_topic = plan["doc_topic"]
        self.reduced = plan["paths"]["reduced"]

    def run_pass(self, scope):
        ops = []
        found = {"purity": [], "pwi_bits": []}
        for spec in self.ops:
            with scope(f"cli.{spec['kind']}"):
                t0 = time.perf_counter()
                rc, out = _cli(spec["argv"])
                latency = time.perf_counter() - t0
            key = hashlib.sha256(out.encode()).hexdigest()
            try:
                if rc != 0:
                    problem = f"exit {rc}"
                elif spec["kind"] == "reduce":
                    problem, key = self._check_reduce(), _sha256(self.reduced)
                else:
                    problem = self._check(spec, out, found)
            except CHECK_ERRORS as exc:
                problem = repr(exc)
            ops.append(Op(spec["kind"], latency, problem is None, key, problem))
        quality = {k: statistics.fmean(v) for k, v in found.items() if v}
        return Pass(ops, quality)

    def _check(self, spec, out, found):
        kind = spec["kind"]
        if kind.startswith("search"):
            rows = [line.split("\t")[0] for line in out.splitlines()]
            want = workloads.CLI_SEARCH_TOP_N[kind]
            if len(rows) != want:
                return f"{len(rows)} rows, expected {want}"
            if kind == "search_documents":
                hits = sum(self.doc_topic[r] == spec["topic"] for r in rows)
                found["purity"].append(hits / len(rows))
        elif kind == "topics":
            if len(json.loads(out)) != workloads.CLI_TOPICS:
                return "topic listing has the wrong length"
        else:
            report = json.loads(out)
            if report["n_topics"] != workloads.CLI_TOPICS or not report["total_pwi"] > 0:
                return f"{report['n_topics']} topics, total {report['total_pwi']}"
            if kind == "evaluate":
                found["pwi_bits"].append(report["total_pwi"])
        return None

    def _check_reduce(self):
        n = load_model(self.reduced).topic_model.n_topics
        return None if n == workloads.CLI_REDUCE_TO else f"reduced to {n} topics"


WORKLOADS = {
    "train-five-theme": TrainFiveTheme,
    "cluster-5k": Cluster5k,
    "cli-session": CliSession,
}


@contextlib.contextmanager
def untraced(name):
    yield


class Traced:
    """Scope that records spans around every wrapped call of an op."""

    def __init__(self):
        self.recorder = Recorder()
        self.patchers = [
            Patcher(layers.WRAPS, span_wrapper(self.recorder)),
            Patcher(layers.COUNTS, count_wrapper(self.recorder)),
        ]

    @contextlib.contextmanager
    def __call__(self, name):
        for patcher in self.patchers:
            patcher.install()
        index = self.recorder.open(name)
        try:
            yield
        finally:
            self.recorder.close(index)
            for patcher in self.patchers:
                patcher.uninstall()
            self.recorder.op += 1

    @property
    def missing(self):
        return [b for patcher in self.patchers for b in patcher.missing]


class Allocs:
    """Scope that takes the peak traced allocation of selected calls."""

    def __init__(self):
        self.peaks: dict[str, float] = {}
        self.patcher = Patcher(layers.ALLOCS, alloc_wrapper(self.peaks))

    @contextlib.contextmanager
    def __call__(self, name):
        self.patcher.install()
        try:
            yield
        finally:
            self.patcher.uninstall()


def _check_repeats(passes):
    """Mark every op whose output differs from the first pass's as failed."""
    first = passes[0].ops
    for later in passes[1:]:
        for op, ref in zip(later.ops, first):
            if op.ok and op.key != ref.key:
                op.ok = False
                op.problem = "output differs from the first pass"


def _summary(passes):
    _check_repeats(passes)
    ops = [op for p in passes for op in p.ops]
    problems = sorted({f"{op.kind}: {op.problem}" for op in ops if not op.ok})
    return len(ops), sum(not op.ok for op in ops), problems


def _quality(passes, name):
    values = [p.quality[name] for p in passes if name in p.quality]
    return statistics.median(values) if values else 0.0


def timed_run(workload, seconds):
    """Untraced passes for about ``seconds``; end-to-end metrics."""
    passes = []
    spent = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(untraced))
        spent.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(spent) > seconds:
            break
    attempted, failed, problems = _summary(passes)
    latencies = [op.latency for p in passes for op in p.ops]
    q, tail, beyond = stats.tail_percentile(latencies)
    values = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "fraction"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
        "purity": (_quality(passes, "purity"), "fraction"),
        "pwi_bits": (_quality(passes, "pwi_bits"), "bits"),
    }
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
    notes = [
        f"passes: {len(passes)}, ops: {len(latencies)}",
        f"latency_tail_ms is p{q:g} with {beyond} of {len(latencies)} samples beyond it",
    ]
    return attempted, failed, problems, metrics, notes


def traced_run(workload):
    """One untraced, one traced and one allocation-tracking pass; per-layer metrics."""
    plain = workload.run_pass(untraced)
    traced = Traced()
    spanned = workload.run_pass(traced)
    allocs = Allocs()
    tracked = workload.run_pass(allocs)
    attempted, failed, problems = _summary([plain, spanned, tracked])
    latencies: dict[str, list[float]] = {}
    for op in plain.ops:
        kind = "search" if op.kind.startswith("search") else op.kind
        latencies.setdefault(kind, []).append(op.latency)
    traced_pass = layers.TracedPass(
        traced.recorder, allocs.peaks, plain.wall, spanned.wall, latencies, span_cost()
    )
    metrics, missing = layers.layer_metrics(
        traced_pass, traced.missing + allocs.patcher.missing
    )
    notes = [layers.blocking_path(traced_pass)[1]]
    if missing:
        notes.append(f"missing per-layer metrics (wrap point gone): {', '.join(missing)}")
    return attempted, failed, problems, metrics, notes, traced.recorder.spans


def write_spans(path, spans):
    """One JSON object per span: name, start, end, parent index, op id."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


def measure(workload_name, workdir, seconds, trace):
    """Run the workload whose plan set-up left in ``workdir``; spans go there too."""
    with open(f"{workdir}/plan.json", encoding="utf-8") as fh:
        plan = json.load(fh)
    workload = WORKLOADS[workload_name](plan, workdir)
    if trace:
        attempted, failed, problems, metrics, notes, spans = traced_run(workload)
        write_spans(f"{workdir}/spans.jsonl", spans)
    else:
        attempted, failed, problems, metrics, notes = timed_run(workload, seconds)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "notes": notes,
    }
