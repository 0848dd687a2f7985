"""Span tracing from outside the package.

A traced pass rebinds selected topicforge functions, in the namespace of
the module that calls them, to wrappers that record a span per call:
name, start, end, parent span and op id.  Spans stay in memory; the
bindings are restored when the op ends, so untraced passes run the
original code.  Nothing called once per hierarchical-softmax step is
wrapped.

A binding is written ``module:attribute`` (the attribute may be dotted,
as in ``topicforge.persistence:ModelArchive.from_pipeline``).  A binding
that no longer resolves is reported as missing, and every metric that
needs it is left out rather than reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

# Calls and repeats of the no-op that ``span_cost`` times.
COST_CALLS = 20_000
COST_REPEATS = 5


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """In-memory span store with a stack for the current parent.

    ``data`` holds what hooks and counters record, keyed by span name and
    then by what was recorded.  ``hook_s`` is the time hooks took inside
    their caller's span, which is part of the tracing overhead.
    """

    spans: list[Span] = field(default_factory=list)
    data: dict[str, dict[str, object]] = field(default_factory=dict)
    hook_s: float = 0.0
    op: int = 0
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    def add(self, name: str, key: str, amount: float = 1.0) -> None:
        slot = self.data.setdefault(name, {})
        slot[key] = slot.get(key, 0.0) + amount

    def put(self, name: str, key: str, value: object) -> None:
        self.data.setdefault(name, {})[key] = value


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, subtract=None) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Grandchildren lie inside their own parent's interval, so they are not
    subtracted twice.  With ``subtract`` given, only children for which
    ``subtract(child)`` is true are taken out.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is None or (subtract and not subtract(span)):
            continue
        parent = spans[span.parent]
        children.setdefault(span.parent, []).append(
            (max(span.start, parent.start), min(span.end, parent.end))
        )
    return [
        span.duration - _covered(children.get(i, ())) for i, span in enumerate(spans)
    ]


def resolve(binding: str):
    """Return ``(owner, attribute, raw value)`` or raise LookupError."""
    module_name, _, path = binding.partition(":")
    *outer, attr = path.split(".")
    try:
        owner = importlib.import_module(module_name)
        for part in outer:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise LookupError(binding) from exc
    return owner, attr, raw


class Patcher:
    """Rebinds functions to wrappers and puts the originals back."""

    def __init__(self, bindings, make_wrapper):
        self.bindings = bindings
        self.make_wrapper = make_wrapper
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for binding, spec in self.bindings:
            try:
                owner, attr, raw = resolve(binding)
            except LookupError:
                self.missing.append(binding)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.make_wrapper(raw.__func__, spec))
            else:
                wrapped = self.make_wrapper(raw, spec)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def span_wrapper(recorder: Recorder):
    """Wrapper factory: ``spec`` is ``(name, hook)`` or a bare name.

    ``hook(recorder, span, args, result)`` runs after the span closes to
    record counts; its time is added to ``recorder.hook_s``.
    """

    def make(fn, spec):
        name, hook = spec if isinstance(spec, tuple) else (spec, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if hook is not None:
                start = time.perf_counter()
                hook(recorder, recorder.spans[index], args, result)
                recorder.hook_s += time.perf_counter() - start
            return result

        return wrapper

    return make


def span_cost() -> float:
    """Seconds one span adds to a call, measured on a wrapped no-op.

    The median time of ``COST_CALLS`` wrapped calls minus that of as many
    plain calls, over ``COST_REPEATS`` repeats, divided by the call count.
    """

    def noop():
        return None

    recorder = Recorder()
    wrapped = span_wrapper(recorder)(noop, "bench.noop")
    root = recorder.open("bench.span_cost")
    plain_s, wrapped_s = [], []
    for _ in range(COST_REPEATS):
        for fn, times in ((noop, plain_s), (wrapped, wrapped_s)):
            del recorder.spans[1:]
            start = time.perf_counter()
            for _ in range(COST_CALLS):
                fn()
            times.append(time.perf_counter() - start)
    recorder.close(root)
    return max(0.0, statistics.median(wrapped_s) - statistics.median(plain_s)) / COST_CALLS


def count_wrapper(recorder: Recorder):
    """Wrapper factory that counts calls under the span name ``spec``."""

    def make(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder.add(name, "calls")
            return fn(*args, **kwargs)

        return wrapper

    return make


def alloc_wrapper(peaks: dict[str, float]):
    """Wrapper factory: peak traced allocation of each call, in MB, under ``spec``.

    ``tracemalloc`` runs only for the duration of the wrapped call, so the
    rest of the pass is not slowed.
    """

    def make(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                peaks[key] = max(peaks.get(key, 0.0), peak)

        return wrapper

    return make
