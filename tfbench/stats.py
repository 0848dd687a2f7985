"""Pure helpers behind the benchmark's numbers.

Nothing here imports topicforge, so each rule can be tested on its own.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# Percentiles tried for the tail latency, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(sorted_values, q):
    """1-based nearest rank of percentile ``q`` among ``len(sorted_values)``."""
    return max(1, math.ceil(q / 100.0 * len(sorted_values)))


def tail_percentile(values):
    """Highest ``TAIL_LADDER`` percentile with at least ``MIN_BEYOND`` samples above it.

    Returns ``(percentile, value, samples_beyond)`` by the nearest-rank
    rule.  With too few samples for any ladder step the maximum is
    returned as percentile 100 with zero samples beyond, so the caller
    can say the tail is not resolved.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    best = None
    for q in TAIL_LADDER:
        rank = nearest_rank(ordered, q)
        beyond = len(ordered) - rank
        if beyond >= MIN_BEYOND:
            best = (q, ordered[rank - 1], beyond)
    if best is None:
        return 100.0, ordered[-1], 0
    return best


def purity(found, planted, ignore=None):
    """Share of items whose found group's majority planted label they carry.

    ``found`` and ``planted`` are parallel label sequences.  Items whose
    found label equals ``ignore`` (noise) or whose planted label equals
    ``ignore`` are left out of both counts.
    """
    groups: dict = {}
    for f, p in zip(found, planted):
        if ignore is not None and (f == ignore or p == ignore):
            continue
        groups.setdefault(f, Counter())[p] += 1
    total = sum(sum(c.values()) for c in groups.values())
    if total == 0:
        return 0.0
    return sum(max(c.values()) for c in groups.values()) / total


def mutual_information_bits(a, b):
    """Mutual information in bits between two parallel label sequences."""
    n = len(a)
    joint = Counter(zip(a, b))
    ca = Counter(a)
    cb = Counter(b)
    return sum(
        (c / n) * math.log2(c * n / (ca[x] * cb[y])) for (x, y), c in joint.items()
    )


def hs_steps_expected(token_arrays, keep_probability, window, epochs):
    """Expected hierarchical-softmax steps of one training run (computed).

    Every surrounding word within ``window`` of a center position survives
    subsampling with its keep probability and then costs one skip-gram
    and one bag-of-words step, so the expectation is
    ``2 * epochs * sum over positions of the in-window keep probabilities``.
    """
    keep = np.asarray(keep_probability, dtype=np.float64)
    total = 0.0
    for toks in token_arrays:
        k = keep[np.asarray(toks, dtype=np.int64)]
        n = len(k)
        if n < 2:
            continue
        prefix = np.concatenate(([0.0], np.cumsum(k)))
        pos = np.arange(n)
        lo = np.maximum(pos - window, 0)
        hi = np.minimum(pos + window + 1, n)
        total += float((prefix[hi] - prefix[lo] - k).sum())
    return 2.0 * epochs * total


def scheduled_layout_updates(weights, layout_epochs):
    """Edge updates the layout schedules (computed from the graph weights).

    An edge of weight w is due every ``max(w) / w`` epochs from that epoch
    on, so over epochs ``0 .. layout_epochs - 1`` it is applied
    ``floor((layout_epochs - 1) / (max(w) / w))`` times.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        return 0
    period = w.max() / w
    return int(np.floor((layout_epochs - 1) / period).sum())
