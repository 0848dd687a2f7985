"""Nonlinear dimension reduction of the document vectors.

The reduction builds an exact k-nearest-neighbor graph under cosine
distance, calibrates per-point kernel widths so every point sees
``log2(k)`` effective neighbors, symmetrizes the resulting directed
membership weights into a fuzzy graph, and lays the points out in a low
dimensional space by stochastic gradient descent over the graph's edges
with negative sampling.

The neighbor search computes the distance matrix a block of rows at a
time and keeps only each row's k nearest, so memory grows linearly with
the number of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import kernels
from .errors import ValidationError

_SMOOTH_TOLERANCE = 1e-5
_SMOOTH_ITERATIONS = 64
# Rows of the distance matrix the neighbor search holds at a time.
_KNN_BLOCK = 512
# a, b of UMAP's membership curve at min_dist 0.1, as scipy's curve_fit fits them.
CURVE_A = 1.5769434602697652
CURVE_B = 0.8950608778515733


@dataclass(frozen=True)
class ReductionConfig:
    """Knobs for the reduction stage.

    Neighbors are found under cosine distance; ``layout_epochs``
    edges-proportional-to-weight passes of SGD run with a learning rate
    decaying linearly from 1 to zero.
    """

    n_neighbors: int = 15
    n_components: int = 5
    layout_epochs: int = 200
    negative_sample_rate: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.n_neighbors >= 2:
            raise ValidationError(f"n_neighbors must be >= 2, got {self.n_neighbors}")
        if not self.n_components >= 1:
            raise ValidationError(
                f"n_components must be >= 1, got {self.n_components}"
            )
        if not self.layout_epochs >= 1:
            raise ValidationError(
                f"layout_epochs must be >= 1, got {self.layout_epochs}"
            )
        if not self.negative_sample_rate >= 0:
            raise ValidationError("negative_sample_rate must be >= 0")
        if not self.seed >= 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class FuzzyGraph:
    """Symmetric weighted neighborhood graph.

    Edges are stored once with ``heads < tails`` and weights in (0, 1].
    """

    n_points: int
    heads: np.ndarray
    tails: np.ndarray
    weights: np.ndarray


def knn_graph(points: np.ndarray, n_neighbors: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbors of every point under cosine distance.

    Returns ``(indices, distances)`` of shape ``(n, k)`` with each row
    sorted by ascending distance, ties broken by the lower index, self
    excluded.  Rows must be finite and non-zero.  Cosine distance is
    ``1 - cosine`` clamped at 0.
    Distances are computed ``_KNN_BLOCK`` rows at a time, so memory grows
    with ``n`` times the block, never with ``n^2``.
    """
    n = len(points)
    k = n_neighbors
    if k < 1 or k >= n:
        raise ValidationError(
            f"n_neighbors must be in [1, {n - 1}] for {n} points, got {k}"
        )
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValidationError(f"points must be finite (row {bad})")
    norms = np.linalg.norm(points, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.argmax(norms == 0.0))
        raise ValidationError(
            f"cosine distance is undefined for zero vectors (row {bad})"
        )
    unit = points / norms[:, None]
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k))
    for start in range(0, n, _KNN_BLOCK):
        block = slice(start, start + _KNN_BLOCK)
        dist = unit[block] @ unit.T
        np.subtract(1.0, dist, out=dist)
        np.maximum(dist, 0.0, out=dist)
        for i, row in enumerate(dist, start):
            row[i] = np.inf
            # The columns within the k-th distance, in index order, then a
            # stable sort: the first k are those of a stable full-row sort.
            near = np.flatnonzero(row <= np.partition(row, k - 1)[k - 1])
            near = near[np.argsort(row[near], kind="stable")[:k]]
            indices[i] = near
            distances[i] = row[near]
    return indices, distances


def smooth_knn_calibrate(distances: np.ndarray) -> tuple[float, float]:
    """Calibrate one point's neighborhood kernel.

    ``rho`` is the smallest positive neighbor distance (0 if none) and
    ``sigma`` solves ``sum_j exp(-max(0, d_j - rho) / sigma) = log2(k)``
    by binary search, stopping after 64 iterations or when the residual
    drops below 1e-5.  When every distance is at most rho the target is
    unreachable and sigma falls back to the sentinel ``1000 * max(d)``
    (1.0 for an all-zero list).
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValidationError("distances must be a non-empty 1-d array")
    if not np.isfinite(d).all():
        raise ValidationError("distances must be finite")
    if np.any(d < 0):
        raise ValidationError("distances must be non-negative")
    rho, sigma = _calibrate_rows(d[None])
    return float(rho[0]), float(sigma[0])


def _calibrate_rows(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``smooth_knn_calibrate`` of every row of ``dist``, searched together.

    Every row takes the scalar search's steps; a row leaves the active
    set at the step where its residual drops below the tolerance.
    """
    rho = np.where(dist > 0, dist, np.inf).min(axis=1)
    rho[rho == np.inf] = 0.0
    d_max = dist.max(axis=1)
    sigma = np.where(d_max > 0, 1000.0 * d_max, 1.0)
    rows = np.flatnonzero(d_max > rho)
    shifted = np.maximum(dist[rows] - rho[rows, None], 0.0)
    target = math.log2(dist.shape[1])
    lo, hi, mid = np.zeros(len(rows)), np.full(len(rows), np.inf), np.ones(len(rows))
    for _ in range(_SMOOTH_ITERATIONS):
        if rows.size == 0:
            break
        psum = np.exp(-shifted / mid[:, None]).sum(axis=1)
        live = np.abs(psum - target) >= _SMOOTH_TOLERANCE
        sigma[rows[~live]] = mid[~live]
        rows, shifted, psum = rows[live], shifted[live], psum[live]
        lo, hi, mid = lo[live], hi[live], mid[live]
        over = psum > target
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
        mid = np.where(hi == np.inf, mid * 2.0, (lo + hi) / 2.0)
    sigma[rows] = mid
    return rho, sigma


def fuzzy_simplicial_set(points: np.ndarray, config: ReductionConfig) -> FuzzyGraph:
    """Build the symmetrized fuzzy neighborhood graph of the points.

    Directed membership of neighbor j in i's neighborhood is
    ``exp(-max(0, d_ij - rho_i) / sigma_i)``; directed weights a and b
    for a pair combine into ``a + b - a * b``.
    """
    n = len(points)
    idx, dist = knn_graph(points, config.n_neighbors)
    rho, sigma = _calibrate_rows(dist)
    memb = np.exp(-np.maximum(dist - rho[:, None], 0.0) / sigma[:, None])
    rows = np.repeat(np.arange(n), config.n_neighbors)
    directed = scipy.sparse.coo_matrix(
        (memb.ravel(), (rows, idx.ravel())), shape=(n, n)
    ).tocsr()
    sym = (directed + directed.T - directed.multiply(directed.T)).tocoo()
    upper = sym.row < sym.col
    heads = sym.row[upper]
    tails = sym.col[upper]
    weights = sym.data[upper]
    keep = weights > 0
    return FuzzyGraph(
        n_points=n,
        heads=heads[keep].astype(np.int64),
        tails=tails[keep].astype(np.int64),
        weights=weights[keep],
    )


def optimize_layout(
    graph: FuzzyGraph, config: ReductionConfig, rng: np.random.Generator
) -> np.ndarray:
    """Lay the graph out in ``n_components`` dimensions.

    Coordinates start uniform in [-10, 10].  Each edge is scheduled
    proportionally to its weight (the heaviest edge once per epoch);
    scheduled edges pull their endpoints together along the gradient of
    the membership curve ``1 / (1 + a x^(2b))`` (``CURVE_A``, ``CURVE_B``),
    and each endpoint is pushed away from ``negative_sample_rate`` sampled
    points.  Updates within an epoch are computed from the epoch-start
    positions and applied together, with every component clipped to +-4
    before the learning rate is applied.

    The epochs run in the compiled kernel (``kernels.optimize_layout``).
    Its negative samples are a counter-based stream keyed by one seed that
    ``rng`` draws after the coordinates, and its powers are portable, so
    given the graph the layout's bytes do not depend on the CPU.
    """
    n = graph.n_points
    coords = rng.uniform(-10.0, 10.0, (n, config.n_components))
    if len(graph.weights) == 0:
        return coords
    seed = int(rng.integers(0, 2**63))
    return kernels.optimize_layout(
        coords,
        graph.heads,
        graph.tails,
        graph.weights,
        config.layout_epochs,
        config.negative_sample_rate,
        CURVE_A,
        CURVE_B,
        seed,
    )


def reduce(points: np.ndarray, config: ReductionConfig) -> np.ndarray:
    """Reduce points to ``config.n_components`` dimensions.

    Deterministic for a fixed seed: the same points and config always
    produce the same coordinates.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError("points must be a 2-d array")
    if len(points) <= config.n_neighbors:
        raise ValidationError(
            f"need more than n_neighbors={config.n_neighbors} points, "
            f"got {len(points)}"
        )
    graph = fuzzy_simplicial_set(points, config)
    rng = np.random.default_rng(config.seed)
    return optimize_layout(graph, config, rng)
