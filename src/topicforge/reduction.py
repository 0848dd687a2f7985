"""Nonlinear dimension reduction of the document vectors.

The reduction builds an exact k-nearest-neighbor graph under cosine
distance, calibrates per-point kernel widths so every point sees
``log2(k)`` effective neighbors, symmetrizes the resulting directed
membership weights into a fuzzy graph, and lays the points out in a low
dimensional space by stochastic gradient descent over the graph's edges
with negative sampling.

The neighbor search lets a float32 BLAS product of a block of rows with
every row pick each row's candidates, then the compiled kernel recomputes
the candidates' distances exactly, in float64 and in a fixed order, and
keeps the k nearest.  The graph's bytes therefore do not depend on the
CPU, and memory grows linearly with the number of points: a 256-row block
holds 1 KiB per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .embedding import _unit_rows
from .errors import ValidationError

_SMOOTH_TOLERANCE = 1e-5
_SMOOTH_ITERATIONS = 64
# Rows whose float32 similarities the neighbor search holds at a time.
_KNN_BLOCK = 256
_ZERO_ROW = "cosine distance is undefined for zero vectors (row {row})"
# a, b of UMAP's membership curve at min_dist 0.1, as scipy's curve_fit fits them.
CURVE_A = 1.5769434602697652
CURVE_B = 0.8950608778515733
# Points each endpoint of a sampled edge is pushed away from, as in UMAP.
NEGATIVE_SAMPLE_RATE = 5


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
    excluded.  Rows must be finite and non-zero, of any magnitude, as
    ``_unit_rows`` scales them before their norms are taken.  Cosine distance
    is ``1 - u_i . u_j`` clamped at 0, for the unit rows ``u``, with the
    dot product summed in float64 from coordinate 0, so the bytes do not
    depend on the CPU or on which rows are computed together.

    A float32 product of ``_KNN_BLOCK`` rows with all rows picks each
    row's candidates, and ``kernels.knn_rows`` computes their exact
    distances and keeps the k nearest.  Besides the float64 and float32
    unit rows, memory holds one block of ``4 * _KNN_BLOCK * n`` bytes,
    never anything of ``n^2``.
    """
    n = len(points)
    k = n_neighbors
    if k < 1 or k >= n:
        raise ValidationError(
            f"n_neighbors must be in [1, {n - 1}] for {n} points, got {k}"
        )
    points = np.asarray(points, dtype=np.float64)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValidationError(f"points must be finite (row {bad})")
    unit = _unit_rows(points, _ZERO_ROW)
    unit32 = unit.astype(np.float32)
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k))
    sims = np.empty((min(n, _KNN_BLOCK), n), dtype=np.float32)
    for start in range(0, n, _KNN_BLOCK):
        block = unit32[start : start + _KNN_BLOCK]
        rows = sims[: len(block)]
        np.matmul(block, unit32.T, out=rows)
        stop = start + len(block)
        indices[start:stop], distances[start:stop] = kernels.knn_rows(
            rows, unit, start, k
        )
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
    import scipy.sparse  # here, so read-only commands never import it

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
    and each endpoint is pushed away from ``NEGATIVE_SAMPLE_RATE`` sampled
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
        NEGATIVE_SAMPLE_RATE,
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
