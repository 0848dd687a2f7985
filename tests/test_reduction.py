"""Neighbor graphs, kernel calibration, and the low-dimensional layout."""

import ctypes
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from topicforge import FuzzyGraph, ReductionConfig, ValidationError, kernels, reduce
from topicforge.reduction import (
    CURVE_A,
    CURVE_B,
    NEGATIVE_SAMPLE_RATE,
    _calibrate_rows,
    _symmetrize,
    fuzzy_simplicial_set,
    knn_graph,
    optimize_layout,
    smooth_knn_calibrate,
)

from oracles import symmetrized_graph_sparse

# Solves 1 + x + x^2 = log2(3) for x = exp(-1/sigma) on distances [1, 2, 3].
ANALYTIC_SIGMA_123 = -1.0 / math.log((math.sqrt(4.0 * math.log2(3.0) - 3.0) - 1.0) / 2.0)


def find_ab_params(min_dist):
    """UMAP's membership curve ``1 / (1 + a x^(2b))``, least-squares fitted
    over [0, 3] to the curve that is 1 up to min_dist and decays as
    ``exp(-(x - min_dist))`` beyond it: the reference for CURVE_A, CURVE_B."""

    def curve(x, a, b):
        return 1.0 / (1.0 + a * x ** (2.0 * b))

    xv = np.linspace(0.0, 3.0, 300)
    yv = np.where(xv < min_dist, 1.0, np.exp(-(xv - min_dist)))
    params, _ = curve_fit(curve, xv, yv, p0=[1.0, 1.0])
    return float(params[0]), float(params[1])


def dense_distances(points):
    """Whole n x n distance matrix in knn_graph's fixed order: each dot
    product of unit rows summed in float64 from coordinate 0, one
    rounded product and one rounded sum per coordinate, then ``1 - s``
    clamped at 0."""
    unit = points / np.linalg.norm(points, axis=1)[:, None]
    s = np.zeros((len(unit), len(unit)))
    for column in unit.T:
        s += np.outer(column, column)
    return np.maximum(1.0 - s, 0.0)


def dense_knn(points, k):
    """Reference kNN: a stable sort of every full row of the dense matrix."""
    dist = dense_distances(points)
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(dist, order, axis=1)


def knn_matrix(points):
    """Distance matrix read back from knn_graph with every other point."""
    n = len(points)
    idx, dist = knn_graph(points, n - 1)
    full = np.zeros((n, n))
    full[np.arange(n)[:, None], idx] = dist
    return full


def scalar_calibrate(d):
    """One row's kernel calibration as a plain binary search over floats."""
    positive = d[d > 0]
    rho = float(positive.min()) if positive.size else 0.0
    d_max = float(d.max())
    if d_max <= rho:
        return rho, (1000.0 * d_max if d_max > 0 else 1.0)
    target = math.log2(d.size)
    shifted = np.maximum(d - rho, 0.0)
    lo, hi, mid = 0.0, np.inf, 1.0
    for _ in range(64):
        psum = float(np.exp(-shifted / mid).sum())
        if abs(psum - target) < 1e-5:
            break
        if psum > target:
            hi = mid
            mid = (lo + hi) / 2.0
        else:
            lo = mid
            mid = mid * 2.0 if hi == np.inf else (lo + hi) / 2.0
    return rho, mid


# The numpy twins of the kernel's negative sampler and portable power in
# src/topicforge/_kernels.c: every operation is repeated in the same order,
# so results must be bit-equal.  ln 2 is split as fdlibm splits it.
LN2_HI = float.fromhex("0x1.62e42feep-1")
LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
ROUND_2M16 = float.fromhex("0x1.8p36")
ROUND_INT = float.fromhex("0x1.8p52")
TABLE = 128


def series_log(x):
    s = (x - 1.0) / (x + 1.0)
    s2 = s * s
    t = 1.0 / 41.0
    for i in range(19, -1, -1):
        t = 1.0 / (2 * i + 1) + s2 * t
    return 2.0 * s * t


def series_exp(v):
    t = 1.0
    for i in range(24, 0, -1):
        t = 1.0 + v * t / i
    return t


def round_2m16(x):
    return (x + ROUND_2M16) - ROUND_2M16


LOG_C = np.array([1.0 + (j + 0.5) / TABLE for j in range(TABLE)])
LOG_INV_C = 1.0 / LOG_C
LOG_C_FULL = np.array([series_log(float(c)) for c in LOG_C])
LOG_C_HI = np.array([round_2m16(x) for x in LOG_C_FULL])
LOG_C_LO = LOG_C_FULL - LOG_C_HI
EXP_T = np.array([series_exp((j * LN2_HI + j * LN2_LO) / TABLE) for j in range(TABLE)])
LN2_HI16 = round_2m16(LN2_HI)
LN2_LO16 = (LN2_HI - LN2_HI16) + LN2_LO
INV_LN2_N = TABLE / (LN2_HI + LN2_LO)


def pow2i(e):
    return ((e + 1023).astype(np.uint64) << 52).view(np.float64)


def log_parts(x):
    """``log x`` as a head that is a multiple of 2^-16 plus a small tail."""
    u = x.view(np.uint64)
    subnormal = u < (1 << 52)
    u = np.where(subnormal, (x * 2.0**52).view(np.uint64), u)
    k = (u >> 52).astype(np.int64) - 1023 - np.where(subnormal, 52, 0)
    j = ((u >> 45) & 127).astype(np.intp)
    m = ((u & ((1 << 52) - 1)) | (1023 << 52)).view(np.float64)
    r = (m - LOG_C[j]) * LOG_INV_C[j]
    q = r * r * (-0.5 + r * (1.0 / 3 + r * (-0.25 + r * (0.2 + r * (-1.0 / 6)))))
    hi = k * LN2_HI16 + LOG_C_HI[j]
    lo = (k * LN2_LO16 + LOG_C_LO[j]) + (r + q)
    return hi, lo


def exp_parts(y_hi, y_lo):
    """``exp(y_hi + y_lo)``; inf above 710, 0 below -746, NaN kept."""
    y = y_hi + y_lo
    live = (y < 710.0) & ~(y < -746.0)
    h, l, yl = (np.where(live, v, 0.0) for v in (y_hi, y_lo, y))
    kd = (yl * INV_LN2_N + ROUND_INT) - ROUND_INT
    ki = kd.astype(np.int64)
    r = (h - kd * (LN2_HI / TABLE)) + (l - kd * (LN2_LO / TABLE))
    q = r + r * r * (0.5 + r * (1.0 / 6 + r * (1.0 / 24 + r * (1.0 / 120))))
    t = EXP_T[ki & (TABLE - 1)]
    v = t + t * q
    e = ki >> 7
    out = np.select(
        [e > 1023, e < -1022],
        [
            (v * 2.0**1023) * pow2i(np.clip(e - 1023, -1022, 1023)),
            (v * pow2i(np.clip(e + 1022, -1022, 1023))) * 2.0**-1022,
        ],
        v * pow2i(np.clip(e, -1022, 1023)),
    )
    dead = np.where(y < -746.0, 0.0, np.where(y > 0.0, np.inf, y))
    return np.where(live, out, dead)


def portable_power(x, e):
    """``x ** e`` as the kernel computes it: exp(e log x) in head-tail steps."""
    x = np.asarray(x, dtype=np.float64)
    c = 134217729.0 * e
    e_hi = c - (c - e)
    e_lo = e - e_hi
    normal = (x > 0.0) & (x < np.inf)
    with np.errstate(all="ignore"):
        hi, lo = log_parts(np.where(normal, x, 1.0))
        out = exp_parts(e_hi * hi, e_lo * hi + e * lo)
    if e == 0.0:
        special = np.ones_like(x)
    else:
        special = np.where((e > 0.0) == (x == 0.0), 0.0, np.inf)
    special = np.where((x == 0.0) | (x == np.inf), special, np.nan)
    return np.where(normal, out, special)


def negative_samples(seed, start, count, n):
    """Draws ``start`` to ``start + count - 1`` of the kernel's sample stream."""
    z = np.uint64(seed) + np.arange(start + 1, start + count + 1, dtype=np.uint64) * (
        np.uint64(0x9E3779B97F4A7C15)
    )
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    n = np.uint64(n)
    return (((z >> 32) * n + (((z & 0xFFFFFFFF) * n) >> 32)) >> 32).astype(np.int64)


def _sum_in_order(terms):
    """``((t0 + t1) + t2) + ...`` over an iterable of equal-shape arrays."""
    terms = iter(terms)
    total = next(terms).copy()
    for term in terms:
        total += term
    return total


def kernel_layout(graph, config, rng, nsr):
    """``optimize_layout`` at negative sample rate ``nsr``: the compiled
    kernel on the same start coordinates and sampler seed."""
    coords = rng.uniform(-10.0, 10.0, (graph.n_points, config.n_components))
    seed = int(rng.integers(0, 2**63))
    return kernels.optimize_layout(
        coords, graph.heads, graph.tails, graph.weights,
        config.layout_epochs, nsr, CURVE_A, CURVE_B, seed,
    )


def threaded_layout(graph, config, rng, nsr, threads):
    """``kernel_layout`` through ``tf_optimize_layout`` itself, run on at
    most ``threads`` threads."""
    coords = rng.uniform(-10.0, 10.0, (graph.n_points, config.n_components))
    seed = int(rng.integers(0, 2**63))
    heads = np.ascontiguousarray(graph.heads, dtype=np.int64)
    tails = np.ascontiguousarray(graph.tails, dtype=np.int64)
    weights = np.ascontiguousarray(graph.weights, dtype=np.float64)
    status = kernels.load().tf_optimize_layout(
        coords.ctypes.data, graph.n_points, config.n_components,
        heads.ctypes.data, tails.ctypes.data, weights.ctypes.data, len(weights),
        config.layout_epochs, nsr, CURVE_A, CURVE_B, seed, threads,
    )
    assert status == 0
    return coords


def loop_layout(graph, config, rng, nsr):
    """The layout as numpy loops, one component at a time, with the
    kernel's sampler and power: the reference the kernel must equal.

    Sums run left to right, and each point's updates add in the order
    heads, tails, head pushes, tail pushes, as ``np.bincount`` adds them.
    """
    n = graph.n_points
    coords = rng.uniform(-10.0, 10.0, (n, config.n_components))
    if len(graph.weights) == 0:
        return coords
    seed = int(rng.integers(0, 2**63))
    a, b = CURVE_A, CURVE_B
    epochs = config.layout_epochs
    eps_per_sample = graph.weights.max() / graph.weights
    next_sample = eps_per_sample.copy()
    drawn = 0
    columns = np.ascontiguousarray(coords.T)
    for epoch in range(epochs):
        due = next_sample <= epoch
        if not np.any(due):
            continue
        lr = 1.0 - epoch / epochs
        heads = graph.heads[due]
        tails = graph.tails[due]
        diffs = [x[heads] - x[tails] for x in columns]
        r2 = _sum_in_order(d * d for d in diffs)
        with np.errstate(all="ignore"):
            coeff = np.where(
                r2 > 0.0,
                (-2.0 * a * b * portable_power(r2, b - 1.0))
                / (1.0 + a * portable_power(r2, b)),
                0.0,
            )
        updates = []
        for d in diffs:
            grad = np.clip(coeff * d, -4.0, 4.0)
            updates.append([grad, -grad])
        targets = [heads, tails]
        if nsr > 0:
            for anchors in (heads, tails):
                # One sample per row, so each anchor's pushes add left to
                # right; an anchor drawn against itself gets a zero push.
                count = len(anchors) * nsr
                samples = negative_samples(seed, drawn, count, n)
                samples = samples.reshape(len(anchors), nsr).T.copy()
                drawn += count
                diffs = [x[anchors] - x[samples] for x in columns]
                r2 = _sum_in_order(d * d for d in diffs)
                coeff = (2.0 * b) / ((0.001 + r2) * (1.0 + a * portable_power(r2, b)))
                for parts, d in zip(updates, diffs):
                    grad = np.multiply(coeff, d, out=d)
                    np.clip(grad, -4.0, 4.0, out=grad)
                    parts.append(_sum_in_order(grad))
                targets.append(anchors)
        targets = np.concatenate(targets)
        for x, parts in zip(columns, updates):
            x += lr * np.bincount(targets, np.concatenate(parts), n)
        next_sample[due] += eps_per_sample[due]
    return np.ascontiguousarray(columns.T)


def block_negative_forces(coords, anchors, samples, a, b):
    """Summed repulsive updates of each anchor over (anchors, nsr, dim) blocks."""
    diff = coords[anchors][:, None, :] - coords[samples]
    r2 = _sum_in_order(diff[:, :, c] * diff[:, :, c] for c in range(diff.shape[2]))
    coeff = (2.0 * b) / ((0.001 + r2) * (1.0 + a * portable_power(r2, b)))
    coeff[samples == anchors[:, None]] = 0.0
    grad = np.clip(coeff[:, :, None] * diff, -4.0, 4.0)
    return _sum_in_order(grad[:, s] for s in range(grad.shape[1]))


def block_layout(graph, config, rng, nsr):
    """The layout loop on whole (edges, dim) blocks, updates added by np.add.at."""
    n = graph.n_points
    coords = rng.uniform(-10.0, 10.0, (n, config.n_components))
    seed = int(rng.integers(0, 2**63))
    a, b = CURVE_A, CURVE_B
    epochs = config.layout_epochs
    eps_per_sample = graph.weights.max() / graph.weights
    next_sample = eps_per_sample.copy()
    drawn = 0
    for epoch in range(epochs):
        due = next_sample <= epoch
        if not np.any(due):
            continue
        lr = 1.0 - epoch / epochs
        heads = graph.heads[due]
        tails = graph.tails[due]
        diff = coords[heads] - coords[tails]
        r2 = _sum_in_order(diff[:, c] * diff[:, c] for c in range(diff.shape[1]))
        with np.errstate(all="ignore"):
            coeff = np.where(
                r2 > 0.0,
                (-2.0 * a * b * portable_power(r2, b - 1.0))
                / (1.0 + a * portable_power(r2, b)),
                0.0,
            )
        grad = np.clip(coeff[:, None] * diff, -4.0, 4.0)
        delta = np.zeros_like(coords)
        np.add.at(delta, heads, grad)
        np.add.at(delta, tails, -grad)
        if nsr > 0:
            for anchors in (heads, tails):
                count = len(anchors) * nsr
                samples = negative_samples(seed, drawn, count, n)
                drawn += count
                push = block_negative_forces(
                    coords, anchors, samples.reshape(len(anchors), nsr), a, b
                )
                np.add.at(delta, anchors, push)
        coords += lr * delta
        next_sample[due] += eps_per_sample[due]
    return coords


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_neighbors": 1},
            {"n_components": 0},
            {"layout_epochs": 0},
            {"seed": -1},
            {"n_neighbors": float("nan")},
            {"n_components": float("nan")},
            {"layout_epochs": float("nan")},
            {"seed": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            ReductionConfig(**kwargs)


class TestPairwiseDistances:
    """Distances as knn_graph reports them, with k = n - 1."""

    def test_cosine_hand_values(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-2.0, 0.0], [3.0, 0.0]])
        d = knn_matrix(pts)
        assert d[0, 1] == pytest.approx(1.0)
        assert d[0, 2] == pytest.approx(2.0)
        assert d[0, 3] == pytest.approx(0.0)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)

    def test_cosine_rejects_zero_rows(self):
        pts = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="row 1"):
            knn_graph(pts, 1)
        with pytest.raises(ValidationError, match="row 0"):
            knn_graph(np.zeros((3, 0)), 1)

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((40, 8))
        assert np.all(knn_graph(pts, 39)[1] >= 0.0)


class TestKnnGraph:
    # Axis-aligned rows scaled by powers of two have exact unit vectors,
    # so every cosine distance is exactly 0, 1 or 2 and equal ones tie.

    def test_hand_case(self):
        pts = np.array([[1.0, 0.0], [0.0, 2.0], [-4.0, 0.0]])
        idx, dist = knn_graph(pts, 2)
        assert idx.tolist() == [[1, 2], [0, 2], [1, 0]]
        assert dist.tolist() == [[1.0, 2.0], [1.0, 1.0], [1.0, 2.0]]

    def test_tie_breaks_to_lower_index(self):
        pts = np.array([[1.0, 0], [0, 2.0], [-2.0, 0], [0, 4.0], [0, -8.0]])
        idx, dist = knn_graph(pts, 4)
        assert idx[0].tolist() == [1, 3, 4, 2]
        assert dist[0].tolist() == [1.0, 1.0, 1.0, 2.0]

    def test_excludes_self(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((20, 4))
        idx, _ = knn_graph(pts, 5)
        for i in range(20):
            assert i not in idx[i]

    def test_rejects_non_finite_rows(self):
        pts = np.random.default_rng(3).standard_normal((10, 3))
        pts[4, 1] = np.nan
        with pytest.raises(ValidationError, match="row 4"):
            knn_graph(pts, 3)

    def test_rejects_bad_neighbor_counts(self):
        pts = np.random.default_rng(2).standard_normal((10, 3))
        with pytest.raises(ValidationError):
            knn_graph(pts, 0)
        with pytest.raises(ValidationError):
            knn_graph(pts, 10)


class TestBlockedKnn:
    """knn_graph, computed in blocks of rows from float32 candidates,
    against the fixed-order dense oracle, bit for bit."""

    @staticmethod
    def assert_equal_to_oracle(pts, k):
        idx, dist = knn_graph(pts, k)
        ref_idx, ref_dist = dense_knn(pts, k)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(dist, ref_dist)
        return idx, dist

    @staticmethod
    def points_with_duplicates(n, dim, seed):
        # Copies of one row on both sides of a block boundary and in the
        # last row tie for every other point.
        pts = np.random.default_rng(seed).standard_normal((n, dim))
        pts[[510, 511, 512, n - 1]] = pts[3]
        return pts

    def test_equal_on_block_aligned_shape(self):
        self.assert_equal_to_oracle(self.points_with_duplicates(1024, 50, 20), 15)

    def test_equal_indices_on_ragged_shape(self):
        self.assert_equal_to_oracle(self.points_with_duplicates(700, 50, 21), 15)

    def test_peak_memory_stays_below_one_dense_matrix(self):
        # One 4,000 x 4,000 float64 matrix alone is 128 MB; a 256-row
        # float32 block is 4 MB, and the unit rows 1.6 MB in float64.
        pts = np.random.default_rng(23).standard_normal((4000, 50))
        tracemalloc.start()
        try:
            knn_graph(pts, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_exact_ties_across_blocks_break_to_lower_index(self):
        # Rows along +-e_i scaled by powers of two make every distance
        # exactly 0, 1 or 2, so the many equal distances are true ties
        # wherever their rows and columns fall among the five blocks.
        rng = np.random.default_rng(22)
        n, dim = 1100, 50
        pts = np.zeros((n, dim))
        scale = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(-3, 4, n)
        pts[np.arange(n), rng.integers(0, dim, n)] = scale
        _, dist = self.assert_equal_to_oracle(pts, 20)
        assert set(np.unique(dist)) == {0.0, 1.0}
        assert np.any(dist[:, :-1] == dist[:, 1:])

    def test_copies_straddling_the_block_boundary_tie_to_lower_index(self):
        # Rows 0 and 240-271 are one vector, so each copy's distance to
        # every other copy is one and the same value.
        pts = np.random.default_rng(24).standard_normal((600, 20))
        copies = [0, *range(240, 272)]
        pts[copies] = pts[0]
        idx, _ = self.assert_equal_to_oracle(pts, 15)
        for i in (0, 255, 256, 271):
            assert idx[i].tolist() == [c for c in copies if c != i][:15]

    def test_near_duplicates_that_float32_cannot_order(self):
        # 50 centers with 1e-6 jitter: float32 similarities within a
        # center's copies are mostly equal or misordered, so the exact
        # distances alone order the candidates.
        rng = np.random.default_rng(25)
        centers = rng.standard_normal((50, 300))
        pts = centers[rng.integers(0, 50, 600)]
        pts += 1e-6 * rng.standard_normal(pts.shape)
        idx, _ = self.assert_equal_to_oracle(pts, 15)
        unit = (pts / np.linalg.norm(pts, axis=1)[:, None]).astype(np.float32)
        approx = np.float32(1.0) - unit @ unit.T
        np.fill_diagonal(approx, np.inf)
        float32_order = np.argsort(approx, axis=1, kind="stable")[:, :15]
        assert not np.array_equal(float32_order, idx)

    def test_all_identical_rows(self):
        # Every column is a candidate of every row and every distance ties.
        pts = np.tile(np.random.default_rng(26).standard_normal(8), (300, 1))
        idx, dist = self.assert_equal_to_oracle(pts, 15)
        for i in (0, 14, 15, 299):
            assert idx[i].tolist() == [j for j in range(16) if j != i][:15]
        assert np.all(dist == dist[0, 0])

    @pytest.mark.parametrize("dim", [1, 2, 2000])
    def test_few_and_many_dimensions(self, dim):
        pts = np.random.default_rng(27).standard_normal((300, dim))
        self.assert_equal_to_oracle(pts, 15)

    @pytest.mark.parametrize("n", [16, 300])
    def test_every_other_point_a_neighbor(self, n):
        pts = np.random.default_rng(28).standard_normal((n, 10))
        self.assert_equal_to_oracle(pts, n - 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("magnitude", [1e200, 1e-200])
    def test_rows_of_any_finite_magnitude(self, magnitude):
        # The same row scaled by an exact power of two into the ordinary
        # range must get the same neighbors and distances, bit for bit.
        pts = np.random.default_rng(29).standard_normal((40, 4))
        big = pts.copy()
        big[3] = [magnitude, magnitude, 0.0, 0.0]
        pts[3] = np.ldexp(big[3], -int(np.frexp(magnitude)[1]))
        assert 0.5 <= pts[3, 0] < 1.0
        idx, dist = knn_graph(big, 5)
        ref_idx, ref_dist = self.assert_equal_to_oracle(pts, 5)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(dist, ref_dist)


class TestSmoothKnnCalibrate:
    def test_analytic_example(self):
        rho, sigma = smooth_knn_calibrate(np.array([1.0, 2.0, 3.0]))
        assert rho == 1.0
        assert sigma == pytest.approx(ANALYTIC_SIGMA_123, abs=1e-3)
        assert ANALYTIC_SIGMA_123 == pytest.approx(1.1332, abs=1e-4)

    def test_residual_below_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 30))
            d = np.sort(rng.random(k) * rng.uniform(0.1, 5.0))
            rho, sigma = smooth_knn_calibrate(d)
            if d.max() <= rho:
                continue
            total = float(np.exp(-np.maximum(d - rho, 0.0) / sigma).sum())
            assert abs(total - math.log2(k)) < 1e-5

    def test_rho_is_smallest_positive(self):
        rho, _ = smooth_knn_calibrate(np.array([0.0, 0.5, 2.0]))
        assert rho == 0.5

    def test_degenerate_all_at_rho(self):
        rho, sigma = smooth_knn_calibrate(np.array([0.7, 0.7, 0.7]))
        assert rho == 0.7
        assert sigma == pytest.approx(700.0)

    def test_degenerate_all_zero(self):
        rho, sigma = smooth_knn_calibrate(np.zeros(4))
        assert rho == 0.0
        assert sigma == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            smooth_knn_calibrate(np.array([]))
        with pytest.raises(ValidationError):
            smooth_knn_calibrate(np.array([-1.0, 2.0]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="distances must be finite"):
                smooth_knn_calibrate(np.array([0.5, bad, 2.0]))


class TestCalibrateRows:
    """All rows searched together against the scalar search, row by row."""

    @staticmethod
    def assert_rows_match(dist):
        rho, sigma = _calibrate_rows(dist)
        for i, row in enumerate(dist):
            assert (rho[i], sigma[i]) == scalar_calibrate(row), i

    @pytest.mark.parametrize("k", [2, 3, 7, 8, 15, 30])
    def test_random_rows(self, k):
        rng = np.random.default_rng(40 + k)
        scale = rng.uniform(0.01, 5.0, (200, 1))
        self.assert_rows_match(np.sort(rng.random((200, k)), axis=1) * scale)

    def test_neighbor_distances(self):
        pts = np.random.default_rng(41).standard_normal((300, 20))
        self.assert_rows_match(knn_graph(pts, 15)[1])

    def test_edge_rows(self):
        rows = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],  # all zero: sigma 1.0
                [0.7, 0.7, 0.7, 0.7],  # flat: the 1000 * max sentinel
                [0.0, 0.0, 0.7, 0.7],  # zeros under a flat positive part
                [0.0, 0.0, 0.3, 0.9],  # zeros mixed with positives
                [0.0, 0.2, 0.5, 1.1],
                [1e-30, 2e-30, 2e-30, 3e-30],  # halves 64 times: sigma 2**-64
                [1.0, 1e300, 1e300, 1e300],  # doubles 64 times: sigma 2**64
            ]
        )
        self.assert_rows_match(rows)
        _, sigma = _calibrate_rows(rows)
        assert sigma[:2].tolist() == [1.0, 700.0]
        assert sigma[-2:].tolist() == [2.0**-64, 2.0**64]

    def test_single_row_is_the_public_function(self):
        d = np.array([0.1, 0.4, 0.45, 2.0])
        rho, sigma = _calibrate_rows(d[None])
        assert smooth_knn_calibrate(d) == (rho[0], sigma[0])


@st.composite
def directed_knn_graphs(draw):
    """Each of 3 to 40 points lists k distinct other points, so pairs are
    mutual or one-sided, with memberships drawn from a few values: 1, ties,
    subnormal, and 0 from an underflowing exp."""
    n = draw(st.integers(3, 40))
    k = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = np.array([rng.permutation(np.delete(np.arange(n), i))[:k] for i in range(n)])
    memb = np.exp(-rng.choice([0.0, 0.5, 3.0, 740.0, 800.0], (n, k)))
    return n, idx, memb


class TestFuzzySimplicialSet:
    def graph_and_parts(self, n=30, k=5, seed=4):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, 6))
        config = ReductionConfig(n_neighbors=k, seed=0)
        return pts, config, fuzzy_simplicial_set(pts, config)

    def test_edges_canonical_and_bounded(self):
        _, _, graph = self.graph_and_parts()
        assert np.all(graph.heads < graph.tails)
        assert np.all(graph.weights > 0.0)
        assert np.all(graph.weights <= 1.0 + 1e-12)

    def test_matches_directed_combination(self):
        # Rebuild the symmetrization dense: a + b - a*b over directed
        # memberships computed straight from the definitions.
        pts, config, graph = self.graph_and_parts()
        n = len(pts)
        idx, dist = knn_graph(pts, config.n_neighbors)
        directed = np.zeros((n, n))
        for i in range(n):
            rho, sigma = smooth_knn_calibrate(dist[i])
            directed[i, idx[i]] = np.exp(-np.maximum(dist[i] - rho, 0.0) / sigma)
        expected = directed + directed.T - directed * directed.T
        dense = np.zeros((n, n))
        dense[graph.heads, graph.tails] = graph.weights
        dense[graph.tails, graph.heads] = graph.weights
        assert np.allclose(dense, expected, atol=1e-12)

    def test_nearest_neighbor_edge_has_full_weight(self):
        pts, config, graph = self.graph_and_parts()
        idx, _ = knn_graph(pts, config.n_neighbors)
        dense = np.zeros((graph.n_points, graph.n_points))
        dense[graph.heads, graph.tails] = graph.weights
        dense[graph.tails, graph.heads] = graph.weights
        for i in range(graph.n_points):
            assert dense[i, idx[i, 0]] == pytest.approx(1.0)

    @settings(max_examples=300, deadline=None)
    @given(directed_knn_graphs())
    def test_equals_the_sparse_union(self, case):
        n, idx, memb = case
        graph = _symmetrize(n, idx, memb)
        heads, tails, weights = symmetrized_graph_sparse(n, idx, memb)
        assert graph.heads.tobytes() == heads.tobytes()
        assert graph.tails.tobytes() == tails.tobytes()
        assert graph.weights.tobytes() == weights.tobytes()

    def test_rejects_2_31_points_before_allocating(self):
        idx, memb = np.array([[1]]), np.array([[0.5]])
        with pytest.raises(ValidationError, match=r"fewer than 2\*\*31 points"):
            _symmetrize(2**31, idx, memb)
        graph = _symmetrize(2**31 - 1, idx, memb)
        assert (graph.heads.tolist(), graph.tails.tolist()) == ([0], [1])


class TestFindAbParams:
    """The stored curve constants against the fit they were taken from."""

    def test_reference_values(self):
        a, b = find_ab_params(0.1)
        assert CURVE_A == pytest.approx(a, rel=1e-8)
        assert CURVE_B == pytest.approx(b, rel=1e-8)
        assert a == pytest.approx(1.577, abs=2e-3)
        assert b == pytest.approx(0.8951, abs=2e-3)

    def test_fit_tracks_target_curve(self):
        a, b = CURVE_A, CURVE_B
        x = np.linspace(0.0, 3.0, 300)
        target = np.where(x < 0.1, 1.0, np.exp(-(x - 0.1)))
        fitted = 1.0 / (1.0 + a * x ** (2.0 * b))
        assert np.sqrt(np.mean((fitted - target) ** 2)) < 0.05

    def test_smaller_min_dist_steepens_the_curve(self):
        a_tight, _ = find_ab_params(0.01)
        a_loose, _ = find_ab_params(0.5)
        assert a_tight > a_loose


class TestOptimizeLayout:
    def two_point_graph(self):
        return FuzzyGraph(
            n_points=2,
            heads=np.array([0]),
            tails=np.array([1]),
            weights=np.array([1.0]),
        )

    def test_single_edge_attracts(self):
        # Without negative samples the one edge only pulls.
        config = ReductionConfig(
            n_neighbors=2, n_components=2, layout_epochs=100, seed=5
        )
        rng = np.random.default_rng(config.seed)
        start = rng.uniform(-10.0, 10.0, (2, 2))
        initial = float(np.linalg.norm(start[0] - start[1]))
        coords = kernel_layout(
            self.two_point_graph(), config, np.random.default_rng(config.seed), 0
        )
        final = float(np.linalg.norm(coords[0] - coords[1]))
        assert final < initial

    def test_empty_graph_returns_initial_spread(self):
        graph = FuzzyGraph(
            n_points=3,
            heads=np.array([], dtype=np.int64),
            tails=np.array([], dtype=np.int64),
            weights=np.array([]),
        )
        config = ReductionConfig(n_neighbors=2, n_components=2)
        coords = optimize_layout(graph, config, np.random.default_rng(0))
        assert coords.shape == (3, 2)
        assert np.all(np.abs(coords) <= 10.0)


class TestLayoutEquality:
    """The compiled layout against the numpy loop and the block formulation
    with np.add.at, both with the kernel's sampler and power."""

    @staticmethod
    def complete_graph(n=7, seed=30):
        # Every pair is an edge, so each point is a head and a tail many
        # times; with 7 points about one negative sample in seven is the
        # anchor itself.
        heads, tails = np.triu_indices(n, 1)
        weights = np.random.default_rng(seed).uniform(0.05, 1.0, len(heads))
        return FuzzyGraph(
            n_points=n,
            heads=heads.astype(np.int64),
            tails=tails.astype(np.int64),
            weights=weights,
        )

    @staticmethod
    def equal_weight_graph(n=300, m=2000, seed=34):
        # Every edge is due in every epoch after the first: 8 chunks of 256
        # edges, so up to 8 threads share each epoch.
        rng = np.random.default_rng(seed)
        heads = rng.integers(0, n, m)
        tails = (heads + rng.integers(1, n, m)) % n
        return FuzzyGraph(
            n_points=n,
            heads=np.minimum(heads, tails),
            tails=np.maximum(heads, tails),
            weights=np.ones(m),
        )

    @staticmethod
    def assert_all_equal(graph, config, nsr):
        rng = lambda: np.random.default_rng(config.seed)  # noqa: E731
        got = kernel_layout(graph, config, rng(), nsr)
        want = loop_layout(graph, config, rng(), nsr)
        blocks = block_layout(graph, config, rng(), nsr)
        assert np.array_equal(got, want)
        assert np.array_equal(blocks, want)
        if nsr == NEGATIVE_SAMPLE_RATE:
            assert np.array_equal(optimize_layout(graph, config, rng()), want)

    @pytest.mark.parametrize("nsr", [0, 1, 5, 9])
    @pytest.mark.parametrize("dim", [1, 2, 5, 9])
    def test_bit_identical_on_small_graph(self, dim, nsr):
        config = ReductionConfig(
            n_neighbors=2, n_components=dim, layout_epochs=80, seed=31
        )
        self.assert_all_equal(self.complete_graph(), config, nsr)

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize("nsr", [0, 5])
    @pytest.mark.parametrize("graph", ["complete", "equal-weight"])
    def test_bit_identical_at_any_thread_count(self, graph, nsr, threads):
        if graph == "complete":
            graph = self.complete_graph()
            config = ReductionConfig(
                n_neighbors=2, n_components=3, layout_epochs=80, seed=31
            )
        else:
            graph = self.equal_weight_graph()
            config = ReductionConfig(n_neighbors=2, layout_epochs=20, seed=35)
        rng = lambda: np.random.default_rng(config.seed)  # noqa: E731
        got = threaded_layout(graph, config, rng(), nsr, threads)
        assert np.array_equal(got, loop_layout(graph, config, rng(), nsr))

    def test_bit_identical_on_neighbor_graph(self):
        pts = np.random.default_rng(32).standard_normal((300, 20))
        config = ReductionConfig(n_neighbors=10, layout_epochs=60, seed=33)
        self.assert_all_equal(
            fuzzy_simplicial_set(pts, config), config, NEGATIVE_SAMPLE_RATE
        )


def kernel_power(x, exponent):
    """``x ** exponent`` elementwise by the kernel's ``tf_power``, which
    takes its exp and log from the kernel's portable ones."""
    tf_power = kernels.load().tf_power
    tf_power.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p]
    tf_power.restype = None
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty_like(x)
    tf_power(x.ctypes.data, x.size, exponent, out.ctypes.data)
    return out


class TestPortablePower:
    """The kernel's ``x ** e`` against its numpy twin and numpy's ``**``."""

    R2 = np.concatenate(
        [
            [0.0, 5e-324, 1e-320, 1e-310, 2.2250738585072014e-308],
            np.geomspace(1e-12, 1e6, 3001),
            np.random.default_rng(34).uniform(0.0, 50.0, 3000),
        ]
    )

    @pytest.mark.parametrize("min_dist", [0.0, 0.1, 0.5, 1.0])
    def test_bit_equal_to_twin_and_close_to_numpy(self, min_dist):
        _, b = find_ab_params(min_dist)
        for e in (b, b - 1.0):
            got = kernel_power(self.R2, e)
            assert np.array_equal(got, portable_power(self.R2, e))
            with np.errstate(divide="ignore", invalid="ignore"):
                want = self.R2**e
                close = np.abs(got - want) <= 1e-14 * np.abs(want)
            assert np.all((got == want) | close), e

    def test_zero_and_infinity_as_numpy(self):
        x = np.array([0.0, np.inf])
        for e in (0.5, -0.5, 0.0):
            with np.errstate(divide="ignore"):
                want = x**e
            assert np.array_equal(kernel_power(x, e), want)
            assert np.array_equal(portable_power(x, e), want)


class TestReduce:
    def blobs(self, seed=6, n_per=40, dim=12):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 0.05, (n_per, dim))
        a[:, 0] += 1.0
        b = rng.normal(0.0, 0.05, (n_per, dim))
        b[:, 1] += 1.0
        return np.vstack([a, b])

    def test_output_shape(self):
        pts = self.blobs()
        config = ReductionConfig(n_neighbors=10, n_components=3, seed=0)
        coords = reduce(pts, config)
        assert coords.shape == (80, 3)
        assert np.all(np.isfinite(coords))

    def test_deterministic_for_fixed_seed(self):
        pts = self.blobs()
        config = ReductionConfig(n_neighbors=10, n_components=2, seed=9)
        assert np.array_equal(reduce(pts, config), reduce(pts, config))

    def test_seed_changes_layout(self):
        pts = self.blobs()
        a = reduce(pts, ReductionConfig(n_neighbors=10, n_components=2, seed=1))
        b = reduce(pts, ReductionConfig(n_neighbors=10, n_components=2, seed=2))
        assert not np.array_equal(a, b)

    def test_separated_blobs_stay_separated(self):
        pts = self.blobs()
        config = ReductionConfig(
            n_neighbors=10, n_components=2, layout_epochs=150, seed=3
        )
        coords = reduce(pts, config)
        a, b = coords[:40], coords[40:]
        intra = np.mean(
            [np.linalg.norm(x - y) for x in a[:10] for y in a[10:20]]
        )
        inter = np.mean(
            [np.linalg.norm(x - y) for x in a[:10] for y in b[:10]]
        )
        assert intra < inter

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            reduce(np.ones(5), ReductionConfig())
        with pytest.raises(ValidationError):
            reduce(
                np.ones((10, 2)), ReductionConfig(n_neighbors=15)
            )
