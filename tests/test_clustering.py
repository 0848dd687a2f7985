"""Density clustering: reachability, spanning tree, condensation, selection."""

import importlib.util
import math
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicforge import ClusterConfig, ValidationError, cluster, kernels, reduce
from topicforge.clustering import (
    CondensedTree,
    ReachabilityRows,
    build_mst,
    condense_tree,
    core_distances,
    extract_clusters,
    mutual_reachability,
)
from topicforge.reduction import ReductionConfig

from oracles import (
    condense_by_dendrogram,
    core_distances_all_pairs,
    core_distances_kdtree,
    mst_weight_exhaustive,
    mst_weight_kruskal,
    reachability_row,
)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            ClusterConfig(min_cluster_size=1)
        with pytest.raises(ValidationError):
            ClusterConfig(min_cluster_size=float("nan"))


@st.composite
def core_cases(draw):
    """Points in 1 to 12 dimensions, spread, rounded to integers, repeating
    a few rows, or all equal; from 2 points (a single leaf up to 16) to
    80, with k up to n - 1."""
    dim = draw(st.integers(1, 12))
    n = draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.standard_normal((n, dim)) * rng.uniform(0.01, 50.0, dim)
    kind = draw(st.sampled_from(["spread", "integers", "repeats", "equal"]))
    if kind == "integers":
        pts = np.round(pts)
    elif kind == "repeats":
        pts = pts[rng.integers(0, draw(st.integers(1, n)), n)]
    elif kind == "equal":
        pts[:] = pts[0]
    return pts, draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))


class TestCoreDistances:
    line = np.array([[0.0], [1.0], [3.0], [7.0]])

    def test_first_neighbor(self):
        assert core_distances(self.line, 1).tolist() == [1.0, 1.0, 2.0, 4.0]

    def test_second_neighbor(self):
        assert core_distances(self.line, 2).tolist() == [3.0, 2.0, 3.0, 6.0]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            core_distances(self.line, 0)
        with pytest.raises(ValidationError):
            core_distances(self.line, 4)

    def test_rejects_points_that_are_not_finite_rows(self):
        with pytest.raises(ValidationError, match="2-d"):
            core_distances(self.line.ravel(), 1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite"):
                core_distances(np.array([[0.0], [bad], [2.0]]), 1)

    @pytest.mark.parametrize("dim", [1, 3, 5, 7, 8, 16])
    def test_equals_the_blocked_all_pairs_search(self, dim):
        # 700 rows leave a ragged last block of 188; runs of equal rows
        # straddle both block boundaries, so ties meet the block edges.
        pts = runs_of_ties(dim)
        for k in (1, 6, 15):
            assert np.array_equal(core_distances(pts, k), core_distances_all_pairs(pts, k))

    @settings(max_examples=300, deadline=None)
    @given(core_cases())
    def test_equals_the_oracles(self, case):
        pts, k = case
        core = core_distances(pts, k).tobytes()
        assert core == core_distances_all_pairs(pts, k).tobytes()
        if pts.shape[1] < 8:
            assert core == core_distances_kdtree(pts, k).tobytes()


def stacked(view):
    """The rows of a mutual reachability view as one dense matrix."""
    return np.array([reachability_row(view, j) for j in range(len(view.core))])


class TestMutualReachability:
    def test_hand_values(self):
        pts = np.array([[0.0], [1.0], [3.0], [7.0]])
        core = core_distances(pts, 1)
        mr = stacked(mutual_reachability(pts, core))
        assert mr[0, 1] == 1.0  # max(1, 1, 1)
        assert mr[1, 2] == 2.0  # max(1, 2, 2)
        assert mr[2, 3] == 4.0  # max(2, 4, 4)
        assert np.all(np.diag(mr) == 0.0)

    def test_dominates_euclidean_and_cores(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((25, 3))
        core = core_distances(pts, 4)
        mr = stacked(mutual_reachability(pts, core))
        assert np.allclose(mr, mr.T)
        diff = pts[:, None, :] - pts[None, :, :]
        euclid = np.sqrt(np.sum(diff * diff, axis=2))
        off = ~np.eye(25, dtype=bool)
        assert np.all(mr[off] >= euclid[off] - 1e-12)
        assert np.all(mr[off] >= np.maximum(core[:, None], core[None, :])[off])

    def test_rows_match_plain_python_definition(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((30, 4)) * rng.uniform(0.1, 5.0, 4)
        core = core_distances(pts, 3)
        view = mutual_reachability(pts, core)
        assert view.points.shape == (30, 4)
        for i in range(30):
            row = reachability_row(view, i)
            for j in range(30):
                dist = math.dist(pts[i].tolist(), pts[j].tolist())
                expected = 0.0 if i == j else max(core[i], core[j], dist)
                assert row[j] == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_view_holds_the_callers_points_without_a_copy(self):
        pts = np.random.default_rng(8).standard_normal((20, 3))
        view = mutual_reachability(pts, core_distances(pts, 3))
        assert np.shares_memory(view.points, pts)

    @pytest.mark.parametrize("dim", [1, 2, 5, 7])
    def test_rows_do_not_depend_on_the_rows_computed_with_them(self, dim):
        # Core distances come from a KD-tree and the view from one row at
        # a time, and each pair must get one distance.  np.sum below adds
        # one coordinate at a time only below 8 coordinates.
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((600, dim))
        core = core_distances(pts, 7)
        mr = stacked(mutual_reachability(pts, core))
        assert np.array_equal(mr, mr.T)
        own = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
        np.fill_diagonal(own, np.inf)
        assert np.array_equal(core, np.sort(own, axis=1)[:, 6])
        off = ~np.eye(len(pts), dtype=bool)
        expected = np.maximum(own, np.maximum(core[:, None], core[None, :]))
        assert np.array_equal(mr[off], expected[off])


def random_view(rng, n):
    """The mutual reachability view of ``n`` points uniform in 1-5
    dimensions, rounded to integers one time in three so that weights tie
    and points repeat, with core distances of a random k in [1, n - 1]."""
    pts = rng.uniform(0.0, 4.0, (n, int(rng.integers(1, 6))))
    if rng.integers(0, 3) == 0:
        pts = np.round(pts)
    return mutual_reachability(pts, core_distances(pts, int(rng.integers(1, n))))


class TestBuildMst:
    def test_hand_case(self):
        edges = build_mst(ReachabilityRows(np.array([[0.0], [1.0], [3.0]]), np.zeros(3)))
        assert edges[:, 2].sum() == pytest.approx(3.0)
        pairs = {tuple(sorted((int(a), int(b)))) for a, b, _ in edges}
        assert pairs == {(0, 1), (1, 2)}

    def test_weight_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            view = random_view(rng, int(rng.integers(3, 8)))
            weight = build_mst(view)[:, 2].sum()
            assert weight == pytest.approx(mst_weight_exhaustive(stacked(view)))

    def test_weight_matches_kruskal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            view = random_view(rng, int(rng.integers(4, 30)))
            weight = build_mst(view)[:, 2].sum()
            assert weight == pytest.approx(mst_weight_kruskal(stacked(view)))

    def test_edges_span_all_points(self):
        rng = np.random.default_rng(3)
        assert_spans(build_mst(random_view(rng, 15)), 15)

    def test_rejects_single_point(self):
        with pytest.raises(ValidationError):
            build_mst(ReachabilityRows(np.zeros((1, 1)), np.zeros(1)))

    def test_view_gives_the_edges_of_its_dense_rows(self):
        # Ties leave many minimum trees, so the view's edges need not be
        # Prim's: each must weigh its dense entry, and the tree must span.
        rng = np.random.default_rng(6)
        pts = np.vstack(
            [rng.normal(c, 0.4, (40, 3)) for c in (0.0, 3.0, 6.0)]
            + [np.round(rng.uniform(0.0, 6.0, (30, 3)))]
        )
        pts[[10, 50, 90]] = pts[0]
        rows = mutual_reachability(pts, core_distances(pts, 5))
        edges = build_mst(rows)
        assert_spans(edges, len(pts))
        i, j = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
        assert np.all(i < j)
        assert np.array_equal(edges[:, 2], stacked(rows)[i, j])
        assert_matches_prim(rows, [2, 5, 15])

    def test_rejects_a_non_finite_matrix(self):
        # 1-d points 0, 1, bad, 3 with core distances 0.5, then the same
        # points, all finite, with one bad core distance.
        for bad in (np.inf, -np.inf, np.nan):
            for points, core in (
                ([0.0, 1.0, bad, 3.0], [0.5, 0.5, 0.5, 0.5]),
                ([0.0, 1.0, 2.0, 3.0], [0.5, 0.5, bad, 0.5]),
            ):
                view = ReachabilityRows(np.array(points)[:, None], np.array(core))
                with pytest.raises(ValidationError, match="must be finite.*NaN"):
                    build_mst(view)

    def test_nan_weights_raise_instead_of_looping(self):
        rows = ReachabilityRows(np.array([[0.0], [np.nan], [2.0]]), np.ones(3))
        with pytest.raises(ValidationError, match="NaN"):
            build_mst(rows)
        # The kernel's own guard, which build_mst's finiteness check hides.
        with pytest.raises(ValidationError, match="must not be NaN"):
            kernels.mst_reachability(rows.points, rows.core)


def prim_over_rows(view):
    """Prim's tree of a mutual reachability view, building each row once."""
    n = len(view.core)
    visited = np.zeros(n, dtype=bool)
    best_weight = reachability_row(view, 0)
    best_source = np.zeros(n, dtype=np.int64)
    visited[0] = True
    best_weight[0] = np.inf
    edges = np.empty((n - 1, 3))
    for e in range(n - 1):
        j = int(np.argmin(np.where(visited, np.inf, best_weight)))
        edges[e] = (best_source[j], j, best_weight[j])
        visited[j] = True
        row = reachability_row(view, j)
        closer = ~visited & (row < best_weight)
        best_source[closer] = j
        best_weight[closer] = row[closer]
    return edges


def assert_spans(edges, n):
    assert edges.shape == (n - 1, 3)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _ in edges:
        parent[find(int(a))] = find(int(b))
    assert len({find(i) for i in range(n)}) == 1


def assert_matches_prim(view, cluster_sizes):
    """The view's tree against Prim's on the same rows: equal sorted
    weights, and byte-equal labels and stabilities for each cluster size."""
    n = len(view.core)
    tree, oracle = build_mst(view), prim_over_rows(view)
    assert_spans(tree, n)
    assert np.array_equal(np.sort(tree[:, 2]), np.sort(oracle[:, 2]))
    for mcs in cluster_sizes:
        got = extract_clusters(condense_tree(n, tree, mcs))
        want = extract_clusters(condense_tree(n, oracle, mcs))
        assert np.array_equal(got.labels, want.labels), mcs
        assert np.array_equal(got.cluster_stability, want.cluster_stability), mcs


def blobs(n, dim, seed, spread=0.5):
    """``n`` points around 20 centers in [-20, 20]^dim."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-20.0, 20.0, (20, dim))
    return centers[rng.integers(0, 20, n)] + rng.normal(0.0, spread, (n, dim))


def runs_of_ties(dim, seed=7):
    """700 points with runs of equal rows and a rounded tail."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((700, dim)) * rng.uniform(0.01, 50.0, dim)
    pts[250:262] = pts[3]
    pts[508:516] = pts[600]
    pts[640:] = np.round(pts[640:])
    return pts


@pytest.fixture(scope="module")
def cluster_5k_coords():
    """The reduced coordinates that the cluster-5k bench workload clusters,
    by seed, from the bench's own point generator."""
    path = Path(__file__).parents[1] / "tfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cache = {}

    def coords(seed):
        if seed not in cache:
            cache[seed] = reduce(workloads.planted_points(seed)[0], ReductionConfig())
        return cache[seed]

    return coords


class TestBoruvkaAgainstPrim:
    """The kernel's tree against Prim's on the same mutual reachability rows."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cluster_5k_coordinates(self, cluster_5k_coords, seed):
        pts = cluster_5k_coords(seed)
        assert_matches_prim(mutual_reachability(pts, core_distances(pts, 15)), [15])

    @pytest.mark.parametrize("n", [5_000, 20_000])
    def test_five_dimensional_blobs(self, n):
        pts = blobs(n, 5, seed=n)
        assert_matches_prim(mutual_reachability(pts, core_distances(pts, 15)), [15])

    @pytest.mark.parametrize("dim", [1, 3, 5, 7])
    def test_runs_of_duplicate_and_rounded_points(self, dim):
        pts = runs_of_ties(dim)
        for k in (1, 6, 15):
            rows = mutual_reachability(pts, core_distances(pts, k))
            assert_matches_prim(rows, [2, 5, 15, 40])

    def test_all_identical_points(self):
        pts = np.full((300, 3), 1.5)
        rows = mutual_reachability(pts, core_distances(pts, 5))
        edges = build_mst(rows)
        assert np.all(edges[:, 2] == 0.0)
        assert_matches_prim(rows, [2, 5])
        labeling = cluster(pts, ClusterConfig(min_cluster_size=5))
        assert labeling.n_clusters == 1
        assert labeling.labels.tolist() == [0] * 300

    @pytest.mark.parametrize("dim", [1, 2, 7, 9])
    def test_dimensions(self, dim):
        pts = blobs(2_000, dim, seed=dim, spread=2.0)
        pts[:40] = np.round(pts[:40])
        assert_matches_prim(mutual_reachability(pts, core_distances(pts, 10)), [5, 10, 30])


def renumber_by_smallest_member(labels, stability):
    """Labels numbered by their clusters' smallest member, noise kept -1,
    and the stabilities in that order."""
    member = labels >= 0
    by_first = np.argsort(np.unique(labels[member], return_index=True)[1])
    renumber = np.empty(len(by_first), dtype=np.int64)
    renumber[by_first] = np.arange(len(by_first))
    out = labels.copy()
    out[member] = renumber[labels[member]]
    return out, stability[by_first]


class TestCanonicalLabels:
    """Labels and stabilities depend on the points, not on their order or
    on which of the equally light trees was found."""

    @staticmethod
    def assert_order_free(points, min_cluster_size, seed):
        config = ClusterConfig(min_cluster_size=min_cluster_size)
        want = cluster(points, config)
        perm = np.random.default_rng(seed).permutation(len(points))
        got = cluster(points[perm], config)
        labels = np.empty_like(got.labels)
        labels[perm] = got.labels
        labels, stability = renumber_by_smallest_member(labels, got.cluster_stability)
        assert np.array_equal(labels, want.labels)
        assert np.array_equal(stability, want.cluster_stability)
        return want

    def test_permuted_cluster_5k_coordinates(self, cluster_5k_coords):
        want = self.assert_order_free(cluster_5k_coords(1), 15, seed=1)
        assert want.n_clusters >= 20

    @pytest.mark.parametrize("n", [2_000, 5_000])
    def test_permuted_blobs(self, n):
        self.assert_order_free(blobs(n, 5, seed=n + 1), 15, seed=n)

    @pytest.mark.parametrize("dim", [1, 3, 5, 7])
    def test_permuted_runs_of_ties(self, dim):
        for mcs in (5, 15):
            self.assert_order_free(runs_of_ties(dim), mcs, seed=dim)

    def test_labels_follow_the_smallest_member(self):
        rng = np.random.default_rng(19)
        pts = np.vstack([rng.normal(c, 0.2, (30, 2)) for c in (9.0, 0.0, 5.0)])
        labeling = cluster(pts[::-1], ClusterConfig(min_cluster_size=10))
        assert labeling.labels.tolist() == [0] * 30 + [1] * 30 + [2] * 30

    def test_one_weight_splits_three_ways(self):
        # Three 4-chains and a lone point, all joined at weight 10: one
        # split into three clusters, with the lone point falling out.
        chains = [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [4, 5, 1.0], [5, 6, 1.0],
                  [6, 7, 1.0], [8, 9, 1.0], [9, 10, 1.0], [10, 11, 1.0]]
        bridges = [[3, 4, 10.0], [7, 8, 10.0], [11, 12, 10.0]]
        rng = np.random.default_rng(20)
        stabilities = set()
        for _ in range(6):
            mst = np.array(chains + bridges)[rng.permutation(12)]
            tree = condense_tree(13, mst, min_cluster_size=3)
            assert tree.parent == [-1, 0, 0, 0]
            assert tree.fallout_cluster[12] == 0
            assert np.count_nonzero(tree.fallout_cluster == 0) == 1
            assert tree.stability[0] == pytest.approx(0.1 + 3 * 4 * 0.1)
            labeling = extract_clusters(tree)
            assert labeling.labels.tolist() == [0] * 4 + [1] * 4 + [2] * 4 + [-1]
            stabilities.add(labeling.cluster_stability.tobytes())
        assert len(stabilities) == 1


def union_find_extract(tree):
    """Reference labels and stabilities computed with a union-find.

    Points join the cluster they fell out of and unselected clusters join
    their parent, so the selected clusters cut the tree into labeled parts.
    """
    m, n = len(tree.parent), len(tree.fallout_cluster)
    children = [[] for _ in range(m)]
    for c in range(1, m):
        children[tree.parent[c]].append(c)
    selected = [False] + [True] * (m - 1)
    winning = tree.stability.copy()
    for c in range(m - 1, 0, -1):
        if not children[c]:
            continue
        child_sum = math.fsum(winning[ch] for ch in children[c])
        if child_sum > tree.stability[c]:
            selected[c] = False
            winning[c] = child_sum
        else:
            stack = list(children[c])
            while stack:
                d = stack.pop()
                selected[d] = False
                stack.extend(children[d])
    chosen = [c for c in range(1, m) if selected[c]]
    if not chosen:
        return np.zeros(n, dtype=np.int64), np.array([tree.stability[0]])
    parent_uf = list(range(n + m))

    def find(x):
        while parent_uf[x] != x:
            x = parent_uf[x]
        return x

    for c in range(1, m):
        if not selected[c]:
            parent_uf[find(n + c)] = find(n + tree.parent[c])
    for p, c in enumerate(tree.fallout_cluster.tolist()):
        parent_uf[find(p)] = find(n + c)
    label_of_root = {find(n + c): rank for rank, c in enumerate(chosen)}
    labels = np.array([label_of_root.get(find(p), -1) for p in range(n)])
    return renumber_by_smallest_member(labels, tree.stability[chosen])


class TestCondenseAndExtract:
    def test_no_qualifying_split_sheds_everything(self):
        # Chain 0-1-2 at distance 1, point 3 dangling at 9.
        mst = np.array([[0, 1, 1.0], [1, 2, 1.0], [2, 3, 9.0]])
        tree = condense_tree(4, mst, min_cluster_size=2)
        assert len(tree.parent) == 1
        assert tree.stability[0] == pytest.approx(1.0 / 9.0 + 3.0)
        labeling = extract_clusters(tree)
        assert labeling.n_clusters == 1
        assert labeling.labels.tolist() == [0, 0, 0, 0]

    def test_two_triples_across_a_bridge(self):
        # Two 3-chains at unit spacing joined by a weight-10 bridge.
        mst = np.array(
            [[0, 1, 1.0], [1, 2, 1.0], [3, 4, 1.0], [4, 5, 1.0], [2, 3, 10.0]]
        )
        tree = condense_tree(6, mst, min_cluster_size=3)
        assert len(tree.parent) == 3
        assert tree.parent == [-1, 0, 0]
        assert tree.birth_lambda[1] == pytest.approx(0.1)
        # Each side keeps its 3 points from lambda 0.1 until they shed at 1.
        assert tree.stability[1] == pytest.approx(3 * (1.0 - 0.1))
        assert tree.stability[2] == pytest.approx(3 * (1.0 - 0.1))
        assert tree.stability[0] == pytest.approx(2 * 3 * 0.1)
        labeling = extract_clusters(tree)
        assert labeling.n_clusters == 2
        assert len(set(labeling.labels[:3])) == 1
        assert len(set(labeling.labels[3:])) == 1
        assert labeling.labels[0] != labeling.labels[3]
        assert labeling.noise_count == 0

    def test_a_cluster_that_ties_its_children_keeps_itself(self):
        # Cluster A (points 0-7, born at lambda 1/4) sheds four points and
        # splits into two pairs at 1/2; the pairs die at 1.  A's stability,
        # 4 * 1/4 + 4 * 1/4, equals the pairs' 2 * 1/2 + 2 * 1/2 exactly,
        # and a tie keeps the parent.
        mst = np.array(
            [[0, 1, 1.0], [2, 3, 1.0], [8, 9, 1.0], [1, 4, 2.0], [4, 5, 2.0],
             [5, 6, 2.0], [6, 7, 2.0], [7, 2, 2.0], [7, 8, 4.0]]
        )
        tree = condense_tree(10, mst, min_cluster_size=2)
        assert tree.parent == [-1, 0, 0, 1, 1]
        assert tree.stability[1] == math.fsum(tree.stability[3:]) == 2.0
        labeling = extract_clusters(tree)
        assert labeling.labels.tolist() == [0] * 8 + [1] * 2
        labels, stability = union_find_extract(tree)
        assert labels.tolist() == labeling.labels.tolist()
        assert stability.tolist() == labeling.cluster_stability.tolist()

    def test_rejects_small_min_cluster_size(self):
        with pytest.raises(ValidationError):
            condense_tree(4, np.array([[0, 1, 1.0]]), min_cluster_size=1)

    @pytest.mark.parametrize(
        "n, edges", [(4, [[0, 1, 1.0], [1, 2, 1.0]]), (1, []), (3, [[0, 1, 1.0]] * 2)]
    )
    def test_rejects_edges_that_leave_a_point_out(self, n, edges):
        mst = np.array(edges, dtype=np.float64).reshape(-1, 3)
        with pytest.raises(ValidationError, match=f"connect all {n} points"):
            condense_tree(n, mst, min_cluster_size=2)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_labels_match_union_find_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_blobs = int(rng.integers(2, 7))
        centers = rng.uniform(-10.0, 10.0, (n_blobs, 2))
        sizes = rng.integers(5, 40, n_blobs)
        points = np.vstack(
            [rng.normal(c, rng.uniform(0.2, 1.5), (s, 2)) for c, s in zip(centers, sizes)]
            + [rng.uniform(-15.0, 15.0, (10, 2))]
        )
        mst = build_mst(mutual_reachability(points, core_distances(points, 4)))
        for mcs in (2, 3, 5, 8, 15):
            tree = condense_tree(len(points), mst, mcs)
            labeling = extract_clusters(tree)
            labels, stability = union_find_extract(tree)
            assert np.array_equal(labeling.labels, labels)
            assert np.array_equal(labeling.cluster_stability, stability)


@st.composite
def tie_heavy_msts(draw):
    """A random spanning tree with few distinct integer weights, its
    points relabeled, its edges shuffled and some endpoints swapped."""
    n = draw(st.integers(2, 120))
    top = draw(st.integers(0, 6))
    label = draw(st.permutations(range(n)))
    edges = []
    for i in range(1, n):
        ends = [label[i], label[draw(st.integers(0, i - 1))]]
        if draw(st.booleans()):
            ends.reverse()
        edges.append(ends + [float(draw(st.integers(0, top)))])
    return n, np.array(draw(st.permutations(edges)), dtype=np.float64).reshape(-1, 3)


class TestDendrogramOracle:
    """Condensation from one union-find pass against the binary dendrogram
    walked back through its equal-weight merges, and extraction against
    the union-find reference."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_msts(), st.sampled_from([2, 3, 5, 10]))
    def test_same_clusters_labels_and_stabilities(self, case, min_cluster_size):
        n, mst = case
        tree = condense_tree(n, mst, min_cluster_size)
        oracle = condense_by_dendrogram(n, mst, min_cluster_size)
        fallout_points = [
            np.flatnonzero(tree.fallout_cluster == c).tolist()
            for c in range(len(tree.parent))
        ]

        def clusters(birth, fallout, stability):
            return Counter(
                (b, tuple(sorted(f)), s) for b, f, s in zip(birth, fallout, stability)
            )

        assert clusters(
            tree.birth_lambda, fallout_points, tree.stability.tolist()
        ) == clusters(
            oracle["birth_lambda"], oracle["fallout_points"], oracle["stability"]
        )
        fallout_cluster = np.full(n, -1, dtype=np.int64)
        for c, points in enumerate(oracle["fallout_points"]):
            fallout_cluster[points] = c
        want = extract_clusters(
            CondensedTree(
                parent=oracle["parent"],
                birth_lambda=oracle["birth_lambda"],
                fallout_cluster=fallout_cluster,
                stability=np.array(oracle["stability"]),
            )
        )
        got = extract_clusters(tree)
        for labels, stability in (
            (want.labels, want.cluster_stability),
            union_find_extract(tree),
        ):
            assert got.labels.tobytes() == labels.tobytes()
            assert got.cluster_stability.tobytes() == stability.tobytes()

    def test_a_selected_cluster_holds_self_keeping_clusters(self):
        # Cluster 1 loses to its children 3 and 4 (2 + 5 > 1).  Cluster 3
        # keeps itself against its leaves 5 and 6, and cluster 2 against its
        # leaves 7 and 8, so the selected clusters are 2, 3 and 4, and the
        # points of leaves 5-8 take the label of the cluster above them.
        # Points that fell out of the root or of cluster 1 are noise.
        tree = CondensedTree(
            parent=[-1, 0, 0, 1, 1, 3, 3, 2, 2],
            birth_lambda=[0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 2.0, 2.0],
            fallout_cluster=np.array([5, 0, 7, 3, 1, 4, 6, 8, 2, 1, 4, 3]),
            stability=np.array([0.0, 1.0, 3.0, 5.0, 2.0, 1.0, 1.0, 1.0, 1.0]),
        )
        labeling = extract_clusters(tree)
        assert labeling.labels.tolist() == [0, -1, 1, 0, -1, 2, 0, 1, 1, -1, 2, 0]
        assert labeling.cluster_stability.tolist() == [5.0, 3.0, 2.0]
        labels, stability = union_find_extract(tree)
        assert labels.tobytes() == labeling.labels.tobytes()
        assert stability.tobytes() == labeling.cluster_stability.tobytes()


class TestCluster:
    def two_chains(self):
        xs = np.concatenate([np.arange(4) * 0.1, 10.0 + np.arange(4) * 0.1])
        return xs[:, None]

    def test_two_chains_split_cleanly(self):
        labeling = cluster(self.two_chains(), ClusterConfig(min_cluster_size=2))
        assert labeling.n_clusters == 2
        assert labeling.noise_count == 0
        labels = labeling.labels
        assert len(set(labels[:4])) == 1
        assert len(set(labels[4:])) == 1
        assert labels[0] != labels[4]
        # Core distances to the 2nd neighbor make each chain's end links
        # 0.2 and its middle link 0.1.  Born at the bridge split, 1/9.7,
        # each chain sheds its two end points at 1/0.2 and dissolves at
        # 1/0.1: 2·(1/0.2 − 1/9.7) + 2·(1/0.1 − 1/9.7) ≈ 29.5876.
        expected = 2 * (1.0 / 0.2 - 1.0 / 9.7) + 2 * (1.0 / 0.1 - 1.0 / 9.7)
        assert labeling.cluster_stability.tolist() == pytest.approx(
            [expected, expected]
        )

    def test_blobs_with_far_outliers(self):
        rng = np.random.default_rng(13)
        blob1 = rng.normal((0.0, 0.0), 0.3, (20, 2))
        blob2 = rng.normal((10.0, 0.0), 0.3, (20, 2))
        outliers = np.array([[5.0, 30.0], [-20.0, -20.0], [30.0, 15.0]])
        points = np.vstack([blob1, blob2, outliers])
        labeling = cluster(points, ClusterConfig(min_cluster_size=10))
        assert labeling.n_clusters == 2
        assert set(np.flatnonzero(labeling.labels == -1)) == {40, 41, 42}
        assert len(set(labeling.labels[:20])) == 1
        assert len(set(labeling.labels[20:40])) == 1

    def test_single_cloud_is_one_cluster(self):
        rng = np.random.default_rng(14)
        points = rng.uniform(0.0, 1.0, (25, 2))
        labeling = cluster(points, ClusterConfig(min_cluster_size=15))
        assert labeling.n_clusters == 1
        assert labeling.noise_count == 0

    def test_every_cluster_meets_the_size_floor(self):
        rng = np.random.default_rng(15)
        for trial in range(10):
            points = rng.standard_normal((60, 2)) * rng.uniform(0.5, 3.0)
            mcs = int(rng.integers(5, 20))
            labeling = cluster(points, ClusterConfig(min_cluster_size=mcs))
            labels = labeling.labels
            assert np.all((labels >= -1) & (labels < labeling.n_clusters))
            for k in range(labeling.n_clusters):
                assert np.sum(labels == k) >= min(mcs, 60)

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        points = rng.standard_normal((50, 3))
        a = cluster(points, ClusterConfig(min_cluster_size=10))
        b = cluster(points, ClusterConfig(min_cluster_size=10))
        assert np.array_equal(a.labels, b.labels)

    def test_peak_memory_stays_below_one_dense_matrix(self):
        # One 4,000 x 4,000 float64 matrix alone is 128 MB.
        rng = np.random.default_rng(17)
        centers = rng.uniform(-20.0, 20.0, (8, 5))
        points = centers[rng.integers(0, 8, 4000)] + rng.normal(0.0, 0.5, (4000, 5))
        tracemalloc.start()
        try:
            labeling = cluster(points, ClusterConfig(min_cluster_size=15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labeling.n_clusters >= 2
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_points(self, bad):
        points = np.random.default_rng(18).standard_normal((60, 2))
        points[37, 1] = bad
        with pytest.raises(ValidationError, match=r"points must be finite \(row 37\)"):
            cluster(points, ClusterConfig(min_cluster_size=5))

    def test_rejects_points_whose_squared_distances_overflow(self):
        # The squared distances overflow to inf, which once made Prim's
        # loop emit self-loops and condensation never return.
        script = """
import numpy as np
from topicforge import ClusterConfig, ValidationError, cluster
rng = np.random.default_rng(21)
points = np.vstack([rng.standard_normal((20, 2)), np.full((20, 2), 2.5e299),
                    np.full((20, 2), -2.5e299)])
try:
    cluster(points, ClusterConfig(min_cluster_size=3))
except ValidationError as exc:
    print(exc)
"""
        src = str(Path(__file__).parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "squared distances overflow" in done.stdout

    def test_accepts_the_widest_finite_span(self):
        points = np.random.default_rng(22).standard_normal((40, 2)) * 1e153
        labeling = cluster(points, ClusterConfig(min_cluster_size=5))
        assert labeling.n_clusters >= 1

    def test_rejects_too_few_points(self):
        with pytest.raises(ValidationError):
            cluster(np.zeros((10, 2)), ClusterConfig(min_cluster_size=10))
        with pytest.raises(ValidationError):
            cluster(np.ones(5), ClusterConfig(min_cluster_size=2))
