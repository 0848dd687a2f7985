"""Density-based clustering of the reduced document coordinates.

Points are clustered by building a minimum spanning tree over mutual
reachability distances, condensing the resulting single-linkage hierarchy
so that only splits into components of at least ``min_cluster_size``
points count as new clusters, and selecting the most stable clusters by
excess of mass.  Points that fall out of the hierarchy above every
selected cluster are noise.

No n x n matrix is held: the compiled kernel builds a KD-tree, queries
it for the core distances, and finds the spanning tree of the unformed
mutual reachability matrix by Boruvka's rounds over it.  All merges
at one distance condense as one split, and the selected clusters are
numbered by their smallest member, so the labels and stabilities depend
only on the points, not on which of the equally light spanning trees was
found.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import kernels
from .errors import ValidationError


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for the clustering stage.

    ``min_cluster_size`` is also the neighbor count of the core distances,
    as in HDBSCAN when ``min_samples`` is left unset.
    """

    min_cluster_size: int = 15

    def __post_init__(self) -> None:
        if not self.min_cluster_size >= 2:
            raise ValidationError(
                f"min_cluster_size must be >= 2, got {self.min_cluster_size}"
            )


@dataclass
class CondensedTree:
    """Cluster hierarchy after small-side splits are folded away.

    Cluster 0 is the root (all points, birth lambda 0), and every other
    cluster's ``parent`` has a lower id than it.  ``fallout_cluster``
    holds, per point, the cluster that the point fell out of.  Lambda is
    1/distance, so larger means denser.  Each stability is one
    ``math.fsum``, so it does not depend on the order of its terms.
    """

    parent: list[int]
    birth_lambda: list[float]
    fallout_cluster: np.ndarray
    stability: np.ndarray


@dataclass(frozen=True)
class ClusterLabeling:
    """Result of clustering: label per point, -1 for noise."""

    labels: np.ndarray
    n_clusters: int
    cluster_stability: np.ndarray

    @property
    def noise_count(self) -> int:
        return int(np.sum(self.labels == -1))


def core_distances(points: np.ndarray, min_samples: int) -> np.ndarray:
    """Distance from each point to its min_samples-th nearest neighbor.

    The point itself is excluded, so ``min_samples`` must be at most
    ``n - 1``.  The compiled kernel's KD-tree (``kernels.core_distances``)
    sums squared differences one coordinate at a time, as the spanning
    tree's mutual reachability distances do, so at every dimension each
    core distance equals the tree's distance to that neighbor bit for bit.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError("points must be a 2-d array")
    n = len(points)
    if not 1 <= min_samples <= n - 1:
        raise ValidationError(
            f"min_samples must be in [1, {n - 1}] for {n} points, got {min_samples}"
        )
    if not np.isfinite(points).all():
        raise ValidationError("points must be finite")
    return kernels.core_distances(points, min_samples)


@dataclass(frozen=True)
class ReachabilityRows:
    """The mutual reachability matrix, ``max(euclidean(i, j), core_i,
    core_j)`` off the diagonal, held as its inputs and never formed.

    ``points`` holds the ``(n, dim)`` points, and the distances sum their
    squared differences one coordinate at a time.  It is the only input
    ``build_mst`` takes.
    """

    points: np.ndarray
    core: np.ndarray


def mutual_reachability(points: np.ndarray, core: np.ndarray) -> ReachabilityRows:
    """The pairwise ``max(core_i, core_j, euclidean(i, j))`` matrix, unformed."""
    return ReachabilityRows(points, core)


def build_mst(rows: ReachabilityRows) -> np.ndarray:
    """Minimum spanning tree of a mutual reachability view, as ``(n - 1, 3)``
    rows of (point i, point j, weight) with i < j.

    The view, as ``mutual_reachability`` returns it, goes to the compiled
    KD-tree Boruvka (``kernels.mst_reachability``), which never forms a
    row.  Every coordinate and core distance must be finite.
    """
    if not (np.isfinite(rows.points).all() and np.isfinite(rows.core).all()):
        raise ValidationError(
            "mutual reachability inputs must be finite, not NaN or infinite"
        )
    return kernels.mst_reachability(rows.points, rows.core)


def _level_sets(n: int, mst_edges: np.ndarray):
    """One union-find pass over the MST edges, a group of equal weights at a
    time, lightest first.  Points are nodes 0..n-1, and each component that
    a group forms is the next node, n + k, the last being the root.
    Returns each such node's parts (the components of the lighter edges
    that it joins, the same for every minimum spanning tree) and weight,
    indexed by ``node - n``, and every node's point count.
    """
    sorted_edges = mst_edges[np.argsort(mst_edges[:, 2], kind="stable")]
    owner = list(range(n))
    node_of = owner.copy()

    def find(x: int) -> int:
        root = x
        while owner[root] != root:
            root = owner[root]
        while owner[x] != root:
            owner[x], x = root, owner[x]
        return root

    parts: list[list[int]] = []
    dist: list[float] = []
    size = [1] * n
    for w, group in itertools.groupby(zip(*sorted_edges.T.tolist()), key=itemgetter(2)):
        ends = [(find(int(a)), find(int(b))) for a, b, _ in group]
        for ra, rb in ends:
            owner[find(ra)] = find(rb)
        joined: dict[int, list[int]] = {}
        for r in dict.fromkeys(itertools.chain.from_iterable(ends)):
            joined.setdefault(find(r), []).append(node_of[r])
        for root, nodes in joined.items():
            node_of[root] = n + len(parts)
            parts.append(nodes)
            dist.append(w)
            size.append(sum(size[p] for p in nodes))
    return parts, dist, size


def condense_tree(
    n_points: int, mst_edges: np.ndarray, min_cluster_size: int
) -> CondensedTree:
    """Fold the single-linkage hierarchy into the condensed hierarchy.

    Walking down from the root at increasing lambda, all merges at one
    distance are one split, the level-set definition of HDBSCAN*
    (Campello, Moulavi & Sander 2013).  Each part of at least
    ``min_cluster_size`` points becomes a child cluster when there are two
    or more of them; a lone large part continues the cluster.  The points
    of smaller parts fall out at that lambda, so when no part is large the
    cluster dies and sheds all remaining points.  A cluster's stability
    sums ``lam - birth`` over the points that fall out of it and
    ``size * (lam - birth)`` over its children.
    """
    if min_cluster_size < 2:
        raise ValidationError(
            f"min_cluster_size must be >= 2, got {min_cluster_size}"
        )
    n = n_points
    parts, dist, size = _level_sets(n, mst_edges)
    if not parts or size[-1] != n:
        raise ValidationError(f"mst_edges must connect all {n} points, at least 2")
    parent: list[int] = [-1]
    birth: list[float] = [0.0]
    terms: list[list[float]] = [[]]
    # Each node's cluster: the one it continues, or the one a small part
    # fell out of.  A node's parts have lower ids than the node, so one
    # pass down from the root hands every node's cluster to its parts.
    cluster_of = [0] * len(size)
    root = len(size) - 1
    for node in range(root, n - 1, -1):
        cluster = cluster_of[node]
        for part in parts[node - n]:
            cluster_of[part] = cluster
        if size[node] < min_cluster_size and node < root:
            continue  # a small part only hands its cluster to its points
        w = dist[node - n]
        lam = 1.0 / w if w > 0 else math.inf
        big = [part for part in parts[node - n] if size[part] >= min_cluster_size]
        shed = size[node] - sum(size[part] for part in big)
        terms[cluster].extend([lam - birth[cluster]] * shed)
        if len(big) > 1:
            for part in big:
                cluster_of[part] = len(parent)
                parent.append(cluster)
                birth.append(lam)
                terms.append([])
                terms[cluster].append(size[part] * (lam - birth[cluster]))
    return CondensedTree(
        parent=parent,
        birth_lambda=birth,
        fallout_cluster=np.array(cluster_of[:n], dtype=np.int64),
        stability=np.array([math.fsum(t) for t in terms]),
    )


def extract_clusters(tree: CondensedTree) -> ClusterLabeling:
    """Select the most stable clusters and label the points.

    A cluster keeps itself when its stability is at least the
    ``math.fsum`` of its children's winning stabilities; the root never
    competes.  One pass from the highest cluster id down decides this, as
    every child has a higher id than its parent.  A cluster is selected
    when it keeps itself and no cluster between it and the root does, so
    one pass down the ``parent`` links gives each cluster the selected
    cluster at or above it, or -1.  If no split ever qualified, the root
    is that cluster for all points.  Each point takes the label of the
    cluster it fell out of, so a point that fell out above the selected
    level is noise.  Labels number the selected clusters in the order of
    their smallest member index, and ``cluster_stability`` follows that
    order.
    """
    m = len(tree.parent)
    child_wins: list[list[float]] = [[] for _ in range(m)]
    keeps = [False] * m
    for c in range(m - 1, 0, -1):
        child_sum = math.fsum(child_wins[c])
        keeps[c] = not child_sum > tree.stability[c]
        child_wins[tree.parent[c]].append(tree.stability[c] if keeps[c] else child_sum)
    selected_at = [0 if m == 1 else -1]
    for c in range(1, m):
        above = selected_at[tree.parent[c]]
        selected_at.append(above if above >= 0 or not keeps[c] else c)
    labels = np.array(selected_at, dtype=np.int64)[tree.fallout_cluster]
    # Every selected cluster has members; renumber by the first of each.
    member = labels >= 0
    ids, first = np.unique(labels[member], return_index=True)
    chosen = ids[np.argsort(first)]
    rank = np.empty(m, dtype=np.int64)
    rank[chosen] = np.arange(len(chosen))
    labels[member] = rank[labels[member]]
    return ClusterLabeling(
        labels=labels,
        n_clusters=len(chosen),
        cluster_stability=tree.stability[chosen],
    )


def cluster(points: np.ndarray, config: ClusterConfig) -> ClusterLabeling:
    """Cluster points in the reduced space; every coordinate must be finite,
    and so must the squared diagonal of the points' bounding box.

    Deterministic: no randomness anywhere in the stage, and the labels do
    not depend on the order of the points beyond their numbering.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError("points must be a 2-d array")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise ValidationError(f"points must be finite (row {int(np.argmin(finite))})")
    if len(points) <= config.min_cluster_size:
        raise ValidationError(
            f"need more than {config.min_cluster_size} points, got {len(points)}"
        )
    # Rounding is monotone, so when the bounding box's squared diagonal,
    # summed in the distances' order, is finite, so is every squared distance.
    with np.errstate(over="ignore"):
        if not np.isfinite(np.cumsum(np.ptp(points, axis=0) ** 2)).all():
            raise ValidationError("points span too wide a range: squared distances overflow")
    core = core_distances(points, config.min_cluster_size)
    mr = mutual_reachability(points, core)
    mst = build_mst(mr)
    tree = condense_tree(len(points), mst, config.min_cluster_size)
    return extract_clusters(tree)
