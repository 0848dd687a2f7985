"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions alone, in plain Python and
numpy, or is the scipy routine that topicforge once called, and
deliberately shares no code with topicforge.
"""

import heapq
import itertools
import math
import re
from collections import Counter
from operator import itemgetter

import numpy as np


def _regex_tokens(text):
    """The tokenizer's definition: lowercase runs of letters and digits."""
    return re.findall(r"[^\W_]+", text.lower())


def vocabulary_oracle(docs, min_count, subsample_threshold):
    """Words, counts and keep probabilities, counted with
    one ``Counter.update`` per document.

    Words seen at least ``min_count`` times are kept, by descending count
    and then by word.  A word's keep probability is ``min(1, sqrt(threshold
    / ratio))``, its ratio taken over the kept tokens.  When no word is
    kept this raises ``ValueError`` with the package's message.
    """
    counter = Counter()
    total = 0
    for doc in docs:
        toks = _regex_tokens(doc.raw)
        total += len(toks)
        counter.update(toks)
    retained = [(w, c) for w, c in counter.items() if c >= min_count]
    if not retained:
        raise ValueError(
            f"no word appears at least {min_count} times "
            f"({len(counter)} distinct words, {total} tokens)"
        )
    retained.sort(key=itemgetter(0))
    retained.sort(key=itemgetter(1), reverse=True)
    kept = sum(c for _, c in retained)
    keep = [min(1.0, math.sqrt(subsample_threshold / (c / kept))) for _, c in retained]
    return [w for w, _ in retained], [c for _, c in retained], keep


def index_oracle(docs, word_index):
    """Each document's word indices as int64, one ``np.fromiter`` per
    document, with the words ``word_index`` lacks dropped."""
    indexed = []
    for doc in docs:
        tokens = _regex_tokens(doc.raw)
        ids = np.fromiter(
            map(word_index.get, tokens, itertools.repeat(-1)), np.int64, len(tokens)
        )
        indexed.append(ids[ids >= 0])
    return indexed


def pwi_oracle_hard(doc_tokens, topic_words, topic_docs, base=2.0):
    """Triple sum: topics, their member documents, their descriptor words.

    Parameters
    ----------
    doc_tokens : dict
        doc_id -> list of vocabulary tokens for that document.
    topic_words : sequence of sequences of str
        Descriptor words per topic.
    topic_docs : sequence of sequences of doc ids
        Member documents per topic (a partition of doc_tokens' keys).
    """
    n_tokens = sum(len(t) for t in doc_tokens.values())
    word_count = Counter()
    for toks in doc_tokens.values():
        word_count.update(toks)

    total = 0.0
    for words, dids in zip(topic_words, topic_docs):
        for did in dids:
            toks = doc_tokens[did]
            doc_count = Counter(toks)
            p_d = len(toks) / n_tokens
            for w in words:
                joint = doc_count.get(w, 0)
                if joint == 0:
                    continue
                p_dw = joint / n_tokens
                p_w = word_count[w] / n_tokens
                total += (p_dw / p_w) * math.log(p_dw / (p_d * p_w), base)
    return total


def pwi_oracle_mixture(doc_tokens, doc_order, proportions, topic_words, base=2.0):
    """Mixture variant: every document weighs into every topic by P(t|d).

    proportions[i][t] is document doc_order[i]'s weight on topic t.
    """
    n_tokens = sum(len(t) for t in doc_tokens.values())
    word_count = Counter()
    for toks in doc_tokens.values():
        word_count.update(toks)

    total = 0.0
    for t, words in enumerate(topic_words):
        for i, did in enumerate(doc_order):
            weight = proportions[i][t]
            if weight == 0.0:
                continue
            toks = doc_tokens[did]
            doc_count = Counter(toks)
            p_d = len(toks) / n_tokens
            inner = 0.0
            for w in words:
                joint = doc_count.get(w, 0)
                if joint == 0:
                    continue
                p_dw = joint / n_tokens
                p_w = word_count[w] / n_tokens
                inner += (p_dw / p_w) * math.log(p_dw / (p_d * p_w), base)
            total += weight * inner
    return total


def pwi_dict_scores(doc_ids, doc_tokens, topic_word_ids, assignments=None,
                    proportions=None):
    """Per-topic scores from per-document ``Counter`` rows, words outer.

    The scorer as it stood before it read flat arrays: each document's
    counts are a dict, every (word, member) pair is looked up in it, and
    each topic's non-zero terms are added left to right with the words as
    the outer loop and the members, in the order of ``assignments`` or
    ``proportions``, as the inner one.  Each term is
    ``weight * (c / wc) * log2((c * n) / (doc_total * wc))`` with Python
    ints for the products, so a scorer that forms the same terms in the
    same order gives the same floats bit for bit.

    Parameters
    ----------
    doc_ids : sequence of str
        Corpus document ids, in corpus order.
    doc_tokens : sequence of lists of int
        Each document's vocabulary indices, in corpus order.
    topic_word_ids : sequence of sequences of int
        Each topic's words as vocabulary indices (repeats allowed).
    assignments, proportions : dict
        Exactly one: doc id -> topic index (hard), or doc id -> topic
        weights (mixture).
    """
    joint = [dict(Counter(tokens)) for tokens in doc_tokens]
    doc_totals = [len(tokens) for tokens in doc_tokens]
    n = sum(doc_totals)
    word_count = Counter(w for tokens in doc_tokens for w in tokens)
    position = {doc_id: i for i, doc_id in enumerate(doc_ids)}
    members = [[] for _ in topic_word_ids]
    if assignments is not None:
        for doc_id, t in assignments.items():
            members[t].append((position[doc_id], 1.0))
    else:
        for doc_id, row in proportions.items():
            for t, weight in enumerate(row):
                if weight != 0.0:
                    members[t].append((position[doc_id], weight))
    scores = []
    for words, topic_members in zip(topic_word_ids, members):
        total = 0.0
        for w in words:
            wc = word_count[w]
            for i, weight in topic_members:
                c = joint[i].get(w, 0)
                if c == 0:
                    continue
                ratio = (c * n) / (doc_totals[i] * wc)
                total += weight * (c / wc) * math.log2(ratio)
        scores.append(total)
    return scores


def mst_weight_kruskal(dist):
    """Minimum spanning tree weight by Kruskal's algorithm."""
    n = len(dist)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0.0
    used = 0
    for w, i, j in sorted(
        (dist[i][j], i, j) for i in range(n) for j in range(i + 1, n)
    ):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            total += w
            used += 1
            if used == n - 1:
                break
    return total


def reachability_row(view, j):
    """Row j of a mutual reachability view, as a fresh array.

    ``view.points`` holds the ``(n, dim)`` points and ``view.core`` their
    core distances.  Entry i is
    ``max(euclidean(j, i), core_j, core_i)``, with 0 at i = j, and the
    squared differences are summed one coordinate at a time from
    coordinate 0, in the order the spanning-tree kernel sums them.
    """
    row = np.zeros(len(view.points))
    diff = np.empty_like(row)
    for col in view.points.T:
        np.subtract(col[j], col, out=diff)
        np.multiply(diff, diff, out=diff)
        row += diff
    np.sqrt(row, out=row)
    np.maximum(row, view.core, out=row)
    np.maximum(row, view.core[j], out=row)
    row[j] = 0.0
    return row


def core_distances_kdtree(points, min_samples):
    """scipy's ``cKDTree``: the last of each point's ``min_samples + 1``
    nearest, the point itself among them at distance 0.  Below 8
    coordinates it sums squared differences one coordinate at a time; from
    8 it sums four partial sums, which may differ in the last bits."""
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(points).query(points, k=min_samples + 1)
    return dist[:, -1]


def core_distances_all_pairs(points, min_samples, block=256):
    """Each point's ``min_samples``-th smallest distance to the other
    points, ``block`` rows of all-pairs distances at a time, with squared
    differences summed one coordinate at a time from coordinate 0."""
    n = len(points)
    core = np.empty(n)
    for start in range(0, n, block):
        rows = points[start : start + block]
        d2 = np.zeros((len(rows), n))
        for c in range(points.shape[1]):
            diff = rows[:, c, None] - points[None, :, c]
            d2 += diff * diff
        dist = np.sqrt(d2)
        dist[np.arange(len(rows)), np.arange(start, start + len(rows))] = np.inf
        core[start : start + len(rows)] = np.partition(dist, min_samples - 1, axis=1)[
            :, min_samples - 1
        ]
    return core


def symmetrized_graph_sparse(n, indices, memberships):
    """scipy.sparse's fuzzy union of directed kNN weights: ``A + A.T -
    A * A.T`` for ``A[i, indices[i, m]] = memberships[i, m]``, as
    ``(heads, tails, weights)`` of its upper triangle in CSR order, with
    weights of 0 dropped."""
    import scipy.sparse

    rows = np.repeat(np.arange(n), indices.shape[1])
    directed = scipy.sparse.coo_matrix(
        (memberships.ravel(), (rows, indices.ravel())), shape=(n, n)
    ).tocsr()
    sym = (directed + directed.T - directed.multiply(directed.T)).tocoo()
    upper = (sym.row < sym.col) & (sym.data > 0)
    return (
        sym.row[upper].astype(np.int64),
        sym.col[upper].astype(np.int64),
        sym.data[upper],
    )


def _single_linkage(n, mst_edges):
    """Merge MST edges in ascending weight order into a binary dendrogram.

    Returns (children, dist, size) arrays indexed by node id; points are
    nodes 0..n-1 and merge k creates node n+k, so node 2n-2 is the root.
    """
    order = np.argsort(mst_edges[:, 2], kind="stable")
    parent = np.arange(2 * n - 1, dtype=np.int64)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    children = np.empty((n - 1, 2), dtype=np.int64)
    dist = np.empty(n - 1)
    size = np.ones(2 * n - 1, dtype=np.int64)
    for k, e in enumerate(order):
        i, j, w = mst_edges[e]
        ra, rb = find(int(i)), find(int(j))
        node = n + k
        children[k] = (ra, rb)
        dist[k] = w
        size[node] = size[ra] + size[rb]
        parent[ra] = node
        parent[rb] = node
    return children, dist, size


def _parts(node, n, children, dist):
    """The parts that a node's distance splits it into: its highest
    descendants below that distance, found through every merge at it."""
    w = dist[node - n]
    parts = []
    stack = [node]
    while stack:
        x = stack.pop()
        if x >= n and dist[x - n] == w:
            stack.extend(children[x - n].tolist())
        else:
            parts.append(x)
    return parts


def _dendrogram_leaves(node, n, children):
    out = []
    stack = [node]
    while stack:
        x = stack.pop()
        if x < n:
            out.append(x)
        else:
            stack.extend(children[x - n])
    return out


def condense_by_dendrogram(n_points, mst_edges, min_cluster_size):
    """The condensed hierarchy read back from a binary dendrogram.

    The single-linkage dendrogram orders equal-weight merges arbitrarily;
    walking down through every merge at one distance recovers that
    distance's level sets.  Each part of at least ``min_cluster_size``
    points is a child cluster when there are two or more; a lone large
    part continues the cluster; smaller parts' points fall out at that
    lambda (1/distance).  Returns a dict of per-cluster lists: ``parent``,
    ``birth_lambda``, ``children``, ``size_at_birth``, ``fallout_points``
    and ``fallout_lambdas``, plus ``stability``, one ``math.fsum`` per
    cluster of ``lam - birth`` per fallen point and ``size * (birth_child
    - birth)`` per child.
    """
    children, dist, size = _single_linkage(n_points, mst_edges)
    tree = {key: [[]] for key in ("children", "fallout_points", "fallout_lambdas")}
    tree.update(parent=[-1], birth_lambda=[0.0], size_at_birth=[n_points])
    stack = [(2 * n_points - 2, 0)]
    while stack:
        node, cluster = stack.pop()
        k = node - n_points
        lam = 1.0 / dist[k] if dist[k] > 0 else np.inf
        parts = _parts(node, n_points, children, dist)
        big = [part for part in parts if size[part] >= min_cluster_size]
        for part in parts:
            if size[part] < min_cluster_size:
                shed = _dendrogram_leaves(part, n_points, children)
                tree["fallout_points"][cluster].extend(shed)
                tree["fallout_lambdas"][cluster].extend([lam] * len(shed))
        if len(big) == 1:
            stack.append((big[0], cluster))
        elif big:
            for part in big:
                cid = len(tree["parent"])
                tree["parent"].append(cluster)
                tree["birth_lambda"].append(lam)
                tree["size_at_birth"].append(int(size[part]))
                for key in ("children", "fallout_points", "fallout_lambdas"):
                    tree[key].append([])
                tree["children"][cluster].append(cid)
                stack.append((part, cid))
    birth = tree["birth_lambda"]
    tree["stability"] = [
        math.fsum(
            [lam - birth[c] for lam in tree["fallout_lambdas"][c]]
            + [
                tree["size_at_birth"][ch] * (birth[ch] - birth[c])
                for ch in tree["children"][c]
            ]
        )
        for c in range(len(birth))
    ]
    return tree


def _prufer_tree_weight(seq, dist, n):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    total = 0.0
    for v in seq:
        leaf = heapq.heappop(leaves)
        total += dist[leaf][v]
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    return total + dist[u][w]


def mst_weight_exhaustive(dist):
    """Minimum weight over every spanning tree, via Prufer enumeration.

    There are n^(n-2) labeled trees, so keep n <= 7.
    """
    n = len(dist)
    if n == 2:
        return float(dist[0][1])
    best = math.inf
    for seq in itertools.product(range(n), repeat=n - 2):
        w = _prufer_tree_weight(seq, dist, n)
        if w < best:
            best = w
    return best


def huffman_paths_oracle(counts):
    """Root-to-leaf inner-node ids and branch bits of every word.

    The tree is built from tagged tuples, ``("leaf", word)`` and ``("node",
    step, first, second)``, and read by a depth-first walk that copies the
    path at every level.  The heap orders by (count, tie key): a leaf's key
    is its word index and merge ``step``'s node has key ``n + step``, so at
    equal counts the lower word index merges first.  The first node popped
    at each merge takes branch bit 0.  Inner node ``step`` is the node made
    by merge ``step``; the root is ``n - 2``.
    """
    n = len(counts)
    if n == 1:
        return [[]], [[]]
    heap = [(counts[i], i, ("leaf", i)) for i in range(n)]
    heapq.heapify(heap)
    for step in range(n - 1):
        count_a, _, a = heapq.heappop(heap)
        count_b, _, b = heapq.heappop(heap)
        heapq.heappush(heap, (count_a + count_b, n + step, ("node", step, a, b)))
    paths = [None] * n
    codes = [None] * n
    stack = [(heap[0][2], [], [])]
    while stack:
        node, points, bits = stack.pop()
        if node[0] == "leaf":
            paths[node[1]] = points
            codes[node[1]] = bits
        else:
            _, node_id, first, second = node
            stack.append((first, points + [node_id], bits + [0]))
            stack.append((second, points + [node_id], bits + [1]))
    return paths, codes


def provenance_after_merges(provenance, merges):
    """Each topic's original topic ids after the ``(absorbed, absorbing)``
    merges, kept as ``reduce_topics`` once kept them beside its merge loop.

    ``provenance`` lists the original ids of the topics before the first
    merge.  Each merge extends the absorbing topic's list with the absorbed
    topic's, then deletes the absorbed topic's, so later topics move down
    one index.
    """
    lists = [list(p) for p in provenance]
    for absorbed, absorbing in merges:
        lists[absorbing].extend(lists[absorbed])
        del lists[absorbed]
    return tuple(tuple(p) for p in lists)
