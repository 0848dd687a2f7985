"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions alone, in plain Python, and
deliberately shares no code with topicforge.
"""

import heapq
import itertools
import math
from collections import Counter


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
