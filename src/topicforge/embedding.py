"""Joint document and word embedding.

Documents and words are trained as predictor vectors in one shared space:
skip-gram steps move a surrounding word's vector toward predicting the
window's center word, and distributed-bag-of-words steps move the
document's vector toward predicting words inside the window.  Both kinds
of step predict through a shared hierarchical-softmax output layer built
over a Huffman coding of the vocabulary, so document vectors end up near
the word vectors that predict their content.

With a hierarchical-softmax output layer there is no per-word output
matrix; the single trained word matrix serves both as the skip-gram input
side and as the context-word space consumed downstream.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corpus import Document, Vocabulary, build_vocabulary, index_documents, scan_tokens
from .errors import ValidationError

# The learning rate decays linearly between these over a whole training run.
INITIAL_LR = 0.025
FINAL_LR = 1e-4

# scipy's logistic function, bound by _load_expit before the first step.
expit = None


def _load_expit() -> None:
    """Bind ``expit`` for ``_apply_hs_step``.  Loading scipy.special takes
    about 20 MB and 0.2 s, so only a process that runs a step pays for it."""
    global expit
    if expit is None:
        from scipy.special import expit


@dataclass(frozen=True)
class EmbeddingConfig:
    """Knobs for embedding training.

    The learning rate decays linearly from ``INITIAL_LR`` to ``FINAL_LR``
    over all scheduled center positions.  A seed fully determines the
    trained vectors.
    """

    vector_size: int = 300
    window: int = 15
    epochs: int = 40
    min_count: int = 50
    subsample_threshold: float = 1e-5
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.vector_size >= 1:
            raise ValidationError(f"vector_size must be >= 1, got {self.vector_size}")
        if not self.window >= 1:
            raise ValidationError(f"window must be >= 1, got {self.window}")
        if not self.epochs >= 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if not self.min_count >= 1:
            raise ValidationError(f"min_count must be >= 1, got {self.min_count}")
        if not self.subsample_threshold > 0:
            raise ValidationError(
                f"subsample_threshold must be > 0, got {self.subsample_threshold}"
            )
        if not self.seed >= 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class HuffmanCoding:
    """Huffman tree over the vocabulary for hierarchical softmax.

    The coding keeps the vocabulary ``counts`` and ``inner_node_vectors``,
    one trained vector per inner node (a one-word vocabulary has none).
    Only training and word scoring use it, so archives do not store it.
    The tree itself is built from the counts the first time ``paths``,
    ``signs`` or ``labels`` is read, and kept from then on.

    ``paths[w]`` lists the inner-node ids on the root-to-leaf path of word
    ``w``; inner node ``n - 2`` is the root.  ``signs[w]`` and
    ``labels[w]`` hold the branch bit taken at each of them, as factors
    ``1 - 2 * bit`` and as targets ``1 - bit``.  All three are per-word
    views of the flat arrays that ``_huffman_tree`` returns.
    """

    counts: np.ndarray
    inner_node_vectors: np.ndarray

    @cached_property
    def _views(self) -> tuple[list[np.ndarray], ...]:
        points, bits, offsets = _huffman_tree(self.counts)
        spans = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
        return tuple(
            [flat[start:end] for start, end in spans]
            for flat in (points, 1.0 - 2.0 * bits, 1.0 - bits)
        )

    @cached_property
    def paths(self) -> list[np.ndarray]:
        return self._views[0]

    @cached_property
    def signs(self) -> list[np.ndarray]:
        return self._views[1]

    @cached_property
    def labels(self) -> list[np.ndarray]:
        return self._views[2]


def _huffman_tree(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat root-to-leaf inner-node paths and branch bits of every word.

    Word ``w``'s path is ``points[offsets[w]:offsets[w + 1]]``, and its
    branch bits sit at the same positions of ``bits``.  Merging is
    deterministic: the heap orders by (count, node id), where word ``w`` is
    node ``w`` and merge ``step`` makes node ``n + step``, inner node
    ``step``, so at equal weight the lower word index merges first.  The
    first node popped at each merge takes branch bit 0.
    """
    n = len(counts)
    root = 2 * n - 2
    parent = [root] * (root + 1)
    bit = [0] * (root + 1)
    heap = [(int(c), w) for w, c in enumerate(counts)]
    heapq.heapify(heap)
    for node in range(n, root + 1):
        count_a, a = heapq.heappop(heap)
        count_b, b = heapq.heappop(heap)
        parent[a], parent[b], bit[b] = node, node, 1
        heapq.heappush(heap, (count_a + count_b, node))
    depth = [0] * (root + 1)
    for node in range(root - 1, -1, -1):
        depth[node] = depth[parent[node]] + 1
    offsets = np.concatenate(([0], np.cumsum(depth[:n], dtype=np.int64)))
    parent, bit = np.array(parent), np.array(bit, dtype=np.int8)
    points = np.empty(offsets[-1], dtype=np.int32)
    bits = np.empty(offsets[-1], dtype=np.int8)
    # Every word climbs one level per pass and fills its path from the end.
    node, pos = np.arange(n), offsets[1:] - 1
    while (climbing := node != root).any():
        node, pos = node[climbing], pos[climbing]
        points[pos] = parent[node] - n
        bits[pos] = bit[node]
        node, pos = parent[node], pos - 1
    return points, bits, offsets


def build_huffman_coding(vocab: Vocabulary, vector_size: int) -> HuffmanCoding:
    """Huffman coding of the vocabulary counts, its inner-node vectors at zero.

    The tree is built on first use of its paths, signs or labels.
    """
    inner_node_vectors = np.zeros((max(len(vocab) - 1, 0), vector_size))
    return HuffmanCoding(counts=vocab.counts, inner_node_vectors=inner_node_vectors)


def hs_probability(predictor: np.ndarray, word: int, coding: HuffmanCoding) -> float:
    """Probability of a word under the hierarchical softmax.

    The product over the word's path of ``sigmoid(+-(predictor . node))``
    with the sign set by the branch bit.  Probabilities over the whole
    vocabulary sum to one for any predictor.
    """
    loss = _checked_step(np.asarray(predictor)[None], 0, word, coding, 0.0)
    return float(np.exp(-loss))


def _checked_step(
    matrix: np.ndarray, row: int, word: int, coding: HuffmanCoding | None, lr: float
) -> float:
    """``_apply_hs_step`` for library callers: a missing coding or an index
    out of range raises instead of wrapping.  Training calls
    ``_apply_hs_step`` directly."""
    if coding is None:
        raise ValidationError(
            "no hierarchical-softmax output layer: archives do not store it, "
            "so a loaded model cannot be trained further or score words"
        )
    if not 0 <= row < len(matrix):
        raise ValidationError(f"row index {row} out of range")
    if not 0 <= word < len(coding.paths):
        raise ValidationError(f"word index {word} out of range")
    _load_expit()
    return _apply_hs_step(matrix, row, word, coding, lr)


def _apply_hs_step(
    matrix: np.ndarray, row: int, word: int, coding: HuffmanCoding, lr: float
) -> float:
    """One gradient step of ``matrix[row]`` predicting ``word``.

    Returns the negative log-likelihood before the update.  Both the
    predictor row and the path's inner-node vectors move; each update uses
    the other side's pre-step values.
    """
    points = coding.paths[word]
    if points.size == 0:
        return 0.0
    pred = matrix[row]
    inner = coding.inner_node_vectors
    nodes = inner[points]
    z = nodes @ pred
    loss = float(np.logaddexp(0.0, -coding.signs[word] * z).sum())
    if lr != 0.0:
        g = expit(z) - coding.labels[word]
        inner[points] = nodes - np.outer(lr * g, pred)
        pred -= lr * (g @ nodes)
    return loss


def train_step_skipgram(
    embedding: "SemanticEmbedding",
    surrounding_word: int,
    context_word: int,
    lr: float,
) -> float:
    """Skip-gram step: the surrounding word's vector predicts the center word.

    Updates the surrounding word's row and the inner-node vectors on the
    center word's path; returns the negative log-likelihood before the
    update.
    """
    return _checked_step(
        embedding.word_vectors, surrounding_word, context_word, embedding.coding, lr
    )


def train_step_dbow(
    embedding: "SemanticEmbedding", doc_index: int, target_word: int, lr: float
) -> float:
    """Bag-of-words step: the document's vector predicts an in-window word.

    Same mechanics as the skip-gram step with the document row as the
    predictor.
    """
    return _checked_step(
        embedding.doc_vectors, doc_index, target_word, embedding.coding, lr
    )


@dataclass
class SemanticEmbedding:
    """Trained document and word vectors sharing one semantic space.

    ``word_vectors`` is both the skip-gram input side and the context-word
    space that similarity queries and topic words rank against.
    ``coding`` is the hierarchical-softmax output layer that training
    updates.  Archives do not store it, so a loaded model's is None: it can
    be queried, reduced, evaluated and exported, but not trained further.
    ``epoch_losses`` records the mean per-step negative log-likelihood of
    each training epoch.
    """

    doc_vectors: np.ndarray
    word_vectors: np.ndarray
    coding: HuffmanCoding | None
    vocabulary: Vocabulary
    doc_ids: tuple[str, ...]
    epoch_losses: list[float] = field(default_factory=list)

    @property
    def vector_size(self) -> int:
        return self.doc_vectors.shape[1]


def train(docs: list[Document], config: EmbeddingConfig) -> SemanticEmbedding:
    """Build the vocabulary and train document and word vectors.

    For every epoch and every center position, surrounding words that
    survive the subsampling draw each contribute one skip-gram step
    (surrounding word predicts the center) and one bag-of-words step (the
    document predicts the surrounding word).  Predictor rows start uniform
    in ``[-0.5/d, 0.5/d]``; inner nodes start at zero.  Every document
    must keep at least one in-vocabulary token.
    """
    if not docs:
        raise ValidationError("cannot train on an empty corpus")
    scan = scan_tokens(docs)
    vocab = build_vocabulary(
        docs, config.min_count, config.subsample_threshold, scan=scan
    )
    indexed = index_documents(docs, vocab, scan=scan)
    del scan
    # A document with no token to train on would keep its random start
    # vector, and such vectors cluster together into a topic of their own.
    empty = [d.id for d in indexed if len(d.tokens) == 0]
    if empty:
        raise ValidationError(
            f"{len(empty)} documents have no in-vocabulary token "
            f"(first: {', '.join(empty[:5])})"
        )
    token_arrays = [d.tokens for d in indexed]
    _load_expit()
    d = config.vector_size
    rng = np.random.default_rng(config.seed)
    doc_vectors = (rng.random((len(indexed), d)) - 0.5) / d
    word_vectors = (rng.random((len(vocab), d)) - 0.5) / d
    coding = build_huffman_coding(vocab, d)
    embedding = SemanticEmbedding(
        doc_vectors=doc_vectors,
        word_vectors=word_vectors,
        coding=coding,
        vocabulary=vocab,
        doc_ids=tuple(doc.id for doc in indexed),
    )
    keep = vocab.keep_probability
    window = config.window
    lr_span = INITIAL_LR - FINAL_LR
    total_positions = max(1, config.epochs * sum(len(t) for t in token_arrays))
    pos = 0
    for _ in range(config.epochs):
        loss_sum = 0.0
        steps = 0
        for di, toks in enumerate(token_arrays):
            for p in range(len(toks)):
                lr = max(FINAL_LR, INITIAL_LR - lr_span * (pos / total_positions))
                pos += 1
                left = toks[max(0, p - window) : p]
                right = toks[p + 1 : p + 1 + window]
                around = np.concatenate((left, right))
                draws = rng.random(len(around))
                survivors = around[draws < keep[around]]
                if survivors.size == 0:
                    continue
                center = toks[p]
                for w in survivors:
                    loss_sum += _apply_hs_step(word_vectors, w, center, coding, lr)
                for w in survivors:
                    loss_sum += _apply_hs_step(doc_vectors, di, w, coding, lr)
                steps += 2 * survivors.size
        embedding.epoch_losses.append(loss_sum / max(steps, 1))
    return embedding


def _scale_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row (last axis) times ``2**-e``, and ``e``, which brings its largest
    |entry| into [0.5, 1); exact, so unit rows are unchanged and no norm overflows."""
    e = np.frexp(np.abs(rows).max(axis=-1, initial=0.0))[1]
    return np.ldexp(rows, -e[..., None]), e


def _unit_rows(rows: np.ndarray, zero_message: str) -> np.ndarray:
    """Unit rows after ``_scale_rows``; a zero row ``i`` raises ``zero_message``
    formatted with ``row=i``."""
    unit, _ = _scale_rows(rows)
    norms = np.linalg.norm(unit, axis=-1, keepdims=True)
    if not norms.all():
        raise ValidationError(zero_message.format(row=int(np.argmin(norms))))
    return np.divide(unit, norms, out=unit)


# Float64 entries that the exact recheck holds per temporary array.
_RECHECK_ENTRIES = 1 << 20


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, added from coordinate 0 one term at a time,
    so that the rounding depends on no BLAS, CPU feature or batch."""
    if not terms.shape[-1]:
        return np.zeros(terms.shape[:-1])
    # accumulate is defined as that loop, where a reduction may pair terms.
    return np.add.accumulate(terms, axis=-1)[..., -1]


def _approximate_cosines(matrix: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Float32 cosines of each row of ``matrix`` against each float32 unit
    query in ``units`` (queries x rows), NaN in every column of a row whose
    float32 norm is not finite or below 2**-48, where ``_rank_by_cosine``'s
    bound does not hold."""
    with np.errstate(all="ignore"):
        rows = matrix.astype(np.float32, copy=False)
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        approx = units @ rows.T
        approx /= norms
    unsure = ~((norms >= 2.0**-48) & (norms < np.inf))
    if unsure.any():
        approx[:, unsure] = np.nan
    return approx


def _rank_by_cosine(
    matrix: np.ndarray, queries: np.ndarray, top_n: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact top-n rows of ``matrix`` by cosine against each row of ``queries``.

    A row's similarity to a query is the cosine of the two after
    ``_scale_rows``, in float64: the products of their entries, summed
    from coordinate 0 (``_ordered_sum``), divided by the product of their
    norms taken by the same rule, then cast to ``result_type(matrix,
    queries)``.  Rows rank by (-similarity, row index); NaN sorts after
    every number, and a zero row, or one with a NaN entry, scores -inf.
    Returns one (indices, similarities) pair per query, with top_n clamped
    to the row count; top_n below 1 and a zero query are rejected.  The
    result depends on no BLAS, thread count or CPU feature, nor on the
    other queries in the block.

    Only candidate rows get that value.  One float32 product of every
    unit query, rounded to float32, with the matrix in float32, divided by
    the rows' float32 norms (``_approximate_cosines``), gives each row an
    approximate similarity a.  With u = 2**-24, d the row length and
    gamma_d = d u / (1 - d u), a differs from the exact similarity by at
    most: 2u for the cast of a float64 row to float32, u for the rounding
    of the query, gamma_d for the float32 sum in any order, gamma_d / 2 + u
    for the float32 norm, u for the division and u / 2 for the exact
    value's own rounding.  Products and squares that underflow add at most
    d 2**-150 each, negligible for a row of float32 norm at least 2**-48.
    The sum, 1.5 gamma_d + 5.5 u, stays below beta = (d + 4) 2**-23 for d
    below 2**22.  A row of smaller or non-finite float32 norm, and every
    row against a query with a NaN or infinite entry, has a NaN a and is
    always a candidate.  Every other row is a candidate when a >= a_(k) -
    2 beta, for a_(k) the k-th largest finite a.  The k rows of largest a
    have exact similarities of at least a_(k) - beta, and a row with a <
    a_(k) - 2 beta has an exact similarity below that, so the candidates
    hold the exact top k.
    """
    if top_n < 1:
        raise ValidationError(f"top_n must be >= 1, got {top_n}")
    queries = np.asarray(queries)
    dtype = np.result_type(matrix, queries)
    scaled, _ = _scale_rows(queries.astype(np.float64))
    query_norms = np.sqrt(_ordered_sum(scaled * scaled))
    if not query_norms.all():
        raise ValidationError("query vector has zero norm")
    n, dim = matrix.shape
    k = min(top_n, n)
    if k == 0:
        return [(np.empty(0, np.intp), np.empty(0, dtype)) for _ in queries]
    with np.errstate(invalid="ignore"):
        units = (scaled / query_norms[:, None]).astype(np.float32)
    # Negated, so that the partition puts NaN after the k-th largest a.
    neg = _approximate_cosines(matrix, units)
    np.negative(neg, out=neg)
    beta = (dim + 4) * 2.0**-23
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1].astype(np.float64)
    # Rounded up to float32, so that no candidate is lost to the rounding.
    limit = np.nextafter((kth + 2.0 * beta).astype(np.float32), np.float32(np.inf))
    query, row = np.divmod(np.flatnonzero(~(neg > limit[:, None])), n)
    sims = np.full(len(row), -np.inf)
    # In blocks, so that many tied or unsure rows cannot fill memory.
    block = max(1, _RECHECK_ENTRIES // max(dim, 1))
    for start in range(0, len(row), block):
        pairs = slice(start, start + block)
        with np.errstate(invalid="ignore"):
            rows, _ = _scale_rows(matrix[row[pairs]].astype(np.float64))
            dots = _ordered_sum(rows * scaled[query[pairs]])
            norms = np.sqrt(_ordered_sum(rows * rows))
            scale = norms * query_norms[query[pairs]]
            np.divide(dots, scale, out=sims[pairs], where=norms > 0.0)
    sims = sims.astype(dtype)
    # Stable: within a query the candidates stay in row order.
    ranked = np.lexsort((-sims, query))
    starts = np.searchsorted(query, np.arange(len(queries)))
    return [(row[ranked[s : s + k]], sims[ranked[s : s + k]]) for s in starts]


def nearest_words_each(
    embedding: SemanticEmbedding, queries: np.ndarray, top_n: int
) -> list[list[tuple[str, float]]]:
    """Exact top-n vocabulary words by cosine against each query row.

    Equal to calling ``nearest_words`` once per row, bit for bit, for less
    work: one float32 product of every query with the word matrix picks
    each query's candidates, and each candidate's similarity is the
    fixed-order float64 cosine that ``_rank_by_cosine`` defines.
    """
    words = embedding.vocabulary.words
    return [
        [(words[i], float(s)) for i, s in zip(order, sims)]
        for order, sims in _rank_by_cosine(embedding.word_vectors, queries, top_n)
    ]


def nearest_words(
    embedding: SemanticEmbedding, query: np.ndarray, top_n: int
) -> list[tuple[str, float]]:
    """Exact top-n vocabulary words by cosine against the query vector."""
    return nearest_words_each(embedding, [query], top_n)[0]


def compose_query(
    positive: list[np.ndarray], negative: list[np.ndarray] = ()
) -> np.ndarray:
    """Unit query vector: mean of positives minus mean of negatives.

    Raises if the combination cancels to zero (or no vectors are given).
    The norm is taken in float64, so a float32 combination cannot overflow it.
    """
    if not positive and not negative:
        raise ValidationError("query needs at least one vector")
    parts = []
    if positive:
        parts.append(np.mean(positive, axis=0))
    if negative:
        parts.append(-np.mean(negative, axis=0))
    query = np.sum(parts, axis=0)
    norm = float(np.sqrt(np.einsum("i,i->", query, query, dtype=np.float64)))
    if norm == 0.0:
        raise ValidationError("query vectors cancel to a zero vector")
    return query / norm
