"""Topic discovery from jointly embedded document and word vectors.

The pipeline: tokenize a corpus and build a vocabulary (``corpus``),
train documents and words into one semantic space (``embedding``),
compress the document vectors to a few dimensions (``reduction``), find
dense document clusters (``clustering``), turn clusters into topic
vectors with describing words (``topics``), score topics by information
gain (``metric``), and save or load the whole thing (``persistence``).
"""

__version__ = "0.1.0"

from .clustering import ClusterConfig, ClusterLabeling, cluster
from .corpus import (
    Document,
    Vocabulary,
    build_vocabulary,
    index_documents,
    load_corpus,
    tokenize,
)
from .embedding import (
    EmbeddingConfig,
    HuffmanCoding,
    SemanticEmbedding,
    build_huffman_coding,
    compose_query,
    hs_probability,
    nearest_words,
    train,
    train_step_dbow,
    train_step_skipgram,
)
from .errors import (
    ArchiveError,
    CorpusError,
    EmptyVocabularyError,
    TopicforgeError,
    ValidationError,
)
from .metric import (
    CooccurrenceStats,
    EvaluationReport,
    TopicSpec,
    build_stats,
    evaluate,
    load_external_topics,
    pwi_hard,
    pwi_mixture,
    random_baseline_spec,
)
from .persistence import ModelArchive, load_model, save_model
from .reduction import FuzzyGraph, ReductionConfig, reduce
from .topics import (
    Topic,
    TopicModel,
    build_topic_model,
    reduce_topics,
    search_documents,
    search_topics,
)

__all__ = [
    "ArchiveError",
    "ClusterConfig",
    "ClusterLabeling",
    "CooccurrenceStats",
    "CorpusError",
    "Document",
    "EmbeddingConfig",
    "EmptyVocabularyError",
    "EvaluationReport",
    "FuzzyGraph",
    "HuffmanCoding",
    "ModelArchive",
    "ReductionConfig",
    "SemanticEmbedding",
    "Topic",
    "TopicModel",
    "TopicSpec",
    "TopicforgeError",
    "ValidationError",
    "Vocabulary",
    "build_huffman_coding",
    "build_stats",
    "build_topic_model",
    "build_vocabulary",
    "cluster",
    "compose_query",
    "evaluate",
    "hs_probability",
    "index_documents",
    "load_corpus",
    "load_external_topics",
    "load_model",
    "nearest_words",
    "pwi_hard",
    "pwi_mixture",
    "random_baseline_spec",
    "reduce",
    "reduce_topics",
    "save_model",
    "search_documents",
    "search_topics",
    "tokenize",
    "train",
    "train_step_dbow",
    "train_step_skipgram",
]
