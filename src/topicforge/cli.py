"""Command-line interface.

Six commands cover the pipeline: ``train`` runs corpus-to-topics end to
end and writes a model archive, ``topics`` lists what was found,
``reduce`` merges topics down to a target count, ``search`` queries
documents or topics by words, ``evaluate`` scores topics against a
corpus, and ``export`` dumps coordinates, labels, or vectors as CSV.

Every command that writes an artifact also writes a
``<artifact>.manifest.json`` beside it recording the arguments, resolved
configuration, seed, input hashes, and stage timings, so a run can be
reproduced from its manifest.  Exit codes: 0 success, 1 validation
failure, 2 I/O failure, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .clustering import ClusterConfig, cluster
from .corpus import index_documents, load_corpus
from .embedding import EmbeddingConfig, compose_query, train
from .errors import ValidationError
from .metric import (
    build_stats,
    evaluate,
    load_external_topics,
    report_to_csv,
    report_to_json,
)
from .persistence import ModelArchive, load_model, save_model, write_atomically
from .reduction import ReductionConfig, reduce
from .topics import (
    build_topic_model,
    model_topic_spec,
    reduce_topics,
    search_documents,
    search_topics,
    topics_to_dicts,
)


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as validation errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(f"{self.prog}: {message}")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(
    artifact_path: str,
    invocation: dict,
    config: dict,
    inputs: dict[str, str],
    timings: dict[str, float],
) -> None:
    """Write the manifest; ``invocation`` is what ``main`` records at dispatch.

    ``inputs`` maps each input path to its SHA-256, taken before the artifact
    was written, because the artifact may have replaced an input."""
    manifest = {
        **invocation,
        "package_version": __version__,
        "config": config,
        "inputs": inputs,
        "artifact": {artifact_path: _sha256(artifact_path)},
        "timings_seconds": {k: round(v, 3) for k, v in timings.items()},
    }
    text = json.dumps(manifest, indent=2) + "\n"
    write_atomically(artifact_path + ".manifest.json", text.encode("utf-8"))


# Every field of these configs is one ``train`` flag with the field's
# default; a field the configs share, such as ``seed``, is one flag.
_TRAIN_CONFIGS = (EmbeddingConfig, ReductionConfig, ClusterConfig)


def _add_train_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="corpus file to train on")
    p.add_argument(
        "--corpus-format",
        choices=("jsonl", "plain"),
        default="jsonl",
        help="corpus file format (default jsonl)",
    )
    p.add_argument("--output", required=True, help="path of the model archive")
    fields = {f.name: f for cls in _TRAIN_CONFIGS for f in dataclasses.fields(cls)}
    for name, f in fields.items():
        p.add_argument(
            "--" + name.replace("_", "-"), type=type(f.default), default=f.default
        )


def _configs_from_args(args: argparse.Namespace):
    return tuple(
        cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})
        for cls in _TRAIN_CONFIGS
    )


def cmd_train(args: argparse.Namespace, invocation: dict) -> int:
    embedding_config, reduction_config, cluster_config = _configs_from_args(args)
    docs = load_corpus(args.corpus, args.corpus_format)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    embedding = train(docs, embedding_config)
    timings["train"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    reduced = reduce(embedding.doc_vectors, reduction_config)
    timings["reduce"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    labeling = cluster(reduced, cluster_config)
    timings["cluster"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    model = build_topic_model(embedding, labeling)
    timings["topics"] = time.perf_counter() - t0
    archive = ModelArchive.from_pipeline(
        embedding, reduced, labeling, model,
        embedding_config, reduction_config, cluster_config,
    )
    inputs = {args.corpus: _sha256(args.corpus)}
    save_model(archive, args.output)
    config = {
        "embedding": dataclasses.asdict(embedding_config),
        "reduction": dataclasses.asdict(reduction_config),
        "clustering": dataclasses.asdict(cluster_config),
    }
    _write_manifest(args.output, invocation, config, inputs, timings)
    print(
        f"{model.n_topics} topics across {len(docs)} documents "
        f"({labeling.noise_count} noise); model written to {args.output}"
    )
    return 0


def cmd_topics(args: argparse.Namespace, invocation: dict) -> int:
    archive = load_model(args.model)
    listing = topics_to_dicts(archive.topic_model, args.top_n)
    if args.format == "json":
        text = json.dumps(listing, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["topic_id", "size", "words", "merged_from"])
        for entry in listing:
            writer.writerow(
                [
                    entry["topic_id"],
                    entry["size"],
                    " ".join(w["word"] for w in entry["words"]),
                    " ".join(str(p) for p in entry["merged_from"]),
                ]
            )
        text = buf.getvalue()
    else:
        lines = []
        for entry in listing:
            words = ", ".join(w["word"] for w in entry["words"])
            lines.append(
                f"topic {entry['topic_id']} ({entry['size']} docs): {words}"
            )
        text = "\n".join(lines) + "\n"
    if args.output:
        inputs = {args.model: _sha256(args.model)}
        write_atomically(args.output, text.encode("utf-8"))
        _write_manifest(args.output, invocation, {"top_n": args.top_n}, inputs, {})
    else:
        sys.stdout.write(text)
    return 0


def cmd_reduce(args: argparse.Namespace, invocation: dict) -> int:
    archive = load_model(args.model)
    t0 = time.perf_counter()
    reduced_model = reduce_topics(archive.topic_model, args.to)
    timings = {"reduce_topics": time.perf_counter() - t0}
    new_archive = ModelArchive.from_pipeline(
        archive.embedding,
        archive.reduced_coords,
        archive.labeling,
        reduced_model,
        archive.embedding_config,
        archive.reduction_config,
        archive.cluster_config,
    )
    inputs = {args.model: _sha256(args.model)}
    save_model(new_archive, args.output)
    _write_manifest(args.output, invocation, {"to": args.to}, inputs, timings)
    print(
        f"reduced to {reduced_model.n_topics} topics "
        f"({len(reduced_model.merge_history)} merges recorded); "
        f"model written to {args.output}"
    )
    return 0


def _query_from_words(archive: ModelArchive, words: list[str], not_words: list[str]):
    vocab = archive.embedding.vocabulary
    unknown = [w for w in words + not_words if w not in vocab]
    if unknown:
        raise ValidationError(f"words not in the model vocabulary: {unknown}")
    word_vectors = archive.embedding.word_vectors
    positive = [word_vectors[vocab.index[w]] for w in words]
    negative = [word_vectors[vocab.index[w]] for w in not_words]
    return compose_query(positive, negative)


def _split_words(value: str | None) -> list[str]:
    if not value:
        return []
    return [w.strip().lower() for w in value.split(",") if w.strip()]


def cmd_search(args: argparse.Namespace, invocation: dict) -> int:
    archive = load_model(args.model)
    words = _split_words(args.words)
    not_words = _split_words(args.not_words)
    if not words and not not_words:
        raise ValidationError("search needs --words or --not-words")
    query = _query_from_words(archive, words, not_words)
    if args.what == "topics":
        for topic_id, sim in search_topics(archive.topic_model, query, args.top_n):
            print(f"{topic_id}\t{sim:.6f}")
    else:
        for doc_id, sim in search_documents(archive.topic_model, query, args.top_n):
            print(f"{doc_id}\t{sim:.6f}")
    return 0


def cmd_evaluate(args: argparse.Namespace, invocation: dict) -> int:
    if bool(args.model) == bool(args.external):
        raise ValidationError("evaluate needs exactly one of --model or --external")
    docs = load_corpus(args.corpus, args.corpus_format)
    inputs = [args.corpus]
    scan = None
    if args.model:
        archive = load_model(args.model)
        inputs.append(args.model)
        vocab = archive.embedding.vocabulary
        model = archive.topic_model
        if args.topics is not None:
            if args.topics > model.n_topics:
                raise ValidationError(
                    f"--topics {args.topics} exceeds the model's "
                    f"{model.n_topics} topics"
                )
            if args.topics < model.n_topics:
                model = reduce_topics(model, args.topics)
        spec = model_topic_spec(model, args.top_n)
    else:
        from .corpus import build_vocabulary, scan_tokens

        scan = scan_tokens(docs)
        vocab = build_vocabulary(docs, min_count=args.min_count, scan=scan)
        spec = load_external_topics(args.external, vocab)
        inputs.append(args.external)
    indexed = index_documents(docs, vocab, scan=scan)
    del scan  # one id per token: free it before the stats are built
    stats = build_stats(indexed, vocab)
    report = evaluate(spec, stats, args.top_n)
    text = (
        report_to_csv(report) if args.format == "csv" else report_to_json(report) + "\n"
    )
    if args.output:
        digests = {p: _sha256(p) for p in inputs}
        write_atomically(args.output, text.encode("utf-8"))
        _write_manifest(args.output, invocation, {"top_n": args.top_n}, digests, {})
    else:
        sys.stdout.write(text)
    return 0


def cmd_export(args: argparse.Namespace, invocation: dict) -> int:
    archive = load_model(args.model)
    doc_ids = archive.embedding.doc_ids
    labels = archive.labeling.labels
    timings: dict[str, float] = {}
    buf = io.StringIO()
    writer = csv.writer(buf)
    if args.what == "coords2d":
        config = dataclasses.replace(
            archive.reduction_config, n_components=2
        )
        t0 = time.perf_counter()
        coords = reduce(
            archive.embedding.doc_vectors.astype(np.float64), config
        )
        timings["reduce"] = time.perf_counter() - t0
        writer.writerow(["doc_id", "x", "y", "label"])
        for i, doc_id in enumerate(doc_ids):
            writer.writerow(
                [
                    doc_id,
                    repr(float(coords[i, 0])),
                    repr(float(coords[i, 1])),
                    int(labels[i]),
                ]
            )
    elif args.what == "labels":
        writer.writerow(["doc_id", "label", "topic"])
        assignment = archive.topic_model.assignment
        for i, doc_id in enumerate(doc_ids):
            writer.writerow([doc_id, int(labels[i]), int(assignment[i])])
    else:
        dim = archive.embedding.vector_size
        writer.writerow(["doc_id"] + [f"v{j}" for j in range(dim)])
        for i, doc_id in enumerate(doc_ids):
            writer.writerow(
                [doc_id] + [repr(float(x)) for x in archive.embedding.doc_vectors[i]]
            )
    inputs = {args.model: _sha256(args.model)}
    write_atomically(args.output, buf.getvalue().encode("utf-8"))
    _write_manifest(args.output, invocation, {"what": args.what}, inputs, timings)
    print(f"wrote {args.what} for {len(doc_ids)} documents to {args.output}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="topicforge",
        description="Discover, inspect, and score topics in a document corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a topic model from a corpus")
    _add_train_options(p_train)
    p_train.set_defaults(func=cmd_train)

    p_topics = sub.add_parser("topics", help="list the topics of a model")
    p_topics.add_argument("--model", required=True)
    p_topics.add_argument("--top-n", type=int, default=10)
    p_topics.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    p_topics.add_argument("--output", default=None)
    p_topics.set_defaults(func=cmd_topics)

    p_reduce = sub.add_parser("reduce", help="merge topics down to a target count")
    p_reduce.add_argument("--model", required=True)
    p_reduce.add_argument("--to", type=int, required=True)
    p_reduce.add_argument("--output", required=True)
    p_reduce.set_defaults(func=cmd_reduce)

    p_search = sub.add_parser("search", help="search documents or topics by words")
    p_search.add_argument("--model", required=True)
    p_search.add_argument("--words", default=None, help="comma-separated words")
    p_search.add_argument(
        "--not-words", default=None, help="comma-separated words to steer away from"
    )
    p_search.add_argument("--what", choices=("documents", "topics"), default="documents")
    p_search.add_argument("--top-n", type=int, default=10)
    p_search.set_defaults(func=cmd_search)

    p_eval = sub.add_parser("evaluate", help="score topics against a corpus")
    p_eval.add_argument("--model", default=None)
    p_eval.add_argument(
        "--external", default=None, help="JSON topic file produced elsewhere"
    )
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument(
        "--corpus-format", choices=("jsonl", "plain"), default="jsonl"
    )
    p_eval.add_argument("--top-n", type=int, default=10)
    p_eval.add_argument(
        "--topics", type=int, default=None, help="reduce the model to this many topics first"
    )
    p_eval.add_argument(
        "--min-count",
        type=int,
        default=1,
        help="vocabulary floor when evaluating external topics",
    )
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("--output", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_export = sub.add_parser("export", help="export model data as CSV")
    p_export.add_argument("--model", required=True)
    p_export.add_argument(
        "--what", choices=("coords2d", "labels", "vectors"), required=True
    )
    p_export.add_argument("--output", required=True)
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        invocation = {
            "command": args.command,
            "argv": argv,
            "started_at": datetime.now(timezone.utc).isoformat(),
        }
        return args.func(args, invocation)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
