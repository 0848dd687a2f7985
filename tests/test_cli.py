"""Command-line behavior: commands, outputs, manifests, exit codes."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
from datetime import datetime, timedelta, timezone

import pytest

import topicforge
from topicforge import (
    ArchiveError,
    ClusterConfig,
    CorpusError,
    EmbeddingConfig,
    ReductionConfig,
    ValidationError,
    load_corpus,
    load_external_topics,
    load_model,
)
from topicforge.cli import _configs_from_args, build_parser, main
from topicforge.persistence import archive_from_bytes

import portability
from conftest import (
    copy_package,
    make_two_theme_docs,
    mutate_header,
    python_command,
)

TRAIN_FLAGS = [
    "--vector-size", "12",
    "--window", "4",
    "--epochs", "6",
    "--min-count", "2",
    "--subsample-threshold", "1e-2",
    "--n-neighbors", "8",
    "--n-components", "3",
    "--layout-epochs", "60",
    "--min-cluster-size", "5",
    "--seed", "3",
]


def write_corpus(path, n_per_theme=25, seed=9):
    docs, _ = make_two_theme_docs(n_per_theme, seed=seed)
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps({"id": d.id, "text": d.raw}) + "\n")
    return len(docs)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def topic_file(env, mode):
    """An external topic file over ``env``'s corpus: an ocean and a violin
    topic, with the first 25 documents, the ocean ones, in the first."""
    topics = [{"words": ["ocean", "wave"]}, {"words": ["violin", "cello"]}]
    ids = [f"d{i:04d}" for i in range(env["n_docs"])]
    if mode == "hard":
        return {"mode": mode, "topics": topics,
                "assignments": {d: int(i >= 25) for i, d in enumerate(ids)}}
    shares = {d: [0.75, 0.25] if i < 25 else [0.25, 0.75] for i, d in enumerate(ids)}
    return {"mode": mode, "topics": topics, "proportions": shares}


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    n_docs = write_corpus(corpus)
    model = root / "model.tpfg"
    rc = main(
        ["train", "--corpus", str(corpus), "--output", str(model)] + TRAIN_FLAGS
    )
    assert rc == 0
    return {"root": root, "corpus": corpus, "model": model, "n_docs": n_docs}


class TestTrain:
    def test_writes_model_and_manifest(self, env):
        assert env["model"].exists()
        manifest_path = str(env["model"]) + ".manifest.json"
        manifest = json.loads(open(manifest_path).read())
        assert manifest["command"] == "train"
        assert manifest["config"]["embedding"]["vector_size"] == 12
        assert manifest["config"]["embedding"]["seed"] == 3
        assert manifest["inputs"][str(env["corpus"])] == sha256(env["corpus"])
        assert manifest["artifact"][str(env["model"])] == sha256(env["model"])
        for stage in ("train", "reduce", "cluster", "topics"):
            assert stage in manifest["timings_seconds"]

    def test_same_seed_reproduces_bytes(self, env, tmp_path):
        out_a = tmp_path / "a.tpfg"
        out_b = tmp_path / "b.tpfg"
        for out in (out_a, out_b):
            rc = main(
                ["train", "--corpus", str(env["corpus"]), "--output", str(out)]
                + TRAIN_FLAGS
            )
            assert rc == 0
        assert sha256(out_a) == sha256(out_b)
        assert sha256(out_a) == sha256(env["model"])

    def test_manifest_start_precedes_the_timed_stages(self, env, tmp_path, capsys):
        out = tmp_path / "timed.tpfg"
        rc = main(
            ["train", "--corpus", str(env["corpus"]), "--output", str(out)]
            + TRAIN_FLAGS
        )
        returned = datetime.now(timezone.utc)
        assert rc == 0
        capsys.readouterr()
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        timings = manifest["timings_seconds"]
        # Each timing is rounded to the millisecond, so allow half of one each.
        stages = sum(timings.values()) - 0.0005 * len(timings)
        started = datetime.fromisoformat(manifest["started_at"])
        assert started + timedelta(seconds=stages) <= returned

    def test_reports_summary(self, env, tmp_path, capsys):
        out = tmp_path / "c.tpfg"
        rc = main(
            ["train", "--corpus", str(env["corpus"]), "--output", str(out)]
            + TRAIN_FLAGS
        )
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert "topics across 50 documents" in line
        assert str(out) in line

    def test_invalid_config_exits_1(self, env, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--corpus", str(env["corpus"]),
                "--output", str(tmp_path / "x.tpfg"),
                "--epochs", "0",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "0", "-0.5"])
    def test_bad_subsample_threshold_exits_1(self, env, tmp_path, capsys, value):
        out = tmp_path / "x.tpfg"
        rc = main(
            ["train", "--corpus", str(env["corpus"]), "--output", str(out),
             "--subsample-threshold", value]
        )
        assert rc == 1
        assert "subsample_threshold must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_tokenless_documents_exit_1(self, env, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        lines = open(env["corpus"], encoding="utf-8").read()
        lines += json.dumps({"id": "oov-a", "text": "qux1 qux2"}) + "\n"
        lines += json.dumps({"id": "oov-b", "text": "!!"}) + "\n"
        corpus.write_text(lines, encoding="utf-8")
        out = tmp_path / "x.tpfg"
        rc = main(["train", "--corpus", str(corpus), "--output", str(out)] + TRAIN_FLAGS)
        assert rc == 1
        err = capsys.readouterr().err
        assert "2 documents have no in-vocabulary token (first: oov-a, oov-b)" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "n_docs, flags, named",
        [
            (12, [], "need more than n_neighbors=15 documents, got 12"),
            (50, ["--min-cluster-size", "50"], "min_cluster_size=50 documents, got 50"),
        ],
        ids=["n_neighbors", "min_cluster_size"],
    )
    def test_too_few_documents_exit_1_before_training(
        self, env, tmp_path, capsys, monkeypatch, n_docs, flags, named
    ):
        monkeypatch.setattr("topicforge.cli.train", lambda *a: pytest.fail("trained"))
        corpus = tmp_path / "corpus.jsonl"
        lines = open(env["corpus"], encoding="utf-8").readlines()[:n_docs]
        corpus.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "x.tpfg"
        rc = main(["train", "--corpus", str(corpus), "--output", str(out)] + flags)
        assert rc == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_1(self, env, tmp_path, capsys):
        out = tmp_path / "x.tpfg"
        rc = main(
            ["train", "--corpus", str(env["corpus"]), "--output", str(out),
             "--seed", "-1"]
        )
        assert rc == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["jsonl", "plain"])
    def test_undecodable_corpus_exits_1(self, tmp_path, capsys, fmt):
        corpus = tmp_path / "latin1.txt"
        corpus.write_bytes('{"text": "caf\xe9 au lait"}\n'.encode("latin-1"))
        out = tmp_path / "x.tpfg"
        rc = main(
            ["train", "--corpus", str(corpus), "--corpus-format", fmt,
             "--output", str(out)] + TRAIN_FLAGS
        )
        assert rc == 1
        assert f"{corpus}: not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_corpus_exits_2(self, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--corpus", str(tmp_path / "missing.jsonl"),
                "--output", str(tmp_path / "x.tpfg"),
            ]
        )
        assert rc == 2
        capsys.readouterr()

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["train", "--bogus"]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestTrainFlags:
    """Each train flag is a config field, with the field's default."""

    @staticmethod
    def configs(*flags):
        args = build_parser().parse_args(["train", "--corpus", "c", "--output", "o", *flags])
        return _configs_from_args(args)

    def test_defaults_are_the_config_defaults(self):
        assert self.configs() == (EmbeddingConfig(), ReductionConfig(), ClusterConfig())

    def test_seed_sets_both_seeds(self):
        embedding_config, reduction_config, _ = self.configs("--seed", "7")
        assert embedding_config.seed == 7
        assert reduction_config.seed == 7

    def test_flag_names(self, capsys):
        assert main(["train", "--help"]) == 0
        text = capsys.readouterr().out
        flags = set(re.findall(r"--[a-z-]+", text))
        assert flags == {
            "--help", "--corpus", "--corpus-format", "--output",
            "--vector-size", "--window", "--epochs", "--min-count",
            "--subsample-threshold",
            "--n-neighbors", "--n-components", "--layout-epochs",
            "--min-cluster-size", "--seed",
        }


class TestTopics:
    def test_text_listing(self, env, capsys):
        assert main(["topics", "--model", str(env["model"])]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().splitlines() if l]
        assert all(l.startswith("topic ") for l in lines)

    def test_json_listing(self, env, capsys):
        rc = main(
            ["topics", "--model", str(env["model"]), "--format", "json", "--top-n", "4"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert all(len(entry["words"]) == 4 for entry in data)
        sizes = [entry["size"] for entry in data]
        assert sizes == sorted(sizes, reverse=True)

    def test_csv_listing_to_file(self, env, tmp_path):
        out = tmp_path / "topics.csv"
        rc = main(
            [
                "topics",
                "--model", str(env["model"]),
                "--format", "csv",
                "--output", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["topic_id", "size", "words", "merged_from"]
        assert (tmp_path / "topics.csv.manifest.json").exists()

    def test_missing_model_exits_2(self, tmp_path, capsys):
        assert main(["topics", "--model", str(tmp_path / "no.tpfg")]) == 2
        capsys.readouterr()

    def test_garbage_model_exits_1(self, tmp_path, capsys):
        path = tmp_path / "garbage.tpfg"
        path.write_bytes(b"this is not an archive at all")
        assert main(["topics", "--model", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_topic_block_of_the_wrong_width_exits_1(self, env, tmp_path, capsys):
        def narrow(h):
            h["embedding_config"]["vector_size"] //= 2

        path = tmp_path / "narrow.tpfg"
        path.write_bytes(mutate_header(env["model"].read_bytes(), narrow))
        assert main(["topics", "--model", str(path)]) == 1
        assert "unexpected trailing bytes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value", [("n_neighbors", 15.5), ("n_components", True)]
    )
    @pytest.mark.parametrize("command", [["topics"], ["export", "--what", "coords2d"]])
    def test_config_value_of_the_wrong_type_exits_1(
        self, env, tmp_path, capsys, key, value, command
    ):
        def poison(h):
            h["reduction_config"][key] = value

        path = tmp_path / "typed.tpfg"
        path.write_bytes(mutate_header(env["model"].read_bytes(), poison))
        args = command + ["--model", str(path)]
        if command[0] == "export":
            args += ["--output", str(tmp_path / "coords.csv")]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"reduction_config.{key} must be an integer" in captured.err

    def test_top_n_below_one_exits_1(self, env, capsys):
        assert main(["topics", "--model", str(env["model"]), "--top-n", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "top_n must be >= 1, got 0" in captured.err


class TestReduceCommand:
    def test_reduces_and_saves(self, env, tmp_path, capsys):
        out = tmp_path / "reduced.tpfg"
        rc = main(
            [
                "reduce",
                "--model", str(env["model"]),
                "--to", "1",
                "--output", str(out),
            ]
        )
        assert rc == 0
        assert "reduced to 1 topics" in capsys.readouterr().out
        rc = main(["topics", "--model", str(out), "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 1
        assert data[0]["size"] == env["n_docs"]

    def test_in_place_manifest_records_the_input_it_read(self, env, tmp_path):
        model = tmp_path / "model.tpfg"
        model.write_bytes(env["model"].read_bytes())
        before = sha256(model)
        argv = ["reduce", "--model", str(model), "--to", "1", "--output", str(model)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "model.tpfg.manifest.json").read_text())
        assert sha256(model) != before
        assert manifest["inputs"] == {str(model): before}
        assert manifest["artifact"] == {str(model): sha256(model)}

    def test_bad_target_exits_1(self, env, tmp_path, capsys):
        rc = main(
            [
                "reduce",
                "--model", str(env["model"]),
                "--to", "99",
                "--output", str(tmp_path / "x.tpfg"),
            ]
        )
        assert rc == 1
        capsys.readouterr()


class TestSearch:
    def test_documents(self, env, capsys):
        rc = main(
            ["search", "--model", str(env["model"]), "--words", "ocean,wave"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(lines) <= 10
        for line in lines:
            doc_id, sim = line.split("\t")
            float(sim)
            assert doc_id.startswith("d")

    def test_topics_target(self, env, capsys):
        rc = main(
            [
                "search",
                "--model", str(env["model"]),
                "--words", "violin",
                "--what", "topics",
                "--top-n", "1",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        int(lines[0].split("\t")[0])

    def test_unknown_word_exits_1(self, env, capsys):
        rc = main(
            ["search", "--model", str(env["model"]), "--words", "xylophone999"]
        )
        assert rc == 1
        assert "vocabulary" in capsys.readouterr().err

    def test_no_words_exits_1(self, env, capsys):
        assert main(["search", "--model", str(env["model"])]) == 1
        capsys.readouterr()

    def test_top_n_below_one_exits_1(self, env, capsys):
        argv = ["search", "--model", str(env["model"]), "--words", "ocean"]
        assert main(argv + ["--top-n", "-2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "top_n must be >= 1, got -2" in captured.err


class TestEvaluate:
    def test_model_json(self, env, capsys):
        rc = main(
            [
                "evaluate",
                "--model", str(env["model"]),
                "--corpus", str(env["corpus"]),
                "--top-n", "5",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "hard"
        assert report["top_n"] == 5
        assert isinstance(report["total_pwi"], float)

    def test_reduced_evaluation(self, env, capsys):
        rc = main(
            [
                "evaluate",
                "--model", str(env["model"]),
                "--corpus", str(env["corpus"]),
                "--topics", "1",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_topics"] == 1

    def test_too_many_topics_exits_1(self, env, capsys):
        rc = main(
            [
                "evaluate",
                "--model", str(env["model"]),
                "--corpus", str(env["corpus"]),
                "--topics", "99",
            ]
        )
        assert rc == 1
        capsys.readouterr()

    def test_external_topics_tokenize_each_document_once(
        self, env, tmp_path, capsys, tokenized_texts
    ):
        path = tmp_path / "external.json"
        path.write_text(json.dumps(topic_file(env, "hard")))
        rc = main(
            [
                "evaluate",
                "--external", str(path),
                "--corpus", str(env["corpus"]),
                "--top-n", "2",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        docs = load_corpus(str(env["corpus"]))
        assert tokenized_texts == [d.raw for d in docs]

    def test_external_topics(self, env, tmp_path, capsys):
        path = tmp_path / "external.json"
        path.write_text(json.dumps(topic_file(env, "hard")))
        out = tmp_path / "report.csv"
        rc = main(
            [
                "evaluate",
                "--external", str(path),
                "--corpus", str(env["corpus"]),
                "--top-n", "2",
                "--format", "csv",
                "--output", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["topic_id", "pwi", "words"]
        assert rows[-1][0] == "total"
        assert (tmp_path / "report.csv.manifest.json").exists()

    def test_non_finite_proportion_exits_1(self, env, tmp_path, capsys):
        spec = topic_file(env, "mixture")
        spec["proportions"]["d0000"] = [math.nan, 1.0]
        path = tmp_path / "external.json"
        path.write_text(json.dumps(spec))
        rc = main(
            ["evaluate", "--external", str(path), "--corpus", str(env["corpus"])]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "d0000" in captured.err and "non-finite" in captured.err

    def test_overflowing_proportion_exits_1(self, env, tmp_path, capsys):
        # 10**400 is a JSON integer that no double can hold.
        spec = topic_file(env, "mixture")
        spec["proportions"]["d0000"] = [10**400, 1]
        path = tmp_path / "external.json"
        path.write_text(json.dumps(spec))
        rc = main(
            ["evaluate", "--external", str(path), "--corpus", str(env["corpus"])]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "proportions['d0000'] must be a list of numbers" in captured.err

    def test_undecodable_external_topics_exit_1(self, env, tmp_path, capsys):
        path = tmp_path / "external.json"
        path.write_bytes(
            '{"mode": "hard", "topics": [{"words": ["caf\xe9"]}]}'.encode("latin-1")
        )
        rc = main(
            ["evaluate", "--external", str(path), "--corpus", str(env["corpus"])]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: not valid UTF-8" in captured.err

    def test_model_and_external_together_exit_1(self, env, tmp_path, capsys):
        rc = main(
            [
                "evaluate",
                "--model", str(env["model"]),
                "--external", str(tmp_path / "e.json"),
                "--corpus", str(env["corpus"]),
            ]
        )
        assert rc == 1
        capsys.readouterr()

    def test_neither_source_exits_1(self, env, capsys):
        assert main(["evaluate", "--corpus", str(env["corpus"])]) == 1
        capsys.readouterr()

    def test_topics_with_external_exits_1(self, env, tmp_path, capsys):
        path = tmp_path / "external.json"
        path.write_text(json.dumps(topic_file(env, "hard")))
        rc = main(
            [
                "evaluate",
                "--external", str(path),
                "--corpus", str(env["corpus"]),
                "--topics", "1",
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--topics applies only to --model" in captured.err

    def test_min_count_with_model_exits_1(self, env, capsys):
        rc = main(
            [
                "evaluate",
                "--model", str(env["model"]),
                "--corpus", str(env["corpus"]),
                "--min-count", "7",
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--min-count applies only to --external" in captured.err


MISSING = object()


def put(document, path, value):
    """Set, or delete when ``value`` is MISSING, the value at a key path."""
    *outer, last = path
    for key in outer:
        document = document[key]
    if value is MISSING:
        del document[last]
    else:
        document[last] = value


class TestOneJsonRule:
    """Corpus lines, topic files and archive headers read every JSON value
    by one rule: the same bad value raises each loader's own error class,
    and the message names the value by its path in the same form."""

    BAD = {"int": True, "float": "0.5", "str": 5, "missing": MISSING}

    # (loader, kind of the slot, its path, the message).  A corpus line
    # holds only strings; a bad value inside a list names the list.
    CASES = [
        ("corpus", "str", ["text"], "line 1: text must be a string, got 5"),
        ("corpus", "missing", ["text"], "line 1: record is missing 'text'"),
        (
            "topics", "int", ["assignments", "d0000"],
            "{path}: assignments['d0000'] must be an integer, got True",
        ),
        (
            "topics", "float", ["proportions", "d0000", 0],
            "{path}: proportions['d0000'] must be a list of numbers",
        ),
        ("topics", "str", ["mode"], "{path}: mode must be a string, got 5"),
        (
            "topics", "missing", ["topics", 0, "words"],
            "{path}: file is missing 'topics[0].words'",
        ),
        (
            "archive", "int", ["reduction_config", "n_neighbors"],
            "archive reduction_config.n_neighbors must be an integer, got True",
        ),
        (
            "archive", "float", ["embedding_config", "subsample_threshold"],
            "archive embedding_config.subsample_threshold must be a number, got '0.5'",
        ),
        (
            "archive", "str", ["vocabulary", "words", 0],
            "archive vocabulary.words must be a list of strings",
        ),
        (
            "archive", "missing", ["reduction_config", "seed"],
            "archive header is missing 'reduction_config.seed'",
        ),
    ]

    @pytest.mark.parametrize("loader,kind,path,message", CASES)
    def test_bad_value_named_by_its_path(
        self, env, tmp_path, capsys, loader, kind, path, message
    ):
        bad = self.BAD[kind]
        if loader == "archive":
            data = mutate_header(
                env["model"].read_bytes(), lambda h: put(h, path, bad)
            )
            with pytest.raises(ArchiveError) as excinfo:
                archive_from_bytes(data)
            assert type(excinfo.value) is ArchiveError
            assert str(excinfo.value) == message
            return
        if loader == "corpus":
            record = {"id": "a", "text": "ocean"}
            put(record, path, bad)
            source = tmp_path / "corpus.jsonl"
            source.write_text(json.dumps(record) + "\n")
            error, load = CorpusError, lambda: load_corpus(str(source))
            argv = ["evaluate", "--model", str(env["model"]), "--corpus", str(source)]
        else:
            document = topic_file(env, "mixture" if kind == "float" else "hard")
            put(document, path, bad)
            source = tmp_path / "external.json"
            source.write_text(json.dumps(document))
            vocab = load_model(str(env["model"])).embedding.vocabulary
            error = ValidationError
            load = lambda: load_external_topics(str(source), vocab)  # noqa: E731
            argv = ["evaluate", "--external", str(source), "--corpus", str(env["corpus"])]
        message = message.format(path=source)
        with pytest.raises(error) as excinfo:
            load()
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestExport:
    def test_labels(self, env, tmp_path):
        out = tmp_path / "labels.csv"
        rc = main(
            [
                "export",
                "--model", str(env["model"]),
                "--what", "labels",
                "--output", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["doc_id", "label", "topic"]
        assert len(rows) == env["n_docs"] + 1

    def test_vectors(self, env, tmp_path):
        out = tmp_path / "vectors.csv"
        rc = main(
            [
                "export",
                "--model", str(env["model"]),
                "--what", "vectors",
                "--output", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["doc_id"] + [f"v{j}" for j in range(12)]
        for cell in rows[1][1:]:
            float(cell)

    def test_coords2d(self, env, tmp_path, capsys):
        out = tmp_path / "coords.csv"
        rc = main(
            [
                "export",
                "--model", str(env["model"]),
                "--what", "coords2d",
                "--output", str(out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["doc_id", "x", "y", "label"]
        assert len(rows) == env["n_docs"] + 1
        for row in rows[1:]:
            float(row[1])
            float(row[2])
            assert int(row[3]) >= -1
        assert (tmp_path / "coords.csv.manifest.json").exists()

    @pytest.mark.parametrize(
        "key,value", [("labels", 0.9), ("assignment", "3"), ("assignment", True)]
    )
    def test_integer_list_of_the_wrong_type_exits_1(
        self, env, tmp_path, capsys, key, value
    ):
        def poison(h):
            h[key][0] = value

        path = tmp_path / "typed.tpfg"
        path.write_bytes(mutate_header(env["model"].read_bytes(), poison))
        out = tmp_path / "labels.csv"
        args = ["export", "--what", "labels", "--model", str(path), "--output", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"archive {key} must be a list of integers" in captured.err
        assert not out.exists()


# scipy modules that importing the CLI, and running a command that does not
# train, must leave unloaded.
LAZY_SCIPY = ("scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.special")


class TestKernelBuild:
    """The layout kernel is built on first use, and only where a layout runs."""

    def test_no_compiler_exits_1_naming_it(self, env, tmp_path):
        path = copy_package(tmp_path / "pkg")
        no_gcc = tmp_path / "bin"
        no_gcc.mkdir()
        commands = [
            ["train", "--corpus", str(env["corpus"]), "--output", str(tmp_path / "m.tpfg")]
            + TRAIN_FLAGS,
            ["export", "--model", str(env["model"]), "--what", "coords2d",
             "--output", str(tmp_path / "coords.csv")],
        ]
        run = "from topicforge.cli import entry_point; entry_point()"
        for argv in commands:
            command = python_command("-c", run, *argv, pythonpath=path, PATH=str(no_gcc))
            done = subprocess.run(**command, timeout=300)
            assert done.returncode == 1, done.stderr
            assert "'gcc'" in done.stderr
        assert not (tmp_path / "m.tpfg").exists()
        assert not (tmp_path / "coords.csv").exists()

    def test_read_commands_do_not_load_the_kernel(self, env, tmp_path):
        model = str(env["model"])
        commands = [
            ["search", "--model", model, "--words", "ocean", "--what", "topics"],
            ["topics", "--model", model, "--format", "json"],
            ["evaluate", "--model", model, "--corpus", str(env["corpus"])],
            ["reduce", "--model", model, "--to", "1",
             "--output", str(tmp_path / "reduced.tpfg")],
        ]
        script = (
            "import json, sys\n"
            "from topicforge import kernels\n"
            "from topicforge.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "print(kernels.load.cache_info().currsize)\n"
            "print(*(m in sys.modules for m in sys.argv[2:]))\n"
        )
        command = python_command("-c", script, json.dumps(commands), *LAZY_SCIPY)
        done = subprocess.run(**command, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-5:] == ["0", "False", "False", "False", "False"]


SETTINGS = {
    "blas-threads-1": {"OPENBLAS_NUM_THREADS": "1"},
    "blas-threads-2": {"OPENBLAS_NUM_THREADS": "2"},
    "blas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "blas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "glibc-no-fma": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"},
    "one-cpu": {portability.ONE_CPU: "1"},
}

COMMANDS = {
    "train": "train --corpus {corpus} --output train.tpfg " + " ".join(TRAIN_FLAGS),
    "export-coords2d": "export --model {model} --what coords2d --output coords.csv",
    "export-labels": "export --model {model} --what labels --output labels.csv",
    "export-vectors": "export --model {model} --what vectors --output vectors.csv",
    "reduce": "reduce --model {model} --to 1 --output reduced.tpfg",
    "topics": "topics --model {model} --format json",
    "search-documents": "search --model {model} --words ocean,wave",
    "search-topics": "search --model {model} --words violin --what topics",
    "evaluate-model": "evaluate --model {model} --corpus {corpus}",
    "evaluate-topics-1": "evaluate --model {model} --corpus {corpus} --topics 1",
    "evaluate-hard": "evaluate --external {hard} --corpus {corpus} --top-n 2",
    "evaluate-mixture": "evaluate --external {mixture} --corpus {corpus} --top-n 2",
}

TABLE_ROWS = [
    *COMMANDS, "rank", "layout", "mst", "cluster-labels", "knn", "assign-tie", "core"
]

HS_TRAINING = "HS training follows the BLAS kernel and glibc's FMA variants (ROADMAP 1c)"
NUMPY_EXP = "the reduction's calibration and memberships take numpy's np.exp (ROADMAP 4)"
ASSIGNMENT = "assign_documents breaks a tie on a BLAS product (ROADMAP 3)"
KNOWN_DIFFERENCES = {
    ("train", "blas-haswell"): HS_TRAINING,
    ("train", "blas-prescott"): HS_TRAINING,
    ("train", "glibc-no-fma"): HS_TRAINING,
    ("train", "numpy-no-avx512"): NUMPY_EXP,
    ("export-coords2d", "numpy-no-avx512"): NUMPY_EXP,
    ("assign-tie", "blas-haswell"): ASSIGNMENT,
    ("assign-tie", "blas-prescott"): ASSIGNMENT,
}


@pytest.fixture(scope="module")
def portability_table(env, tmp_path_factory):
    """Each setting's digest of each row of ``tests/portability.py``, and
    under "reference" this process's own, with the ``env`` archive as its
    ``train`` output. ``env``'s train has built the kernel library, so the
    children, all started at once, only load it."""
    root = tmp_path_factory.mktemp("portability")
    paths = {"model": env["model"], "corpus": env["corpus"]}
    for mode in ("hard", "mixture"):
        paths[mode] = root / mode
        paths[mode].write_text(json.dumps(topic_file(env, mode)))
    commands = {
        row: [arg.format(**paths) for arg in argv.split()]
        for row, argv in COMMANDS.items()
    }
    children = {}
    for name, setting in SETTINGS.items():
        argv = [portability.__file__, json.dumps(commands), str(root / name)]
        children[name] = subprocess.Popen(**python_command(*argv, **setting))
    del commands["train"]
    table = {"reference": {"train": sha256(env["model"])}}
    table["reference"].update(portability.digests(commands, root / "reference"))
    finished = {name: child.communicate(timeout=300) for name, child in children.items()}
    for name, (out, err) in finished.items():
        assert children[name].returncode == 0, (name, err)
        table[name] = dict(line.split() for line in out.splitlines())
    assert all(list(digests) == TABLE_ROWS for digests in table.values())
    return table


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("row", TABLE_ROWS)
def test_same_bytes_under_every_setting(portability_table, row, setting, request):
    """Each output is the same bytes whatever BLAS thread count, BLAS
    kernel, numpy CPU features, glibc variants or number of usable CPUs
    the process runs with."""
    if (row, setting) in KNOWN_DIFFERENCES:
        reason = KNOWN_DIFFERENCES[row, setting]
        request.applymarker(pytest.mark.xfail(strict=True, reason=reason))
    assert portability_table[setting][row] == portability_table["reference"][row]


class TestModule:
    """The CLI module run as a program, and what importing and running it
    loads."""

    def test_run_as_module_parses_its_arguments(self):
        command = python_command("-m", "topicforge.cli", "train", "--bogus")
        done = subprocess.run(**command, timeout=120)
        assert done.returncode == 1
        assert done.stderr.startswith("error: topicforge train:")

    def test_import_leaves_scipy_optimize_out(self):
        script = (
            "import sys, topicforge.cli\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        command = python_command("-c", script)
        done = subprocess.run(**command, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]"]

    def test_layout_and_clustering_load_no_scipy(self, env, tmp_path):
        coords = tmp_path / "coords.csv"
        argv = ["export", "--model", str(env["model"]), "--what", "coords2d",
                "--output", str(coords)]
        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from topicforge import ClusterConfig, cluster\n"
            "from topicforge.cli import main\n"
            "assert main(json.loads(sys.argv[1])) == 0\n"
            "xy = np.loadtxt(sys.argv[2], delimiter=',', skiprows=1, usecols=(1, 2))\n"
            "print(cluster(xy, ClusterConfig(min_cluster_size=5)).labels.size)\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        command = python_command("-c", script, json.dumps(argv), str(coords))
        done = subprocess.run(**command, timeout=300)
        assert done.returncode == 0, done.stderr
        n_docs = len(coords.read_text().splitlines()) - 1
        assert done.stdout.splitlines()[-2:] == [str(n_docs), "[]"]

    def test_public_names_resolve_once(self):
        names = topicforge.__all__
        assert len(set(names)) == len(names)
        star = {}
        exec("from topicforge import *", star)
        assert all(star[name] is getattr(topicforge, name) for name in names)


class TestAtomicOutput:
    """A failed ``--output`` write leaves the earlier output as it was."""

    def rerun_with_failing_writes(self, argv, out, fail_writes, capsys):
        assert main(argv) == 0
        before = out.read_bytes()
        fail_writes()
        assert main(argv) == 2
        assert "no space" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert sorted(os.listdir(out.parent)) == [out.name, out.name + ".manifest.json"]

    def test_topics(self, env, tmp_path, fail_writes, capsys):
        out = tmp_path / "topics.json"
        argv = [
            "topics", "--model", str(env["model"]),
            "--format", "json", "--output", str(out),
        ]
        self.rerun_with_failing_writes(argv, out, fail_writes, capsys)

    def test_evaluate(self, env, tmp_path, fail_writes, capsys):
        out = tmp_path / "report.json"
        argv = [
            "evaluate", "--model", str(env["model"]),
            "--corpus", str(env["corpus"]), "--output", str(out),
        ]
        self.rerun_with_failing_writes(argv, out, fail_writes, capsys)

    def test_export(self, env, tmp_path, fail_writes, capsys):
        out = tmp_path / "labels.csv"
        argv = [
            "export", "--model", str(env["model"]),
            "--what", "labels", "--output", str(out),
        ]
        self.rerun_with_failing_writes(argv, out, fail_writes, capsys)


def test_commands_without_a_manifest_hash_nothing(env, monkeypatch, capsys):
    def no_hash(path):
        raise AssertionError(f"{path} hashed with no manifest to write")

    monkeypatch.setattr(topicforge.cli, "_sha256", no_hash)
    model, corpus = str(env["model"]), str(env["corpus"])
    commands = [
        ["search", "--model", model, "--words", "ocean"],
        ["topics", "--model", model],
        ["evaluate", "--model", model, "--corpus", corpus],
    ]
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


class _NoHeap:
    """Stand-in for ``heapq`` that fails on use."""

    def __getattr__(self, name):
        raise AssertionError(f"heapq.{name} used: the Huffman tree was built")


def test_read_commands_do_not_build_the_huffman_tree(env, tmp_path, monkeypatch, capsys):
    from topicforge import embedding

    monkeypatch.setattr(embedding, "heapq", _NoHeap())
    model = str(env["model"])
    reduced = str(tmp_path / "reduced.tpfg")
    commands = [
        ["search", "--model", model, "--words", "ocean", "--what", "topics"],
        ["search", "--model", model, "--words", "ocean,wave"],
        ["topics", "--model", model, "--format", "json"],
        ["evaluate", "--model", model, "--corpus", str(env["corpus"])],
        ["evaluate", "--model", model, "--corpus", str(env["corpus"]), "--topics", "1"],
        ["reduce", "--model", model, "--to", "1", "--output", reduced],
        ["topics", "--model", reduced],
    ]
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
