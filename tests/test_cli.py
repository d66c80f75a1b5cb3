import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deident import cli
from deident.cli import main
from deident.corpus import (
    MASK_MODES, CorpusError, Profile, Vocabulary, compute_idf, load_corpus, load_redacted, tokenize,
)
from deident.deid import search
from deident.encoder import CheckpointError, init_params, save_checkpoint
from deident.reid import NeuralReidentifier
from deident.training import MASK_PRIORS, TrainConfig

from conftest import write_jsonl
from oracles import document_frequencies, lexical_overlap, linearize, naive_okapi, split_tokens
from synthdata import make_corpus_rows, make_distinct_rows, write_corpus

TRAIN_FLAGS = [
    "--epochs", "30", "--embed-dim", "32",
    "--batch-size", "8", "--seed", "0",
]


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    return write_jsonl(path, make_corpus_rows(40, seed=13))


@pytest.fixture(scope="module")
def cli_checkpoint(tmp_path_factory, cli_corpus):
    out = tmp_path_factory.mktemp("cli_model") / "model.ckpt"
    code = main(["train", "--corpus", str(cli_corpus), "--out", str(out), *TRAIN_FLAGS])
    assert code == 0
    return out


def test_stats_reports_counts(tmp_path, capsys):
    rows = [
        {"id": "a", "document": "Ann is here.", "profile": [["name", "Ann"]]},
        {"id": "b", "document": "Bob is there.", "profile": [["name", "Bob"]]},
        {"id": "c", "document": "Cal is gone.", "profile": [["name", "Cal"]]},
    ]
    path = write_jsonl(tmp_path / "three.jsonl", rows)
    assert main(["stats", "--corpus", str(path)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["records"] == 3
    assert stats["idf_documents"] == 6
    assert stats["vocab_size"] > 0


def test_lexical_commands_on_distinct_text_match_the_df_and_bm25_oracles(tmp_path, capsys):
    rows = make_distinct_rows(300, seed=2)
    path = str(write_jsonl(tmp_path / "distinct.jsonl", rows))
    tokens = [split_tokens(row["document"]) for row in rows]
    profiles = [Profile(row["id"], tuple(map(tuple, row["profile"]))) for row in rows]
    linearized = [[term for _, term, _ in linearize(p)] for p in profiles]
    count, df = document_frequencies([[term for _, term, _ in doc] for doc in tokens] + linearized)
    assert sum(n == 1 for n in df.values()) > len(df) / 2  # mostly distinct terms

    assert main(["stats", "--corpus", path]) == 0
    lengths = [len(doc) for doc in tokens]
    assert json.loads(capsys.readouterr().out) == {
        "records": 300, "profiles": 300, "vocab_size": len(df), "idf_documents": count,
        "mean_doc_tokens": sum(lengths) / 300, "max_doc_tokens": max(lengths), "max_idf": math.log(1 + count),
    }

    def idf_mask(doc, threshold):
        return [int(not punct and math.log((1 + count) / (1 + df[term])) >= threshold) for _, term, punct in doc]

    def bm25_rank(i, mask):
        scores = naive_okapi(profiles, tokenize(rows[i]["document"]), mask, 1.5, 0.75)
        return 1 + int(np.count_nonzero(scores > scores[i]) + np.count_nonzero(scores[:i] == scores[i]))

    redacted, report = tmp_path / "idf.jsonl", tmp_path / "report.json"
    argv = ["baseline", "--corpus", path, "--method", "idf", "--idf-threshold", "5.0", "--limit", "40"]
    assert main([*argv, "--out", str(redacted)]) == 0
    masks = [row["mask"] for row in load_redacted(redacted)]
    assert masks == [idf_mask(doc, 5.0) for doc in tokens[:40]]
    assert 0 < sum(map(sum, masks)) < sum(lengths[:40])
    argv = ["evaluate", "--corpus", path, "--redacted", str(redacted), "--bm25", "--report", str(report)]
    assert main(argv) == 0
    ranks = [bm25_rank(i, mask) for i, mask in enumerate(masks)]
    assert [doc["ranks"]["bm25"] for doc in json.loads(report.read_text())["per_doc"]] == ranks

    pareto, controls = tmp_path / "pareto.csv", [4.0, 5.5]
    argv = ["sweep", "--corpus", path, "--method", "idf", "--bm25", "--limit", "30", "--out", str(pareto)]
    assert main([*argv, "--controls", *map(str, controls)]) == 0
    capsys.readouterr()
    with open(pareto, newline="", encoding="utf-8") as fh:
        points = list(csv.DictReader(fh))
    for point, control in zip(points, controls, strict=True):
        masks = [idf_mask(doc, control) for doc in tokens[:30]]
        reidentified = [bm25_rank(i, mask) == 1 for i, mask in enumerate(masks)]
        assert float(point["reid_rate"]) == 100.0 * sum(reidentified) / 30
        assert float(point["pct_masked"]) == pytest.approx(np.mean([100.0 * sum(m) / len(m) for m in masks]), rel=1e-12)


def test_train_writes_artifacts(cli_corpus, cli_checkpoint):
    assert cli_checkpoint.exists()
    assert cli_checkpoint.with_name(cli_checkpoint.name + ".best").exists()
    log = cli_checkpoint.with_name(cli_checkpoint.name + ".log.csv")
    assert log.exists()
    header = log.read_text().splitlines()[0]
    assert header == (
        "epoch,phase,mean_loss,heldout_acc_0,heldout_acc_30,lr,grad_norm_p50,grad_norm_max,clip_fraction"
    )


def test_deidentify_and_evaluate_guide_only(tmp_path, cli_corpus, cli_checkpoint, capsys):
    redacted = tmp_path / "redacted.jsonl"
    sidecar = tmp_path / "sidecar.jsonl"
    code = main([
        "deidentify", "--corpus", str(cli_corpus), "--model", str(cli_checkpoint),
        "--k", "1", "--out", str(redacted), "--sidecar", str(sidecar), "--limit", "15",
    ])
    assert code == 0
    capsys.readouterr()

    rows = load_redacted(redacted)
    assert len(rows) == 15
    assert all(row["method"] == "greedy" and row["k"] == 1 for row in rows)

    report = tmp_path / "report.json"
    code = main([
        "evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted),
        "--models", str(cli_checkpoint), "--sidecar", str(sidecar), "--success-only",
        "--report", str(report),
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    # the guiding model can reidentify none of its own success=true redactions
    assert out["rate"] == 0.0
    saved = json.loads(report.read_text())
    assert saved["rate"] == 0.0
    assert all(not doc["reidentified"] for doc in saved["per_doc"])


def test_redacted_document_text_uses_mask_mode(tmp_path, cli_corpus, cli_checkpoint):
    collapsed = tmp_path / "collapsed.jsonl"
    main([
        "deidentify", "--corpus", str(cli_corpus), "--model", str(cli_checkpoint),
        "--k", "1", "--out", str(collapsed), "--mask-mode", "collapse", "--limit", "5",
    ])
    for row in load_redacted(collapsed):
        assert "<mask> <mask>" not in row["document"]


def test_baseline_command_lexical(tmp_path, cli_corpus):
    out = tmp_path / "lex.jsonl"
    code = main(["baseline", "--corpus", str(cli_corpus), "--method", "lexical", "--out", str(out)])
    assert code == 0
    rows = load_redacted(out)
    assert len(rows) == 40
    assert all(row["method"] == "lexical" for row in rows)
    corpus = load_corpus(cli_corpus)
    row = rows[0]
    assert len(row["mask"]) == len(corpus.records[0].document)


@pytest.mark.parametrize("method", ["idf", "idf-table"])
def test_idf_baselines_list_equal_idf_positions_in_ascending_order(tmp_path, cli_corpus, method):
    redacted, sidecar = tmp_path / "redacted.jsonl", tmp_path / "sidecar.jsonl"
    assert main([
        "baseline", "--corpus", str(cli_corpus), "--method", method, "--idf-threshold", "0",
        "--out", str(redacted), "--sidecar", str(sidecar),
    ]) == 0
    corpus = load_corpus(cli_corpus)
    table = compute_idf(corpus)
    ties = 0
    for record, row in zip(corpus.records, map(json.loads, sidecar.read_text().splitlines())):
        idf = [table.idf(term) for term in record.document.normalized()]
        overlap = lexical_overlap(record.document, corpus.store.get(record.profile_id)) if method == "idf-table" else []
        assert row["order"][: len(overlap)] == overlap
        rarest_first = row["order"][len(overlap) :]
        for a, b in zip(rarest_first, rarest_first[1:]):
            assert idf[a] > idf[b] or (idf[a] == idf[b] and a < b), (record.profile_id, a, b)
            ties += idf[a] == idf[b]
    assert ties  # the order has equal-IDF neighbours to check


def test_baseline_command_ner_with_tag_file(tmp_path, cli_corpus):
    corpus = load_corpus(cli_corpus)
    tags_path = tmp_path / "tags.jsonl"
    with open(tags_path, "w") as fh:
        for rec in corpus.records:
            tags = ["PER"] + ["O"] * (len(rec.document) - 1)
            fh.write(json.dumps({"id": rec.profile_id, "tags": tags}) + "\n")
    out = tmp_path / "ner.jsonl"
    code = main([
        "baseline", "--corpus", str(cli_corpus), "--method", "ner",
        "--tags-file", str(tags_path), "--out", str(out),
    ])
    assert code == 0
    for row in load_redacted(out):
        assert row["mask"][0] == 1
        assert sum(row["mask"]) == 1


def test_baseline_command_idf_threshold(tmp_path, cli_corpus):
    out = tmp_path / "idf.jsonl"
    code = main([
        "baseline", "--corpus", str(cli_corpus), "--method", "idf",
        "--idf-threshold", "3.5", "--out", str(out), "--limit", "10",
    ])
    assert code == 0
    rows = load_redacted(out)
    assert len(rows) == 10
    assert all(row["method"] == "idf" for row in rows)
    assert any(sum(row["mask"]) > 0 for row in rows)


def test_sweep_writes_pareto_csv(tmp_path, cli_corpus, cli_checkpoint):
    out = tmp_path / "pareto.csv"
    code = main([
        "sweep", "--corpus", str(cli_corpus), "--method", "idf-table",
        "--controls", "5.0", "2.0", "--models", str(cli_checkpoint),
        "--limit", "10", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,control,reid_rate,pct_masked,info_loss,success_rate"
    assert len(lines) == 3


def test_sweep_masks_as_deidentify_does_under_a_stopword_file(tmp_path, cli_corpus, cli_checkpoint, capsys):
    # the file keeps every occupation and team word unmasked, so the search has to mask other words
    rows = [json.loads(line) for line in cli_corpus.read_text(encoding="utf-8").splitlines()]
    words = {w.casefold() for row in rows for key, value in row["profile"] if key in ("occupation", "team") for w in value.split()}
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("\n".join(sorted(words)) + "\n", encoding="utf-8")
    common = ["--corpus", str(cli_corpus), "--model", str(cli_checkpoint), "--limit", "10"]
    pct_masked = {}
    for extra in ([], ["--stopwords-file", str(stopwords)]):
        pareto = tmp_path / "pareto.csv"
        argv = ["sweep", *common, "--method", "greedy", "--bm25", "--controls", "4", "--out", str(pareto), *extra]
        assert main(argv) == 0
        [point] = csv.DictReader(pareto.open(encoding="utf-8"))
        pct_masked[bool(extra)] = float(point["pct_masked"])
    redacted, utility = tmp_path / "redacted.jsonl", tmp_path / "utility.json"
    assert main(["deidentify", *common, "--k", "4", "--stopwords-file", str(stopwords), "--out", str(redacted)]) == 0
    assert main(["evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted), "--bm25", "--utility", str(utility)]) == 0
    capsys.readouterr()
    assert pct_masked[True] == json.loads(utility.read_text())["percent_masked"]
    assert pct_masked[True] != pct_masked[False]


@pytest.mark.parametrize("method", ["greedy", "idf"])
@pytest.mark.parametrize("content, code, kind", [(None, 3, "file-not-found"), (b"the\n\xe9\n", 4, "corpus-format")],
                         ids=["missing", "bad-utf8"])
def test_sweep_reads_its_stopword_file_for_every_method(tmp_path, cli_corpus, cli_checkpoint, capsys, method, content, code, kind):
    stopwords = tmp_path / "stopwords.txt"
    if content is not None:
        stopwords.write_bytes(content)
    out = tmp_path / "pareto.csv"
    assert main([
        "sweep", "--corpus", str(cli_corpus), "--method", method, "--model", str(cli_checkpoint), "--bm25",
        "--stopwords-file", str(stopwords), "--out", str(out),
    ]) == code
    assert _one_error_line(capsys)["error"] == kind
    assert not out.exists()


@pytest.mark.parametrize("command", [["deidentify", "--k", "2"], ["sweep", "--method", "greedy", "--bm25"]],
                         ids=["deidentify", "sweep"])
def test_a_search_reads_its_stopword_file_before_its_guide(tmp_path, cli_corpus, capsys, command):
    guide = tmp_path / "guide.ckpt"
    guide.write_bytes(b'{"version": 99}\n')
    out = tmp_path / "out"
    assert main([
        *command, "--corpus", str(cli_corpus), "--model", str(guide),
        "--stopwords-file", str(tmp_path / "missing.txt"), "--out", str(out),
    ]) == 3
    assert _one_error_line(capsys)["error"] == "file-not-found"
    assert not out.exists()


# each command's flags by dest: a command dropped from one of build_parser's loops loses one
COMMAND_FLAGS = {
    "train": {"corpus", "out", "log", "epochs", "lr", "clip", "alpha", "mask_prior", "embed_dim", "seed",
              "profile_epochs", "warmup_epochs", "batch_size"},
    "deidentify": {"corpus", "model", "k", "beam_width", "out", "sidecar", "mask_mode", "include_stopwords",
                   "stopwords_file", "limit"},
    "baseline": {"corpus", "method", "idf_threshold", "tags_file", "out", "sidecar", "mask_mode", "limit"},
    "evaluate": {"corpus", "redacted", "models", "bm25", "bm25_k1", "bm25_b", "report", "utility", "sidecar",
                 "success_only"},
    "sweep": {"corpus", "method", "controls", "model", "models", "bm25", "bm25_k1", "bm25_b", "beam_width",
              "include_stopwords", "stopwords_file", "limit", "out"},
    "stats": {"corpus"},
}


def test_each_command_takes_its_flags_and_the_library_defaults(monkeypatch, capsys):
    parser = cli.build_parser()
    commands = parser.subcommand_parsers
    assert {name: {a.dest for a in sub._actions} - {"help"} for name, sub in commands.items()} == COMMAND_FLAGS
    choices = {(name, a.dest): a.choices for name, sub in commands.items() for a in sub._actions}
    assert choices["train", "mask_prior"] == MASK_PRIORS
    assert choices["deidentify", "mask_mode"] == choices["baseline", "mask_mode"] == MASK_MODES
    args = parser.parse_args(["train", "--corpus", "c", "--out", "o", "--lr", "2.5", "--clip", "2.5", "--alpha", "0.25"])
    assert (args.lr, args.clip, args.alpha) == (2.5, 2.5, 0.25)
    configs = []
    monkeypatch.setattr(cli, "load_corpus", lambda path: None)
    monkeypatch.setattr(cli, "train", lambda corpus, config, **paths: configs.append(config))
    assert main(["train", "--corpus", "c", "--out", "o"]) == 0
    assert main(["train", "--corpus", "c", "--out", "o", "--lr", "2", "--clip", "3", "--alpha", "0"]) == 0
    capsys.readouterr()
    assert configs == [TrainConfig(), TrainConfig(learning_rate=2.0, clip_norm=3.0, label_smoothing=0.0)]
    assert {type(getattr(configs[1], f)) for f in ("learning_rate", "clip_norm", "label_smoothing")} == {float}


def test_full_determinism_train_deidentify_sweep(tmp_path, cli_corpus):
    artifacts = {}
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        ckpt = base / "model.ckpt"
        assert main(["train", "--corpus", str(cli_corpus), "--out", str(ckpt), *TRAIN_FLAGS]) == 0
        redacted = base / "redacted.jsonl"
        sidecar = base / "sidecar.jsonl"
        assert main([
            "deidentify", "--corpus", str(cli_corpus), "--model", str(ckpt),
            "--k", "2", "--out", str(redacted), "--sidecar", str(sidecar), "--limit", "12",
        ]) == 0
        pareto = base / "pareto.csv"
        assert main([
            "sweep", "--corpus", str(cli_corpus), "--method", "greedy", "--controls", "1", "2",
            "--model", str(ckpt), "--models", str(ckpt), "--limit", "8", "--out", str(pareto),
        ]) == 0
        artifacts[run] = {
            "ckpt": ckpt.read_bytes(),
            "best": (base / "model.ckpt.best").read_bytes(),
            "log": (base / "model.ckpt.log.csv").read_bytes(),
            "redacted": redacted.read_bytes(),
            "sidecar": sidecar.read_bytes(),
            "pareto": pareto.read_bytes(),
        }
    for key in artifacts["one"]:
        assert artifacts["one"][key] == artifacts["two"][key], f"{key} differs between runs"


# Relative tolerance of the training log's grad-norm columns across BLAS thread counts. The
# float64 gradients are sums whose order depends on how OpenBLAS splits a GEMM between threads,
# so their norms may differ in the last digits; the float32 parameters they update do not.
GRAD_NORM_RTOL = 1e-12


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 1,000 records and width 128, OpenBLAS splits the training GEMMs between two threads
    corpus = write_corpus(tmp_path / "corpus.jsonl", 1000, seed=0)
    commands = [
        ["train", "--corpus", str(corpus), "--out", "model.ckpt", "--epochs", "3", "--embed-dim", "128",
         "--profile-epochs", "1"],
        ["deidentify", "--corpus", str(corpus), "--model", "model.ckpt", "--k", "8", "--beam-width", "2",
         "--limit", "100", "--out", "redacted.jsonl", "--sidecar", "sidecar.jsonl"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = {"1": tmp_path / "one", "2": tmp_path / "two"}  # OPENBLAS_NUM_THREADS: working directory
    for run in runs.values():
        run.mkdir()
    for argv in commands:  # one process per thread count, so two at a time
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "deident.cli", *argv], cwd=run, env=dict(env, OPENBLAS_NUM_THREADS=threads),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            for threads, run in runs.items()
        ]
        for proc in procs:
            err = proc.communicate()[1]
            assert (proc.returncode, err) == (0, "")
    one, two = runs.values()
    for name in ("model.ckpt", "model.ckpt.best", "redacted.jsonl", "sidecar.jsonl"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), f"{name} depends on the thread count"
    logs = [list(csv.DictReader((run / "model.ckpt.log.csv").read_text().splitlines())) for run in (one, two)]
    assert len(logs[0]) == len(logs[1]) == 3
    for row_one, row_two in zip(*logs):
        for column, value in row_one.items():
            if column in ("grad_norm_p50", "grad_norm_max"):
                assert math.isclose(float(value), float(row_two[column]), rel_tol=GRAD_NORM_RTOL), column
            else:
                assert value == row_two[column], column


def test_unknown_command_exits_with_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    err = _one_error_line(capsys)
    assert err["error"] == "usage"
    assert "frobnicate" in err["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["deidentify", "--corpus", "c.jsonl", "--model", "m.ckpt", "--out", "o.jsonl", "--k", "abc"], "--k"),
        (["deidentify", "--corpus", "c.jsonl", "--model", "m.ckpt", "--out", "o.jsonl", "--mask-mode", "bogus"],
         "--mask-mode"),
        (["deidentify", "--corpus", "c.jsonl", "--out", "o.jsonl"], "--model"),
        (["frobnicate"], "frobnicate"),
        (["--config"], "--config"),
        (["stats", "--corpus", "c.jsonl", "--bogus", "1"], "--bogus"),
        (["-h"], None),
    ],
    ids=["k-not-an-int", "mask-mode-choice", "missing-model", "unknown-command", "bare-config", "unknown-flag",
         "help"],
)
def test_a_refused_command_line_fails_as_one_usage_error_line(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert list(tmp_path.iterdir()) == []
    if message is None:  # help is no error: it goes to stdout, and the command exits 0
        assert (code, err) == (0, "")
        assert out.startswith("usage: deident")
        return
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "usage"
    assert message in json.loads(line)["message"]


ERROR_TABLE_CASES = [
    (cli.UsageError("u"), "usage", 2),
    (CheckpointError("c"), "checkpoint", 5),
    (CorpusError("c"), "corpus-format", 4),
    (cli.ConfigError("c"), "bad-config", 4),
    (FileNotFoundError("f"), "file-not-found", 3),
    (IsADirectoryError("d"), "file-not-found", 3),
    (PermissionError("p"), "file-not-found", 3),
    (ValueError("v"), "error", 1),
    (KeyError("k"), "error", 1),
    (OSError("o"), "error", 1),
    (FloatingPointError("f"), "error", 1),
    (TypeError("t"), None, None),  # no row names it, so it propagates rather than exiting 0
]


@pytest.mark.parametrize("exc, kind, code", ERROR_TABLE_CASES, ids=[type(c[0]).__name__ for c in ERROR_TABLE_CASES])
def test_each_error_type_fails_with_its_kind_and_exit_code(capsys, monkeypatch, exc, kind, code):
    def failing(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "stats", failing)
    if kind is None:
        with pytest.raises(type(exc)):
            main(["stats", "--corpus", "c.jsonl"])
        return
    assert main(["stats", "--corpus", "c.jsonl"]) == code
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert (out, json.loads(line)) == ("", {"error": kind, "message": str(exc)})


def test_missing_corpus_file_exit_code(tmp_path, capsys):
    code = main(["stats", "--corpus", str(tmp_path / "missing.jsonl")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "file-not-found"


def test_malformed_corpus_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    code = main(["stats", "--corpus", str(bad)])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "corpus-format"
    assert "line 1" in err["message"]


@pytest.mark.parametrize("argv", [["stats"], ["baseline", "--method", "ner", "--out", "ner.jsonl"]])
def test_a_profile_value_without_tokens_is_a_corpus_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rows = make_corpus_rows(4, seed=13)
    rows[2]["profile"].append(["city", "  "])
    code = main([*argv, "--corpus", str(write_jsonl(tmp_path / "c.jsonl", rows))])
    assert code == 4
    err = _one_error_line(capsys)
    assert err["error"] == "corpus-format"
    assert err["message"] == "line 3: profile entry 'city' has no tokens in its value"
    assert not (tmp_path / "ner.jsonl").exists()


def test_checkpoint_version_mismatch_exit_code(tmp_path, cli_corpus, cli_checkpoint, capsys):
    # version 1 is the layout with hash-bucket rows; it loads through no compatibility path
    header_line, payload = cli_checkpoint.read_bytes().split(b"\n", 1)
    v1 = dict(json.loads(header_line), version=1, hash_buckets=128)
    for content in (b'{"version": 99}\n', json.dumps(v1).encode() + b"\n" + payload):
        fake = tmp_path / "fake.ckpt"
        fake.write_bytes(content)
        code = main([
            "deidentify", "--corpus", str(cli_corpus), "--model", str(fake),
            "--k", "1", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 5
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["error"] == "checkpoint"
        assert "version" in err["message"]


def test_config_file_supplies_defaults(tmp_path, cli_corpus, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 2, "embed_dim": 16}))
    out = tmp_path / "model.ckpt"
    code = main([
        "--config", str(config), "train", "--corpus", str(cli_corpus), "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    log = out.with_name(out.name + ".log.csv")
    assert len(log.read_text().strip().splitlines()) == 3  # header + 2 epochs


def test_config_file_flags_override(tmp_path, cli_corpus, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 2, "embed_dim": 16}))
    out = tmp_path / "model.ckpt"
    code = main([
        "--config", str(config), "train", "--corpus", str(cli_corpus),
        "--out", str(out), "--epochs", "3",
    ])
    assert code == 0
    capsys.readouterr()
    log = out.with_name(out.name + ".log.csv")
    assert len(log.read_text().strip().splitlines()) == 4  # header + 3 epochs


def test_outputs_reload_cleanly(tmp_path, cli_corpus, cli_checkpoint):
    redacted = tmp_path / "redacted.jsonl"
    main([
        "deidentify", "--corpus", str(cli_corpus), "--model", str(cli_checkpoint),
        "--k", "1", "--out", str(redacted), "--limit", "5",
    ])
    corpus = load_corpus(cli_corpus)
    for row in load_redacted(redacted):
        record = corpus.records[corpus.store.index_of(row["id"])]
        assert len(row["mask"]) == len(record.document)
        assert set(row["mask"]) <= {0, 1}


def test_truncated_checkpoint_payload_exit_code(tmp_path, cli_corpus, cli_checkpoint, capsys):
    short = tmp_path / "short.ckpt"
    short.write_bytes(cli_checkpoint.read_bytes()[:-4])
    code = main([
        "deidentify", "--corpus", str(cli_corpus), "--model", str(short),
        "--k", "1", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "checkpoint"
    assert "truncated" in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["deidentify", "--k", "1"],
        ["baseline", "--method", "lexical"],
        ["sweep", "--method", "idf", "--bm25"],
    ],
    ids=["deidentify", "baseline", "sweep"],
)
def test_limit_below_one_is_rejected(tmp_path, cli_corpus, cli_checkpoint, capsys, argv):
    out = tmp_path / "out.jsonl"
    extra = ["--model", str(cli_checkpoint)] if argv[0] == "deidentify" else []
    code = main([*argv, "--corpus", str(cli_corpus), *extra, "--out", str(out), "--limit", "0"])
    assert code == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert err["error"] == "error"
    assert "--limit" in err["message"]
    assert not out.exists()


NAN = float("nan")
# id -> (command line, the bad flag's value as a config would give it, message); a fault that is
# a missing flag has no bad value, so it has no config form
BAD_FLAG_VALUES = {
    "deidentify-limit": (["deidentify", "--model", "absent.ckpt"], {"limit": 0}, "--limit"),
    "baseline-limit": (["baseline", "--method", "lexical"], {"limit": 0}, "--limit"),
    "sweep-limit": (["sweep", "--method", "idf", "--bm25"], {"limit": 0}, "--limit"),
    "sweep-no-model": (["sweep", "--method", "greedy", "--bm25"], {}, "--model"),
    "sweep-fractional-k": (["sweep", "--method", "greedy", "--model", "absent.ckpt", "--bm25"], {"controls": [2.5]}, "--controls"),
    "sweep-zero-k": (["sweep", "--method", "beam", "--model", "absent.ckpt", "--bm25"], {"controls": [0]}, "--controls"),
    "sweep-nan-threshold": (["sweep", "--method", "idf", "--bm25"], {"controls": [NAN]}, "--controls"),
    "evaluate-success-only": (["evaluate", "--redacted", "absent.jsonl", "--bm25"], {"success_only": True}, "--success-only"),
    "deidentify-zero-k": (["deidentify", "--model", "absent.ckpt"], {"k": 0}, "k must be >= 1"),
    "deidentify-zero-width": (["deidentify", "--model", "absent.ckpt"], {"beam_width": 0}, "beam_width must be >= 1"),
    "sweep-zero-width": (["sweep", "--method", "beam", "--model", "absent.ckpt", "--bm25"], {"beam_width": 0}, "beam_width"),
    "greedy-sweep-zero-width": (["sweep", "--method", "greedy", "--model", "absent.ckpt", "--bm25"], {"beam_width": 0}, "beam_width"),
    "idf-sweep-zero-width": (["sweep", "--method", "idf", "--bm25"], {"beam_width": 0}, "beam_width"),
    "idf-table-sweep-zero-width": (["sweep", "--method", "idf-table", "--bm25"], {"beam_width": 0}, "beam_width"),
    "lexical-sweep-negative-width": (["sweep", "--method", "lexical", "--bm25"], {"beam_width": -1}, "beam_width"),
    "ner-sweep-zero-width": (["sweep", "--method", "ner", "--bm25"], {"beam_width": 0}, "beam_width"),
    "evaluate-no-members": (["evaluate", "--redacted", "absent.jsonl"], {}, "no ensemble members"),
    "sweep-no-members": (["sweep", "--method", "idf"], {}, "no ensemble members"),
    "evaluate-nan-k1": (["evaluate", "--redacted", "absent.jsonl", "--bm25"], {"bm25_k1": NAN}, "k1 must be finite"),
    "sweep-inf-k1": (["sweep", "--method", "idf", "--bm25"], {"bm25_k1": math.inf}, "k1 must be finite"),
    "evaluate-b-above-one": (["evaluate", "--redacted", "absent.jsonl", "--bm25"], {"bm25_b": 2}, "b must be in [0, 1]"),
    "baseline-nan-threshold": (["baseline", "--method", "idf"], {"idf_threshold": NAN}, "IDF threshold must not be NaN"),
    "evaluate-nan-k1-without-bm25": (["evaluate", "--redacted", "absent.jsonl", "--models", "x"], {"bm25_k1": NAN}, "k1 must be finite"),
    "sweep-b-above-one-without-bm25": (["sweep", "--method", "idf", "--models", "x"], {"bm25_b": 2}, "b must be in [0, 1]"),
    "lexical-nan-threshold": (["baseline", "--method", "lexical"], {"idf_threshold": NAN}, "IDF threshold must not be NaN"),
    "train-zero-epochs": (["train"], {"epochs": 0}, "epochs must be >= 1"),
    "train-zero-batch": (["train"], {"batch_size": 0}, "batch_size must be >= 1"),
    "train-nan-lr": (["train"], {"lr": NAN}, "learning_rate must be finite"),
    "train-zero-dim": (["train"], {"embed_dim": 0}, "embed_dim must be >= 1"),
    "train-negative-seed": (["train"], {"seed": -1}, "seed must be >= 0"),
}


def _as_flags(values: dict) -> list[str]:
    """The command-line form of config values: a switch for true, else the flag and its values."""
    flags = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        flags += [flag] if value is True else [flag, *map(str, value if isinstance(value, list) else [value])]
    return flags


@pytest.mark.parametrize(
    "argv, bad, message, source",
    [
        pytest.param(argv, bad, message, source, id=name if source == "argv" else f"{name}-from-config")
        for name, (argv, bad, message) in BAD_FLAG_VALUES.items()
        for source in (("argv", "config") if bad else ("argv",))
    ],
)
def test_flag_values_are_checked_before_any_file_is_read(tmp_path, capsys, monkeypatch, argv, bad, message, source):
    def no_load(path):
        raise AssertionError(f"{path} was read")

    def run(prefix, flags):
        out = ["--out", "out"] if argv[0] != "evaluate" else ["--report", "out"]
        assert main([*prefix, *argv, *flags, "--corpus", "corpus.jsonl", *out]) == 1
        return _one_error_line(capsys)

    monkeypatch.setattr(cli, "load_corpus", no_load)
    monkeypatch.chdir(tmp_path)
    err = run([], _as_flags(bad))
    assert err["error"] == "error"
    assert message in err["message"]
    if source == "config":  # the same value from a config fails with the same line
        (tmp_path / "config.json").write_text(json.dumps(bad))
        assert run(["--config", "config.json"], []) == err
    assert not (tmp_path / "out").exists()


def test_evaluate_builds_each_member_matrix_once(tmp_path, cli_corpus, cli_checkpoint, capsys, monkeypatch):
    import deident.reid

    redacted = tmp_path / "lexical.jsonl"
    assert main([
        "baseline", "--corpus", str(cli_corpus), "--method", "lexical",
        "--out", str(redacted), "--limit", "5",
    ]) == 0
    calls = []
    real = deident.reid.build_profile_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(deident.reid, "build_profile_matrix", counting)
    report = tmp_path / "report.json"
    code = main([
        "evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted),
        "--models", str(cli_checkpoint), str(cli_checkpoint), "--bm25", "--report", str(report),
    ])
    assert code == 0
    capsys.readouterr()
    assert len(calls) == 2
    assert set(json.loads(report.read_text())["per_member"]) == {"model", "model:1", "bm25"}


def test_evaluate_keeps_a_neural_member_named_bm25_beside_the_bm25_member(tmp_path, cli_corpus, cli_checkpoint, capsys):
    redacted, named = tmp_path / "lexical.jsonl", tmp_path / "bm25.ckpt"
    assert main([
        "baseline", "--corpus", str(cli_corpus), "--method", "lexical", "--out", str(redacted), "--limit", "20",
    ]) == 0
    named.write_bytes(cli_checkpoint.read_bytes())

    def ranks(*members):
        report = tmp_path / "report.json"
        assert main(["evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted), *members,
                     "--report", str(report)]) == 0
        return [doc["ranks"] for doc in json.loads(report.read_text())["per_doc"]]

    neural, bm25 = ranks("--models", str(named)), ranks("--bm25")
    capsys.readouterr()
    # every member, BM25 included, takes `:N` when its name is taken
    both = [{"bm25": n["bm25"], "bm25:1": b["bm25"]} for n, b in zip(neural, bm25, strict=True)]
    assert ranks("--models", str(named), "--bm25") == both
    assert neural != bm25


def test_evaluate_rejects_a_redacted_row_that_is_not_an_object(tmp_path, cli_corpus, capsys):
    redacted = tmp_path / "redacted.jsonl"
    redacted.write_text("5\n")
    code = main(["evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted), "--bm25"])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "corpus-format"
    assert "line 1" in err["message"]


def test_evaluate_rejects_a_malformed_sidecar(tmp_path, cli_corpus, capsys):
    redacted, sidecar = tmp_path / "lexical.jsonl", tmp_path / "sidecar.jsonl"
    assert main([
        "baseline", "--corpus", str(cli_corpus), "--method", "lexical",
        "--out", str(redacted), "--sidecar", str(sidecar), "--limit", "3",
    ]) == 0
    capsys.readouterr()
    first = sidecar.read_text().splitlines(keepends=True)[0]
    for content in (first + "{broken\n", first + '{"id": [1], "success": true}\n'):
        sidecar.write_text(content)
        code = main([
            "evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted), "--bm25",
            "--sidecar", str(sidecar), "--success-only",
        ])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "corpus-format"
        assert "line 2" in err["message"]


@pytest.fixture(scope="module")
def greedy_redaction(tmp_path_factory, cli_corpus, cli_checkpoint):
    """A three-record greedy redaction and its sidecar."""
    root = tmp_path_factory.mktemp("greedy")
    redacted, sidecar = root / "redacted.jsonl", root / "sidecar.jsonl"
    assert main([
        "deidentify", "--corpus", str(cli_corpus), "--model", str(cli_checkpoint), "--k", "1",
        "--limit", "3", "--out", str(redacted), "--sidecar", str(sidecar),
    ]) == 0
    return redacted, sidecar


@pytest.mark.parametrize("success_only", [True, False])
@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: rows[2].update(success="false"),
        lambda rows: rows[2].update(success=0),
        lambda rows: rows[2].pop("success"),
        lambda rows: rows[2].update(k="1"),
        lambda rows: rows[2].update(k=1.0),
        lambda rows: rows[2].update(k=True),
        lambda rows: rows[2].pop("k"),
        lambda rows: rows[2].update(id="nobody"),
        lambda rows: rows[2].update(id=rows[0]["id"], mask=rows[0]["mask"]),
        lambda rows: rows[2].update(mask=[0] * len(rows[2]["mask"])),
        lambda rows: rows[2].update(mask=[1 - b for b in rows[2]["mask"]]),
        lambda rows: rows[2].pop("mask"),
    ],
    ids=[
        "success-str", "success-int", "no-success", "k-str", "k-float", "k-bool", "no-k",
        "id-unknown", "id-duplicate", "mask-zeroed", "mask-flipped", "no-mask",
    ],
)
def test_evaluate_rejects_a_bad_sidecar_row(tmp_path, cli_corpus, greedy_redaction, capsys, edit, success_only):
    # the third record's greedy mask is not empty, so zeroing it changes it
    redacted, good = greedy_redaction
    rows = [json.loads(line) for line in good.read_text().splitlines()]
    assert any(rows[2]["mask"])
    edit(rows)
    sidecar = write_jsonl(tmp_path / "sidecar.jsonl", rows)
    report = tmp_path / "report.json"
    capsys.readouterr()
    code = main([
        "evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted), "--bm25",
        "--sidecar", str(sidecar), *["--success-only"] * success_only, "--report", str(report),
    ])
    assert code == 4
    err = _one_error_line(capsys)
    assert err["error"] == "corpus-format"
    assert "line 3" in err["message"]
    assert not report.exists()


def test_written_formats_have_their_pinned_keys(tmp_path, cli_corpus, cli_checkpoint, greedy_redaction):
    redacted, sidecar = greedy_redaction
    assert {frozenset(row) for row in load_redacted(redacted)} == {
        frozenset({"id", "document", "profile", "mask", "method", "k"})
    }
    assert {frozenset(json.loads(line)) for line in sidecar.read_text().splitlines()} == {
        frozenset({"id", "method", "k", "steps", "final_rank", "final_prob", "success", "mask", "order"})
    }
    header = json.loads(cli_checkpoint.read_bytes().split(b"\n", 1)[0])
    assert set(header) == {"version", "dim", "out_dim", "terms", "arrays"}
    assert [set(spec) for spec in header["arrays"]] == [{"name", "shape", "offset", "bytes"}] * 3
    report, utility, pareto = tmp_path / "report.json", tmp_path / "utility.json", tmp_path / "pareto.csv"
    assert main([
        "evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted), "--bm25",
        "--sidecar", str(sidecar), "--report", str(report), "--utility", str(utility),
    ]) == 0
    assert main([
        "sweep", "--corpus", str(cli_corpus), "--method", "idf", "--controls", "2", "--bm25", "--limit", "3",
        "--out", str(pareto),
    ]) == 0
    assert set(json.loads(report.read_text())) == {"rate", "per_member", "per_doc"}
    assert set(json.loads(utility.read_text())) == {"percent_masked", "information_loss"}
    assert pareto.read_text().splitlines()[0] == "method,control,reid_rate,pct_masked,info_loss,success_rate"


def test_config_is_read_in_every_spelling_argparse_takes(tmp_path, cli_corpus, cli_checkpoint, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 8}))
    outputs = []
    for i, spelling in enumerate([["--config", str(config)], [f"--config={config}"], ["--conf", str(config)]]):
        out, sidecar = tmp_path / f"redacted{i}.jsonl", tmp_path / f"sidecar{i}.jsonl"
        assert main([
            *spelling, "deidentify", "--corpus", str(cli_corpus), "--model", str(cli_checkpoint),
            "--limit", "4", "--out", str(out), "--sidecar", str(sidecar),
        ]) == 0
        assert [json.loads(line)["k"] for line in sidecar.read_text().splitlines()] == [8] * 4
        outputs.append((out.read_bytes(), sidecar.read_bytes()))
    capsys.readouterr()
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_config_given_after_an_equals_sign_is_checked(tmp_path, cli_corpus, cli_checkpoint, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"k": "8"}))
    out = tmp_path / "redacted.jsonl"
    code = main([
        f"--config={config}", "deidentify", "--corpus", str(cli_corpus), "--model", str(cli_checkpoint),
        "--out", str(out),
    ])
    assert code == 4
    err = _one_error_line(capsys)
    assert err["error"] == "bad-config"
    assert "'k'" in err["message"]
    assert not out.exists()


def test_config_file_unknown_key_is_rejected(tmp_path, cli_corpus, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epohcs": 1, "embed_dim": 16}))
    out = tmp_path / "model.ckpt"
    code = main(["--config", str(config), "train", "--corpus", str(cli_corpus), "--out", str(out)])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-config"
    assert "epohcs" in err["message"] and "embed_dim" not in err["message"]
    assert not out.exists()


# (command, config, flag-side arguments): each config value is one its command's flag refuses
BAD_CONFIGS = {
    "float-for-int": ("train", {"batch_size": 2.5}, []),
    "bool-for-int": ("train", {"epochs": True}, []),
    "string-for-float": ("train", {"lr": "2.0"}, []),
    "number-for-list": ("sweep", {"controls": 3}, ["--method", "idf"]),
    "empty-list-for-nargs-plus": ("sweep", {"controls": []}, ["--method", "idf"]),
    "string-in-float-list": ("sweep", {"controls": [1.0, "2"]}, ["--method", "idf"]),
    "null-for-int": ("deidentify", {"beam_width": None}, ["--model", "absent.ckpt"]),
    "mask-mode-choice": ("deidentify", {"mask_mode": "bogus"}, ["--model", "absent.ckpt"]),
    "another-commands-choice": ("baseline", {"method": "greedy"}, ["--method", "idf"]),
    "string-for-switch": ("evaluate", {"bm25": "yes"}, ["--redacted", "absent.jsonl"]),
    "string-for-list": ("evaluate", {"models": "a.ckpt"}, ["--redacted", "absent.jsonl"]),
    "number-for-string": ("train", {"log": 3}, []),
}


@pytest.mark.parametrize("command, config_values, extra", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
def test_config_value_of_the_wrong_kind_is_rejected_before_work(
    tmp_path, cli_corpus, capsys, command, config_values, extra
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_values))
    out = tmp_path / "out"
    argv = ["--config", str(config), command, "--corpus", str(cli_corpus), *extra]
    if command != "evaluate":
        argv += ["--out", str(out)]
    code = main(argv)
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert code == 4
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert err["error"] == "bad-config"
    assert next(iter(config_values)) in err["message"]
    assert not out.exists()


def test_config_values_are_read_as_their_flags_read_them(tmp_path, cli_corpus, capsys):
    # an integer for a float flag, null for a flag that defaults to None, and a
    # choice that only another command's flag refuses
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 1, "embed_dim": 8, "lr": 1, "log": None, "method": "greedy"}))
    out = tmp_path / "model.ckpt"
    assert main(["--config", str(config), "train", "--corpus", str(cli_corpus), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.with_name(out.name + ".log.csv").exists()
    assert main(["--config", str(config), "stats", "--corpus", str(cli_corpus)]) == 0
    capsys.readouterr()
    sweep = cli.build_parser().subcommand_parsers["sweep"]
    controls = next(action for action in sweep._actions if action.dest == "controls")
    assert [type(c) for c in cli._config_value(controls, [2, 3.5])] == [float, float]


def _array_spec(header, name):
    return next(spec for spec in header["arrays"] if spec["name"] == name)


def _narrow(name):
    """Halve the array's column count in the manifest, so its payload reads as a narrower array."""

    def edit(header, payload):
        spec = _array_spec(header, name)
        spec["shape"][1] //= 2
        spec["bytes"] //= 2

    return edit


def _fill(name, value):
    def edit(header, payload):
        spec = _array_spec(header, name)
        count = spec["bytes"] // 4
        payload[spec["offset"] : spec["offset"] + spec["bytes"]] = np.full(count, value, "<f4").tobytes()

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda h, p: h.pop("terms"),
        lambda h, p: h.pop("arrays"),
        lambda h, p: h.update(terms="alpha"),
        lambda h, p: h.update(arrays={"embeddings": 1}),
        lambda h, p: h["arrays"][0].pop("shape"),
        _narrow("doc_proj"),
        _narrow("profile_proj"),
        _fill("embeddings", np.nan),
        _fill("doc_proj", np.inf),
    ],
    ids=[
        "no-terms", "no-arrays", "terms-str", "arrays-dict", "no-shape",
        "doc-proj-narrow", "profile-proj-narrow", "nan-embeddings", "inf-doc-proj",
    ],
)
def test_incomplete_checkpoint_header_exit_code(tmp_path, cli_corpus, cli_checkpoint, capsys, edit):
    header_line, payload = cli_checkpoint.read_bytes().split(b"\n", 1)
    header, payload = json.loads(header_line), bytearray(payload)
    edit(header, payload)
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    out = tmp_path / "x.jsonl"
    code = main([
        "deidentify", "--corpus", str(cli_corpus), "--model", str(broken),
        "--k", "1", "--out", str(out),
    ])
    assert code == 5
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "checkpoint"
    assert not out.exists()


def test_deidentify_reads_a_checkpoint_whose_header_carries_label_smoothing(tmp_path, cli_corpus, cli_checkpoint):
    # earlier writers put the training's label smoothing in the header; the redactions are the same without it
    header, payload = cli_checkpoint.read_bytes().split(b"\n", 1)
    old = tmp_path / "old.ckpt"
    old.write_bytes(json.dumps({**json.loads(header), "label_smoothing": 0.1}, sort_keys=True).encode() + b"\n" + payload)
    outputs = {}
    for name, checkpoint in (("current", cli_checkpoint), ("old", old)):
        redacted, sidecar = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.sidecar.jsonl"
        assert main([
            "deidentify", "--corpus", str(cli_corpus), "--model", str(checkpoint), "--k", "2", "--limit", "4",
            "--out", str(redacted), "--sidecar", str(sidecar),
        ]) == 0
        outputs[name] = redacted.read_bytes(), sidecar.read_bytes()
    assert outputs["old"] == outputs["current"]


def test_deidentify_beam_width_two_runs_the_beam_search(tmp_path, cli_corpus, cli_checkpoint):
    redacted, sidecar = tmp_path / "redacted.jsonl", tmp_path / "sidecar.jsonl"
    assert main([
        "deidentify", "--corpus", str(cli_corpus), "--model", str(cli_checkpoint), "--k", "2", "--beam-width", "2",
        "--limit", "10", "--out", str(redacted), "--sidecar", str(sidecar),
    ]) == 0
    rows, sides = load_redacted(redacted), [json.loads(line) for line in sidecar.read_text().splitlines()]
    assert [row["method"] for row in rows] == [side["method"] for side in sides] == ["beam"] * 10
    corpus = load_corpus(cli_corpus)
    model = NeuralReidentifier.from_checkpoint(cli_checkpoint, corpus.store)
    differs = 0
    for record, row in zip(corpus.records, rows):
        index = corpus.store.index_of(record.profile_id)
        beam = search(model, record.document, index, [2], beam_width=2)[0].mask.tolist()
        assert row["mask"] == beam
        differs += beam != search(model, record.document, index, [2])[0].mask.tolist()
    assert differs  # on some document width 2 finds another mask than greedy


@pytest.mark.parametrize("width", ["1", "2"])
def test_evaluate_reports_each_certified_rank_of_the_guide(tmp_path, cli_corpus, cli_checkpoint, capsys, width):
    # the rank `evaluate` reports for the guide is the `final_rank` its certificate states, and it passes K
    redacted, sidecar, report = tmp_path / "redacted.jsonl", tmp_path / "sidecar.jsonl", tmp_path / "report.json"
    assert main([
        "deidentify", "--corpus", str(cli_corpus), "--model", str(cli_checkpoint), "--k", "2", "--beam-width", width,
        "--limit", "20", "--out", str(redacted), "--sidecar", str(sidecar),
    ]) == 0
    assert main([
        "evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted), "--models", str(cli_checkpoint),
        "--report", str(report),
    ]) == 0
    capsys.readouterr()
    ranks = {doc["id"]: doc["ranks"][cli_checkpoint.stem] for doc in json.loads(report.read_text())["per_doc"]}
    certified = [json.loads(line) for line in sidecar.read_text().splitlines() if json.loads(line)["success"]]
    assert certified
    for row in certified:
        assert ranks[row["id"]] == row["final_rank"] > row["k"], row["id"]


def test_idf_bm25_sweep_linearizes_each_profile_once(tmp_path, cli_corpus, capsys, monkeypatch):
    import deident.corpus

    expected = sorted(row.profile_id for row in load_corpus(cli_corpus).records)
    calls = []
    real = deident.corpus._linearize

    def counting(profile, *args, **kwargs):
        calls.append(profile.id)
        return real(profile, *args, **kwargs)

    monkeypatch.setattr(deident.corpus, "_linearize", counting)
    code = main([
        "sweep", "--corpus", str(cli_corpus), "--method", "idf", "--bm25",
        "--controls", "2", "3", "--limit", "5", "--out", str(tmp_path / "pareto.csv"),
    ])
    assert code == 0
    capsys.readouterr()
    assert len(calls) == len(expected)
    assert sorted(calls) == expected


def _one_error_line(capsys) -> dict:
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    return json.loads(err_lines[0])


@pytest.mark.parametrize("width", ["0", "-3"])
def test_deidentify_rejects_a_beam_width_below_one(tmp_path, cli_corpus, cli_checkpoint, capsys, width):
    out = tmp_path / "out.jsonl"
    code = main([
        "deidentify", "--corpus", str(cli_corpus), "--model", str(cli_checkpoint),
        "--k", "1", "--beam-width", width, "--out", str(out),
    ])
    assert code == 1
    err = _one_error_line(capsys)
    assert err["error"] == "error"
    assert "beam_width" in err["message"]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_train_whose_loss_goes_non_finite_fails_as_one_error_line(tmp_path, cli_corpus, capsys):
    out = tmp_path / "model.ckpt"
    code = main(["train", "--corpus", str(cli_corpus), "--out", str(out), "--epochs", "3", "--lr", "1e300"])
    assert code == 1
    assert _one_error_line(capsys)["error"] == "error"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags",
    [
        ["--lr", "nan"], ["--lr", "-5"], ["--lr", "0"], ["--lr", "inf"],
        ["--clip", "nan"], ["--clip", "inf"], ["--warmup-epochs", "-1"], ["--profile-epochs", "-2"],
    ],
    ids=["lr-nan", "lr-negative", "lr-zero", "lr-inf", "clip-nan", "clip-inf", "warmup-negative",
         "profile-epochs-negative"],
)
def test_train_rejects_a_bad_step_setting(tmp_path, cli_corpus, capsys, flags):
    out = tmp_path / "model.ckpt"
    code = main(["train", "--corpus", str(cli_corpus), "--out", str(out), "--epochs", "3", "--embed-dim", "8", *flags])
    assert code == 1
    assert _one_error_line(capsys)["error"] == "error"
    assert not out.exists()


@pytest.mark.parametrize("control", ["2.7", "0", "nan", "inf"])
@pytest.mark.parametrize("method", ["greedy", "beam"])
def test_sweep_rejects_a_control_that_is_not_a_k(
    tmp_path, cli_corpus, cli_checkpoint, capsys, monkeypatch, method, control
):
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(cli, "search", no_search)
    out = tmp_path / "pareto.csv"
    code = main([
        "sweep", "--corpus", str(cli_corpus), "--method", method, "--controls", "2", control,
        "--model", str(cli_checkpoint), "--bm25", "--out", str(out),
    ])
    assert code == 1
    err = _one_error_line(capsys)
    assert err["error"] == "error"
    assert "--controls" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("method", ["idf", "idf-table", "lexical", "ner"])
def test_sweep_rejects_a_nan_idf_threshold_up_front(tmp_path, cli_corpus, capsys, monkeypatch, method):
    def no_baseline(*args, **kwargs):
        raise AssertionError("a baseline ran")

    monkeypatch.setattr(cli, "_baseline", no_baseline)
    out = tmp_path / "pareto.csv"
    code = main([
        "sweep", "--corpus", str(cli_corpus), "--method", method, "--controls", "2", "nan",
        "--bm25", "--out", str(out),
    ])
    assert code == 1
    err = _one_error_line(capsys)
    assert err["error"] == "error"
    assert "--controls" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("method", ["greedy", "beam"])
def test_a_search_sweep_searches_each_record_once_and_each_row_matches_a_one_control_sweep(
    tmp_path, cli_corpus, cli_checkpoint, monkeypatch, method
):
    log = tmp_path / "calls.jsonl"  # one line per call, from whichever process made it
    search = cli.search

    def counting(*args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(args[3:5]) + "\n")  # the Ks and the width
        return search(*args)

    monkeypatch.setattr(cli, "search", counting)
    argv = [
        "sweep", "--corpus", str(cli_corpus), "--method", method, "--model", str(cli_checkpoint),
        "--bm25", "--limit", "6",
    ]
    controls = ["64", "1", "8", "8"]
    out = tmp_path / "all.csv"
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_cpus", lambda: workers)
        log.unlink(missing_ok=True)
        assert main([*argv, "--controls", *controls, "--out", str(out)]) == 0
        calls = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert calls == [[[64, 1, 8, 8], 4 if method == "beam" else 1]] * 6  # greedy runs at width 1, not --beam-width
        header, *rows = out.read_text().splitlines()
        assert [row.split(",")[1] for row in rows] == ["64.0", "1.0", "8.0", "8.0"]
        for k, row in zip(controls, rows):
            single = tmp_path / f"k{k}.csv"
            assert main([*argv, "--controls", k, "--out", str(single)]) == 0
            assert single.read_text().splitlines() == [header, row]


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child forked from this process while the test runs."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:  # in the parent; a child returns 0 and has its own copy of the list
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def _reaped(pids) -> None:
    """Each pid is no longer a child of this process: not running, and not an exit left for waitpid to collect."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_forked_returns_each_result_in_item_order_and_does_share_zero_itself(monkeypatch, forks):
    monkeypatch.setattr(cli, "_cpus", lambda: 3)
    results = cli._forked(lambda item: (item, os.getpid()), list(range(8)))
    assert [item for item, _ in results] == list(range(8))
    pids = [pid for _, pid in results]
    assert [pid == os.getpid() for pid in pids] == [i % 3 == 0 for i in range(8)]
    assert pids == [pids[i % 3] for i in range(8)] and set(pids[1:3]) == set(forks)  # worker i mod 3 does item i
    assert cli._forked(lambda item: (item, os.getpid()), [5]) == [(5, os.getpid())]  # one item: nothing forked
    assert len(forks) == 2
    _reaped(forks)


def test_forked_forks_one_child_per_cpu_but_one_and_none_beyond_the_items(monkeypatch, forks):
    for cpus, items, children in ((1, 5, 0), (4, 2, 1), (3, 7, 2)):
        forks.clear()
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        assert cli._forked(lambda item: -item, list(range(items))) == [-item for item in range(items)]
        assert len(forks) == children
        _reaped(forks)


def test_forked_raises_a_childs_exception_and_leaves_no_child_behind(monkeypatch, forks):
    def work(item):
        if item == 3:
            raise CorpusError("bad item", line=7)
        return item

    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    with pytest.raises(CorpusError) as info:
        cli._forked(work, list(range(6)))
    assert (str(info.value), info.value.line) == ("line 7: bad item", 7)
    assert len(forks) == 1
    _reaped(forks)

    def slow_child(item):
        if item == 0:
            raise ValueError("the parent's share failed")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="parent's share"):
        cli._forked(slow_child, [0, 1])
    assert time.perf_counter() - start < 30  # the busy child was killed, not waited for
    assert len(forks) == 2
    _reaped(forks)


SEARCHES = {
    "greedy": ["deidentify", "--k", "2"],
    "beam": ["deidentify", "--k", "2", "--beam-width", "3"],
    "greedy-sweep": ["sweep", "--method", "greedy", "--controls", "64", "1", "8", "8", "--bm25"],
    "beam-sweep": ["sweep", "--method", "beam", "--controls", "64", "1", "8", "8", "--bm25"],
}


@pytest.mark.parametrize("command", SEARCHES.values(), ids=SEARCHES)
def test_search_outputs_are_the_same_at_any_worker_count(tmp_path, cli_corpus, cli_checkpoint, capsys, monkeypatch,
                                                         forks, command):
    out, sidecar = tmp_path / "out", tmp_path / "sidecar.jsonl"
    argv = [*command, "--corpus", str(cli_corpus), "--model", str(cli_checkpoint), "--out", str(out)]
    argv += ["--sidecar", str(sidecar)] if command[0] == "deidentify" else []
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli, "_cpus", lambda: workers)
        assert main(argv) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes(), sidecar.exists() and sidecar.read_bytes()))
    assert outputs == [outputs[0]] * 3
    assert len(forks) == 1 + 2
    _reaped(forks)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_search_that_raises_fails_the_command_as_at_one_worker(tmp_path, cli_corpus, cli_checkpoint, capsys,
                                                                 monkeypatch, forks, workers):
    second = load_corpus(cli_corpus).records[1].document  # searched by the child at two workers
    search = cli.search

    def failing(model, document, *args):
        if document == second:
            raise CorpusError("no search for the second record")
        return search(model, document, *args)

    monkeypatch.setattr(cli, "search", failing)
    monkeypatch.setattr(cli, "_cpus", lambda: workers)
    out = tmp_path / "out.jsonl"
    code = main([
        "deidentify", "--corpus", str(cli_corpus), "--model", str(cli_checkpoint), "--k", "2", "--limit", "4",
        "--out", str(out),
    ])
    assert code == 4
    assert _one_error_line(capsys) == {"error": "corpus-format", "message": "no search for the second record"}
    assert not out.exists()
    assert len(forks) == workers - 1
    _reaped(forks)


def test_a_search_worker_that_dies_fails_the_command_as_one_error_line(tmp_path, cli_corpus, cli_checkpoint, capsys,
                                                                       monkeypatch, forks):
    parent, search = os.getpid(), cli.search

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return search(*args)

    monkeypatch.setattr(cli, "search", dying)
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    out = tmp_path / "pareto.csv"
    code = main([
        "sweep", "--corpus", str(cli_corpus), "--method", "greedy", "--model", str(cli_checkpoint), "--bm25",
        "--controls", "2", "--limit", "4", "--out", str(out),
    ])
    assert code == 1
    assert _one_error_line(capsys) == {"error": "error", "message": "search worker 1 of 2 exited without its results"}
    assert not out.exists()
    assert len(forks) == 1
    _reaped(forks)


@pytest.mark.parametrize("success_only", [True, False])
def test_evaluate_checks_every_redacted_row_before_keeping_the_certified_ones(tmp_path, cli_corpus, capsys, success_only):
    redacted = write_jsonl(tmp_path / "redacted.jsonl", [{"id": "nobody", "mask": [1]}])
    sidecar = write_jsonl(tmp_path / "sidecar.jsonl", [{"id": "nobody", "mask": [1], "success": False, "k": 1}])
    report = tmp_path / "report.json"
    code = main([
        "evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted), "--bm25",
        "--sidecar", str(sidecar), *["--success-only"] * success_only, "--report", str(report),
    ])
    assert code == 4
    err = _one_error_line(capsys)
    assert err == {"error": "corpus-format", "message": "redacted row 'nobody': unknown profile id 'nobody'"}
    assert not report.exists()


def test_evaluate_writes_a_null_utility_when_no_record_is_left(tmp_path, cli_corpus, cli_checkpoint, capsys):
    # no profile can rank below K = 999 in a 40-profile store, so every search fails
    redacted, sidecar = tmp_path / "redacted.jsonl", tmp_path / "sidecar.jsonl"
    assert main([
        "deidentify", "--corpus", str(cli_corpus), "--model", str(cli_checkpoint), "--k", "999",
        "--limit", "3", "--out", str(redacted), "--sidecar", str(sidecar),
    ]) == 0
    assert not any(json.loads(line)["success"] for line in sidecar.read_text().splitlines())
    capsys.readouterr()
    report, utility = tmp_path / "report.json", tmp_path / "utility.json"
    code = main([
        "evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted), "--bm25",
        "--sidecar", str(sidecar), "--success-only", "--report", str(report), "--utility", str(utility),
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["documents"] == 0
    assert report.exists()
    assert utility.read_text() == "null\n"


def test_evaluate_reports_a_null_rate_when_no_record_is_certified(tmp_path, cli_corpus, capsys):
    # an untrained guide at K = 999 certifies nothing, so --success-only keeps no record
    guide = tmp_path / "untrained.ckpt"
    save_checkpoint(init_params(Vocabulary.from_idf(compute_idf(load_corpus(cli_corpus))), dim=8, seed=0), guide)
    redacted, sidecar = tmp_path / "redacted.jsonl", tmp_path / "sidecar.jsonl"
    assert main([
        "deidentify", "--corpus", str(cli_corpus), "--model", str(guide), "--k", "999",
        "--limit", "3", "--out", str(redacted), "--sidecar", str(sidecar),
    ]) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main([
        "evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted), "--models", str(guide), "--bm25",
        "--sidecar", str(sidecar), "--success-only", "--report", str(report),
    ]) == 0
    assert json.loads(capsys.readouterr().out) == {"documents": 0, "rate": None}
    saved = json.loads(report.read_text())
    assert saved["rate"] is None and saved["per_doc"] == []
    assert saved["per_member"] == {"untrained": None, "bm25": None}


@pytest.mark.parametrize("method", ["idf", "idf-table"])
def test_baseline_rejects_a_nan_idf_threshold(tmp_path, cli_corpus, capsys, method):
    out = tmp_path / "out.jsonl"
    code = main([
        "baseline", "--corpus", str(cli_corpus), "--method", method, "--idf-threshold", "nan",
        "--out", str(out),
    ])
    assert code == 1
    assert "NaN" in _one_error_line(capsys)["message"]
    assert not out.exists()


def test_infinite_idf_thresholds_mask_nothing_or_every_word(tmp_path, cli_corpus):
    records = load_corpus(cli_corpus).records
    for threshold in ("inf", "-inf"):
        out = tmp_path / f"{threshold}.jsonl"
        argv = ["baseline", "--corpus", str(cli_corpus), "--method", "idf", f"--idf-threshold={threshold}"]
        assert main([*argv, "--out", str(out)]) == 0
        for row, record in zip(load_redacted(out), records, strict=True):
            words = (~record.document.punctuation).astype(int).tolist()
            assert row["mask"] == (words if threshold == "-inf" else [0] * len(words))


def test_a_separate_minus_inf_reads_as_a_number(tmp_path, cli_corpus):
    # argparse reads a bare `-inf` as an option unless told it is a number, as `-2.5` is
    records = load_corpus(cli_corpus).records
    out = tmp_path / "all.jsonl"
    argv = ["baseline", "--corpus", str(cli_corpus), "--method", "idf", "--idf-threshold", "-inf"]
    assert main([*argv, "--out", str(out)]) == 0
    for row, record in zip(load_redacted(out), records, strict=True):
        assert row["mask"] == (~record.document.punctuation).astype(int).tolist()
    pareto = tmp_path / "pareto.csv"
    code = main([
        "sweep", "--corpus", str(cli_corpus), "--method", "idf", "--controls", "-inf", "2",
        "--bm25", "--out", str(pareto),
    ])
    assert code == 0
    rows = pareto.read_text().strip().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["idf", "-inf"], ["idf", "2.0"]]


@pytest.mark.parametrize("k1", ["nan", "inf"])
@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_bm25_rejects_a_k1_that_is_not_finite(tmp_path, tiny_inputs, capsys, command, k1):
    out = tmp_path / "out"
    corpus = ["--corpus", str(tiny_inputs["corpus"])]
    argv = {
        "evaluate": ["evaluate", *corpus, "--redacted", str(tiny_inputs["redacted"]), "--report", str(out)],
        "sweep": ["sweep", *corpus, "--method", "idf", "--controls", "3", "--out", str(out)],
    }[command]
    assert main([*argv, "--bm25", "--bm25-k1", k1]) == 1
    err = _one_error_line(capsys)
    assert err["error"] == "error"
    assert "k1" in err["message"]
    assert not out.exists()


def _unmasked_redaction(root, corpus_path):
    """An unmasked redaction of every record, plus a sidecar certifying all of them."""
    records = load_corpus(corpus_path).records
    redacted = write_jsonl(
        root / "redacted.jsonl", [{"id": r.profile_id, "mask": [0] * len(r.document)} for r in records]
    )
    sidecar = write_jsonl(
        root / "sidecar.jsonl",
        [{"id": r.profile_id, "success": True, "k": 1, "mask": [0] * len(r.document)} for r in records],
    )
    return redacted, sidecar


@pytest.fixture(scope="module")
def cli_redacted(tmp_path_factory, cli_corpus):
    return _unmasked_redaction(tmp_path_factory.mktemp("cli_redacted"), cli_corpus)


@pytest.mark.parametrize("kind", ["corpus", "redacted", "sidecar", "tags", "tags-for-idf", "stopwords", "config"])
def test_invalid_utf8_input_exit_code(tmp_path, cli_corpus, cli_checkpoint, cli_redacted, capsys, kind):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'\n{"id": "caf\xe9"}\n')
    redacted, sidecar = cli_redacted
    argv = {
        "corpus": ["stats", "--corpus", str(bad)],
        "redacted": ["evaluate", "--corpus", str(cli_corpus), "--redacted", str(bad), "--bm25"],
        "sidecar": [
            "evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted), "--bm25",
            "--sidecar", str(bad), "--success-only",
        ],
        "tags": [
            "baseline", "--corpus", str(cli_corpus), "--method", "ner", "--tags-file", str(bad),
            "--out", str(tmp_path / "ner.jsonl"),
        ],
        "tags-for-idf": [  # a given tags file is read whatever the method
            "baseline", "--corpus", str(cli_corpus), "--method", "idf", "--tags-file", str(bad),
            "--out", str(tmp_path / "idf.jsonl"),
        ],
        "stopwords": [
            "deidentify", "--corpus", str(cli_corpus), "--model", str(cli_checkpoint), "--stopwords-file", str(bad),
            "--out", str(tmp_path / "greedy.jsonl"),
        ],
        "config": ["--config", str(bad), "stats", "--corpus", str(cli_corpus)],
    }[kind]
    assert main(argv) == 4
    err = _one_error_line(capsys)
    if kind == "config":
        assert err["error"] == "bad-config"
    else:
        assert err["error"] == "corpus-format"
        assert "line 2" in err["message"] and "UTF-8" in err["message"]


def test_config_path_that_is_a_directory_exit_code(tmp_path, cli_corpus, capsys):
    assert main(["--config", str(tmp_path), "stats", "--corpus", str(cli_corpus)]) == 3
    assert _one_error_line(capsys)["error"] == "file-not-found"


@pytest.mark.parametrize(
    "edit, members",
    [
        (lambda row, n: row.update(mask="01"), "models"),
        (lambda row, n: row.update(mask="01"), "bm25"),
        (lambda row, n: row.update(mask=[0] * (n - 1)), "bm25"),
        (lambda row, n: row.update(mask=[0] * (n - 1)), "models"),
        (lambda row, n: row.update(mask=[2] + [0] * (n - 1)), "bm25"),
        (lambda row, n: row.update(mask=[300] + [0] * (n - 1)), "bm25"),
        (lambda row, n: row.update(mask=[None] + [0] * (n - 1)), "models"),
        (lambda row, n: row.update(id=[row["id"]]), "bm25"),
        (lambda row, n: row.update(id="nobody"), "models"),
        (lambda row, n: row.pop("mask"), "bm25"),
        (lambda row, n: row.update(mask=[0.5] + [0] * (n - 1)), "models"),
        (lambda row, n: row.update(mask=["1"] + [0] * (n - 1)), "bm25"),
        (lambda row, n: row.update(mask=[1] + [0] * (n - 1)), "models"),
    ],
    ids=[
        "mask-str-models", "mask-str-bm25", "mask-short-bm25", "mask-short-models",
        "mask-not-01", "mask-overflow", "mask-null", "id-list", "id-unknown", "no-mask",
        "mask-half", "mask-digit-str", "duplicate-id",
    ],
)
def test_evaluate_rejects_a_bad_redacted_row(tmp_path, cli_corpus, cli_checkpoint, capsys, edit, members):
    record = load_corpus(cli_corpus).records[1]
    good = {"id": record.profile_id, "mask": [0] * len(record.document)}
    bad = dict(good)
    edit(bad, len(record.document))
    redacted = write_jsonl(tmp_path / "redacted.jsonl", [good, bad])
    member_flags = ["--models", str(cli_checkpoint)] if members == "models" else ["--bm25"]
    report = tmp_path / "report.json"
    code = main([
        "evaluate", "--corpus", str(cli_corpus), "--redacted", str(redacted), *member_flags,
        "--report", str(report),
    ])
    assert code == 4
    assert _one_error_line(capsys)["error"] == "corpus-format"
    assert not report.exists()


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """A four-record corpus, its unmasked redaction and sidecar, and an untrained checkpoint."""
    root = tmp_path_factory.mktemp("tiny")
    corpus_path = write_jsonl(root / "corpus.jsonl", make_corpus_rows(4, seed=5))
    redacted, sidecar = _unmasked_redaction(root, corpus_path)
    checkpoint = root / "model.ckpt"
    vocab = Vocabulary.from_idf(compute_idf(load_corpus(corpus_path)))
    save_checkpoint(init_params(vocab, dim=4, seed=0), checkpoint)
    return {
        "root": root, "corpus": corpus_path, "redacted": redacted, "sidecar": sidecar, "checkpoint": checkpoint,
    }


def _splice(original: bytes):
    """Random bytes, or the original with one span replaced by random bytes."""
    return st.one_of(
        st.binary(max_size=200),
        st.tuples(
            st.integers(0, len(original)), st.integers(0, 64), st.binary(max_size=64)
        ).map(lambda t: original[: t[0]] + t[2] + original[t[0] + t[1] :]),
    )


@pytest.mark.parametrize("kind", ["corpus", "redacted", "sidecar", "checkpoint"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_input_bytes_fail_cleanly(tiny_inputs, kind, data):
    inputs = dict(tiny_inputs)
    content = data.draw(_splice(inputs[kind].read_bytes()), label=kind)
    inputs[kind] = inputs["root"] / f"fuzzed-{kind}"
    inputs[kind].write_bytes(content)
    out = inputs["root"] / f"out-{kind}.jsonl"
    if kind == "checkpoint":
        argv = ["deidentify", "--corpus", str(inputs["corpus"]), "--model", str(inputs["checkpoint"]),
                "--k", "1", "--out", str(out)]
    else:
        argv = ["evaluate", "--corpus", str(inputs["corpus"]), "--redacted", str(inputs["redacted"]),
                "--models", str(inputs["checkpoint"]), "--bm25"]
        if kind == "sidecar":
            argv += ["--sidecar", str(inputs["sidecar"]), "--success-only"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 3, 4, 5)
    if code:
        err_lines = stderr.getvalue().splitlines()
        assert len(err_lines) == 1
        assert set(json.loads(err_lines[0])) == {"error", "message"}
