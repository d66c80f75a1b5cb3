import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deident import cli
from deident.cli import main
from deident.corpus import Vocabulary, load_corpus, load_redacted
from deident.encoder import init_params, save_checkpoint

from conftest import write_jsonl
from synthdata import make_corpus_rows

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


def test_unknown_command_exits_with_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["deidentify", "--model", "absent.ckpt", "--limit", "0"], "--limit"),
        (["baseline", "--method", "lexical", "--limit", "0"], "--limit"),
        (["sweep", "--method", "idf", "--bm25", "--limit", "0"], "--limit"),
        (["sweep", "--method", "greedy", "--bm25"], "--model"),
        (["sweep", "--method", "greedy", "--model", "absent.ckpt", "--bm25", "--controls", "2.5"], "--controls"),
        (["sweep", "--method", "beam", "--model", "absent.ckpt", "--bm25", "--controls", "0"], "--controls"),
        (["sweep", "--method", "idf", "--bm25", "--controls", "nan"], "--controls"),
        (["evaluate", "--redacted", "absent.jsonl", "--bm25", "--success-only"], "--success-only"),
        (["deidentify", "--model", "absent.ckpt", "--k", "0"], "k must be >= 1"),
        (["deidentify", "--model", "absent.ckpt", "--beam-width", "0"], "beam_width must be >= 1"),
        (["sweep", "--method", "beam", "--model", "absent.ckpt", "--bm25", "--beam-width", "0"], "beam_width"),
        (["evaluate", "--redacted", "absent.jsonl"], "no ensemble members"),
        (["sweep", "--method", "idf"], "no ensemble members"),
        (["evaluate", "--redacted", "absent.jsonl", "--bm25", "--bm25-k1", "nan"], "k1 must be finite"),
        (["sweep", "--method", "idf", "--bm25", "--bm25-k1", "inf"], "k1 must be finite"),
        (["evaluate", "--redacted", "absent.jsonl", "--bm25", "--bm25-b", "2"], "b must be in [0, 1]"),
        (["baseline", "--method", "idf", "--idf-threshold", "nan"], "IDF threshold must not be NaN"),
        (["evaluate", "--redacted", "absent.jsonl", "--models", "x", "--bm25-k1", "nan"], "k1 must be finite"),
        (["sweep", "--method", "idf", "--models", "x", "--bm25-b", "2"], "b must be in [0, 1]"),
        (["baseline", "--method", "lexical", "--idf-threshold", "nan"], "IDF threshold must not be NaN"),
        (["train", "--epochs", "0"], "epochs must be >= 1"),
        (["train", "--batch-size", "0"], "batch_size must be >= 1"),
        (["train", "--lr", "nan"], "learning_rate must be finite"),
        (["train", "--embed-dim", "0"], "embed_dim must be >= 1"),
    ],
    ids=["deidentify-limit", "baseline-limit", "sweep-limit", "sweep-no-model", "sweep-fractional-k",
         "sweep-zero-k", "sweep-nan-threshold", "evaluate-success-only", "deidentify-zero-k",
         "deidentify-zero-width", "sweep-zero-width", "evaluate-no-members", "sweep-no-members",
         "evaluate-nan-k1", "sweep-inf-k1", "evaluate-b-above-one", "baseline-nan-threshold",
         "evaluate-nan-k1-without-bm25", "sweep-b-above-one-without-bm25", "lexical-nan-threshold",
         "train-zero-epochs", "train-zero-batch", "train-nan-lr", "train-zero-dim"],
)
def test_flag_values_are_checked_before_any_file_is_read(tmp_path, capsys, monkeypatch, argv, message):
    def no_load(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "load_corpus", no_load)
    monkeypatch.chdir(tmp_path)
    out = ["--out", "out"] if argv[0] != "evaluate" else ["--report", "out"]
    assert main([*argv, "--corpus", "corpus.jsonl", *out]) == 1
    err = _one_error_line(capsys)
    assert err["error"] == "error"
    assert message in err["message"]
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
    assert set(header) == {"version", "dim", "out_dim", "label_smoothing", "terms", "arrays"}
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
        lambda h, p: h.update(label_smoothing=None),
    ],
    ids=[
        "no-terms", "no-arrays", "terms-str", "arrays-dict", "no-shape",
        "doc-proj-narrow", "profile-proj-narrow", "nan-embeddings", "inf-doc-proj", "smoothing-null",
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

    monkeypatch.setattr(cli, "_search", no_search)
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
    calls = []
    search = cli._search

    def counting(*args):
        calls.append(args[3])
        return search(*args)

    monkeypatch.setattr(cli, "_search", counting)
    argv = [
        "sweep", "--corpus", str(cli_corpus), "--method", method, "--model", str(cli_checkpoint),
        "--bm25", "--limit", "6",
    ]
    controls = ["64", "1", "8", "8"]
    out = tmp_path / "all.csv"
    assert main([*argv, "--controls", *controls, "--out", str(out)]) == 0
    assert calls == [[64, 1, 8, 8]] * 6
    header, *rows = out.read_text().splitlines()
    assert [row.split(",")[1] for row in rows] == ["64.0", "1.0", "8.0", "8.0"]
    for k, row in zip(controls, rows):
        single = tmp_path / f"k{k}.csv"
        assert main([*argv, "--controls", k, "--out", str(single)]) == 0
        assert single.read_text().splitlines() == [header, row]


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
    save_checkpoint(init_params(Vocabulary.from_corpus(load_corpus(cli_corpus)), dim=8, seed=0), guide)
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
            words = [int(not t.is_punctuation) for t in record.document]
            assert row["mask"] == (words if threshold == "-inf" else [0] * len(words))


def test_a_separate_minus_inf_reads_as_a_number(tmp_path, cli_corpus):
    # argparse reads a bare `-inf` as an option unless told it is a number, as `-2.5` is
    records = load_corpus(cli_corpus).records
    out = tmp_path / "all.jsonl"
    argv = ["baseline", "--corpus", str(cli_corpus), "--method", "idf", "--idf-threshold", "-inf"]
    assert main([*argv, "--out", str(out)]) == 0
    for row, record in zip(load_redacted(out), records, strict=True):
        assert row["mask"] == [int(not t.is_punctuation) for t in record.document]
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


@pytest.mark.parametrize("kind", ["corpus", "redacted", "sidecar", "tags", "stopwords", "config"])
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
    vocab = Vocabulary.from_corpus(load_corpus(corpus_path))
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
