import json

import pytest

from deident.cli import main
from deident.corpus import load_corpus, load_redacted

from conftest import write_jsonl
from synthdata import make_corpus_rows

TRAIN_FLAGS = [
    "--epochs", "30", "--embed-dim", "32", "--hash-buckets", "128",
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
    assert header == "epoch,phase,mean_loss,heldout_acc_0,heldout_acc_30,lr"


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


def test_checkpoint_version_mismatch_exit_code(tmp_path, cli_corpus, capsys):
    fake = tmp_path / "fake.ckpt"
    fake.write_bytes(b'{"version": 99}\n')
    code = main([
        "deidentify", "--corpus", str(cli_corpus), "--model", str(fake),
        "--k", "1", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "checkpoint"


def test_config_file_supplies_defaults(tmp_path, cli_corpus, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 2, "embed_dim": 16, "hash_buckets": 64}))
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
    config.write_text(json.dumps({"epochs": 2, "embed_dim": 16, "hash_buckets": 64}))
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
