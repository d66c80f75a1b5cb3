"""Command-line interface.

Subcommands: train, deidentify, baseline, evaluate, sweep, stats. Errors
are emitted as a single JSON object on stderr with distinct exit codes:
3 unreadable file, 4 malformed corpus/tags, 5 checkpoint problems,
1 anything else. A JSON file of flag defaults can be supplied with
--config; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
import numpy as np

from .corpus import (
    Corpus,
    CorpusError,
    apply_mask,
    compute_idf,
    corpus_stats,
    load_corpus,
    load_redacted,
)
from .deid import (
    RedactionResult,
    beam_deidentify,
    greedy_deidentify,
    idf_baseline,
    idf_table_aware_baseline,
    lexical_baseline,
    load_tag_file,
    ner_baseline,
)
from .encoder import CheckpointError
from .metrics import pareto_sweep, utility_report, write_pareto_csv
from .reid import Bm25Reidentifier, NeuralReidentifier, ensemble_evaluate
from .stopwords import DEFAULT_STOPWORDS, load_stopwords
from .training import TrainConfig, train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deident", description="Text deidentification toolkit")
    parser.add_argument("--config", help="JSON file with default values for flags")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommand_parsers = []

    t = sub.add_parser("train", help="train a reidentification model")
    t.add_argument("--corpus", required=True)
    t.add_argument("--out", required=True, help="checkpoint path (final; best gets .best suffix)")
    t.add_argument("--log", help="training log CSV (default: <out>.log.csv)")
    t.add_argument("--epochs", type=int, default=60)
    t.add_argument("--lr", type=float, default=2.0)
    t.add_argument("--clip", type=float, default=5.0)
    t.add_argument("--alpha", type=float, default=0.1, help="label smoothing")
    t.add_argument("--mask-prior", choices=["uniform", "idf", "off"], default="uniform")
    t.add_argument("--embed-dim", type=int, default=64)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--profile-epochs", type=int, default=5)
    t.add_argument("--warmup-epochs", type=int, default=2)
    t.add_argument("--batch-size", type=int, default=32)
    t.add_argument("--hash-buckets", type=int, default=2**18)

    d = sub.add_parser("deidentify", help="search for k-anonymizing masks")
    d.add_argument("--corpus", required=True)
    d.add_argument("--model", required=True, help="guiding model checkpoint")
    d.add_argument("--k", type=int, default=1)
    d.add_argument("--beam-width", type=int, default=1, help="1 = greedy search")
    d.add_argument("--out", required=True, help="redacted corpus JSONL")
    d.add_argument("--sidecar", help="per-document result JSONL")
    d.add_argument("--mask-mode", choices=["replace", "delete", "collapse"], default="replace")
    d.add_argument("--include-stopwords", action="store_true")
    d.add_argument("--stopwords-file")
    d.add_argument("--limit", type=int)

    b = sub.add_parser("baseline", help="redact with an unsupervised baseline")
    b.add_argument("--corpus", required=True)
    b.add_argument("--method", choices=["lexical", "idf", "idf-table", "ner"], required=True)
    b.add_argument("--idf-threshold", type=float, default=2.0)
    b.add_argument("--tags-file", help="per-token entity tags for the ner method")
    b.add_argument("--out", required=True)
    b.add_argument("--sidecar")
    b.add_argument("--mask-mode", choices=["replace", "delete", "collapse"], default="replace")
    b.add_argument("--limit", type=int)

    e = sub.add_parser("evaluate", help="ensemble reidentification + utility of a redaction")
    e.add_argument("--corpus", required=True, help="original corpus (profile store)")
    e.add_argument("--redacted", required=True, help="redacted JSONL with mask vectors")
    e.add_argument("--models", nargs="*", default=[], help="neural member checkpoints")
    e.add_argument("--bm25", action="store_true", help="add a BM25 member")
    e.add_argument("--bm25-k1", type=float, default=1.5)
    e.add_argument("--bm25-b", type=float, default=0.75)
    e.add_argument("--report", help="write the ensemble report JSON here")
    e.add_argument("--utility", help="write the utility report JSON here")
    e.add_argument("--sidecar", help="sidecar JSONL from deidentify")
    e.add_argument("--success-only", action="store_true", help="keep only success=true records")

    s = sub.add_parser("sweep", help="privacy/utility curve over a control parameter")
    s.add_argument("--corpus", required=True)
    s.add_argument(
        "--method", choices=["greedy", "beam", "idf", "idf-table", "lexical", "ner"], required=True
    )
    s.add_argument("--controls", type=float, nargs="+", default=[1.0])
    s.add_argument("--model", help="guiding checkpoint for greedy/beam")
    s.add_argument("--models", nargs="*", default=[], help="ensemble member checkpoints")
    s.add_argument("--bm25", action="store_true")
    s.add_argument("--bm25-k1", type=float, default=1.5)
    s.add_argument("--bm25-b", type=float, default=0.75)
    s.add_argument("--beam-width", type=int, default=4)
    s.add_argument("--include-stopwords", action="store_true")
    s.add_argument("--limit", type=int)
    s.add_argument("--out", required=True, help="Pareto CSV path")

    st = sub.add_parser("stats", help="corpus summary")
    st.add_argument("--corpus", required=True)

    parser.subcommand_parsers = [t, d, b, e, s, st]
    return parser


def _records_slice(corpus: Corpus, limit: int | None):
    if limit is not None and limit < 1:
        raise ValueError(f"--limit must be >= 1, got {limit}")
    return corpus.records[:limit]


def _stopword_set(args) -> frozenset[str]:
    if getattr(args, "include_stopwords", False):
        return frozenset()
    if getattr(args, "stopwords_file", None):
        return load_stopwords(args.stopwords_file)
    return DEFAULT_STOPWORDS


def _write_redacted(path, corpus, selected, results, mode):
    with open(path, "w", encoding="utf-8") as fh:
        for record, result in zip(selected, results):
            profile = corpus.store.get(record.profile_id)
            row = {
                "id": record.profile_id,
                "document": apply_mask(record.document, result.mask, mode=mode),
                "profile": [[k, v] for k, v in profile.entries],
                "mask": [int(b) for b in result.mask],
                "method": result.method,
                "k": result.k,
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_sidecar(path, selected, results):
    with open(path, "w", encoding="utf-8") as fh:
        for record, result in zip(selected, results):
            fh.write(json.dumps(result.to_json(doc_id=record.profile_id), sort_keys=True) + "\n")


def _build_members(args, store) -> dict:
    members: dict[str, object] = {}
    for path in args.models:
        name = Path(path).stem
        if name in members:
            name = f"{name}:{len(members)}"
        members[name] = NeuralReidentifier.from_checkpoint(path, store, name=name)
    if args.bm25:
        members["bm25"] = Bm25Reidentifier(store, k1=args.bm25_k1, b=args.bm25_b)
    if not members:
        raise ValueError("no ensemble members given (use --models and/or --bm25)")
    return members


def cmd_train(args) -> int:
    corpus = load_corpus(args.corpus)
    config = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        clip_norm=args.clip,
        label_smoothing=args.alpha,
        mask_prior=args.mask_prior,
        embed_dim=args.embed_dim,
        seed=args.seed,
        profile_epochs=args.profile_epochs,
        warmup_epochs=args.warmup_epochs,
        batch_size=args.batch_size,
        hash_buckets=args.hash_buckets,
    )
    log_path = args.log or f"{args.out}.log.csv"
    train(corpus, config, checkpoint_path=args.out, log_path=log_path)
    print(json.dumps({"checkpoint": args.out, "best": f"{args.out}.best", "log": log_path}))
    return 0


def cmd_deidentify(args) -> int:
    corpus = load_corpus(args.corpus)
    selected = _records_slice(corpus, args.limit)
    model = NeuralReidentifier.from_checkpoint(args.model, corpus.store)
    stopwords = _stopword_set(args)
    results = []
    for record in selected:
        true_index = corpus.store.index_of(record.profile_id)
        if args.beam_width > 1:
            result = beam_deidentify(
                model, record.document, true_index, args.k,
                beam_width=args.beam_width, stopwords=stopwords,
            )
        else:
            result = greedy_deidentify(model, record.document, true_index, args.k, stopwords=stopwords)
        results.append(result)
    _write_redacted(args.out, corpus, selected, results, args.mask_mode)
    if args.sidecar:
        _write_sidecar(args.sidecar, selected, results)
    n_success = sum(r.success for r in results)
    print(json.dumps({"documents": len(results), "success": n_success, "out": args.out}))
    return 0


def cmd_baseline(args) -> int:
    corpus = load_corpus(args.corpus)
    selected = _records_slice(corpus, args.limit)
    table = compute_idf(corpus) if args.method in ("idf", "idf-table") else None
    tags = load_tag_file(args.tags_file) if args.tags_file else None
    results = []
    for record in selected:
        profile = corpus.store.get(record.profile_id)
        if args.method == "lexical":
            result = lexical_baseline(record.document, profile)
        elif args.method == "idf":
            result = idf_baseline(record.document, table, args.idf_threshold)
        elif args.method == "idf-table":
            result = idf_table_aware_baseline(record.document, profile, table, args.idf_threshold)
        else:
            doc_tags = tags.get(record.profile_id) if tags is not None else None
            if tags is not None and doc_tags is None:
                raise CorpusError(f"no tags for record {record.profile_id!r}")
            result = ner_baseline(record.document, doc_tags)
        results.append(result)
    _write_redacted(args.out, corpus, selected, results, args.mask_mode)
    if args.sidecar:
        _write_sidecar(args.sidecar, selected, results)
    print(json.dumps({"documents": len(results), "method": args.method, "out": args.out}))
    return 0


def cmd_evaluate(args) -> int:
    corpus = load_corpus(args.corpus)
    rows = load_redacted(args.redacted)
    if args.success_only:
        if not args.sidecar:
            raise ValueError("--success-only requires --sidecar")
        success_ids = {
            row["id"] for row in load_redacted_sidecar(args.sidecar) if row.get("success")
        }
        rows = [r for r in rows if r["id"] in success_ids]
    members = _build_members(args, corpus.store)
    records = []
    documents = []
    masks = []
    for row in rows:
        index = corpus.store.index_of(row["id"])
        record = corpus.records[index]
        mask = np.asarray(row["mask"], dtype=np.int8)
        records.append((row["id"], record.document, mask, index))
        documents.append(record.document)
        masks.append(mask)
    report = ensemble_evaluate(members, records)
    out = {"reid": report.to_json()}
    if documents:
        out["utility"] = utility_report(documents, masks).to_json()
    if args.report:
        report.save(args.report)
    if args.utility and documents:
        with open(args.utility, "w", encoding="utf-8") as fh:
            json.dump(out["utility"], fh, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"rate": report.rate, "documents": len(records)}, sort_keys=True))
    return 0


def load_redacted_sidecar(path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def cmd_sweep(args) -> int:
    corpus = load_corpus(args.corpus)
    selected = _records_slice(corpus, args.limit)
    members = _build_members(args, corpus.store)
    stopwords = _stopword_set(args)
    table = compute_idf(corpus) if args.method in ("idf", "idf-table") else None
    guide = None
    if args.method in ("greedy", "beam"):
        if not args.model:
            raise ValueError(f"--model is required for method {args.method!r}")
        guide = NeuralReidentifier.from_checkpoint(args.model, corpus.store)

    records = [
        (rec.profile_id, rec.document, corpus.store.index_of(rec.profile_id)) for rec in selected
    ]

    def redact(i: int, control: float) -> RedactionResult:
        record = selected[i]
        true_index = records[i][2]
        profile = corpus.store.get(record.profile_id)
        if args.method == "greedy":
            return greedy_deidentify(guide, record.document, true_index, int(control), stopwords=stopwords)
        if args.method == "beam":
            return beam_deidentify(
                guide, record.document, true_index, int(control),
                beam_width=args.beam_width, stopwords=stopwords,
            )
        if args.method == "idf":
            return idf_baseline(record.document, table, control)
        if args.method == "idf-table":
            return idf_table_aware_baseline(record.document, profile, table, control)
        if args.method == "lexical":
            return lexical_baseline(record.document, profile)
        return ner_baseline(record.document)

    points = pareto_sweep(args.method, redact, args.controls, records, members)
    write_pareto_csv(points, args.out)
    print(json.dumps({"points": len(points), "out": args.out}))
    return 0


def cmd_stats(args) -> int:
    corpus = load_corpus(args.corpus)
    print(json.dumps(corpus_stats(corpus), sort_keys=True))
    return 0


_COMMANDS = {
    "train": cmd_train,
    "deidentify": cmd_deidentify,
    "baseline": cmd_baseline,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "stats": cmd_stats,
}


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if "--config" in argv:
        try:
            config_path = argv[argv.index("--config") + 1]
        except IndexError:
            parser.error("--config needs a file argument")
        try:
            with open(config_path, encoding="utf-8") as fh:
                defaults = json.load(fh)
        except FileNotFoundError as exc:
            _emit_error("file-not-found", exc)
            return 3
        except json.JSONDecodeError as exc:
            _emit_error("bad-config", exc)
            return 4
        if not isinstance(defaults, dict):
            _emit_error("bad-config", ValueError("config must be a JSON object"))
            return 4
        # subcommands parse into a fresh namespace, so defaults must be set
        # on each subparser for explicit flags to keep precedence
        for sub_parser in parser.subcommand_parsers:
            sub_parser.set_defaults(**defaults)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except CheckpointError as exc:
        _emit_error("checkpoint", exc)
        return 5
    except CorpusError as exc:
        _emit_error("corpus-format", exc)
        return 4
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        _emit_error("file-not-found", exc)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        _emit_error("error", exc)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
