"""Command-line interface.

Subcommands: train, deidentify, baseline, evaluate, sweep, stats. Errors
are emitted as a single JSON object on stderr with distinct exit codes:
2 a command line argparse refuses (`usage`; `-h` still prints help and
exits 0), 3 unreadable file, 4 malformed corpus/redacted/sidecar/tags/stopwords
file or config, 5 checkpoint problems, 1 anything else. A JSON file of flag
defaults can be given with --config (also `--config=FILE` or `--conf FILE`).
It is read after the command line parses, which is then parsed again with
the file's values as the running command's defaults, so explicit flags win.
One file serves every command: a key that names no flag is rejected, a key
that only another command takes is ignored, and a value that the running
command's flag would refuse for its type, choices or number of arguments is
rejected. Each flag is declared once; a `train` flag takes its default and
type from its `TrainConfig` field.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import pickle
import re
import signal
import sys
from pathlib import Path

from .corpus import (
    MASK_MODES,
    CorpusError,
    apply_mask,
    check_mask,
    compute_idf,
    corpus_stats,
    load_corpus,
    load_redacted,
    load_sidecar,
)
from .deid import (
    RedactionResult,
    check_search,
    check_threshold,
    idf_baseline,
    idf_table_aware_baseline,
    lexical_baseline,
    load_tag_file,
    ner_baseline,
    search,
)
from .encoder import CheckpointError
from .metrics import pareto_sweep, utility_report, write_pareto_csv
from .reid import Bm25Reidentifier, NeuralReidentifier, check_bm25, ensemble_evaluate
from .stopwords import DEFAULT_STOPWORDS, load_stopwords
from .training import MASK_PRIORS, TrainConfig, train


class UsageError(Exception):
    """Raised for a command line that argparse refuses."""


class _Parser(argparse.ArgumentParser):
    """Reads `-inf` as a negative number, as argparse reads `-2.5`, not as an unknown option.

    A command line it refuses raises UsageError instead of printing usage text and exiting.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+|inf(inity)?)$", re.IGNORECASE)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# each `train` flag's TrainConfig field, whose default and type the flag takes; heldout_fraction has no flag
_TRAIN_FLAGS = {"epochs": "epochs", "lr": "learning_rate", "clip": "clip_norm", "alpha": "label_smoothing",
                "mask_prior": "mask_prior", "embed_dim": "embed_dim", "seed": "seed",
                "profile_epochs": "profile_epochs", "warmup_epochs": "warmup_epochs", "batch_size": "batch_size"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deident", description="Text deidentification toolkit")
    parser.add_argument("--config", help="JSON file with default values for flags")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=command.__doc__) for name, command in _COMMANDS.items()}
    t, d, b, e, s, _ = commands.values()
    # a flag that several commands take is declared once, by one loop over them
    for p in commands.values():
        p.add_argument("--corpus", required=True, help="corpus JSONL (the profile store)")

    t.add_argument("--out", required=True, help="checkpoint path (final; best gets .best suffix)")
    t.add_argument("--log", help="training log CSV (default: <out>.log.csv)")
    for flag, field in _TRAIN_FLAGS.items():
        default = getattr(TrainConfig, field)
        t.add_argument("--" + flag.replace("_", "-"), type=type(default), default=default, help=f"TrainConfig.{field}",
                       choices=MASK_PRIORS if field == "mask_prior" else None)

    d.add_argument("--model", required=True, help="guiding model checkpoint")
    d.add_argument("--k", type=int, default=1)

    b.add_argument("--method", choices=["lexical", "idf", "idf-table", "ner"], required=True)
    b.add_argument("--idf-threshold", type=float, default=2.0)
    b.add_argument("--tags-file", help="per-token entity tags for the ner method")

    e.add_argument("--redacted", required=True, help="redacted JSONL with mask vectors")
    e.add_argument("--report", help="write the ensemble report JSON here")
    e.add_argument("--utility", help="write the utility report JSON here")
    e.add_argument("--sidecar", help="sidecar JSONL from deidentify")
    e.add_argument("--success-only", action="store_true", help="keep only success=true records")

    s.add_argument("--method", choices=["greedy", "beam", "idf", "idf-table", "lexical", "ner"], required=True)
    s.add_argument("--controls", type=float, nargs="+", default=[1.0])
    s.add_argument("--model", help="guiding checkpoint for greedy/beam")
    s.add_argument("--out", required=True, help="Pareto CSV path")

    # the BM25 and mask-mode defaults are the library's own
    bm25, mask_mode = inspect.signature(Bm25Reidentifier).parameters, inspect.signature(apply_mask).parameters["mode"]
    for p in (d, b):
        p.add_argument("--out", required=True, help="redacted corpus JSONL")
        p.add_argument("--sidecar", help="per-document result JSONL")
        p.add_argument("--mask-mode", choices=MASK_MODES, default=mask_mode.default)
    for p in (d, b, s):
        p.add_argument("--limit", type=int, help="use the first N records only")
    for p, width in ((d, 1), (s, 4)):
        p.add_argument("--beam-width", type=int, default=width, help="1 = greedy search")
        p.add_argument("--include-stopwords", action="store_true")
        p.add_argument("--stopwords-file")
    for p in (e, s):
        p.add_argument("--models", nargs="*", default=[], help="neural member checkpoints")
        p.add_argument("--bm25", action="store_true", help="add a BM25 member")
        p.add_argument("--bm25-k1", type=float, default=bm25["k1"].default)
        p.add_argument("--bm25-b", type=float, default=bm25["b"].default)

    parser.subcommand_parsers = commands
    return parser


class ConfigError(ValueError):
    """Raised for a --config file that is not JSON, not an object, or holds a key or value no flag takes."""


# the JSON values a config may give a flag of each `type`, and how to name them
_CONFIG_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


def _config_value(action: argparse.Action, value):
    """A config value as its flag reads it; a ConfigError if the flag's type, choices or nargs refuse it.

    Null stands for a flag whose default is None; a switch (nargs 0) takes a boolean.
    """
    if value is None and action.default is None:
        return None
    many = action.nargs in ("*", "+")
    if many and not (isinstance(value, list) and (value or action.nargs == "*")):
        need = "a nonempty list" if action.nargs == "+" else "a list"
        raise ConfigError(f"config key {action.dest!r} needs {need}, got {value!r}")
    kinds, what = ((bool,), "true or false") if action.nargs == 0 else _CONFIG_KINDS[action.type or str]
    items = value if many else [value]
    for item in items:
        if isinstance(item, bool) != (bool in kinds) or not isinstance(item, kinds):
            raise ConfigError(f"config key {action.dest!r} needs {what}, got {item!r}")
        if action.choices is not None and item not in action.choices:
            raise ConfigError(f"config key {action.dest!r} must be one of {list(action.choices)}, got {item!r}")
    items = [float(item) for item in items] if action.type is float else items
    return items if many else items[0]


def _with_config(parser: argparse.ArgumentParser, args, argv):
    """Parse argv again with the --config file's values as the running command's defaults."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            defaults = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(exc) from exc
    if not isinstance(defaults, dict):
        raise ConfigError("config must be a JSON object")
    known = {action.dest for sub in parser.subcommand_parsers.values() for action in sub._actions} - {"help"}
    unknown = sorted(set(defaults) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    # subcommands parse into a fresh namespace, so the defaults go on the command's own parser
    sub = parser.subcommand_parsers[args.command]
    sub.set_defaults(**{a.dest: _config_value(a, defaults[a.dest]) for a in sub._actions if a.dest in defaults})
    return parser.parse_args(argv)


def _check_limit(args) -> None:
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be >= 1, got {args.limit}")


def _stopword_set(args) -> frozenset[str]:
    if args.include_stopwords:
        return frozenset()
    return load_stopwords(args.stopwords_file) if args.stopwords_file else DEFAULT_STOPWORDS


def _write_jsonl(path, rows) -> None:
    """Write each row as one line of JSON with sorted keys; a JSON file is a one-row JSONL file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork: the most workers `_forked` runs."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1


def _forked(work, items: list) -> list:
    """[work(item) for item in items], item i done by worker i mod W = min(_cpus(), len(items)). This process is worker
    0 and forks the others; a child's exception is raised here, and a child that exits without its results fails the
    call. Every pipe is closed, and every child killed and reaped, before this returns. At W = 1 nothing is forked."""
    workers, pids, reads = min(_cpus(), len(items)), [], []
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                if (pid := os.fork()) == 0:  # the child sends (True, results) or (False, exception), then exits
                    try:
                        try:
                            sent = True, [work(item) for item in items[w::workers]]
                        except BaseException as exc:
                            sent = False, exc
                        with open(write, "wb") as fh:
                            pickle.dump(sent, fh)
                    finally:
                        os._exit(0)
            finally:
                os.close(write)
            pids.append(pid)
        shares = [[work(item) for item in items[::workers]]]
        for w, read in enumerate(reads, 1):
            with open(read, "rb", closefd=False) as fh:
                try:
                    sent, share = pickle.load(fh)
                except (EOFError, pickle.UnpicklingError):  # cut short: the child died before it sent all
                    raise ChildProcessError(f"search worker {w} of {workers} exited without its results") from None
            if not sent:
                raise share
            shares.append(share)
    finally:
        for read in reads:
            os.close(read)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [shares[i % workers][i // workers] for i in range(len(items))]


def _check_members(args) -> None:
    """Check the ensemble flags, before any file is read."""
    if not (args.models or args.bm25):
        raise ValueError("no ensemble members given (use --models and/or --bm25)")
    check_bm25(args.bm25_k1, args.bm25_b)


def _build_members(args, store) -> dict:
    """Checkpoints named by file stem, then BM25 as `bm25`; a name already taken gains `:N`, N the members before it."""
    named = [(Path(path).stem, NeuralReidentifier.from_checkpoint(path, store)) for path in args.models]
    if args.bm25:
        named.append(("bm25", Bm25Reidentifier(store, k1=args.bm25_k1, b=args.bm25_b)))
    members: dict[str, object] = {}
    for name, member in named:
        while name in members:
            name = f"{name}:{len(members)}"
        members[name] = member
    return members


def _baseline(method, document, profile, table, threshold, tags=None) -> RedactionResult:
    """Run one of the baseline methods (`lexical`, `idf`, `idf-table`, `ner`) on a document; `ner` takes its
    profile's row of the tags, when given, else the rule tagger's."""
    if method == "lexical":
        return lexical_baseline(document, profile)
    if method == "idf":
        return idf_baseline(document, table, threshold)
    if method == "idf-table":
        return idf_table_aware_baseline(document, profile, table, threshold)
    if tags is not None and profile.id not in tags:
        raise CorpusError(f"no tags for record {profile.id!r}")
    return ner_baseline(document, None if tags is None else tags[profile.id])


def _redactions(args, corpus, records, method, controls, stopwords, tags_file=None) -> list[list[RedactionResult]]:
    """Each record's redaction at each control, in order; a record is (id, document, store index).

    A search's controls are Ks, all settled by one search per record in `_forked`'s workers, guided by --model
    at --beam-width for beam and 1 for greedy. A baseline runs once per control, a threshold; a given tags file
    is read whatever the method.
    """
    if method in ("greedy", "beam"):
        guide = NeuralReidentifier.from_checkpoint(args.model, corpus.store)
        ks, width = [int(c) for c in controls], args.beam_width if method == "beam" else 1
        return _forked(lambda r: search(guide, r[1], r[2], ks, width, stopwords), records)
    table = compute_idf(corpus) if method in ("idf", "idf-table") else None
    tags = load_tag_file(tags_file) if tags_file else None
    return [[_baseline(method, document, corpus.store[index], table, c, tags) for c in controls]
            for _, document, index in records]


def _redact(args, corpus, method, control, stopwords=None, tags_file=None) -> list[RedactionResult]:
    """Redact the first --limit records at one control: each one's redacted row goes to --out and, with
    --sidecar, its result's row there."""
    records = [(r.profile_id, r.document, corpus.store.index_of(r.profile_id)) for r in corpus.records[: args.limit]]
    results = [result for result, in _redactions(args, corpus, records, method, [control], stopwords, tags_file)]
    rows = [result.to_json(doc_id=doc_id) for (doc_id, _, _), result in zip(records, results)]
    _write_jsonl(args.out, (
        dict(
            {key: row[key] for key in ("id", "mask", "method", "k")},
            document=apply_mask(document, row["mask"], mode=args.mask_mode),
            profile=corpus.store[index].entries,  # (key, value) tuples write as JSON lists
        )
        for (_, document, index), row in zip(records, rows)
    ))
    if args.sidecar:
        _write_jsonl(args.sidecar, rows)
    return results


def cmd_train(args) -> int:
    """Train a reidentification model."""
    config = TrainConfig(**{field: getattr(args, flag) for flag, field in _TRAIN_FLAGS.items()})
    config.validate()
    corpus = load_corpus(args.corpus)
    log_path = args.log or f"{args.out}.log.csv"
    train(corpus, config, checkpoint_path=args.out, log_path=log_path)
    print(json.dumps({"checkpoint": args.out, "best": f"{args.out}.best", "log": log_path}))
    return 0


def cmd_deidentify(args) -> int:
    """Search for k-anonymizing masks."""
    _check_limit(args)
    check_search([args.k], args.beam_width)
    corpus = load_corpus(args.corpus)
    method = "beam" if args.beam_width > 1 else "greedy"
    results = _redact(args, corpus, method, args.k, _stopword_set(args))
    print(json.dumps({"documents": len(results), "success": sum(r.success for r in results), "out": args.out}))
    return 0


def cmd_baseline(args) -> int:
    """Redact with an unsupervised baseline."""
    _check_limit(args)
    check_threshold(args.idf_threshold)
    results = _redact(args, load_corpus(args.corpus), args.method, args.idf_threshold, tags_file=args.tags_file)
    print(json.dumps({"documents": len(results), "method": args.method, "out": args.out}))
    return 0


def cmd_evaluate(args) -> int:
    """Ensemble reidentification + utility of a redaction."""
    if args.success_only and not args.sidecar:
        raise ValueError("--success-only requires --sidecar")
    _check_members(args)
    corpus = load_corpus(args.corpus)
    rows = load_redacted(args.redacted)
    sidecar = load_sidecar(args.sidecar, rows) if args.sidecar else None
    records = []
    for row in rows:
        try:
            index = corpus.store.index_of(row["id"])
            document = corpus.records[index].document
            mask = check_mask(row["mask"], len(document))
        except (KeyError, ValueError) as exc:
            raise CorpusError(f"redacted row {row['id']!r}: {exc.args[0]}") from exc
        records.append((row["id"], document, mask, index))
    if args.success_only:
        success_ids = {row["id"] for row in sidecar if row["success"]}
        records = [r for r in records if r[0] in success_ids]
    members = _build_members(args, corpus.store)
    report = ensemble_evaluate(members, records)
    if args.report:
        _write_jsonl(args.report, [vars(report)])
    if args.utility:
        documents, masks = [r[1] for r in records], [r[2] for r in records]
        _write_jsonl(args.utility, [vars(utility_report(documents, masks)) if records else None])
    print(json.dumps({"rate": report.rate, "documents": len(records)}, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    """Privacy/utility curve over a control parameter."""
    _check_limit(args)
    by_k = args.method in ("greedy", "beam")
    if by_k:
        if not args.model:
            raise ValueError(f"--model is required for method {args.method!r}")
        bad = [c for c in args.controls if not (c.is_integer() and c >= 1)]
        if bad:
            raise ValueError(f"--controls for method {args.method!r} must be integers K >= 1, got {bad}")
    elif any(math.isnan(c) for c in args.controls):
        raise ValueError(f"--controls for method {args.method!r} must not be NaN")
    ks = [int(c) for c in args.controls] if by_k else [1]  # a baseline's controls are thresholds, not Ks
    check_search(ks, args.beam_width)  # every method checks the width, though only beam runs wider than 1
    _check_members(args)
    corpus = load_corpus(args.corpus)
    members = _build_members(args, corpus.store)
    stopwords = _stopword_set(args)
    records = [(r.profile_id, r.document, corpus.store.index_of(r.profile_id)) for r in corpus.records[: args.limit]]
    results = _redactions(args, corpus, records, args.method, args.controls, stopwords)
    points = pareto_sweep(args.method, args.controls, records, results, members)
    write_pareto_csv(points, args.out)
    print(json.dumps({"points": len(points), "out": args.out}))
    return 0


def cmd_stats(args) -> int:
    """Corpus summary."""
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


# (exception types, error kind, exit code): an error takes the first row that names its type
_ERRORS = (
    ((UsageError,), "usage", 2),
    ((CheckpointError,), "checkpoint", 5),
    ((CorpusError,), "corpus-format", 4),
    ((ConfigError,), "bad-config", 4),
    ((FileNotFoundError, IsADirectoryError, PermissionError), "file-not-found", 3),
    ((ValueError, KeyError, OSError, FloatingPointError), "error", 1),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _with_config(parser, args, argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # -h prints help and exits 0
        return int(exc.code) if exc.code is not None else 0
    except Exception as exc:
        for types, kind, code in _ERRORS:
            if isinstance(exc, types):
                print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
                return code
        raise


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
