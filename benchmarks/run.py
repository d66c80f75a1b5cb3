"""deident benchmark: seeded synthetic corpora driven through `deident.cli.main`.

Run from the repository root:

    python3 benchmarks/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

Each run generates its corpora from `--seed` with `tests/synthdata.py`, calls
the `deident` subcommands in-process (the entry point users run, JSONL and
checkpoint I/O included, interpreter start-up excluded) and checks every
output. It prints an environment header line and, last, the result
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the metrics
are the end-to-end ones, timed with tracing off. With `--trace 1` one
measured round runs untraced and one with the per-layer tracer installed,
the metrics are the per-layer ones, and a line before the result
lists the metrics whose callable no longer exists. See README.md in this
directory for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread on both commits: the measured work is mostly small GEMMs,
# and a second thread buys little on a shared two-core machine while making
# timings noisier. Set before numpy is first imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

from probe import REFERENCE_S, probe_s  # noqa: E402  (imports numpy)

DESK_RECORDS = 1_000
SWEEP_RECORDS = 10_000
SETUP_REPEATS = 3
# The measured phase repeats a round of the workload's commands until
# `--seconds` of command time is measured, and at least MIN_ROUNDS times. A
# throughput is the median over rounds, so a burst of contention from the
# shared host moves at most one of them.
MIN_ROUNDS = 3
CONTROLS = (2.0, 3.0, 4.0)

# `deident train` flags. TRAINEE is the timed training of train-desk, once per
# round; it keeps the 3:1 ratio of doc epochs to profile epochs of a full run.
# GUIDE guides both workloads' searches and is trained in their set-up. MEMBER
# is redact-sweep's adversary, trained once per round.
TRAINEE = ["--epochs", "3", "--embed-dim", "128", "--profile-epochs", "1", "--alpha", "0.15", "--seed", "0"]
GUIDE = ["--epochs", "14", "--embed-dim", "128", "--profile-epochs", "1", "--seed", "0"]
MEMBER = ["--epochs", "14", "--embed-dim", "64", "--profile-epochs", "1", "--seed", "1"]

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_doc_epochs_per_s": "doc-epochs/s",
    "greedy_docs_per_s": "docs/s",
    "beam_docs_per_s": "docs/s",
    "sweep_docs_per_s": "docs/s",
    "success_pct": "%",
    "masked_pct": "%",
    "beam_masked_pct": "%",
    "info_loss_pct": "%",
    "reid_pct": "%",
    "passed_pct": "%",
}

# Traced callables, as <module>.<qualname> in the deident package, and the
# statistics reported for each.
TRACED_STATS = {
    "corpus.load_corpus": ("s",),
    "corpus.compute_idf": ("s",),
    "encoder.build_profile_matrix": ("s", "calls"),
    "encoder.save_checkpoint": ("s",),
    "encoder.load_checkpoint": ("s",),
    "training.train": ("s", "self_s"),
    "training.doc_batch_gradients": ("s", "calls"),
    "training.profile_batch_gradients": ("s", "calls"),
    "training.ProfileEncodingIndex.profile_matrix": ("s", "calls"),
    "training.sample_mask": ("s",),
    "training.clip_gradients": (),
    "deid.greedy_deidentify": ("s", "p50_ms", "p99_ms"),
    "deid.beam_deidentify": ("s", "p50_ms", "p99_ms"),
    "deid.idf_baseline": ("s",),
    "reid.NeuralReidentifier.candidate_true_probs": ("s", "calls", "candidates"),
    "reid.NeuralReidentifier.distribution": ("calls",),
    "reid.NeuralReidentifier.scores": ("s",),
    "reid.Bm25Reidentifier.scores": ("s", "p50_ms", "p99_ms"),
    "reid.Bm25Reidentifier.__init__": ("s",),
    "reid.ensemble_evaluate": ("s",),
    "metrics.pareto_sweep": ("self_s",),
    "metrics.information_loss": ("s",),
}
STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count", "p50_ms": "ms", "p99_ms": "ms"}
EXTRA_UNITS = {"candidates": "count"}  # counters filled by OBSERVERS
COMMANDS = ("stats", "train", "deidentify", "evaluate", "sweep")
DERIVED_UNITS = {
    "training.heldout_acc_30": "fraction",
    "encoder.checkpoint_bytes": "bytes",
    "training.clip_gradients.clipped_share": "fraction",
    "deid.steps": "count",
    "deid.masked_per_candidate": "ratio",
    "reid.Bm25Reidentifier.scores.ms_per_doc_1k": "ms",
    "reid.Bm25Reidentifier.scores.ms_per_doc_10k": "ms",
    **{f"cli.{command}.self_s": "s" for command in COMMANDS},
    "trace_overhead_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    units = {
        f"{key}.{stat}": STAT_UNITS.get(stat) or EXTRA_UNITS[stat]
        for key, stats in TRACED_STATS.items()
        for stat in stats
    }
    units.update(DERIVED_UNITS)
    return units


# -- observers: counters read from a traced call's arguments and result -------


def _count_clipped(stat, args, result):
    stat.add("clipped", float(result > args["max_norm"]))


def _checkpoint_size(stat, args, result):
    stat.add("bytes", os.path.getsize(args["path"]))


def _count_candidates(stat, args, result):
    stat.add("candidates", len(args["candidates"]))


def _bm25_store_size(stat, args, result):
    profiles = len(args["self"].store)
    stat.add(f"calls@{profiles}", 1.0)
    stat.add(f"s@{profiles}", stat.durations[-1])


def _search_result(stat, args, result):
    stat.add("steps", result.steps)
    stat.add("masked", int(sum(result.mask)))


OBSERVERS = {
    "training.clip_gradients": _count_clipped,
    "encoder.save_checkpoint": _checkpoint_size,
    "reid.NeuralReidentifier.candidate_true_probs": _count_candidates,
    "deid.greedy_deidentify": _search_result,
    "deid.beam_deidentify": _search_result,
    "reid.Bm25Reidentifier.scores": _bm25_store_size,
}


class CommandFailed(RuntimeError):
    pass


class Bench:
    """One benchmark run: a work directory, timed commands and their checks."""

    def __init__(self, workdir: Path, deident, tracer, checker):
        self.work = workdir
        self.deident = deident
        self.tracer = tracer
        self.checker = checker
        self.tracing = False
        self.round = 0  # 0 is set-up; measured rounds count from 1
        self.timings: dict[str, list[tuple[int, int, float]]] = defaultdict(list)  # (round, items, wall)
        self.probes: list[float] = []  # probe.py times, taken around every command
        self.quality: dict[str, float] = {}
        self.pending: list = []
        self.corpora: dict[str, object] = {}
        self.guides: dict[str, object] = {}

    @contextlib.contextmanager
    def traced(self):
        """Install the per-layer tracer and time commands as spans."""
        with self.tracer.installed():
            self.tracing = True
            try:
                yield
            finally:
                self.tracing = False

    def timed(self, stage: str, items: int, wall: float) -> None:
        self.timings[stage].append((self.round, items, wall))

    def slowdown(self) -> float:
        """This run's machine speed as the median probe time over REFERENCE_S (above 1: slower)."""
        return statistics.median(self.probes) / REFERENCE_S

    def path(self, name: str) -> str:
        return str(self.work / name)

    def corpus(self, name: str, records: int, seed: int) -> str:
        from synthdata import write_corpus

        return str(write_corpus(self.path(f"{name}.jsonl"), records, seed=seed))

    def cli(self, *argv: str) -> float:
        """Run one subcommand in-process, probing the machine around it; returns its wall time."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # start every command from the same collector state
        self.probes.append(probe_s())
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracing else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                code = self.deident.cli.main(list(argv))
        except Exception as exc:  # a crash inside the program fails the run, not the benchmark
            raise CommandFailed(f"deident {argv[0]} raised {type(exc).__name__}: {exc}") from exc
        wall = time.perf_counter() - start
        if code != 0:
            raise CommandFailed(f"deident {argv[0]} exited {code}: {err.getvalue().strip()}")
        self.probes.append(probe_s())
        return wall

    def loaded(self, corpus: str):
        """The corpus as the program reads it, for checking outputs (untimed)."""
        if corpus not in self.corpora:
            self.corpora[corpus] = self.deident.load_corpus(corpus)
        return self.corpora[corpus]

    def guide(self, model: str, corpus: str):
        """The guide model for certificate audits, loaded once per checkpoint."""
        path = self.path(f"{model}.ckpt")
        if path not in self.guides:
            store = self.loaded(corpus).store
            self.guides[path] = self.deident.NeuralReidentifier.from_checkpoint(path, store)
        return self.guides[path]

    def records(self, corpus: str, limit: int | None):
        loaded = self.loaded(corpus)
        chosen = loaded.records[:limit] if limit else loaded.records
        return [(r.profile_id, r.document, loaded.store.index_of(r.profile_id)) for r in chosen]

    # -- commands ----------------------------------------------------------

    def stats(self, corpus: str) -> float:
        """Median wall time of SETUP_REPEATS `stats` runs."""
        return statistics.median(self.cli("stats", "--corpus", corpus) for _ in range(SETUP_REPEATS))

    def train(self, corpus: str, records: int, model: str, flags: list[str], throughput: bool = True) -> float:
        """Train `model`; its time counts toward train_doc_epochs_per_s if `throughput`."""
        out = self.path(f"{model}.ckpt")
        log = f"{out}.log.csv"
        wall = self.cli("train", "--corpus", corpus, "--out", out, "--log", log, *flags)
        self.guides.pop(out, None)
        epochs = int(flags[flags.index("--epochs") + 1])
        if throughput:
            self.timed("train", records * epochs, wall)

        def check():
            from checks import check_training, final_heldout_acc

            failures = check_training(log, out, epochs)
            self.quality.setdefault("heldout_acc_30", final_heldout_acc(log))
            return failures

        self.pending.append(("train", records, check, records))
        return wall

    def deidentify(self, corpus, model, kind, k, limit, beam_width=1):
        out, sidecar = self.path(f"{kind}.jsonl"), self.path(f"{kind}.sidecar.jsonl")
        argv = ["deidentify", "--corpus", corpus, "--model", self.path(f"{model}.ckpt"),
                "--k", str(k), "--out", out, "--sidecar", sidecar]
        if beam_width > 1:
            argv += ["--beam-width", str(beam_width)]
        if limit:
            argv += ["--limit", str(limit)]
        wall = self.cli(*argv)
        docs = limit or len(self.loaded(corpus).records)
        self.timed(kind, docs, wall)

        def check():
            from checks import check_redaction, redaction_summary, tamper_self_check

            records = self.records(corpus, limit)
            guide = self.guide(model, corpus)
            rank_of = self.deident.rank_of
            failures = check_redaction(out, sidecar, records, guide, rank_of, k)
            tamper = tamper_self_check(sidecar, records, guide, rank_of, k)
            if tamper:
                failures["tamper self-check"] = tamper
            summary = redaction_summary(sidecar)
            if kind == "greedy":
                self.quality.update(summary)
            else:
                self.quality["beam_masked_pct"] = summary["masked_pct"]
            return failures

        self.pending.append((kind, docs, check, 1))

    def evaluate(self, corpus, redacted, models):
        report, utility = self.path("report.json"), self.path("utility.json")
        argv = ["evaluate", "--corpus", corpus, "--redacted", self.path(f"{redacted}.jsonl"),
                "--report", report, "--utility", utility]
        argv += ["--bm25", "--models", *[self.path(f"{m}.ckpt") for m in models]]
        wall = self.cli(*argv)
        with open(self.path(f"{redacted}.jsonl"), encoding="utf-8") as fh:
            docs = sum(1 for line in fh if line.strip())
        self.timed("evaluate", docs, wall)

        def check():
            from checks import check_evaluation

            n_profiles = len(self.loaded(corpus).store)
            failures = check_evaluation(report, utility, self.path(f"{redacted}.jsonl"), n_profiles)
            with open(report, encoding="utf-8") as fh:
                self.quality["reid_pct"] = float(json.load(fh)["rate"])
            with open(utility, encoding="utf-8") as fh:
                self.quality["info_loss_pct"] = float(json.load(fh)["information_loss"])
            return failures

        self.pending.append(("evaluate", docs, check, 1))

    def sweep(self, corpus, limit):
        out = self.path("pareto.csv")
        wall = self.cli("sweep", "--corpus", corpus, "--method", "idf", "--bm25", "--limit", str(limit),
                        "--controls", *[repr(c) for c in CONTROLS], "--out", out)
        self.timed("sweep", limit * len(CONTROLS), wall)

        def check():
            from checks import check_pareto

            return check_pareto(out, "idf", list(CONTROLS))

        self.pending.append(("sweep", limit * len(CONTROLS), check, limit))

    def run_checks(self) -> None:
        for what, attempted, check, weight in self.pending:
            self.checker.run(what, attempted, check, weight)
        self.pending.clear()


# -- workloads ---------------------------------------------------------------
#
# Each workload has a set-up and a measured round. Every end-to-end metric must
# be measured on every workload, so each round runs every stage; the stages a
# workload is not about run at a small size. README.md gives the reasons.


class TrainDesk:
    """Training is most of each round; the other stages run small.

    A three-epoch trainee is too weak to guide a search, so set-up trains
    the guide redact-sweep uses. The searches run with redact-sweep's K and
    beam width, on fewer documents.
    """

    def __init__(self, bench: Bench, seed: int):
        self.b = bench
        self.desk = bench.corpus("desk", DESK_RECORDS, seed)
        self.big = bench.corpus("sweep", SWEEP_RECORDS, seed)

    def setup(self) -> float:
        return self.b.stats(self.desk) + self.b.train(self.desk, DESK_RECORDS, "guide", GUIDE, throughput=False)

    def measured(self) -> None:
        b = self.b
        b.train(self.desk, DESK_RECORDS, "trainee", TRAINEE)
        b.deidentify(self.desk, "guide", "greedy", k=64, limit=100)
        b.deidentify(self.desk, "guide", "beam", k=8, limit=60, beam_width=4)
        b.evaluate(self.desk, "greedy", models=["trainee"])
        b.sweep(self.big, limit=10)


class RedactSweep:
    """Search, evaluation and the 10k BM25 sweep are most of each round.

    The adversary member is trained in each round and gives the training
    throughput, as train-desk's trainee does. The guide's training is in
    set-up only.
    """

    def __init__(self, bench: Bench, seed: int):
        self.b = bench
        self.desk = bench.corpus("desk", DESK_RECORDS, seed)
        self.big = bench.corpus("sweep", SWEEP_RECORDS, seed)

    def setup(self) -> float:
        b = self.b
        return b.stats(self.desk) + b.train(self.desk, DESK_RECORDS, "guide", GUIDE, throughput=False)

    def measured(self) -> None:
        b = self.b
        b.train(self.desk, DESK_RECORDS, "member", MEMBER)
        b.deidentify(self.desk, "guide", "greedy", k=64, limit=200)
        b.deidentify(self.desk, "guide", "beam", k=8, limit=100, beam_width=4)
        b.evaluate(self.desk, "greedy", models=["member"])
        b.sweep(self.big, limit=10)


WORKLOADS = {"train-desk": TrainDesk, "redact-sweep": RedactSweep}


# -- metrics -----------------------------------------------------------------


def rate(timings: list[tuple[int, int, float]]) -> float:
    """Items per second of wall time of a stage: the median over rounds of each round's rate."""
    rounds: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for round_, items, wall in timings:
        rounds[round_][0] += items
        rounds[round_][1] += wall
    return statistics.median(items / wall for items, wall in rounds.values())


def end_to_end(bench: Bench, setup_s: float, checker) -> dict[str, float]:
    """The end-to-end metrics; times are in reference time (probe.py)."""
    slowdown = bench.slowdown()
    values = {
        "setup_s": setup_s / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_doc_epochs_per_s": rate(bench.timings["train"]) * slowdown,
        "greedy_docs_per_s": rate(bench.timings["greedy"]) * slowdown,
        "beam_docs_per_s": rate(bench.timings["beam"]) * slowdown,
        "sweep_docs_per_s": rate(bench.timings["sweep"]) * slowdown,
        "passed_pct": 100.0 * (checker.attempted - checker.failed) / max(1, checker.attempted),
        **bench.quality,
    }
    # a quality figure is missing only when its output failed its check
    return {name: values.get(name, 0.0) for name in E2E_UNITS}


def wall_time_rates(bench: Bench, setup_s: float, rounds: int) -> dict[str, float]:
    """The timing metrics in plain wall time, with the probe's median, for the record."""
    return {
        "setup_s": setup_s,
        **{f"{stage}_per_s": rate(bench.timings[stage]) for stage in sorted(bench.timings)},
        "probe_s": statistics.median(bench.probes),
        "probes": len(bench.probes),
        "rounds": rounds,
    }


def per_layer(tracer, heldout_acc_30: float, overhead_pct: float) -> tuple[dict[str, float], list[str]]:
    values: dict[str, float] = {}
    absent: set[str] = set()
    stats = tracer.stats
    for key, names in TRACED_STATS.items():
        stat = stats[key]
        for name in names:
            metric = f"{key}.{name}"
            if key in tracer.absent or (name not in STAT_UNITS and stat.observer_failed):
                absent.add(metric)
                values[metric] = 0.0
            elif name == "s":
                values[metric] = stat.total_s
            elif name == "self_s":
                values[metric] = stat.self_s
            elif name == "calls":
                values[metric] = float(stat.calls)
            elif name == "p50_ms":
                values[metric] = stat.percentile_ms(50)
            elif name == "p99_ms":
                values[metric] = stat.percentile_ms(99)
            else:
                values[metric] = stat.extra.get(name, 0.0)

    def derived(metric: str, keys: list[str], compute) -> None:
        if any(k in tracer.absent or stats[k].observer_failed for k in keys):
            absent.add(metric)
            values[metric] = 0.0
        else:
            values[metric] = float(compute(*[stats[k] for k in keys]))

    searches = ["deid.greedy_deidentify", "deid.beam_deidentify"]
    derived("encoder.checkpoint_bytes", ["encoder.save_checkpoint"],
            lambda s: s.extra.get("bytes", 0.0) / max(1, s.calls))
    derived("training.clip_gradients.clipped_share", ["training.clip_gradients"],
            lambda s: s.extra.get("clipped", 0.0) / max(1, s.calls))
    derived("deid.steps", searches, lambda g, b: g.extra.get("steps", 0.0) + b.extra.get("steps", 0.0))
    derived("deid.masked_per_candidate", [*searches, "reid.NeuralReidentifier.candidate_true_probs"],
            lambda g, b, c: (g.extra.get("masked", 0.0) + b.extra.get("masked", 0.0))
            / max(1.0, c.extra.get("candidates", 0.0)))
    for profiles, suffix in ((DESK_RECORDS, "1k"), (SWEEP_RECORDS, "10k")):
        derived(f"reid.Bm25Reidentifier.scores.ms_per_doc_{suffix}", ["reid.Bm25Reidentifier.scores"],
                lambda s, n=profiles: 1000.0 * s.extra.get(f"s@{n}", 0.0) / max(1.0, s.extra.get(f"calls@{n}", 0.0)))
    for command in COMMANDS:
        stat = stats.get(f"cli.{command}")
        values[f"cli.{command}.self_s"] = stat.self_s if stat else 0.0
    values["training.heldout_acc_30"] = heldout_acc_30
    values["trace_overhead_pct"] = overhead_pct
    units = per_layer_units()
    return {name: values[name] for name in units}, sorted(absent)


# -- environment and entry point ----------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(np, workload: str, seed: int) -> dict:
    blas = None
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def import_program():
    """Import deident and the corpus generator from this checkout only."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "deident" / "__init__.py").is_file() or not (tests / "synthdata.py").is_file():
        raise ImportError(f"no deident sources under {ROOT}")
    sys.path[:0] = [str(src), str(tests)]
    import deident
    import deident.cli  # noqa: F401  (the entry point the benchmark drives)

    if src.resolve() not in Path(deident.__file__).resolve().parents:
        raise ImportError(f"deident imported from {deident.__file__}, not from {src}")
    return deident


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        deident = import_program()
    except ImportError as exc:
        print(f"benchmark: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    from checks import Checker
    from tracer import Tracer

    print(json.dumps({"env": environment(np, args.workload, args.seed)}), flush=True)
    checker = Checker()
    tracer = Tracer({key: OBSERVERS.get(key) for key in TRACED_STATS})
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workdir, deident, tracer, checker)
        workload = WORKLOADS[args.workload](bench, args.seed)
        metrics, error = run_workload(bench, workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    correct = error is None and checker.failed == 0 and checker.attempted > 0
    if not correct:
        for problem in ([error] if error else []) + checker.problems[:20]:
            print(f"benchmark: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_workload(bench: Bench, workload, args):
    """Set up, run the measured rounds, check outputs; returns (metrics, error)."""
    units = per_layer_units() if args.trace else E2E_UNITS
    try:
        if args.trace:
            with bench.traced():
                workload.setup()
            bench.run_checks()
            untraced = timed_round(bench, workload)
            with bench.traced():
                traced = timed_round(bench, workload)
            bench.run_checks()
            overhead = 100.0 * (traced - untraced) / untraced
            values, absent = per_layer(bench.tracer, bench.quality.get("heldout_acc_30", 0.0), overhead)
            print(json.dumps({"absent": absent}), flush=True)
        else:
            setup_s = workload.setup()
            bench.run_checks()
            measured, rounds = 0.0, 0
            while measured < args.seconds or rounds < MIN_ROUNDS:
                measured += timed_round(bench, workload)
                rounds += 1
            values = end_to_end(bench, setup_s, bench.checker)
            print(json.dumps({"wall_time": wall_time_rates(bench, setup_s, rounds)}), flush=True)
    except CommandFailed as exc:
        bench.checker.record("command", 1, {"run": str(exc)})
        return {name: {"value": 0.0, "unit": unit} for name, unit in units.items()}, str(exc)
    return {name: {"value": values[name], "unit": units[name]} for name in units}, None


def timed_round(bench: Bench, workload) -> tuple[float, float]:
    """One measured round, then its checks; returns the summed wall time of its commands."""
    bench.round += 1
    workload.measured()
    walls = [wall for stage in bench.timings.values() for round_, _, wall in stage if round_ == bench.round]
    if not bench.tracing:
        bench.run_checks()
    return sum(walls)


if __name__ == "__main__":
    sys.exit(main())
