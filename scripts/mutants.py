"""Mutation check: apply each listed one-line edit to a copy of the package and run tier-1 against it.

Each mutant replaces one fragment of one file under `src/deident/`, which must occur there exactly once.
For each, the checkout (without `.git` and caches; the tests also read README.md and `benchmarks/`) is
copied to a temporary directory, the edit is applied to the copy, and tier-1 runs there with `-x`. A mutant
is killed when tier-1 fails; the first failing test is printed beside it. A mutant that survives shows a
promise no test checks, unless the list records why it is equivalent or what decides it. An unmutated copy
runs first and must pass, so that a fault of the copy is not read as a kill. Prints one row per mutant,
then exits 1 if a mutant with no such record survived. Uses the standard library only; it is not part of
tier-1. A full run takes one tier-1 run per mutant at most, plus the unmutated one.

    python3 scripts/mutants.py                      # every mutant
    python3 scripts/mutants.py held-out-unsorted    # the named ones
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/deident/
    old: str
    new: str
    note: str = ""  # why a survivor is equivalent, or what decides it; empty for a mutant tier-1 must kill


MUTANTS = [
    Mutant("idf-np-log", "corpus.py",
           "by_count[d] = math.log((1 + doc_count) / (1 + d))", "by_count[d] = np.log((1 + doc_count) / (1 + d))"),
    Mutant("information-loss-unclamped", "metrics.py",
           "return float(min(100.0, max(0.0, loss)))", "return float(min(100.0, loss))"),
    Mutant("best-keeps-later-tie", "training.py", "acc30 > best_acc:", "acc30 >= best_acc:"),
    Mutant("best-from-final-model", "training.py",
           "save_checkpoint(best_params if best_params is not None else params,", "save_checkpoint(params,"),
    Mutant("lr-decays-to-0.2", "training.py", "return peak * (1.0 - 0.9 * t)", "return peak * (1.0 - 0.8 * t)"),
    Mutant("warmup-one-epoch-late", "training.py",
           "return peak * (epoch + 1) / warmup", "return peak * epoch / warmup"),
    Mutant("idf-ties-descending", "deid.py",
           "key=lambda pair: (-pair[0], pair[1])", "key=lambda pair: (-pair[0], -pair[1])"),
    Mutant("beam-width-2-runs-greedy", "cli.py", "if args.beam_width > 1:", "if args.beam_width > 2:"),
    Mutant("held-out-unsorted", "training.py",
           "held = np.sort(rng.choice(n, size=n_held, replace=False))",
           "held = np.asarray(rng.choice(n, size=n_held, replace=False))"),
    Mutant("beam-ties-by-insertion", "deid.py",
           "sorted(children.values())[:width]", "sorted(children.values(), key=lambda child: child[0])[:width]"),
    Mutant("beam-dedupe-le", "deid.py",
           "child_key not in children or child < children[child_key]",
           "child_key not in children or child <= children[child_key]",
           "equivalent: two children with one key and equal (probability, order) are the same child"),
    Mutant("search-ranks-raw-scores", "deid.py",
           "return scores, rank_of(dist, true_index)", "return scores, rank_of(scores, true_index)",
           "undecided: softmax keeps the order of finite scores unless probabilities round together; "
           "ROADMAP item 10 fixes the rank space"),
    Mutant("empty-k-list-accepted", "deid.py", "if min(ks, default=0) < 1:", "if min(ks, default=1) < 1:"),
    Mutant("profile-accepts-whitespace-value", "corpus.py",
           "if not (key.strip() and str(value).strip()):", "if not (key.strip() and str(value)):"),
    Mutant("bm25-member-overwrites", "cli.py", "while name in members:", 'while name in members and name != "bm25":'),
]


def _copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".hypothesis", ".pytest_cache", ".bench_work")
    shutil.copytree(ROOT, into, ignore=ignore, dirs_exist_ok=True)


def _mutated(mutant: Mutant, root: Path) -> str:
    """The text of the mutant's file under root with its edit applied; SystemExit unless `old` occurs once."""
    text = (root / "src" / "deident" / mutant.file).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant | None) -> tuple[bool, str, float]:
    """(killed, the first failing test, seconds) of tier-1 with -x on a copy carrying the mutant, if any."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        _copy_tree(root)
        if mutant is not None:
            (root / "src" / "deident" / mutant.file).write_text(_mutated(mutant, root), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors"]
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode != 0, failed.group(1) if failed else f"exit {proc.returncode}", seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutants {unknown}; known: {list(by_name)}")
    chosen = [by_name[name] for name in args.names] or MUTANTS
    for mutant in chosen:  # every edit must apply before any tier-1 run
        _mutated(mutant, ROOT)
    broken, first, _ = run(None)
    if broken:
        raise SystemExit(f"tier-1 fails on the unmutated copy ({first}); no mutant can be judged")
    gaps = 0
    print("| mutant | outcome | first failing test or note | s |\n|---|---|---|---|", flush=True)
    for mutant in chosen:
        killed, failed, seconds = run(mutant)
        outcome = "killed" if killed else ("equivalent" if mutant.note.startswith("equivalent") else
                                           "undecided" if mutant.note else "SURVIVED")
        gaps += outcome == "SURVIVED"
        print(f"| {mutant.name} | {outcome} | {failed if killed else mutant.note} | {seconds:.0f} |", flush=True)
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main())
