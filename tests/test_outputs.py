"""The committed output manifest: the sha256 of every output of a fixed set of CLI commands.

The commands run through `cli.main` on 300-record `write_corpus` and `make_distinct_rows` corpora (seed 1):
`stats`, the four baselines under two mask modes (`ner` once with a tag file), `train` under the uniform
and IDF priors plus a member, greedy and beam `deidentify`, `evaluate` with neural members, BM25, report
and utility, and IDF, greedy and beam sweeps. Every file they write is hashed, and every stdout with the
temp path replaced by `TMP`. They run in one spawned worker under one BLAS thread, as the desk fixture
trains, so the training logs' grad-norm columns are exact.

numpy's SIMD `exp` and OpenBLAS's kernels change float bits across CPUs and builds, so the manifest's
header records the environment that wrote it, and on another the test skips, naming the fields that
differ. A change that moves an entry rewrites the manifest with

    PYTHONPATH=src python tests/test_outputs.py

and names each changed entry in `CHANGES.md`, with why and the tolerance it claims.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from deident.cli import main
from deident.corpus import load_corpus

from synthdata import make_corpus_rows, make_distinct_rows, write_corpus

MANIFEST = Path(__file__).with_name("outputs.sha256")

CORPORA = {"rep": make_corpus_rows, "distinct": make_distinct_rows}

TRAIN = ["--epochs", "8", "--embed-dim", "16", "--profile-epochs", "2", "--batch-size", "16"]


def environment() -> dict[str, str]:
    """What decides the float bits of the outputs besides the code: numpy, its BLAS and the SIMD it found."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "simd": " ".join(config["SIMD Extensions"]["found"]),
    }


def _commands(root: Path, name: str) -> list[tuple[str, list[str]]]:
    """(output name, argv) of each command on the corpus `name` under root, in the order they run."""
    corpus, out = ["--corpus", str(root / f"{name}.jsonl")], root / "out"

    def path(suffix: str) -> str:
        return str(out / f"{name}.{suffix}")

    commands = [("stats", ["stats", *corpus])]
    for method in ("lexical", "idf", "idf-table", "ner"):
        for mode in ("replace", "collapse"):
            stem = f"{method}.{mode}"
            tags = ["--tags-file", str(root / f"{name}.tags.jsonl")] if (method, mode) == ("ner", "collapse") else []
            commands.append((stem, ["baseline", *corpus, "--method", method, "--idf-threshold", "3.0", *tags,
                                    "--mask-mode", mode, "--out", path(f"{stem}.jsonl"),
                                    "--sidecar", path(f"{stem}.sidecar.jsonl")]))
    guide, idf, member = path("guide.ckpt"), path("idf.ckpt"), path("member.ckpt")
    commands += [
        ("train.guide", ["train", *corpus, "--out", guide, *TRAIN]),
        ("train.idf", ["train", *corpus, "--out", idf, "--mask-prior", "idf", *TRAIN]),
        ("train.member", ["train", *corpus, "--out", member, *TRAIN, "--seed", "1"]),
        ("greedy", ["deidentify", *corpus, "--model", guide, "--k", "16",
                    "--out", path("greedy.jsonl"), "--sidecar", path("greedy.sidecar.jsonl")]),
        ("beam", ["deidentify", *corpus, "--model", guide, "--k", "4", "--beam-width", "2", "--limit", "100",
                  "--mask-mode", "collapse", "--out", path("beam.jsonl"), "--sidecar", path("beam.sidecar.jsonl")]),
        ("evaluate", ["evaluate", *corpus, "--redacted", path("greedy.jsonl"), "--models", idf, member, "--bm25",
                      "--report", path("report.json"), "--utility", path("utility.json")]),
        ("sweep.idf", ["sweep", *corpus, "--method", "idf", "--controls", "2", "3.5", "--bm25",
                       "--out", path("sweep.idf.csv")]),
        ("sweep.greedy", ["sweep", *corpus, "--method", "greedy", "--controls", "8", "2", "8", "--limit", "100",
                          "--model", guide, "--models", member, "--bm25", "--out", path("sweep.greedy.csv")]),
        ("sweep.beam", ["sweep", *corpus, "--method", "beam", "--controls", "4", "1", "--beam-width", "2",
                        "--limit", "100", "--model", guide, "--models", member, "--out", path("sweep.beam.csv")]),
    ]
    return [(f"{name}.{stem}", argv) for stem, argv in commands]


def _tags(corpus_path: Path) -> list[dict]:
    """A tag row per record that no rule tagger would give: every fourth token, from the second, is PER."""
    return [{"id": r.profile_id, "tags": ["PER" if j % 4 == 1 else "O" for j in range(len(r.document))]}
            for r in load_corpus(corpus_path).records]


def outputs() -> dict[str, str]:
    """sha256 of each command's stdout and of each file the commands write, by name, in name order."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "out").mkdir()
        for name, make_rows in CORPORA.items():
            corpus_path = write_corpus(root / f"{name}.jsonl", 300, seed=1, make_rows=make_rows)
            with open(root / f"{name}.tags.jsonl", "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(row) + "\n" for row in _tags(corpus_path))
            for stdout_name, argv in _commands(root, name):
                with contextlib.redirect_stdout(io.StringIO()) as stdout:
                    code = main(argv)
                if code != 0:
                    raise AssertionError(f"{stdout_name}: exit {code}")
                hashes[f"{stdout_name}.stdout"] = _sha256(stdout.getvalue().replace(tmp, "TMP").encode())
        for path in (root / "out").iterdir():
            hashes[path.name] = _sha256(path.read_bytes())
    return dict(sorted(hashes.items()))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def spawned_outputs() -> dict[str, str]:
    """`outputs()` in a spawned worker, which reads the one BLAS thread from its environment as numpy loads."""
    with mock.patch.dict(os.environ, {"OPENBLAS_NUM_THREADS": "1"}):
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            return pool.apply(outputs)


def read_manifest() -> tuple[dict[str, str], dict[str, str]]:
    """(environment, hashes) of the manifest: `# field: value` header lines, then `sha256  name` lines."""
    env, hashes = {}, {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            field, value = line[2:].split(": ", 1)
            env[field] = value
        else:
            digest, name = line.split("  ", 1)
            hashes[name] = digest
    return env, hashes


def write_manifest(hashes: dict[str, str]) -> None:
    header = [f"# {field}: {value}" for field, value in environment().items()]
    MANIFEST.write_text("\n".join(header + [f"{digest}  {name}" for name, digest in hashes.items()]) + "\n",
                        encoding="utf-8")


def test_every_output_matches_the_manifest():
    env, expected = read_manifest()
    differ = [field for field, value in environment().items() if env.get(field) != value]
    if differ:
        pytest.skip(f"the manifest was written under another {', '.join(differ)}: {env}")
    actual = spawned_outputs()
    changed = sorted(name for name in expected.keys() | actual.keys() if expected.get(name) != actual.get(name))
    assert not changed, f"{len(changed)} outputs differ from {MANIFEST.name}: {changed}"


if __name__ == "__main__":
    write_manifest(spawned_outputs())
    print(f"wrote {MANIFEST}", file=sys.stderr)
