import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import deident
import deident.cli  # noqa: F401  (the benchmark driver reaches the CLI as deident.cli)
from deident.corpus import Vocabulary, compute_idf, load_corpus
from deident.encoder import init_params, save_checkpoint

from conftest import write_jsonl
from synthdata import make_corpus_rows

ROOT = Path(__file__).resolve().parent.parent
# the package names the README's Library example and the benchmark driver call
USED_NAMES = {"load_corpus", "train", "TrainConfig", "NeuralReidentifier", "greedy_deidentify", "apply_mask", "rank_of"}


def test_readme_and_benchmark_names_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library") :]
    driver = (ROOT / "benchmarks" / "run.py").read_text(encoding="utf-8")
    found = set(re.findall(r"\bdi\.(\w+)", library)) | set(re.findall(r"\bself\.deident\.(\w+)", driver))
    assert USED_NAMES <= found
    missing = sorted(name for name in found if not hasattr(deident, name))
    assert not missing, f"not exported by deident: {missing}"
    # the README's export list names every public name of the package and nothing else
    listed = library[library.index("The package exports exactly these names") :].split("\n\n", 1)[0]
    public = {name for name, value in vars(deident).items() if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(re.findall(r"`(\w+)`", listed)) == public


# Runs CLI commands in a fresh interpreter and prints, as its last line, the
# top-level modules they imported that are neither the standard library's
# nor numpy's nor deident's.
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
from deident.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "deident"})))
"""


def test_cli_runtime_imports_only_the_standard_library_and_numpy(tmp_path):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", make_corpus_rows(6, seed=2))
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(init_params(Vocabulary.from_idf(compute_idf(load_corpus(corpus))), dim=4), checkpoint)
    commands = [
        ["stats", "--corpus", str(corpus)],
        ["deidentify", "--corpus", str(corpus), "--model", str(checkpoint), "--k", "2",
         "--out", str(tmp_path / "redacted.jsonl")],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(run.stdout.strip().splitlines()[-1]) == []
