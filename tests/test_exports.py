import re
from pathlib import Path

import deident
import deident.cli  # noqa: F401  (the benchmark driver reaches the CLI as deident.cli)

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
