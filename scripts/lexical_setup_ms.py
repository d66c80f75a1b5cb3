"""Lexical set-up timing: milliseconds and peak traced memory of each stage an IDF + BM25 sweep runs first.

Loads the corpus (which linearizes its profile store), builds the IDF table
over documents and profiles and builds the BM25 ranker, timing each stage on
its own: `load_corpus`, `compute_idf` and `Bm25Reidentifier`. Each repeat
starts from a fresh load, and a full collection after the load, untimed,
settles the garbage its paused collector leaves, which would otherwise be
charged to `compute_idf`. One more pass, untimed, runs under `tracemalloc`,
started just before its load, and records each stage's peak traced MB: what
the pass holds at its highest during the stage, earlier stages' results
included. Prints one JSON line with every repeat's milliseconds per stage,
their medians, the traced peaks and the process's peak RSS in MB
(`ru_maxrss`, read before the traced pass), so all come from the same run.
BLAS runs on one thread. `tests/synthdata.py` writes the corpora:
`write_corpus(path, 10000, seed=1)` for repetitive text,
`make_rows=make_distinct_rows` for mostly distinct text.

    PYTHONPATH=src python3 scripts/lexical_setup_ms.py --corpus big.jsonl --repeats 7
"""

import argparse
import gc
import json
import os
import resource
import statistics
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from deident.corpus import compute_idf, load_corpus  # noqa: E402  (imports numpy)
from deident.reid import Bm25Reidentifier  # noqa: E402

STAGES = ("load_corpus", "compute_idf", "bm25")


def one_pass(path: str) -> dict[str, float]:
    seconds = {}
    start = time.perf_counter()
    corpus = load_corpus(path)
    seconds["load_corpus"] = time.perf_counter() - start
    gc.collect()
    start = time.perf_counter()
    compute_idf(corpus)
    seconds["compute_idf"] = time.perf_counter() - start
    start = time.perf_counter()
    Bm25Reidentifier(corpus.store)
    seconds["bm25"] = time.perf_counter() - start
    return {stage: 1e3 * s for stage, s in seconds.items()}


def traced_pass(path: str) -> dict[str, float]:
    peaks = {}

    def traced(stage, build):
        tracemalloc.reset_peak()
        result = build()
        peaks[stage] = round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
        return result

    tracemalloc.start()
    try:
        corpus = traced("load_corpus", lambda: load_corpus(path))
        gc.collect()
        idf = traced("compute_idf", lambda: compute_idf(corpus))
        traced("bm25", lambda: Bm25Reidentifier(corpus.store))  # with the IDF table still held
        del idf
    finally:
        tracemalloc.stop()
    return peaks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    passes = [one_pass(args.corpus) for _ in range(args.repeats)]
    print(json.dumps({
        "repeats": args.repeats,
        "ms": {stage: [round(p[stage], 2) for p in passes] for stage in STAGES},
        "median_ms": {stage: round(statistics.median(p[stage] for p in passes), 2) for stage in STAGES},
        "median_total_ms": round(statistics.median(sum(p.values()) for p in passes), 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "traced_peak_mb": traced_pass(args.corpus),
    }))


if __name__ == "__main__":
    main()
