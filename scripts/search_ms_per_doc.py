"""Search-only timing: milliseconds per document of greedy or beam search.

Times one search per document over all the given Ks, as a K sweep runs it,
over the first records of a corpus, after the corpus, the guide and its
profile matrix are loaded, so the figure excludes everything but the
search. A single K times the search `deidentify --k K` runs. The guide is
a checkpoint, or an untrained `init_params` model over the corpus
vocabulary; an untrained guide ranks most true profiles low, so most
searches stop at the depth-0 audit. The records are searched REPEATS times; prints one JSON
line with each pass's ms/doc and their median. BLAS runs on one thread.

    PYTHONPATH=src python3 scripts/search_ms_per_doc.py --corpus big.jsonl \\
        --model guide.ckpt --records 100 --k 1 2 4 8 16 32 64
    PYTHONPATH=src python3 scripts/search_ms_per_doc.py --corpus big.jsonl \\
        --untrained-dim 128 --records 60 --k 64
"""

import argparse
import json
import os
import statistics
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from deident.corpus import Vocabulary, compute_idf, load_corpus  # noqa: E402  (imports numpy)
from deident.deid import _search  # noqa: E402
from deident.encoder import init_params, load_checkpoint  # noqa: E402
from deident.reid import NeuralReidentifier  # noqa: E402
from deident.stopwords import DEFAULT_STOPWORDS  # noqa: E402

REPEATS = 3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True)
    guide = parser.add_mutually_exclusive_group(required=True)
    guide.add_argument("--model", help="guide checkpoint")
    guide.add_argument("--untrained-dim", type=int, help="width of an untrained guide (seed 0)")
    parser.add_argument("--records", type=int, default=100)
    parser.add_argument("--k", type=int, nargs="+", default=[64], help="one or more Ks, searched at once")
    parser.add_argument("--beam-width", type=int, default=1, help="1 = greedy")
    args = parser.parse_args()

    corpus = load_corpus(args.corpus)
    if args.model:
        params = load_checkpoint(args.model)
    else:
        params = init_params(Vocabulary.from_idf(compute_idf(corpus)), dim=args.untrained_dim, seed=0)
    model = NeuralReidentifier(params, corpus.store)
    records = [(r.document, corpus.store.index_of(r.profile_id)) for r in corpus.records[: args.records]]
    method = "greedy" if args.beam_width == 1 else "beam"
    ms_per_doc = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for document, true_index in records:
            _search(model, document, true_index, args.k, args.beam_width, DEFAULT_STOPWORDS, method)
        ms_per_doc.append(1e3 * (time.perf_counter() - start) / len(records))
    print(json.dumps({
        "records": len(records),
        "k": args.k,
        "beam_width": args.beam_width,
        "ms_per_doc": [round(t, 3) for t in ms_per_doc],
        "median_ms_per_doc": round(statistics.median(ms_per_doc), 3),
    }))


if __name__ == "__main__":
    main()
