import json
import multiprocessing
import time

import numpy as np
import pytest

from deident.corpus import load_corpus
from deident.reid import Bm25Reidentifier, NeuralReidentifier
from deident.training import TrainConfig, train

from synthdata import make_corpus_rows, write_corpus

# Training recipe for the 1,000-record desk experiments. The acceptance
# criteria depend on all four models being trained to saturation.
DESK_TRAIN = dict(
    epochs=200,
    learning_rate=2.0,
    embed_dim=128,
    profile_epochs=8,
    label_smoothing=0.15,
)

TOY_TRAIN = dict(
    epochs=60,
    learning_rate=2.0,
    embed_dim=64,
    profile_epochs=5,
    label_smoothing=0.1,
    batch_size=4,
)


def store_terms(store) -> list[list[str]]:
    """Each profile's linearized normalized terms, read off the store's term ids and lengths."""
    terms = [store.table.terms[i] for i in store.terms.tolist()]
    ends = np.cumsum(store.lengths).tolist()
    return [terms[end - n : end] for end, n in zip(ends, store.lengths.tolist())]


def idf_counts(idf) -> dict[str, int]:
    """The oracle's {term: df} of an IdfTable: each term it counted, in term-id order, with its count."""
    return {idf.table.terms[t]: d for t, d in enumerate(idf.df.tolist()) if d}


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


@pytest.fixture(scope="session")
def desk_corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("desk") / "desk_corpus.jsonl"
    return write_corpus(path, 1000, seed=0)


@pytest.fixture(scope="session")
def desk_corpus(desk_corpus_path):
    return load_corpus(desk_corpus_path)


# wall-clock cost of building the shared desk models, charged against the
# runtime budgets of the criteria that consume them
DESK_TIMINGS: dict[str, float] = {}


DESK_SEEDS = (0, 1, 2, 3)


def train_desk_model(corpus_path, seed):
    return train(load_corpus(corpus_path), TrainConfig(seed=seed, **DESK_TRAIN))


@pytest.fixture(scope="session")
def desk_models(desk_corpus_path):
    """Four saturated models: seed 0 guides, seeds 1-3 form the ensemble.

    They train in two spawned worker processes with one BLAS thread each,
    which gives the same arrays as training in this process.
    """
    start = time.monotonic()
    # a spawned worker reads the thread count from its environment when numpy loads
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("OPENBLAS_NUM_THREADS", "1")
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            models = pool.starmap(train_desk_model, [(desk_corpus_path, seed) for seed in DESK_SEEDS])
    DESK_TIMINGS["train_all"] = time.monotonic() - start
    return dict(zip(DESK_SEEDS, models))


@pytest.fixture(scope="session")
def desk_guide(desk_corpus, desk_models):
    return NeuralReidentifier(desk_models[0], desk_corpus.store)


@pytest.fixture(scope="session")
def desk_members(desk_corpus, desk_models):
    members = {
        f"nn{seed}": NeuralReidentifier(desk_models[seed], desk_corpus.store)
        for seed in (1, 2, 3)
    }
    members["bm25"] = Bm25Reidentifier(desk_corpus.store)
    return members


@pytest.fixture(scope="session")
def toy_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("toy") / "toy_corpus.jsonl"
    write_jsonl(path, make_corpus_rows(30, seed=11))
    return load_corpus(path)


@pytest.fixture(scope="session")
def toy_model(toy_corpus):
    params = train(toy_corpus, TrainConfig(seed=0, **TOY_TRAIN))
    return NeuralReidentifier(params, toy_corpus.store)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
