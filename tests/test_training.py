import collections
import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deident import training
from deident.corpus import Profile, ProfileStore, Vocabulary, compute_idf, load_corpus, tokenize
from deident.encoder import (
    Bags,
    build_profile_matrix,
    init_params,
    profile_bags,
    profile_matrix,
    rank_of,
    save_checkpoint,
)
from deident.training import (
    TrainConfig,
    clip_gradients,
    doc_batch_gradients,
    draw_masks,
    profile_batch_gradients,
    train,
)

from conftest import write_jsonl
from oracles import (
    cross_entropy,
    dense_bags,
    dense_embeddings,
    encode_document,
    grad_step,
    lexsort_draw_masks,
    score_and_normalize,
    smoothed_targets,
)
from synthdata import make_corpus_rows


# ---------------------------------------------------------------------------
# mask priors
# ---------------------------------------------------------------------------

def test_random_mask_extremes(rng):
    assert draw_masks(rng, [6], [0]).sum() == 0
    assert draw_masks(rng, [6], [6]).sum() == 6


def test_sample_mask_off_prior(tmp_path, monkeypatch):
    # under mask_prior="off" no doc batch draws a dropout mask; the held-out
    # set's fixed-count masks are the only draw
    corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", make_corpus_rows(12, seed=1)))
    calls = []

    def spy(rng, lengths, counts=None, weights=None):
        calls.append("held-out" if counts is not None else "doc batch")
        return draw_masks(rng, lengths, counts, weights)

    monkeypatch.setattr(training, "draw_masks", spy)
    # 2 held-out and 10 training records: one doc epoch of 3 batches, then a profile epoch
    for prior, draws in {"uniform": ["held-out"] + ["doc batch"] * 3, "off": ["held-out"]}.items():
        calls.clear()
        train(corpus, TrainConfig(epochs=2, embed_dim=8, batch_size=4, heldout_fraction=0.2, mask_prior=prior))
        assert calls == draws


def test_heldout_masks_are_drawn_over_the_heldout_ids_in_ascending_order(tmp_path, monkeypatch):
    # document i holds i + 1 words, so the held-out draw's lengths name the documents it masks, in its order
    rows = [{"id": f"r{i}", "document": " ".join(f"w{j}" for j in range(i + 1)), "profile": [["name", f"p{i}"]]}
            for i in range(20)]
    corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))
    seen = []

    def spy(rng, lengths, counts=None, weights=None):
        seen.append(np.asarray(lengths).tolist())
        return draw_masks(rng, lengths, counts, weights)

    monkeypatch.setattr(training, "draw_masks", spy)
    config = TrainConfig(epochs=1, embed_dim=4, batch_size=8, heldout_fraction=0.25, seed=3)
    train(corpus, config)
    drawn = np.random.default_rng(config.seed).choice(20, size=5, replace=False)  # train's first draw
    assert (drawn + 1).tolist() != sorted(drawn + 1)  # the draw's own order would differ
    assert seen[0] == (np.sort(drawn) + 1).tolist()


def test_idf_prior_training_counts_idf_once(tmp_path, monkeypatch):
    # one IdfTable gives the vocabulary its terms and the IDF mask prior its weights
    corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", make_corpus_rows(12, seed=1)))
    tables = []
    monkeypatch.setattr(training, "compute_idf", lambda c: tables.append(compute_idf(c)) or tables[-1])
    params = train(corpus, TrainConfig(epochs=2, embed_dim=8, batch_size=4, heldout_fraction=0.2, mask_prior="idf"))
    assert len(tables) == 1
    assert params.vocab.terms == Vocabulary.from_idf(compute_idf(corpus)).terms


def test_sample_mask_count_distribution(rng):
    # mean masked fraction of Uni{0..N} draws is N/2
    n = 20
    fractions = [draw_masks(rng, [n]).sum() / n for _ in range(10_000)]
    assert abs(float(np.mean(fractions)) - 0.5) <= 0.02


def test_sample_mask_count_uniformity(rng):
    from scipy import stats

    n = 10
    counts = np.zeros(n + 1)
    for _ in range(10_000):
        counts[int(draw_masks(rng, [n]).sum())] += 1
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01


def test_idf_weighted_mask_prefers_heavy_positions(rng):
    weights = np.array([0.0, 0.0, 10.0, 0.0, 0.1])
    heavy = 0
    draws = 0
    for _ in range(2000):
        mask = draw_masks(rng, [5], weights=weights)
        if mask.sum() >= 1:
            draws += 1
            heavy += int(mask[2] == 1)
    assert heavy / draws > 0.9


def test_idf_weighted_mask_fills_from_zero_weights(rng):
    weights = np.array([0.0, 5.0, 0.0])
    full = draw_masks(rng, [3], [3], weights=weights)
    assert full.sum() == 3


def sequential_subset_probs(weights, count):
    """Exact P(mask = S) for `count` sequential draws without replacement.

    Each draw takes position i with probability w_i / (weight left), summed
    over the orderings of S; once no positive weight is left, the draw is
    uniform over the positions left.
    """
    probs = {}
    for ordering in itertools.permutations(range(len(weights)), count):
        p, left = 1.0, set(range(len(weights)))
        for i in ordering:
            total = sum(weights[j] for j in left)
            p *= weights[i] / total if total > 0 else 1.0 / len(left)
            left.remove(i)
        key = sum(1 << i for i in ordering)
        probs[key] = probs.get(key, 0.0) + p
    return probs


@pytest.mark.parametrize(
    "weights",
    [
        [1.0, 1.0, 1.0, 1.0, 1.0],
        [0.3, 1.2, 2.5, 0.7, 4.0],
        [0.0, 2.0, 0.0, 0.5, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ],
    ids=["uniform", "idf", "some-zero", "all-zero"],
)
def test_draw_masks_matches_sequential_subset_law(weights):
    from scipy import stats

    n, draws = len(weights), 20_000
    rng = np.random.default_rng(7)
    for count in range(n + 1):
        exact = sequential_subset_probs(weights, count)
        # the uniform case runs without weights, as the uniform prior does
        w = None if weights[0] == 1.0 else np.tile(weights, draws)
        masks = draw_masks(rng, [n] * draws, [count] * draws, w).reshape(draws, n)
        observed = collections.Counter((masks.astype(np.int64) << np.arange(n)).sum(axis=1).tolist())
        support = [key for key, p in exact.items() if p > 0]
        assert set(observed) <= set(support)
        if len(support) > 1:
            expected = [draws * exact[key] for key in support]
            result = stats.chisquare([observed[key] for key in support], expected)
            assert result.pvalue > 1e-3, (count, result)


def test_draw_masks_counts_per_document(rng):
    lengths = [1, 4, 2, 7, 3]
    counts = [1, 0, 2, 5, 3]
    mask = draw_masks(rng, lengths, counts, weights=rng.uniform(0, 2, sum(lengths)))
    assert [int(m.sum()) for m in np.split(mask, np.cumsum(lengths)[:-1])] == counts
    drawn = draw_masks(rng, lengths)
    sums = [int(m.sum()) for m in np.split(drawn, np.cumsum(lengths)[:-1])]
    assert all(0 <= s <= n for s, n in zip(sums, lengths))
    with pytest.raises(ValueError):
        draw_masks(rng, [3], [4])
    with pytest.raises(ValueError):
        draw_masks(rng, [3], [1], weights=[1.0, -1.0, 1.0])


class TiedRandom:
    """A generator whose uniforms take three values, so that sort keys tie."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def integers(self, *args):
        return self._rng.integers(*args)

    def random(self, size):
        return self._rng.choice([0.25, 0.5, 0.75], size)


@settings(max_examples=100, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 12), min_size=1, max_size=200),
    weighting=st.sampled_from(["none", "positive", "some-zero", "all-zero"]),
    counting=st.sampled_from(["drawn", "none", "all", "some"]),
    tied=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(lengths=[5], weighting="all-zero", counting="all", tied=True, seed=0)
@example(lengths=[3, 0, 4], weighting="some-zero", counting="none", tied=False, seed=1)
def test_draw_masks_matches_the_lexsort_draw_bit_for_bit(lengths, weighting, counting, tied, seed):
    # up to 200 documents, so that the document key needs more than 8 bits
    rng = np.random.default_rng(seed + 1)
    n = sum(lengths)
    weights = {
        "none": None,
        "positive": rng.choice([0.5, 1.0, 2.0], n),
        "some-zero": rng.choice([0.0, 0.5, 2.0], n),
        "all-zero": np.zeros(n),
    }[weighting]
    counts = {
        "drawn": None,
        "none": np.zeros(len(lengths), dtype=np.int64),
        "all": np.array(lengths),
        "some": rng.integers(0, np.array(lengths) + 1),
    }[counting]
    make = TiedRandom if tied else np.random.default_rng
    got = draw_masks(make(seed), lengths, counts, weights)
    assert got.tobytes() == lexsort_draw_masks(make(seed), lengths, counts, weights).tobytes()


# ---------------------------------------------------------------------------
# targets and loss
# ---------------------------------------------------------------------------

def test_smoothed_targets_zero_alpha_is_one_hot():
    target = smoothed_targets(1, 3, 0.0)
    assert np.array_equal(target, [0.0, 1.0, 0.0])


def test_smoothed_targets_known_values():
    target = smoothed_targets(2, 4, 0.1)
    assert target == pytest.approx([0.025, 0.025, 0.925, 0.025], abs=1e-15)


def test_smoothed_targets_sum_and_extremes(rng):
    for _ in range(20):
        n = int(rng.integers(2, 40))
        alpha = float(rng.uniform(0, 0.99))
        idx = int(rng.integers(n))
        target = smoothed_targets(idx, n, alpha)
        assert target.sum() == pytest.approx(1.0, abs=1e-12)
        assert target.min() == pytest.approx(alpha / n, abs=1e-15)
        assert target[idx] == pytest.approx(1 - alpha + alpha / n, abs=1e-15)


def test_cross_entropy_uniform():
    dist = np.full(4, 0.25)
    assert cross_entropy(dist, smoothed_targets(0, 4, 0.3)) == pytest.approx(math.log(4), abs=1e-12)


def test_cross_entropy_perfect_one_hot():
    dist = np.array([0.0, 1.0, 0.0])
    target = np.array([0.0, 1.0, 0.0])
    assert cross_entropy(dist, target) == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_matches_summation_oracle(rng):
    for _ in range(20):
        dist = rng.dirichlet(np.ones(5))
        target = smoothed_targets(int(rng.integers(5)), 5, 0.1)
        expected = -sum(t * math.log(p) for t, p in zip(target, dist))
        assert cross_entropy(dist, target) == pytest.approx(expected, abs=1e-9)


def test_cross_entropy_clamps_zero_probability():
    dist = np.array([1.0, 0.0])
    target = np.array([0.5, 0.5])
    value = cross_entropy(dist, target)
    assert math.isfinite(value)
    assert value >= 0.5 * -math.log(1e-12) * 0.99


def test_loss_lower_bound_is_target_entropy(rng):
    for _ in range(30):
        n = int(rng.integers(2, 12))
        target = smoothed_targets(int(rng.integers(n)), n, float(rng.uniform(0, 0.9)))
        dist = rng.dirichlet(np.ones(n))
        entropy = -sum(t * math.log(t) for t in target if t > 0)
        assert cross_entropy(dist, target) >= entropy - 1e-9
    target = smoothed_targets(0, 5, 0.2)
    entropy = -sum(t * math.log(t) for t in target)
    assert cross_entropy(target, target) == pytest.approx(entropy, abs=1e-12)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def toy_setup(seed=0, dim=8, n_profiles=5, n_records=10):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    profiles = ProfileStore(
        [
            Profile(id=f"p{i}", entries=(("name", f"{words[i]} {words[i + 5]}"),))
            for i in range(n_profiles)
        ]
    )
    terms = sorted({"name", ":", "|", *words})
    vocab = Vocabulary(terms)
    params = init_params(vocab, dim=dim, seed=seed, dtype=np.float64)
    batch = []
    for _ in range(n_records):
        tokens = " ".join(words[int(rng.integers(len(words)))] for _ in range(6))
        doc = tokenize(tokens)
        mask = (rng.random(len(doc)) < 0.3).astype(np.int8)
        batch.append((doc, mask, int(rng.integers(n_profiles))))
    return params, profiles, batch


def fd_gradient(forward, array, h=1e-4):
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + h
        up = forward()
        array[idx] = original - h
        down = forward()
        array[idx] = original
        grad[idx] = (up - down) / (2 * h)
        it.iternext()
    return grad


def max_rel_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_doc_gradients_match_finite_differences():
    params, profiles, batch = toy_setup()
    matrix = build_profile_matrix(params, profiles)
    alpha = 0.1
    rows = [
        np.where(mask == 1, params.vocab.mask_index, params.vocab.indices(doc.normalized()))
        for doc, mask, _ in batch
    ]
    trues = [b[2] for b in batch]
    _, grads = doc_batch_gradients(params, dense_bags(rows), trues, matrix, alpha)

    def forward():
        # independent composition: per-record encode -> softmax -> cross entropy
        losses = []
        for (doc, mask, true_index) in batch:
            emb = encode_document(params, doc, mask)
            dist = score_and_normalize(emb, matrix)
            losses.append(cross_entropy(dist, smoothed_targets(true_index, len(profiles), alpha)))
        return float(np.mean(losses))

    fd_emb = fd_gradient(forward, params.embeddings)
    fd_proj = fd_gradient(forward, params.doc_proj)
    dense = dense_embeddings(grads, params.vocab.n_rows)
    assert max_rel_error(dense, fd_emb) < 1e-3
    assert max_rel_error(grads.proj, fd_proj) < 1e-3
    # profile projection is untouched in the document phase
    fd_pproj = fd_gradient(forward, params.profile_proj)
    assert np.max(np.abs(fd_pproj)) < 1e-9


def test_profile_gradients_match_finite_differences():
    params, profiles, batch = toy_setup(seed=1)
    alpha = 0.1
    bags = profile_bags(params.vocab, profiles)
    doc_embs = np.stack([encode_document(params, doc, None) for doc, _, _ in batch])
    trues = [b[2] for b in batch]
    _, grads = profile_batch_gradients(params, doc_embs, trues, bags, alpha)

    def forward():
        matrix = build_profile_matrix(params, profiles)
        losses = []
        for emb, (_, _, true_index) in zip(doc_embs, batch):
            dist = score_and_normalize(emb, matrix)
            losses.append(cross_entropy(dist, smoothed_targets(true_index, len(profiles), alpha)))
        return float(np.mean(losses))

    fd_emb = fd_gradient(forward, params.embeddings)
    fd_proj = fd_gradient(forward, params.profile_proj)
    dense = dense_embeddings(grads, params.vocab.n_rows)
    assert max_rel_error(dense, fd_emb) < 1e-3
    assert max_rel_error(grads.proj, fd_proj) < 1e-3


def test_clipping_post_norm_bound(rng):
    params, profiles, batch = toy_setup(seed=2)
    params.embeddings *= 20.0  # inflate gradients well past the clip bound
    matrix = build_profile_matrix(params, profiles)
    rows = [
        np.where(mask == 1, params.vocab.mask_index, params.vocab.indices(doc.normalized()))
        for doc, mask, _ in batch
    ]
    _, grads = doc_batch_gradients(params, dense_bags(rows), [b[2] for b in batch], matrix, 0.1)
    before = grads.global_norm()
    clip_gradients(grads, 0.5)
    assert before > 0.5
    assert grads.global_norm() <= 0.5 + 1e-6


def test_grad_step_zero_learning_rate():
    params, profiles, batch = toy_setup(seed=3)
    matrix = build_profile_matrix(params, profiles)
    snapshot = params.copy()
    config = TrainConfig(label_smoothing=0.1)
    _, loss = grad_step(params, batch, matrix, "doc", config, lr=0.0)
    assert math.isfinite(loss) and loss > 0
    assert np.array_equal(params.embeddings, snapshot.embeddings)
    assert np.array_equal(params.doc_proj, snapshot.doc_proj)


def test_grad_step_reduces_loss_over_steps():
    params, profiles, batch = toy_setup(seed=4)
    matrix = build_profile_matrix(params, profiles)
    config = TrainConfig(label_smoothing=0.0, clip_norm=5.0)
    _, initial = grad_step(params, batch, matrix, "doc", config, lr=0.0)
    final = initial
    for _ in range(50):
        _, final = grad_step(params, batch, matrix, "doc", config, lr=0.5)
    assert final < initial


def test_grad_step_profile_phase_updates_profile_side():
    params, profiles, batch = toy_setup(seed=5)
    snapshot = params.copy()
    config = TrainConfig(label_smoothing=0.1)
    _, loss = grad_step(params, batch, profiles, "profile", config, lr=0.1)
    assert math.isfinite(loss)
    assert np.array_equal(params.doc_proj, snapshot.doc_proj)
    assert not np.array_equal(params.profile_proj, snapshot.profile_proj)


# ---------------------------------------------------------------------------
# the sparse bag-of-rows operator against a scatter-add oracle
# ---------------------------------------------------------------------------

ORACLE_VOCAB = Vocabulary(["a", "b", "c", "d", "e"])
ORACLE_ROWS = st.integers(0, ORACLE_VOCAB.n_rows - 1)
# a bag is any multiset of rows (repeats, single tokens) or a fully masked document
ORACLE_BAG = st.one_of(
    st.lists(ORACLE_ROWS, min_size=1, max_size=9),
    st.integers(1, 6).map(lambda n: [ORACLE_VOCAB.mask_index] * n),
)


def oracle_forward(bags, x):
    """W @ x with x indexed by vocabulary row, one position at a time."""
    out = np.zeros((len(bags), x.shape[1]))
    for b, rows in enumerate(bags):
        np.add.at(out, np.full(len(rows), b), x[rows] / len(rows))
    return out


def oracle_adjoint(bags, y, n_rows):
    """W.T @ y as a dense table over all vocabulary rows."""
    out = np.zeros((n_rows, y.shape[1]))
    for b, rows in enumerate(bags):
        np.add.at(out, rows, np.repeat(y[b : b + 1] / len(rows), len(rows), axis=0))
    return out


def oracle_softmax_grad(scores, trues, alpha):
    targets = np.stack([smoothed_targets(int(t), scores.shape[1], alpha) for t in trues])
    probs = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    loss = float(np.mean([cross_entropy(p, t) for p, t in zip(probs, targets)]))
    return loss, (probs - targets) / len(trues)


@settings(max_examples=60, deadline=None)
@given(
    bags=st.lists(ORACLE_BAG, min_size=1, max_size=7),
    width=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
@example(bags=[[0], [0, 0, 1], [ORACLE_VOCAB.mask_index] * 3], width=2, seed=0)
def test_bags_products_match_scatter_oracle(bags, width, seed):
    rng = np.random.default_rng(seed)
    op = Bags(np.concatenate(bags), [len(b) for b in bags])
    assert np.array_equal(op.rows, np.unique(np.concatenate(bags)))
    x = rng.standard_normal((ORACLE_VOCAB.n_rows, width))
    assert np.allclose(op.forward(x[op.rows]), oracle_forward(bags, x), rtol=0, atol=1e-12)
    y = rng.standard_normal((len(bags), width))
    dense = oracle_adjoint(bags, y, ORACLE_VOCAB.n_rows)
    assert np.allclose(op.adjoint(y), dense[op.rows], rtol=0, atol=1e-12)
    untouched = np.setdiff1d(np.arange(ORACLE_VOCAB.n_rows), op.rows)
    assert not dense[untouched].any()


@settings(max_examples=40, deadline=None)
@given(
    docs=st.lists(ORACLE_BAG, min_size=1, max_size=6),
    store=st.lists(ORACLE_BAG, min_size=2, max_size=5),
    seed=st.integers(0, 2**16),
    alpha=st.sampled_from([0.0, 0.1]),
)
@example(docs=[[ORACLE_VOCAB.mask_index] * 4, [2]], store=[[0, 1], [1, 1]], seed=1, alpha=0.1)
def test_batch_gradients_match_scatter_oracle(docs, store, seed, alpha):
    params = init_params(ORACLE_VOCAB, dim=4, seed=seed, dtype=np.float64)
    emb = params.embeddings
    n_rows = ORACLE_VOCAB.n_rows
    rng = np.random.default_rng(seed)
    trues = rng.integers(len(store), size=len(docs))
    doc_rows = [np.array(d) for d in docs]

    # document phase against a fixed profile matrix
    matrix = rng.standard_normal((len(store), 4))
    ebar = oracle_forward(docs, emb)
    scores = ebar @ params.doc_proj @ matrix.T
    loss, dscores = oracle_softmax_grad(scores, trues, alpha)
    dfeats = dscores @ matrix
    got_loss, grads = doc_batch_gradients(params, dense_bags(doc_rows), trues, matrix, alpha)
    assert got_loss == pytest.approx(loss, rel=0, abs=1e-12)
    assert np.allclose(grads.proj, ebar.T @ dfeats, rtol=0, atol=1e-12)
    dense = oracle_adjoint(docs, dfeats @ params.doc_proj.T, n_rows)
    assert np.allclose(dense_embeddings(grads, n_rows), dense, rtol=0, atol=1e-12)

    # profile phase with document embeddings held fixed
    doc_embs = rng.standard_normal((len(docs), 4))
    pbar = oracle_forward(store, emb)
    scores = doc_embs @ (pbar @ params.profile_proj).T
    loss, dscores = oracle_softmax_grad(scores, trues, alpha)
    dmatrix = dscores.T @ doc_embs
    bags = Bags(np.concatenate(store), [len(p) for p in store])
    got_loss, grads = profile_batch_gradients(params, doc_embs, trues, bags, alpha)
    assert got_loss == pytest.approx(loss, rel=0, abs=1e-12)
    assert np.allclose(grads.proj, pbar.T @ dmatrix, rtol=0, atol=1e-12)
    dense = oracle_adjoint(store, dmatrix @ params.profile_proj.T, n_rows)
    assert np.allclose(dense_embeddings(grads, n_rows), dense, rtol=0, atol=1e-12)


def test_bags_reject_empty_bags():
    with pytest.raises(ValueError):
        Bags(np.array([], dtype=np.int64), [])
    with pytest.raises(ValueError):
        Bags(np.array([1]), [1, 0])


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def test_single_epoch_trains_doc_encoder_only(tmp_path, toy_corpus):
    log_path = tmp_path / "log.csv"
    config = TrainConfig(epochs=1, embed_dim=16, seed=0)
    train(toy_corpus, config, log_path=log_path)
    rows = list(csv.DictReader(open(log_path)))
    assert len(rows) == 1
    assert rows[0]["phase"] == "doc"


def test_training_log_schema(tmp_path, toy_corpus):
    log_path = tmp_path / "log.csv"
    config = TrainConfig(epochs=4, embed_dim=16, seed=0)
    train(toy_corpus, config, log_path=log_path)
    rows = list(csv.DictReader(open(log_path)))
    assert len(rows) == 4
    assert list(rows[0]) == [
        "epoch", "phase", "mean_loss", "heldout_acc_0", "heldout_acc_30", "lr",
        "grad_norm_p50", "grad_norm_max", "clip_fraction",
    ]
    assert [r["phase"] for r in rows] == ["doc", "profile", "doc", "profile"]
    assert all(float(r["mean_loss"]) > 0 for r in rows)


def test_training_log_gradient_columns(tmp_path, toy_corpus, monkeypatch):
    norms = []

    def recording_clip(grads, max_norm):
        norms.append(clip_gradients(grads, max_norm))
        return norms[-1]

    monkeypatch.setattr(training, "clip_gradients", recording_clip)
    log_path = tmp_path / "log.csv"
    # an even number of batches per epoch, and a clip bound some of them exceed
    config = TrainConfig(epochs=4, embed_dim=16, seed=0, batch_size=5, clip_norm=0.5)
    train(toy_corpus, config, log_path=log_path)
    rows = list(csv.DictReader(open(log_path)))
    per_epoch = np.array(norms).reshape(len(rows), -1)
    assert per_epoch.shape[1] % 2 == 0
    fractions = [float(row["clip_fraction"]) for row in rows]
    assert all(0.0 <= f <= 1.0 for f in fractions) and any(0.0 < f < 1.0 for f in fractions)
    for row, epoch_norms in zip(rows, per_epoch):
        assert float(row["grad_norm_p50"]) == np.median(epoch_norms)
        assert float(row["grad_norm_max"]) == epoch_norms.max()
        assert float(row["clip_fraction"]) == np.mean(epoch_norms > config.clip_norm)


def test_training_log_lr_follows_warmup_then_linear_decay(tmp_path, toy_corpus):
    log_path = tmp_path / "log.csv"
    config = TrainConfig(epochs=8, embed_dim=8, seed=0, learning_rate=1.5, warmup_epochs=3)
    train(toy_corpus, config, log_path=log_path)
    lrs = [float(row["lr"]) for row in csv.DictReader(open(log_path))]
    warmup, last = config.warmup_epochs, config.epochs - 1
    expected = [1.5 * (e + 1) / warmup if e < warmup else 1.5 * (1 - 0.9 * (e - warmup) / (last - warmup))
                for e in range(config.epochs)]
    assert lrs == pytest.approx(expected, rel=1e-12, abs=0)
    assert lrs[warmup - 1] == 1.5 and lrs[-1] == pytest.approx(0.15, rel=1e-12)


def test_best_checkpoint_holds_the_first_epoch_with_the_highest_masked_accuracy(tmp_path, toy_corpus, monkeypatch):
    # each epoch's parameters, as its held-out evaluation's profile_matrix call sees them (the first call is set-up)
    seen = []

    def capturing(params, profiles):
        seen.append(params.copy())
        return profile_matrix(params, profiles)

    monkeypatch.setattr(training, "profile_matrix", capturing)
    config = TrainConfig(epochs=8, embed_dim=16, seed=0, batch_size=4, heldout_fraction=0.1)
    path, log_path = tmp_path / "model.ckpt", tmp_path / "log.csv"
    train(toy_corpus, config, checkpoint_path=path, log_path=log_path)
    acc30 = [float(row["heldout_acc_30"]) for row in csv.DictReader(open(log_path))]
    epochs = seen[1:]
    assert len(epochs) == config.epochs
    best = [e for e, acc in enumerate(acc30) if acc == max(acc30)]
    assert len(best) >= 2, acc30  # the log ties at its best
    save_checkpoint(epochs[best[0]], tmp_path / "first.ckpt")
    assert (tmp_path / "model.ckpt.best").read_bytes() == (tmp_path / "first.ckpt").read_bytes()
    save_checkpoint(epochs[best[1]], tmp_path / "tied.ckpt")
    assert (tmp_path / "tied.ckpt").read_bytes() != (tmp_path / "first.ckpt").read_bytes()


def test_profile_epoch_budget_respected(tmp_path, toy_corpus):
    log_path = tmp_path / "log.csv"
    config = TrainConfig(epochs=8, embed_dim=16, seed=0, profile_epochs=2)
    train(toy_corpus, config, log_path=log_path)
    phases = [r["phase"] for r in csv.DictReader(open(log_path))]
    assert phases == ["doc", "profile", "doc", "profile", "doc", "doc", "doc", "doc"]


def test_toy_corpus_reaches_perfect_training_accuracy(tmp_path):
    rows = make_corpus_rows(10, seed=21)
    path = write_jsonl(tmp_path / "ten.jsonl", rows)
    corpus = load_corpus(path)
    config = TrainConfig(
        epochs=30, embed_dim=32, seed=0, batch_size=4, heldout_fraction=0.0
    )
    params = train(corpus, config)
    matrix = build_profile_matrix(params, corpus.store)
    for rec in corpus.records:
        emb = encode_document(params, rec.document)
        assert rank_of(matrix @ emb, corpus.store.index_of(rec.profile_id)) == 1


def test_training_is_deterministic(tmp_path, toy_corpus):
    config = TrainConfig(epochs=6, embed_dim=16, seed=9)
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    train(toy_corpus, config, checkpoint_path=a)
    train(toy_corpus, config, checkpoint_path=b)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.ckpt.best").read_bytes() == (tmp_path / "b.ckpt.best").read_bytes()


def test_profile_index_matrix_matches_row_encoding(toy_corpus):
    vocab = Vocabulary.from_idf(compute_idf(toy_corpus))
    params = init_params(vocab, dim=16, seed=2)
    bags = profile_bags(vocab, toy_corpus.store)
    fast = bags.mean(params.embeddings) @ params.profile_proj.astype(np.float64)
    exact = build_profile_matrix(params, toy_corpus.store)
    assert np.array_equal(fast, exact)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(label_smoothing=1.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(mask_prior="bert").validate()
