import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deident.corpus import Profile, ProfileStore, Vocabulary, load_corpus, tokenize
from deident.encoder import (
    Bags,
    build_profile_matrix,
    encode_document,
    init_params,
    profile_bags,
    rank_of,
    score_and_normalize,
)
from deident.training import (
    TrainConfig,
    clip_gradients,
    cross_entropy,
    doc_batch_gradients,
    grad_step,
    profile_batch_gradients,
    random_mask,
    sample_mask,
    smoothed_targets,
    train,
)

from conftest import write_jsonl
from synthdata import make_corpus_rows


# ---------------------------------------------------------------------------
# mask priors
# ---------------------------------------------------------------------------

def test_random_mask_extremes(rng):
    assert random_mask(rng, 6, 0).sum() == 0
    assert random_mask(rng, 6, 6).sum() == 6


def test_sample_mask_off_prior(rng):
    assert sample_mask(rng, 9, prior="off").sum() == 0


def test_sample_mask_count_distribution(rng):
    # mean masked fraction of Uni{0..N} draws is N/2
    n = 20
    fractions = [sample_mask(rng, n).sum() / n for _ in range(10_000)]
    assert abs(float(np.mean(fractions)) - 0.5) <= 0.02


def test_sample_mask_count_uniformity(rng):
    from scipy import stats

    n = 10
    counts = np.zeros(n + 1)
    for _ in range(10_000):
        counts[int(sample_mask(rng, n).sum())] += 1
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01


def test_idf_weighted_mask_prefers_heavy_positions(rng):
    weights = np.array([0.0, 0.0, 10.0, 0.0, 0.1])
    heavy = 0
    draws = 0
    for _ in range(2000):
        mask = sample_mask(rng, 5, prior="idf", weights=weights)
        if mask.sum() >= 1:
            draws += 1
            heavy += int(mask[2] == 1)
    assert heavy / draws > 0.9


def test_idf_weighted_mask_fills_from_zero_weights(rng):
    weights = np.array([0.0, 5.0, 0.0])
    full = random_mask(rng, 3, 3, weights=weights)
    assert full.sum() == 3


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
    vocab = Vocabulary(terms, hash_buckets=4)
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
    _, grads = doc_batch_gradients(params, rows, trues, matrix, alpha)

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
    dense = grads.dense_embeddings(params.vocab.n_rows)
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
    dense = grads.dense_embeddings(params.vocab.n_rows)
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
    _, grads = doc_batch_gradients(params, rows, [b[2] for b in batch], matrix, 0.1)
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

ORACLE_VOCAB = Vocabulary(["a", "b", "c", "d", "e"], hash_buckets=3)
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
    op = Bags([np.array(b) for b in bags])
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
    got_loss, grads = doc_batch_gradients(params, doc_rows, trues, matrix, alpha)
    assert got_loss == pytest.approx(loss, rel=0, abs=1e-12)
    assert np.allclose(grads.proj, ebar.T @ dfeats, rtol=0, atol=1e-12)
    dense = oracle_adjoint(docs, dfeats @ params.doc_proj.T, n_rows)
    assert np.allclose(grads.dense_embeddings(n_rows), dense, rtol=0, atol=1e-12)

    # profile phase with document embeddings held fixed
    doc_embs = rng.standard_normal((len(docs), 4))
    pbar = oracle_forward(store, emb)
    scores = doc_embs @ (pbar @ params.profile_proj).T
    loss, dscores = oracle_softmax_grad(scores, trues, alpha)
    dmatrix = dscores.T @ doc_embs
    bags = Bags([np.array(p) for p in store])
    got_loss, grads = profile_batch_gradients(params, doc_embs, trues, bags, alpha)
    assert got_loss == pytest.approx(loss, rel=0, abs=1e-12)
    assert np.allclose(grads.proj, pbar.T @ dmatrix, rtol=0, atol=1e-12)
    dense = oracle_adjoint(store, dmatrix @ params.profile_proj.T, n_rows)
    assert np.allclose(grads.dense_embeddings(n_rows), dense, rtol=0, atol=1e-12)


def test_bags_reject_empty_bags():
    with pytest.raises(ValueError):
        Bags([])
    with pytest.raises(ValueError):
        Bags([np.array([1]), np.array([], dtype=np.int64)])


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def test_single_epoch_trains_doc_encoder_only(tmp_path, toy_corpus):
    log_path = tmp_path / "log.csv"
    config = TrainConfig(epochs=1, embed_dim=16, hash_buckets=64, seed=0)
    train(toy_corpus, config, log_path=log_path)
    rows = list(csv.DictReader(open(log_path)))
    assert len(rows) == 1
    assert rows[0]["phase"] == "doc"


def test_training_log_schema(tmp_path, toy_corpus):
    log_path = tmp_path / "log.csv"
    config = TrainConfig(epochs=4, embed_dim=16, hash_buckets=64, seed=0)
    train(toy_corpus, config, log_path=log_path)
    rows = list(csv.DictReader(open(log_path)))
    assert len(rows) == 4
    assert list(rows[0]) == ["epoch", "phase", "mean_loss", "heldout_acc_0", "heldout_acc_30", "lr"]
    assert [r["phase"] for r in rows] == ["doc", "profile", "doc", "profile"]
    assert all(float(r["mean_loss"]) > 0 for r in rows)


def test_profile_epoch_budget_respected(tmp_path, toy_corpus):
    log_path = tmp_path / "log.csv"
    config = TrainConfig(epochs=8, embed_dim=16, hash_buckets=64, seed=0, profile_epochs=2)
    train(toy_corpus, config, log_path=log_path)
    phases = [r["phase"] for r in csv.DictReader(open(log_path))]
    assert phases == ["doc", "profile", "doc", "profile", "doc", "doc", "doc", "doc"]


def test_toy_corpus_reaches_perfect_training_accuracy(tmp_path):
    rows = make_corpus_rows(10, seed=21)
    path = write_jsonl(tmp_path / "ten.jsonl", rows)
    corpus = load_corpus(path)
    config = TrainConfig(
        epochs=30, embed_dim=32, hash_buckets=128, seed=0, batch_size=4, heldout_fraction=0.0
    )
    params = train(corpus, config)
    matrix = build_profile_matrix(params, corpus.store)
    for rec in corpus.records:
        emb = encode_document(params, rec.document)
        assert rank_of(matrix @ emb, corpus.store.index_of(rec.profile_id)) == 1


def test_training_is_deterministic(tmp_path, toy_corpus):
    config = TrainConfig(epochs=6, embed_dim=16, hash_buckets=64, seed=9)
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    train(toy_corpus, config, checkpoint_path=a)
    train(toy_corpus, config, checkpoint_path=b)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.ckpt.best").read_bytes() == (tmp_path / "b.ckpt.best").read_bytes()


def test_profile_index_matrix_matches_row_encoding(toy_corpus):
    vocab = Vocabulary.from_corpus(toy_corpus, hash_buckets=64)
    params = init_params(vocab, dim=16, seed=2)
    bags = profile_bags(vocab, toy_corpus.store)
    fast = bags.mean(params.embeddings) @ params.profile_proj.astype(np.float64)
    exact = build_profile_matrix(params, toy_corpus.store)
    assert np.allclose(fast, exact, atol=1e-9)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(label_smoothing=1.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(mask_prior="bert").validate()
