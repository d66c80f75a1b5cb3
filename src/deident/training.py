"""Training loop for the reidentification encoders.

Documents are corrupted online with a fresh random dropout mask each epoch:
the mask count is drawn uniformly from {0..N}, then that many positions are
chosen without replacement (optionally weighted by IDF). One `draw_masks`
call draws a whole batch's masks from sort keys. Optimization alternates
between the two encoders: even-indexed epochs update the document side
against a fixed profile matrix, odd-indexed epochs update the profile side
on unmasked documents and then rebuild the matrix. After a configurable
budget of profile epochs, only the document side trains.

Targets are label-smoothed one-hot distributions over the full profile
store (no negative sampling). Gradients are computed analytically and
clipped by global norm; updates are plain SGD with linear warmup and decay.
Documents are encoded through `encoder.DenseBags`, a dense (batch x touched
rows) weight matrix built from the batch's concatenated rows, so a doc
batch's forward pass and adjoint are two small GEMMs. The profile store and
the held-out sets are encoded through sparse `Bags` operators, and the
per-epoch profile matrix is `encoder.profile_matrix` of the store's `Bags`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, Vocabulary, _write_csv, compute_idf
from .encoder import (
    Bags,
    DenseBags,
    ModelParams,
    init_params,
    profile_bags,
    profile_matrix,
    rank_of,
    save_checkpoint,
)

MASK_PRIORS = ("uniform", "idf", "off")
# Share of each held-out document masked for the log's heldout_acc_30 column.
HELDOUT_MASK_RATE = 0.3
# The training log's columns, one row per epoch.
LOG_COLUMNS = ("epoch", "phase", "mean_loss", "heldout_acc_0", "heldout_acc_30", "lr",
               "grad_norm_p50", "grad_norm_max", "clip_fraction")


@dataclass
class TrainConfig:
    epochs: int = 60
    learning_rate: float = 2.0
    clip_norm: float = 5.0
    label_smoothing: float = 0.1
    mask_prior: str = "uniform"
    embed_dim: int = 64
    seed: int = 0
    profile_epochs: int = 5
    warmup_epochs: int = 2
    batch_size: int = 32
    heldout_fraction: float = 0.05

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError("clip_norm must be finite and > 0")
        if self.warmup_epochs < 0 or self.profile_epochs < 0:
            raise ValueError("warmup_epochs and profile_epochs must be >= 0")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if self.mask_prior not in MASK_PRIORS:
            raise ValueError(f"mask_prior must be one of {MASK_PRIORS}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 <= self.heldout_fraction < 1.0:
            raise ValueError("heldout_fraction must be in [0, 1)")


def draw_masks(rng: np.random.Generator, lengths, counts=None, weights=None) -> np.ndarray:
    """Dropout masks for a batch, as one 0/1 array over its concatenated positions.

    Document i masks counts[i] positions (uniform on {0..lengths[i]} when
    counts is None): the ones with its largest keys. A key is uniform, or
    log(u) / w under weights w, which draws positions without replacement
    proportional to weight (Efraimidis & Spirakis 2006). Zero-weight
    positions rank after every positive-weight one, in uniform-key order,
    so they fill a count above the positive positions uniformly.

    The ranking is two stable sorts: all positions by descending key, then
    that order by document and zero weight, a key small enough for numpy's
    radix sort. It is the (document, zero weight, descending key) order of
    a three-key `np.lexsort`, ties included, at about a third of its cost.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    counts = rng.integers(0, lengths + 1) if counts is None else np.asarray(counts, dtype=np.int64)
    if np.any(counts < 0) or np.any(counts > lengths):
        raise ValueError(f"counts {counts} out of range for {lengths} positions")
    doc = np.repeat(np.arange(len(lengths)), lengths)
    u = rng.random(len(doc))
    w = np.ones(len(doc)) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != u.shape or np.any(w < 0):
        raise ValueError("weights must be nonnegative, one per position")
    zero = w == 0
    key = np.where(zero, u, np.log(u) / np.where(zero, 1.0, w))
    by_key = np.argsort(-key, kind="stable")
    group = (2 * doc + zero)[by_key].astype(np.min_scalar_type(2 * len(lengths)))
    order = by_key[np.argsort(group, kind="stable")]
    rank = np.arange(len(doc)) - (np.cumsum(lengths) - lengths)[doc]
    mask = np.zeros(len(doc), dtype=np.int8)
    mask[order[rank < counts[doc]]] = 1
    return mask


@dataclass
class Gradients:
    """Sparse gradient of one phase: a projection block plus touched embedding rows."""

    which: str
    proj: np.ndarray
    emb_rows: np.ndarray
    emb_grads: np.ndarray

    def global_norm(self) -> float:
        return float(np.sqrt(np.sum(self.proj**2) + np.sum(self.emb_grads**2)))


def clip_gradients(grads: Gradients, max_norm: float) -> float:
    """Scale grads in place to global norm <= max_norm; returns the pre-clip norm."""
    norm = grads.global_norm()
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        grads.proj *= scale
        grads.emb_grads *= scale
    return norm


def apply_gradients(params: ModelParams, grads: Gradients, lr: float) -> None:
    dtype = params.embeddings.dtype
    if grads.which == "doc":
        params.doc_proj -= (lr * grads.proj).astype(dtype)
    else:
        params.profile_proj -= (lr * grads.proj).astype(dtype)
    if len(grads.emb_rows):
        params.embeddings[grads.emb_rows] -= (lr * grads.emb_grads).astype(dtype)


def _softmax_loss_rows(scores: np.ndarray, true_indices, alpha: float) -> tuple[float, np.ndarray]:
    """Mean cross entropy against label-smoothed targets plus its score gradient (P - T) / B.

    With T = (1 - alpha) * one-hot + alpha / n, a row's loss is
    -(alpha / n) * sum(logp) - (1 - alpha) * logp[true]; neither T nor logp is formed.
    """
    batch, n_profiles = scores.shape
    rows, trues = np.arange(batch), np.asarray(true_indices)
    shifted = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    total = probs.sum(axis=1)
    logz = np.log(total)
    logp_sum = shifted.sum(axis=1) - n_profiles * logz
    loss = float(np.mean(-(alpha / n_profiles) * logp_sum - (1.0 - alpha) * (shifted[rows, trues] - logz)))
    probs /= (batch * total)[:, None]
    probs -= alpha / (n_profiles * batch)
    probs[rows, trues] -= (1.0 - alpha) / batch
    return loss, probs


def doc_batch_gradients(
    params: ModelParams,
    docs: DenseBags,
    true_indices: Sequence[int],
    matrix: np.ndarray,
    alpha: float,
) -> tuple[float, Gradients]:
    """Loss and document-side gradients against a fixed profile matrix."""
    ebar = docs.mean(params.embeddings)
    doc_proj = params.doc_proj.astype(np.float64)
    feats = ebar @ doc_proj
    scores = feats @ matrix.T
    loss, dscores = _softmax_loss_rows(scores, true_indices, alpha)
    dfeats = dscores @ matrix
    dproj = ebar.T @ dfeats
    emb_grads = docs.weights.T @ (dfeats @ doc_proj.T)
    return loss, Gradients(which="doc", proj=dproj, emb_rows=docs.rows, emb_grads=emb_grads)


def profile_batch_gradients(
    params: ModelParams,
    doc_embs: np.ndarray,
    true_indices: Sequence[int],
    profiles: Bags,
    alpha: float,
) -> tuple[float, Gradients]:
    """Loss and profile-side gradients with document embeddings held fixed.

    With W the profile bags, E their embedding rows and P the projection,
    the scores doc_embs @ (W @ E @ P).T are evaluated as (W @ (E @ q.T)).T
    with q = doc_embs @ P.T: the sparse products run at batch width, not
    embedding width, and the profile means are never formed.
    """
    emb = params.embeddings[profiles.rows].astype(np.float64)
    q = doc_embs @ params.profile_proj.astype(np.float64).T
    scores = profiles.forward(emb @ q.T).T
    loss, dscores = _softmax_loss_rows(scores, true_indices, alpha)
    x = profiles.adjoint(dscores.T)
    dproj = emb.T @ (x @ doc_embs)
    return loss, Gradients(which="profile", proj=dproj, emb_rows=profiles.rows, emb_grads=x @ q)


@np.errstate(over="raise", invalid="raise")
def _step(params, docs: DenseBags, true_indices, target, config: TrainConfig, lr: float) -> tuple[float, float]:
    """One clipped SGD update on a document batch; returns the batch loss and pre-clip norm.

    A profile matrix as target trains the document side; the profiles' Bags
    train the profile side. An update that overflows or goes non-finite raises FloatingPointError.
    """
    if isinstance(target, Bags):
        embs = docs.mean(params.embeddings) @ params.doc_proj.astype(np.float64)
        loss, grads = profile_batch_gradients(params, embs, true_indices, target, config.label_smoothing)
    else:
        loss, grads = doc_batch_gradients(params, docs, true_indices, target, config.label_smoothing)
    if not math.isfinite(loss):
        raise FloatingPointError(f"non-finite training loss {loss}")
    norm = clip_gradients(grads, config.clip_norm)
    apply_gradients(params, grads, lr)
    return loss, norm


def _lr_at(config: TrainConfig, epoch: int) -> float:
    peak = config.learning_rate
    warmup = config.warmup_epochs
    if epoch < warmup:
        return peak * (epoch + 1) / warmup
    span = config.epochs - 1 - warmup
    if span <= 0:
        return peak
    t = (epoch - warmup) / span
    return peak * (1.0 - 0.9 * t)


def _accuracy(params: ModelParams, matrix: np.ndarray, docs: Bags | None, true_idx) -> float:
    if docs is None:
        return float("nan")
    scores = (docs.mean(params.embeddings) @ params.doc_proj.astype(np.float64)) @ matrix.T
    hits = sum(rank_of(row, int(t)) == 1 for row, t in zip(scores, true_idx))
    return hits / len(true_idx)


def train(
    corpus: Corpus,
    config: TrainConfig,
    checkpoint_path: str | Path | None = None,
    log_path: str | Path | None = None,
) -> ModelParams:
    """Train encoders on an aligned corpus.

    Writes the final checkpoint to checkpoint_path and the best-heldout one
    to checkpoint_path + ".best" when a path is given; the training log CSV
    goes to log_path. Fully deterministic for a fixed config.
    """
    config.validate()
    if len(corpus.store) < 2:
        raise ValueError("need at least 2 profiles to train")
    rng = np.random.default_rng(config.seed)
    idf = compute_idf(corpus)  # one count gives the vocabulary its terms and an IDF mask prior its weights
    vocab = Vocabulary.from_idf(idf)
    params = init_params(vocab, dim=config.embed_dim, seed=config.seed)
    n = len(corpus.records)
    base_rows = [vocab.indices(rec.document.normalized()) for rec in corpus.records]
    doc_lengths = np.array([len(r) for r in base_rows])
    true_idx = np.array([corpus.store.index_of(rec.profile_id) for rec in corpus.records])
    profiles = profile_bags(vocab, corpus.store)

    idf_weights = [idf.of(rec.document) for rec in corpus.records] if config.mask_prior == "idf" else None

    n_held = 0
    if config.heldout_fraction > 0 and n >= 2:
        n_held = min(n - 1, max(1, int(round(config.heldout_fraction * n))))
    held = np.sort(rng.choice(n, size=n_held, replace=False)) if n_held else np.array([], dtype=int)
    held_set = set(held.tolist())
    train_ids = np.array([i for i in range(n) if i not in held_set])
    held_docs = held_masked = None
    if n_held:
        flat, lengths = np.concatenate([base_rows[i] for i in held]), doc_lengths[held]
        mask = draw_masks(rng, lengths, np.round(HELDOUT_MASK_RATE * lengths))
        held_docs, held_masked = Bags(flat, lengths), Bags(np.where(mask == 1, vocab.mask_index, flat), lengths)

    matrix = profile_matrix(params, profiles)
    best_acc = -1.0
    best_params: ModelParams | None = None
    log_rows: list[list] = []

    for epoch in range(config.epochs):
        lr = _lr_at(config, epoch)
        profile_phase = epoch % 2 == 1 and epoch // 2 < config.profile_epochs
        order = train_ids[rng.permutation(len(train_ids))]
        steps = []
        for start in range(0, len(order), config.batch_size):
            chunk = order[start : start + config.batch_size]
            lengths = doc_lengths[chunk]
            flat = np.concatenate([base_rows[i] for i in chunk])
            if not profile_phase and config.mask_prior != "off":
                weights = None if idf_weights is None else np.concatenate([idf_weights[i] for i in chunk])
                mask = draw_masks(rng, lengths, weights=weights)
                flat = np.where(mask == 1, vocab.mask_index, flat)
            target = profiles if profile_phase else matrix
            steps.append(_step(params, DenseBags(flat, lengths), true_idx[chunk], target, config, lr))
        losses, norms = np.array(steps).T

        eval_matrix = profile_matrix(params, profiles)
        if profile_phase:
            matrix = eval_matrix
        acc0 = _accuracy(params, eval_matrix, held_docs, true_idx[held])
        acc30 = _accuracy(params, eval_matrix, held_masked, true_idx[held])
        phase = "profile" if profile_phase else "doc"
        ordered = np.sort(norms)  # np.median would import numpy.ma, about 1 MB of memory
        p50 = (ordered[(len(ordered) - 1) // 2] + ordered[len(ordered) // 2]) / 2
        grad_stats = [p50, ordered[-1], np.mean(norms > config.clip_norm)]
        log_rows.append([str(epoch + 1), phase, np.mean(losses), acc0, acc30, lr, *grad_stats])
        if n_held and not math.isnan(acc30) and acc30 > best_acc:
            best_acc = acc30
            best_params = params.copy()

    if checkpoint_path is not None:
        save_checkpoint(params, checkpoint_path)
        save_checkpoint(best_params if best_params is not None else params, str(checkpoint_path) + ".best")
    if log_path is not None:
        _write_csv(log_path, LOG_COLUMNS, log_rows)
    return params
