"""Training loop for the reidentification encoders.

Documents are corrupted online with a fresh random dropout mask each epoch:
the mask count is drawn uniformly from {0..N}, then that many positions are
chosen without replacement (optionally weighted by IDF). Optimization
alternates between the two encoders: even-indexed epochs update the
document side against a fixed profile matrix, odd-indexed epochs update the
profile side on unmasked documents and then rebuild the matrix. After a
configurable budget of profile epochs, only the document side trains.

Targets are label-smoothed one-hot distributions over the full profile
store (no negative sampling). Gradients are computed analytically and
clipped by global norm; updates are plain SGD with linear warmup and decay.
Batches, the profile store and the held-out set are encoded through sparse
`Bags` operators, whose adjoint gives the embedding gradient per unique row.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, Document, Vocabulary, compute_idf
from .encoder import (
    Bags,
    ModelParams,
    document_row_indices,
    init_params,
    profile_bags,
    rank_of,
    save_checkpoint,
)

logger = logging.getLogger(__name__)

MASK_PRIORS = ("uniform", "idf", "off")


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
    hash_buckets: int = 2**18
    heldout_fraction: float = 0.05
    heldout_mask_rate: float = 0.3

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be > 0")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if self.mask_prior not in MASK_PRIORS:
            raise ValueError(f"mask_prior must be one of {MASK_PRIORS}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.heldout_fraction < 1.0:
            raise ValueError("heldout_fraction must be in [0, 1)")


def random_mask(rng: np.random.Generator, n: int, count: int, weights=None) -> np.ndarray:
    """Mask with exactly `count` ones over n positions.

    Uniform without replacement by default; with weights, positions are
    drawn without replacement proportional to weight. If count exceeds the
    number of positive-weight positions, the remainder is drawn uniformly
    from the zero-weight ones.
    """
    if count < 0 or count > n:
        raise ValueError(f"count {count} out of range for {n} positions")
    mask = np.zeros(n, dtype=np.int8)
    if count == 0:
        return mask
    if weights is None:
        chosen = rng.choice(n, size=count, replace=False)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if len(w) != n or np.any(w < 0):
            raise ValueError("weights must be nonnegative and length n")
        positive = int(np.count_nonzero(w))
        if positive == 0:
            chosen = rng.choice(n, size=count, replace=False)
        elif count <= positive:
            chosen = rng.choice(n, size=count, replace=False, p=w / w.sum())
        else:
            zero_positions = np.flatnonzero(w == 0)
            extra = rng.choice(zero_positions, size=count - positive, replace=False)
            chosen = np.concatenate([np.flatnonzero(w > 0), extra])
    mask[chosen] = 1
    return mask


def sample_mask(rng: np.random.Generator, n: int, prior: str = "uniform", weights=None) -> np.ndarray:
    """Draw a dropout mask: count uniform on {0..n}, positions per prior."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if prior not in MASK_PRIORS:
        raise ValueError(f"unknown mask prior {prior!r}")
    if prior == "off":
        return np.zeros(n, dtype=np.int8)
    count = int(rng.integers(0, n + 1))
    return random_mask(rng, n, count, weights=weights if prior == "idf" else None)


def smoothed_targets(true_index: int, n_classes: int, alpha: float) -> np.ndarray:
    """(1 - alpha) * one-hot + alpha * uniform."""
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must be in [0, 1)")
    if not 0 <= true_index < n_classes:
        raise IndexError("true_index out of range")
    target = np.full(n_classes, alpha / n_classes, dtype=np.float64)
    target[true_index] += 1.0 - alpha
    return target


def cross_entropy(distribution: np.ndarray, target: np.ndarray) -> float:
    """H(target, distribution) = -sum target_i * ln p_i, clamping p at 1e-12."""
    p = np.asarray(distribution, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError("distribution and target lengths differ")
    clamped = (t > 0) & (p < 1e-12)
    if np.any(clamped):
        logger.warning("clamped %d near-zero probabilities in cross_entropy", int(clamped.sum()))
    return float(-(t @ np.log(np.maximum(p, 1e-12))))


@dataclass
class Gradients:
    """Sparse gradient of one phase: a projection block plus touched embedding rows."""

    which: str
    proj: np.ndarray
    emb_rows: np.ndarray
    emb_grads: np.ndarray

    def global_norm(self) -> float:
        return float(np.sqrt(np.sum(self.proj**2) + np.sum(self.emb_grads**2)))

    def dense_embeddings(self, n_rows: int) -> np.ndarray:
        dense = np.zeros((n_rows, self.emb_grads.shape[1]), dtype=np.float64)
        dense[self.emb_rows] = self.emb_grads
        return dense


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
    """Mean cross entropy against label-smoothed targets plus its score gradient (P - T) / B."""
    batch, n_profiles = scores.shape
    targets = np.full((batch, n_profiles), alpha / n_profiles, dtype=np.float64)
    targets[np.arange(batch), np.asarray(true_indices)] += 1.0 - alpha
    shifted = scores - scores.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = float(-(targets * logp).sum(axis=1).mean())
    probs = np.exp(logp)
    dscores = (probs - targets) / batch
    return loss, dscores


def doc_batch_gradients(
    params: ModelParams,
    row_arrays: Sequence[np.ndarray],
    true_indices: Sequence[int],
    matrix: np.ndarray,
    alpha: float,
) -> tuple[float, Gradients]:
    """Loss and document-side gradients against a fixed profile matrix."""
    bags = Bags(row_arrays)
    ebar = bags.mean(params.embeddings)
    doc_proj = params.doc_proj.astype(np.float64)
    feats = ebar @ doc_proj
    scores = feats @ matrix.T
    loss, dscores = _softmax_loss_rows(scores, true_indices, alpha)
    dfeats = dscores @ matrix
    dproj = ebar.T @ dfeats
    emb_grads = bags.adjoint(dfeats @ doc_proj.T)
    return loss, Gradients(which="doc", proj=dproj, emb_rows=bags.rows, emb_grads=emb_grads)


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


def _step(params, rows, true_indices, target, config: TrainConfig, lr: float) -> float:
    """One clipped SGD update from per-record token rows; returns the batch loss.

    A profile matrix as target trains the document side; the profiles' Bags
    train the profile side.
    """
    if isinstance(target, Bags):
        embs = Bags(rows).mean(params.embeddings) @ params.doc_proj.astype(np.float64)
        loss, grads = profile_batch_gradients(params, embs, true_indices, target, config.label_smoothing)
    else:
        loss, grads = doc_batch_gradients(params, rows, true_indices, target, config.label_smoothing)
    if not math.isfinite(loss):
        raise FloatingPointError(f"non-finite training loss {loss}")
    clip_gradients(grads, config.clip_norm)
    apply_gradients(params, grads, lr)
    return loss


def grad_step(
    params: ModelParams,
    batch: Sequence[tuple[Document, np.ndarray | None, int]],
    target,
    which: str,
    config: TrainConfig,
    lr: float | None = None,
) -> tuple[ModelParams, float]:
    """One clipped SGD update on the selected encoder.

    For which="doc", target is the fixed profile matrix and batch masks are
    honored. For which="profile", target is the profiles' `Bags` (or a
    ProfileStore) encoded live, and documents are used unmasked.
    """
    if which not in ("doc", "profile"):
        raise ValueError("which must be 'doc' or 'profile'")
    if which == "doc":
        rows = [document_row_indices(params.vocab, doc, mask) for doc, mask, _ in batch]
        target = np.asarray(target)
    else:
        rows = [document_row_indices(params.vocab, doc) for doc, _, _ in batch]
        if not isinstance(target, Bags):
            target = profile_bags(params.vocab, target)
    lr = config.learning_rate if lr is None else lr
    return params, _step(params, rows, [b[2] for b in batch], target, config, lr)


def _lr_at(config: TrainConfig, epoch: int) -> float:
    peak = config.learning_rate
    warmup = max(0, config.warmup_epochs)
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
    vocab = Vocabulary.from_corpus(corpus, hash_buckets=config.hash_buckets)
    params = init_params(
        vocab, dim=config.embed_dim, seed=config.seed, label_smoothing=config.label_smoothing
    )
    n = len(corpus.records)
    base_rows = [document_row_indices(vocab, rec.document) for rec in corpus.records]
    true_idx = np.array([corpus.store.index_of(rec.profile_id) for rec in corpus.records])
    profiles = profile_bags(vocab, corpus.store)

    idf_weights = None
    if config.mask_prior == "idf":
        table = compute_idf(corpus)
        idf_weights = [
            np.array([table.idf(t) for t in rec.document.normalized()], dtype=np.float64)
            for rec in corpus.records
        ]

    n_held = 0
    if config.heldout_fraction > 0 and n >= 2:
        n_held = min(n - 1, max(1, int(round(config.heldout_fraction * n))))
    held = np.sort(rng.choice(n, size=n_held, replace=False)) if n_held else np.array([], dtype=int)
    held_set = set(held.tolist())
    train_ids = np.array([i for i in range(n) if i not in held_set])
    held_masks = [
        random_mask(rng, len(base_rows[i]), int(round(config.heldout_mask_rate * len(base_rows[i]))))
        for i in held
    ]
    held_docs = Bags([base_rows[i] for i in held]) if n_held else None
    masked = [np.where(m == 1, vocab.mask_index, base_rows[i]) for i, m in zip(held, held_masks)]
    held_masked = Bags(masked) if n_held else None

    def profile_matrix() -> np.ndarray:
        return profiles.mean(params.embeddings) @ params.profile_proj.astype(np.float64)

    matrix = profile_matrix()
    profile_epochs_done = 0
    best_acc = -1.0
    best_params: ModelParams | None = None
    log_rows: list[list] = []

    for epoch in range(config.epochs):
        lr = _lr_at(config, epoch)
        profile_phase = epoch % 2 == 1 and profile_epochs_done < config.profile_epochs
        order = train_ids[rng.permutation(len(train_ids))]
        losses: list[float] = []
        for start in range(0, len(order), config.batch_size):
            chunk = order[start : start + config.batch_size]
            trues = true_idx[chunk]
            rows = [base_rows[i] for i in chunk]
            if not profile_phase:
                for j, i in enumerate(chunk):
                    weights = idf_weights[i] if idf_weights is not None else None
                    mask = sample_mask(rng, len(rows[j]), prior=config.mask_prior, weights=weights)
                    rows[j] = np.where(mask == 1, vocab.mask_index, rows[j])
            losses.append(_step(params, rows, trues, profiles if profile_phase else matrix, config, lr))

        eval_matrix = profile_matrix()
        if profile_phase:
            profile_epochs_done += 1
            matrix = eval_matrix
        acc0 = _accuracy(params, eval_matrix, held_docs, true_idx[held])
        acc30 = _accuracy(params, eval_matrix, held_masked, true_idx[held])
        phase = "profile" if profile_phase else "doc"
        log_rows.append([epoch + 1, phase, np.mean(losses) if losses else math.nan, acc0, acc30, lr])
        if n_held and not math.isnan(acc30) and acc30 > best_acc:
            best_acc = acc30
            best_params = params.copy()

    if checkpoint_path is not None:
        save_checkpoint(params, checkpoint_path)
        save_checkpoint(best_params if best_params is not None else params, str(checkpoint_path) + ".best")
    if log_path is not None:
        write_training_log(log_rows, log_path)
    return params


def write_training_log(rows: Sequence[Sequence], path: str | Path) -> None:
    """CSV with one row per epoch: epoch, phase, then the numeric columns as float reprs."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "phase", "mean_loss", "heldout_acc_0", "heldout_acc_30", "lr"])
        for epoch, phase, *values in rows:
            writer.writerow([epoch, phase, *(repr(float(v)) for v in values)])
