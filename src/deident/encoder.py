"""Bi-encoder scoring of documents against a profile store.

Documents and profiles share one word-embedding table; each side applies
its own linear projection to the mean of its token embeddings. Masked
document positions contribute the dedicated mask-symbol row instead of
their word row, so a fully masked document encodes identically regardless
of content. Match scores are plain dot products, normalized with a
numerically stable softmax.

Training encodes many documents or profiles at once through `Bags`, a sparse
bags-of-rows matrix whose adjoint maps mean gradients back onto embedding rows.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Document, Profile, ProfileStore, Vocabulary, linearize_profile

CHECKPOINT_VERSION = 1
CHECKPOINT_ARRAYS = ("embeddings", "doc_proj", "profile_proj")


class CheckpointError(ValueError):
    """Raised for unreadable or version-incompatible checkpoints."""


@dataclass
class ModelParams:
    """Trainable arrays plus the vocabulary that indexes them.

    embeddings has one row per vocabulary row (terms, hash buckets, mask
    symbol, padding); doc_proj and profile_proj map the embedding width to
    the output width. A document or profile encodes as the mean of its
    token rows times its side's projection.
    """

    vocab: Vocabulary
    embeddings: np.ndarray
    doc_proj: np.ndarray
    profile_proj: np.ndarray
    label_smoothing: float = 0.0
    version: int = CHECKPOINT_VERSION

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def out_dim(self) -> int:
        return self.doc_proj.shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(
            vocab=self.vocab,
            embeddings=self.embeddings.copy(),
            doc_proj=self.doc_proj.copy(),
            profile_proj=self.profile_proj.copy(),
            label_smoothing=self.label_smoothing,
            version=self.version,
        )


def init_params(
    vocab: Vocabulary,
    dim: int = 64,
    seed: int = 0,
    label_smoothing: float = 0.0,
    dtype: np.dtype = np.float32,
) -> ModelParams:
    """Randomly initialize parameters; deterministic for a fixed seed.

    Embeddings start at unit scale and projections at 1/sqrt(dim); smaller
    embedding scales leave the dot-product scores too flat for SGD to make
    progress through the two projection layers.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    proj_scale = 1.0 / np.sqrt(dim)
    embeddings = rng.standard_normal((vocab.n_rows, dim)).astype(dtype)
    doc_proj = (rng.standard_normal((dim, dim)) * proj_scale).astype(dtype)
    profile_proj = (rng.standard_normal((dim, dim)) * proj_scale).astype(dtype)
    return ModelParams(
        vocab=vocab,
        embeddings=embeddings,
        doc_proj=doc_proj,
        profile_proj=profile_proj,
        label_smoothing=label_smoothing,
    )


def document_row_indices(vocab: Vocabulary, document: Document, mask=None) -> np.ndarray:
    """Embedding-row index per position; masked positions map to the mask row."""
    rows = vocab.indices(document.normalized())
    if mask is not None:
        arr = np.asarray(mask, dtype=np.int8)
        if len(arr) != len(rows):
            raise ValueError("mask length does not match document length")
        rows[arr == 1] = vocab.mask_index
    return rows


def mean_rows(embeddings: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mean of the selected embedding rows, order-insensitive in float.

    Rows are aggregated per unique index so that permuting positions with
    identical content cannot change the result through summation order.
    """
    unique, counts = np.unique(rows, return_counts=True)
    weights = counts.astype(np.float64) / len(rows)
    return weights @ embeddings[unique].astype(np.float64)


class _SegmentSum:
    """out[s] = sum of weight[e] * x[src[e]] over the entries e of segment s, in entry order.

    Entries come grouped by segment, and every segment 0..n-1 has one. With
    segments ranked longest first, those having a j-th entry are a prefix
    of the ranking, so the sums run as one add per entry position (layer).
    Terms are gathered in cache-sized chunks spanning many small layers.
    """

    CHUNK_FLOATS = 2**17

    def __init__(self, seg: np.ndarray, src: np.ndarray, weight: np.ndarray):
        counts = np.bincount(seg)
        self._rank = np.empty_like(counts)
        self._rank[np.argsort(-counts, kind="stable")] = np.arange(len(counts))
        position = np.arange(len(seg)) - (np.cumsum(counts) - counts)[seg]
        order = np.lexsort((self._rank[seg], position))
        self._src, self._weight = src[order], weight[order, None]
        self._layer_ends = np.cumsum(np.bincount(position)).tolist()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((len(self._rank), x.shape[1]))
        chunk = max(1, self.CHUNK_FLOATS // x.shape[1])
        start = lo = hi = 0
        for end in self._layer_ends:
            if end > hi:
                lo, hi = start, min(max(end, start + chunk), len(self._src))
                terms = x[self._src[lo:hi]] * self._weight[lo:hi]
            out[: end - start] += terms[start - lo : end - lo]
            start = end
        return out[self._rank]


class Bags:
    """Sparse bags-of-rows matrix W with W[b, r] = (count of row r in bag b) / len(bag b).

    Row b of W @ E is the token mean of bag b. `rows` lists the touched
    embedding rows in ascending order; `forward(x)` is W @ x for x with one
    row per entry of `rows`, and `adjoint(y)` is W.T @ y, one row per entry
    of `rows`. Only the unique (bag, row, weight) triples are stored, so,
    as in `mean_rows`, permuting a bag's positions cannot change a result.
    They are sorted once by bag and once by row; both products add each
    bag's (or row's) terms in that order, and no dense matrix is built.
    """

    def __init__(self, row_arrays: Sequence[np.ndarray]):
        lengths = np.array([len(r) for r in row_arrays], dtype=np.int64)
        if len(lengths) == 0 or lengths.min() < 1:
            raise ValueError("every bag needs at least one row")
        flat = np.concatenate(row_arrays).astype(np.int64)
        width = int(flat.max()) + 1
        keys = np.repeat(np.arange(len(lengths)), lengths) * width + flat
        pairs, counts = np.unique(keys, return_counts=True)
        bag, row = np.divmod(pairs, width)
        weight = counts / lengths[bag]
        by_row = np.argsort(row, kind="stable")
        first = np.r_[True, row[by_row][1:] != row[by_row][:-1]]
        self.rows = row[by_row][first]
        col = np.empty_like(row)
        col[by_row] = np.cumsum(first) - 1
        self.forward = _SegmentSum(bag, col, weight)
        self.adjoint = _SegmentSum(col[by_row], bag[by_row], weight[by_row])

    def mean(self, embeddings: np.ndarray) -> np.ndarray:
        """Token-mean embedding of every bag, in float64."""
        return self.forward(embeddings[self.rows].astype(np.float64))


def profile_bags(vocab: Vocabulary, store: ProfileStore | Sequence[Profile]) -> Bags:
    """Bags of the linearized profiles, one per profile in store order."""
    return Bags([vocab.indices(linearize_profile(p).normalized()) for p in store])


def encode_document(params: ModelParams, document: Document, mask=None) -> np.ndarray:
    """Embed a (possibly masked) document."""
    rows = document_row_indices(params.vocab, document, mask)
    mean = mean_rows(params.embeddings, rows)
    return mean @ params.doc_proj.astype(np.float64)


def encode_profile(params: ModelParams, profile: Profile) -> np.ndarray:
    """Embed a profile through its linearization; profiles are never masked."""
    linearized = linearize_profile(profile)
    rows = params.vocab.indices(linearized.normalized())
    mean = mean_rows(params.embeddings, rows)
    return mean @ params.profile_proj.astype(np.float64)


def build_profile_matrix(params: ModelParams, store: ProfileStore | Sequence[Profile]) -> np.ndarray:
    """Stack profile embeddings, one row per profile in store order."""
    profiles = list(store)
    if not profiles:
        raise ValueError("profile store is empty")
    return np.stack([encode_profile(params, p) for p in profiles])


def score_and_normalize(doc_emb: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Softmax over dot-product scores, stabilized by max subtraction."""
    scores = matrix.astype(np.float64) @ np.asarray(doc_emb, dtype=np.float64)
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def rank_of(values: np.ndarray, index: int) -> int:
    """1-based rank of values[index] under descending sort.

    Ties are broken in favor of the lower index, so among equal values the
    lowest index ranks first.
    """
    values = np.asarray(values)
    if index < 0 or index >= len(values):
        raise IndexError(f"index {index} out of range for {len(values)} values")
    target = values[index]
    return int(1 + np.sum(values > target) + np.sum(values[:index] == target))


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write a checkpoint: one JSON header line, then raw float32 arrays."""
    arrays = [np.ascontiguousarray(getattr(params, name), dtype="<f4") for name in CHECKPOINT_ARRAYS]
    offsets = np.cumsum([0] + [arr.nbytes for arr in arrays]).tolist()
    manifest = [
        {"name": name, "shape": list(arr.shape), "offset": offset, "bytes": arr.nbytes}
        for name, arr, offset in zip(CHECKPOINT_ARRAYS, arrays, offsets)
    ]
    header = {
        "version": params.version,
        "dim": params.dim,
        "out_dim": params.out_dim,
        "label_smoothing": params.label_smoothing,
        "hash_buckets": params.vocab.hash_buckets,
        "terms": list(params.vocab.terms),
        "arrays": manifest,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for arr in arrays:
            fh.write(arr.data)


def load_checkpoint(path: str | Path) -> ModelParams:
    """Load a checkpoint, rejecting unknown versions and short payloads."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint header in {path}") from exc
        version = header.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version!r} not supported (expected {CHECKPOINT_VERSION})"
            )
        vocab = Vocabulary(header["terms"], hash_buckets=header["hash_buckets"])
        payload, end = fh.tell(), os.fstat(fh.fileno()).st_size
        for spec in header["arrays"]:
            if 4 * math.prod(spec["shape"]) != spec["bytes"]:
                raise CheckpointError(f"array {spec['name']!r} byte count does not match its shape")
            if payload + spec["offset"] + spec["bytes"] > end:
                raise CheckpointError(f"truncated checkpoint payload in {path}")
            out[spec["name"]] = arr = np.empty(spec["shape"], dtype="<f4")
            fh.seek(payload + spec["offset"])
            fh.readinto(arr.data.cast("B"))
    for name in CHECKPOINT_ARRAYS:
        if name not in out:
            raise CheckpointError(f"checkpoint missing array {name!r}")
    if out["embeddings"].shape[0] != vocab.n_rows:
        raise CheckpointError("embedding table does not match vocabulary layout")
    return ModelParams(
        vocab=vocab,
        embeddings=out["embeddings"],
        doc_proj=out["doc_proj"],
        profile_proj=out["profile_proj"],
        label_smoothing=float(header.get("label_smoothing", 0.0)),
        version=version,
    )
