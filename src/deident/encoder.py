"""Bi-encoder scoring of documents against a profile store.

Documents and profiles share one word-embedding table; each side applies
its own linear projection to the mean of its token embeddings. Masked
document positions contribute the dedicated mask-symbol row instead of
their word row, so a fully masked document encodes identically regardless
of content; a word outside the vocabulary reads as that row too. Match
scores are plain dot products, normalized with a numerically stable
softmax.

Each kind of input has one token-mean product. Both bag operators take their
bags as (flat, lengths): the bags' embedding rows back to back (terms
mapped by `Vocabulary.indices`), and each bag's count of them. A training batch
of documents goes through `DenseBags`, a dense (bag x touched rows) weight
matrix, so the batch is one GEMM. A single document is scored by
`reid.DocumentScorer`, the same product over its distinct rows. Profile
stores, and other sets encoded whole, go through `Bags`, a sparse
bags-of-rows matrix whose rows do not depend on each other; `profile_matrix`
projects its means. `Bags`' forward product adds one entry position of every
bag at a time, over blocks of bags sized to stay in cache. Each operator's
adjoint maps mean gradients back onto embedding rows: `DenseBags`' is one
more GEMM, and `Bags`' is one `np.bincount` per column over its (bag, row,
weight) triples, adding each row's in bag order. All three find their
touched rows with `distinct_rows`, without a sort.

A checkpoint holds the arrays as raw float32 in one layout, `_layout`, fixed
by its header's terms and dimensions; the reader accepts no other.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

from .corpus import ProfileStore, Vocabulary

CHECKPOINT_VERSION = 2
CHECKPOINT_ARRAYS = ("embeddings", "doc_proj", "profile_proj")


class CheckpointError(ValueError):
    """Raised for unreadable or version-incompatible checkpoints."""


@dataclass
class ModelParams:
    """Trainable arrays plus the vocabulary that indexes them.

    embeddings has one row per vocabulary row (terms, then the mask symbol);
    doc_proj and profile_proj map the embedding width to the output width.
    A document or profile encodes as the mean of its token rows times its
    side's projection.
    """

    vocab: Vocabulary
    embeddings: np.ndarray
    doc_proj: np.ndarray
    profile_proj: np.ndarray

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def out_dim(self) -> int:
        return self.doc_proj.shape[1]

    def copy(self) -> "ModelParams":
        return replace(self, **{name: getattr(self, name).copy() for name in CHECKPOINT_ARRAYS})


def init_params(
    vocab: Vocabulary,
    dim: int = 64,
    seed: int = 0,
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
    return ModelParams(vocab=vocab, embeddings=embeddings, doc_proj=doc_proj, profile_proj=profile_proj)


def distinct_rows(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of flat, ascending, and each entry's index among them.

    What `np.unique(flat, return_inverse=True)` returns, found without a
    sort: a table over the rows up to the largest marks the present ones.
    """
    seen = np.zeros(int(flat.max()) + 1, dtype=bool)
    seen[flat] = True
    rows = np.flatnonzero(seen)
    slot = np.empty(len(seen), dtype=np.int64)
    slot[rows] = np.arange(len(rows))
    return rows, slot[flat]


class _SegmentSum:
    """out[s] = sum of weight[e] * x[src[e]] over the entries e of segment s, in entry order.

    Entries come grouped by segment, and every segment 0..n-1 has one. With
    segments ranked longest first, those having a j-th entry are a prefix
    of the ranking, so the sums run one entry position (layer) at a time: a
    gather of the layer's rows of x, an in-place multiply by its weights and
    one add into the output's prefix. The ranking is cut into blocks of
    about BLOCK_FLOATS output floats, and each block runs all its layers
    while its rows stay in cache; no segment's order of additions changes.
    """

    BLOCK_FLOATS = 2**15

    def __init__(self, seg: np.ndarray, src: np.ndarray, weight: np.ndarray):
        counts = np.bincount(seg)
        self._rank = np.empty_like(counts)
        self._rank[np.argsort(-counts, kind="stable")] = np.arange(len(counts))
        position = np.arange(len(seg)) - (np.cumsum(counts) - counts)[seg]
        order = np.lexsort((self._rank[seg], position))
        self._src, self._weight = src[order], weight[order, None]
        sizes = np.bincount(position)
        self._layers = list(zip((np.cumsum(sizes) - sizes).tolist(), sizes.tolist()))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((len(self._rank), x.shape[1]))
        step = max(1, self.BLOCK_FLOATS // x.shape[1])
        for lo in range(0, len(out), step):
            block = out[lo : lo + step]
            for start, size in self._layers:
                if size <= lo:
                    break
                entries = slice(start + lo, start + min(size, lo + step))
                terms = x.take(self._src[entries], axis=0)
                terms *= self._weight[entries]
                block[: len(terms)] += terms
        return out[self._rank]


class Bags:
    """Sparse bags-of-rows matrix W with W[b, r] = (count of row r in bag b) / len(bag b).

    It takes its bags as `DenseBags` does: `flat` holds their embedding rows
    back to back, lengths[b] of them for bag b, each at least one. Row b of
    W @ E is the token mean of bag b. `rows` lists the touched embedding
    rows in ascending order; `forward(x)` is W @ x for x with one row per
    entry of `rows`, and `adjoint(y)` is W.T @ y, one row per entry of
    `rows`. Only the unique (bag, row, weight) triples are stored, so
    permuting a bag's positions cannot change a result. They are kept in
    (bag, row) order: `forward` adds each bag's terms in row order, and
    `adjoint` is one `np.bincount` per column, which adds each row's terms
    in bag order. No dense matrix is built.
    """

    def __init__(self, flat: np.ndarray, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        if len(lengths) == 0 or lengths.min() < 1:
            raise ValueError("every bag needs at least one row")
        flat = np.asarray(flat, dtype=np.int64)
        width = int(flat.max()) + 1
        keys = np.repeat(np.arange(len(lengths)), lengths) * width + flat
        pairs, counts = np.unique(keys, return_counts=True)
        bag, row = np.divmod(pairs, width)
        self._bag, self._weight = bag, counts / lengths[bag]
        self.rows, self._col = distinct_rows(row)
        self.forward = _SegmentSum(bag, self._col, self._weight)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """W.T @ y, one row per entry of `rows`: one `np.bincount` per column of y."""
        columns = [np.bincount(self._col, c[self._bag] * self._weight, len(self.rows)) for c in y.T]
        return np.stack(columns, axis=1)

    def mean(self, embeddings: np.ndarray) -> np.ndarray:
        """Token-mean embedding of every bag, in float64."""
        return self.forward(embeddings[self.rows].astype(np.float64))


class DenseBags:
    """The weights of `Bags` as a dense matrix over the touched rows, for document batches.

    `flat` holds the bags' embedding rows back to back, lengths[b] of them
    for bag b. `rows` lists the touched rows in ascending order and
    `weights[b, j]` is (count of rows[j] in bag b) / lengths[b], so a
    batch's token means are one GEMM and their adjoint `weights.T @ y` one
    more. A document batch touches few rows; a profile store needs `Bags`.
    """

    def __init__(self, flat: np.ndarray, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        self.rows, col = distinct_rows(flat)
        bag = np.repeat(np.arange(len(lengths)), lengths)
        counts = np.bincount(bag * len(self.rows) + col, minlength=len(lengths) * len(self.rows))
        self.weights = counts.reshape(len(lengths), len(self.rows)) / lengths[:, None]

    def mean(self, embeddings: np.ndarray) -> np.ndarray:
        """Token-mean embedding of every bag, in float64."""
        return self.weights @ embeddings[self.rows].astype(np.float64)


def profile_bags(vocab: Vocabulary, store: ProfileStore) -> Bags:
    """Bags of the store's linearized profile terms, one per profile in store order."""
    return Bags(vocab.indices(store.table.terms).take(store.terms), store.lengths)


def profile_matrix(params: ModelParams, profiles: Bags) -> np.ndarray:
    """Profile embeddings from the profiles' bags: their means times the profile projection."""
    return profiles.mean(params.embeddings) @ params.profile_proj.astype(np.float64)


def build_profile_matrix(params: ModelParams, store: ProfileStore) -> np.ndarray:
    """Stack profile embeddings, one row per profile in store order."""
    if not len(store):
        raise ValueError("profile store is empty")
    return profile_matrix(params, profile_bags(params.vocab, store))


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, stabilized by max subtraction."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def rank_of(values: np.ndarray, index: int) -> int:
    """1-based rank of values[index] under descending sort.

    Ties are broken in favor of the lower index, so among equal values the
    lowest index ranks first.
    """
    values = np.asarray(values)
    if index < 0 or index >= len(values):
        raise IndexError(f"index {index} out of range for {len(values)} values")
    target = values[index]
    return int(1 + np.count_nonzero(values > target) + np.count_nonzero(values[:index] == target))


def _layout(shapes) -> list[dict]:
    """The header's `arrays` section for float32 arrays of these shapes: `CHECKPOINT_ARRAYS` order, back to back."""
    sizes = [4 * math.prod(shape) for shape in shapes]
    specs = zip(CHECKPOINT_ARRAYS, shapes, accumulate(sizes, initial=0), sizes)
    return [{"name": name, "shape": list(shape), "offset": at, "bytes": size} for name, shape, at, size in specs]


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write a checkpoint: one JSON header line, then raw float32 arrays as `_layout` of their shapes."""
    arrays = [np.ascontiguousarray(getattr(params, name), dtype="<f4") for name in CHECKPOINT_ARRAYS]
    header = {
        "version": CHECKPOINT_VERSION,
        "dim": params.dim,
        "out_dim": params.out_dim,
        "terms": list(params.vocab.terms),
        "arrays": _layout([arr.shape for arr in arrays]),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for arr in arrays:
            fh.write(arr.data)


def load_checkpoint(path: str | Path) -> ModelParams:
    """Load a checkpoint; reject unknown versions, `arrays` but `_layout`, payloads not that size, non-finite values.

    Only the header keys it needs are read, so an older writer's `label_smoothing` is ignored.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint header in {path}") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"checkpoint header in {path} is not a JSON object")
        version = header.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version!r} not supported (expected {CHECKPOINT_VERSION})"
            )
        vocab = _header_vocabulary(header)
        dim, out_dim = header.get("dim"), header.get("out_dim")
        if not all(type(n) is int and n > 0 for n in (dim, out_dim)):
            raise CheckpointError("checkpoint header fields 'dim' and 'out_dim' must be positive integers")
        layout = _layout([(vocab.n_rows, dim), (dim, out_dim), (dim, out_dim)])
        if header.get("arrays") != layout:
            raise CheckpointError("checkpoint header field 'arrays' does not match its terms and dimensions")
        extra = os.fstat(fh.fileno()).st_size - fh.tell() - sum(spec["bytes"] for spec in layout)
        if extra < 0:
            raise CheckpointError(f"truncated checkpoint payload in {path}")
        if extra > 0:
            raise CheckpointError(f"checkpoint {path} has {extra} bytes after its payload")
        arrays = [np.empty(spec["shape"], dtype="<f4") for spec in layout]
        for name, arr in zip(CHECKPOINT_ARRAYS, arrays):
            fh.readinto(arr.data.cast("B"))
            if not np.isfinite(arr).all():
                raise CheckpointError(f"array {name!r} has non-finite values")
    return ModelParams(vocab, *arrays)


def _header_vocabulary(header: dict) -> Vocabulary:
    terms = header.get("terms")
    if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
        raise CheckpointError("checkpoint header field 'terms' is missing or not a list of strings")
    try:
        return Vocabulary(terms)
    except ValueError as exc:
        raise CheckpointError(f"bad checkpoint vocabulary: {exc}") from exc
