"""Reference implementations the tests check the library against.

Each is a plain, per-item composition of what the library computes in
batched or fused form: one document's softmax over profile scores, a
smoothed target vector and its cross entropy, a dense embedding gradient,
a one-batch SGD driver over per-document row arrays, a per-document
token mean, one document encoded as a one-bag `DenseBags` batch, a text
split by one plain pattern, a profile linearized entry by entry, a
profile's overlap with a document field by field, a term-by-term
document-frequency count, BM25 one term and one profile at a
time, and a search that rebuilds each audited document from a row copy.
Three more are earlier forms of library kernels, kept verbatim as
bit-for-bit references: a chunked segment sum, a `np.lexsort` mask draw and
a `np.unique` dense bag matrix. They live here, apart from the code under test, so that a change to the
library cannot change its oracle with it.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from itertools import count
from typing import Sequence

import numpy as np

from deident.corpus import MAX_PROFILE_TOKENS, CorpusError, Document, Profile, Vocabulary, check_mask, tokenize
from deident.deid import _result, candidate_positions
from deident.encoder import Bags, DenseBags, ModelParams, profile_bags, rank_of, softmax
from deident.stopwords import DEFAULT_STOPWORDS
from deident.training import Gradients, TrainConfig, _step

logger = logging.getLogger(__name__)


def score_and_normalize(doc_emb: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Softmax over dot-product scores."""
    return softmax(np.asarray(matrix, dtype=np.float64) @ np.asarray(doc_emb, dtype=np.float64))


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


def dense_embeddings(grads: Gradients, n_rows: int) -> np.ndarray:
    """The sparse embedding gradient as a dense (n_rows x dim) table."""
    dense = np.zeros((n_rows, grads.emb_grads.shape[1]), dtype=np.float64)
    dense[grads.emb_rows] = grads.emb_grads
    return dense


def document_row_indices(vocab: Vocabulary, document: Document, mask=None) -> np.ndarray:
    """Embedding-row index per position; masked positions map to the mask row."""
    rows = vocab.indices(document.normalized())
    if mask is not None:
        rows[check_mask(mask, len(rows)) == 1] = vocab.mask_index
    return rows


def encode_document(params: ModelParams, document: Document, mask=None) -> np.ndarray:
    """Embed a (possibly masked) document: its `DenseBags` mean times the document projection."""
    rows = document_row_indices(params.vocab, document, mask)
    return DenseBags(rows, [len(rows)]).mean(params.embeddings)[0] @ params.doc_proj.astype(np.float64)


def dense_bags(row_arrays: Sequence[np.ndarray]) -> DenseBags:
    """`DenseBags` of a batch given as one row array per document."""
    return DenseBags(np.concatenate(row_arrays), [len(r) for r in row_arrays])


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
    return params, _step(params, dense_bags(rows), [b[2] for b in batch], target, config, lr)[0]


def mean_rows(embeddings: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mean of the selected embedding rows, order-insensitive in float.

    Rows are aggregated per unique index so that permuting positions with
    identical content cannot change the result through summation order.
    """
    unique, counts = np.unique(rows, return_counts=True)
    weights = counts.astype(np.float64) / len(rows)
    return weights @ embeddings[unique].astype(np.float64)


def split_tokens(text: str) -> list[tuple[str, str, bool]]:
    """(surface, normalized term, punctuation flag) of each token of text, by one plain pattern split.

    A token is a run of word characters or a run of other non-space characters;
    its term is its casefolded surface, and it is punctuation when none of its
    characters is a letter or digit.
    """
    return [(s, s.casefold(), not any(c.isalnum() for c in s)) for s in re.findall(r"\w+|[^\w\s]+", text)]


def linearize(profile: Profile, max_tokens: int = MAX_PROFILE_TOKENS) -> list[tuple[str, str, bool]]:
    """The tokens of "key : value | key : value ...", split entry by entry with `split_tokens`, then cut to max_tokens."""
    if not profile.entries:
        raise CorpusError(f"profile {profile.id!r} has no entries")
    chunks = []
    for key, value in profile.entries:
        key_tokens, value_tokens = split_tokens(key), split_tokens(str(value))
        if not (key_tokens and value_tokens):
            raise CorpusError("no tokens in input text")
        chunks.append(key_tokens + split_tokens(":") + value_tokens)

    kept = list(chunks[0])
    for chunk in chunks[1:]:
        if len(kept) + 1 + len(chunk) > max_tokens:
            break
        kept += split_tokens("|") + chunk
    return kept[:max_tokens]


def lexical_overlap(document: Document, profile: Profile) -> list[int]:
    """Positions of the document's non-punctuation words whose term is among those of the profile's keys and values,
    each field split on its own by `tokenize`, which raises CorpusError for a field with no tokens."""
    terms = {t for key, value in profile.entries for text in (key, str(value)) for t in tokenize(text).normalized()}
    words = zip(document.normalized(), document.punctuation.tolist())
    return [j for j, (term, punctuation) in enumerate(words) if not punctuation and term in terms]


def document_frequencies(docs: Sequence[Sequence[str]]) -> tuple[int, dict[str, int]]:
    """(document count, df) counted term by term, each term once per document."""
    df: dict[str, int] = {}
    count = 0
    for doc in docs:
        count += 1
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    return count, df


def naive_okapi(store, document, mask, k1, b) -> np.ndarray:
    """Okapi BM25 of a (masked) document against each profile of store, one term and one profile at a time.

    Profiles are linearized entry by entry and the smoothed IDF is ln((1 + D) / (1 + df)) over the profiles,
    each distinct unmasked term of the document counting once, in sorted order.
    """
    docs = [[term for _, term, _ in linearize(p)] for p in store]
    term_freqs = [Counter(d) for d in docs]
    lengths = np.array([len(d) for d in docs], dtype=np.float64)
    avg_length = float(lengths.mean())
    n, df = document_frequencies(docs)
    if mask is None:
        terms = sorted(set(document.normalized()))
    else:
        terms = sorted({t for t, bit in zip(document.normalized(), mask) if not bit})
    scores = np.zeros(len(store), dtype=np.float64)
    norm = k1 * (1.0 - b + b * lengths / avg_length)
    for term in terms:
        idf = math.log((1 + n) / (1 + df.get(term, 0)))
        for i, tf_map in enumerate(term_freqs):
            tf = tf_map.get(term)
            if tf:
                scores[i] += idf * tf * (k1 + 1.0) / (tf + norm[i])
    return scores


def score_rows(model, rows: np.ndarray) -> np.ndarray:
    """Profile scores of one document given as embedding rows, masked positions at the mask row."""
    params = model.params
    return model.matrix @ (DenseBags(rows, [len(rows)]).mean(params.embeddings)[0] @ params.doc_proj.astype(np.float64))


def candidate_scores(model, document: Document, candidates: Sequence[int]) -> np.ndarray:
    """(candidates x profiles) table: what masking each candidate adds to `score_rows`, whatever else is masked."""
    rows = document_row_indices(model.params.vocab, document)
    emb = model.params.embeddings
    deltas = emb[model.params.vocab.mask_index].astype(np.float64) - emb[rows[candidates]].astype(np.float64)
    return deltas / len(rows) @ model.params.doc_proj.astype(np.float64) @ model.matrix.T


def reference_search(model, document, true_index, ks, width=1, stopwords=DEFAULT_STOPWORDS):
    """`deid.search` with each audit rescored from a copy of the document's rows.

    Every state's rows are the document's with its picked positions at the
    mask row, scored by `score_rows` and ranked on those scores, as
    `ensemble_evaluate` ranks a guide's; its probability, and a child's, is
    a column of the full softmax of its scores. The search order, the stop
    rule and the settling of Ks are the library's.
    """
    if width < 1:
        raise ValueError("beam_width must be >= 1")
    if min(ks, default=0) < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= true_index < len(model.store):
        raise ValueError(f"profile index {true_index} not in store")
    method = "beam" if width > 1 else "greedy"
    candidates = candidate_positions(document, stopwords)
    vocab, table = model.params.vocab, None
    rows = document_row_indices(vocab, document)

    def audit(picked):
        state_rows = rows.copy()
        state_rows[list(picked)] = vocab.mask_index
        scores = score_rows(model, state_rows)
        return scores, rank_of(scores, true_index), float(softmax(scores)[true_index])

    unsettled = sorted({k for k in ks if k < len(model.store)}, reverse=True)  # the smallest unsettled K last
    settled = {}
    if len(unsettled) < len(set(ks)):  # no rank passes a K at or above the store size
        _, rank, prob = audit(candidates)
        for k in set(ks).difference(unsettled):
            settled[k] = _result(method, document, list(candidates), k, rank, prob, False)
        if not unsettled:
            return [settled[k] for k in ks]
    states: list[tuple[int, ...]] = [()]
    for depth in count():
        audited = []
        for picked in states:
            scores, rank, prob = audit(picked)
            while unsettled and (unsettled[-1] < rank or depth == len(candidates)):
                k = unsettled.pop()
                settled[k] = _result(method, document, list(picked), k, rank, prob, rank > k)
            if not unsettled:
                return [settled[k] for k in ks]
            audited.append((picked, scores))
        if table is None:
            table = candidate_scores(model, document, candidates)
        # children keyed by their mask set as a bit set of positions
        children: dict[int, tuple[float, tuple[int, ...]]] = {}
        for picked, scores in audited:
            key = sum(1 << j for j in picked)
            left = [c for c, j in enumerate(candidates) if not key >> j & 1]
            probs = softmax(scores + table[left])[:, true_index]
            # a child outside its state's `width` lowest cannot be among the `width` lowest overall
            for c in np.argsort(probs, kind="stable")[:width]:
                j = candidates[left[c]]
                child_key, child = key | 1 << j, (float(probs[c]), picked + (j,))
                if child_key not in children or child < children[child_key]:
                    children[child_key] = child
        states = [picked for _, picked in sorted(children.values())[:width]]


class ChunkedSegmentSum:
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


def lexsort_draw_masks(rng: np.random.Generator, lengths, counts=None, weights=None) -> np.ndarray:
    """Dropout masks for a batch, as one 0/1 array over its concatenated positions.

    Document i masks counts[i] positions (uniform on {0..lengths[i]} when
    counts is None): the ones with its largest keys. A key is uniform, or
    log(u) / w under weights w, which draws positions without replacement
    proportional to weight (Efraimidis & Spirakis 2006). Zero-weight
    positions rank after every positive-weight one, in uniform-key order,
    so they fill a count above the positive positions uniformly.
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
    order = np.lexsort((-key, zero, doc))
    rank = np.arange(len(doc)) - (np.cumsum(lengths) - lengths)[doc]
    mask = np.zeros(len(doc), dtype=np.int8)
    mask[order[rank < counts[doc]]] = 1
    return mask


class UniqueDenseBags:
    """The weights of `Bags` as a dense matrix over the touched rows, for document batches.

    `flat` holds the bags' embedding rows back to back, lengths[b] of them
    for bag b. `rows` lists the touched rows in ascending order and
    `weights[b, j]` is (count of rows[j] in bag b) / lengths[b], so a
    batch's token means are one GEMM and their adjoint `weights.T @ y` one
    more. A document batch touches few rows; a profile store needs `Bags`.
    """

    def __init__(self, flat: np.ndarray, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        self.rows, col = np.unique(flat, return_inverse=True)
        bag = np.repeat(np.arange(len(lengths)), lengths)
        counts = np.bincount(bag * len(self.rows) + col, minlength=len(lengths) * len(self.rows))
        self.weights = counts.reshape(len(lengths), len(self.rows)) / lengths[:, None]
