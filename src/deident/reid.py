"""Reidentification of (possibly redacted) documents against a profile store.

Two reidentifier families share one duck-typed surface (`scores`,
`distribution`): a neural ranker built from a trained checkpoint, and a
BM25 lexical ranker over linearized profiles. The neural ranker scores
every single document through a `DocumentScorer`: `scores` is the audit of
the mask's positions, the same call each search state makes, so a
certificate re-audits through the path that produced it. An ensemble
report counts a document as reidentified when any member ranks its true
profile first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Document, IdfTable, ProfileStore, _gc_paused, check_mask
from .encoder import ModelParams, build_profile_matrix, distinct_rows, load_checkpoint, rank_of, softmax


class NeuralReidentifier:
    """Ranks profiles by dot product with the encoded document."""

    def __init__(self, params: ModelParams, store: ProfileStore):
        self.params, self.store = params, store
        self.matrix, self.doc_proj = build_profile_matrix(params, store), params.doc_proj.astype(np.float64)

    @classmethod
    def from_checkpoint(cls, path: str | Path, store: ProfileStore):
        return cls(load_checkpoint(path), store)

    def scores(self, document: Document, mask=None) -> np.ndarray:
        picked = () if mask is None else np.flatnonzero(check_mask(mask, len(document))).tolist()
        return DocumentScorer(self, document).audit(picked)

    def distribution(self, document: Document, mask=None) -> np.ndarray:
        return softmax(self.scores(document, mask))

    def document_scorer(self, document: Document) -> "DocumentScorer":
        return DocumentScorer(self, document)


class DocumentScorer:
    """One document's scoring state: its distinct embedding rows, ascending (the mask row, the largest, last),
    their counts, each position's slot, and the rows in float64. `audit` moves the picked positions' counts
    to the mask row and takes the token mean of the rows left times the document projection; `scores` is
    the audit of a mask's positions.
    """

    def __init__(self, model: NeuralReidentifier, document: Document):
        self._matrix, self._proj, self._n, vocab = model.matrix, model.doc_proj, len(document), model.params.vocab
        rows = np.append(vocab.indices(document.normalized()), vocab.mask_index)
        unique, self._slot = distinct_rows(rows)
        self._counts = np.bincount(self._slot, minlength=len(unique))
        self._emb = model.params.embeddings[unique].astype(np.float64)

    def _slots(self, positions: Sequence[int]) -> np.ndarray:
        if min(positions, default=0) < 0 or max(positions, default=0) >= self._n:
            raise ValueError(f"candidate positions must lie in [0, {self._n})")
        return self._slot.take(positions)

    def audit(self, picked: Sequence[int]) -> np.ndarray:
        """Profile scores of the document with the positions of picked masked."""
        counts = self._counts - np.bincount(self._slots(picked), minlength=len(self._counts))
        counts[-1] += len(picked) - 1  # less the mask row appended in __init__ to give it a slot
        kept = counts > 0
        mean = (counts[kept].reshape(1, -1) / self._n @ self._emb[kept])[0]
        return self._matrix @ (mean @ self._proj)

    def table(self, candidates: Sequence[int]) -> np.ndarray:
        """(candidates x profiles) table: what masking each candidate adds to `audit`, whatever else is masked."""
        deltas = self._emb[-1] - self._emb[self._slots(candidates)]
        return deltas / self._n @ self._proj @ self._matrix.T


def check_bm25(k1: float, b: float) -> None:
    """Reject BM25 parameters outside k1 > 0 (finite) and b in [0, 1]."""
    if not (math.isfinite(k1) and k1 > 0):
        raise ValueError("k1 must be finite and > 0")
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must be in [0, 1]")


class Bm25Reidentifier:
    """Okapi BM25 over the store's linearized profile terms, `store.terms`, with smoothed nonnegative IDF.

    Query terms are the normalized unmasked document tokens (mask sentinels
    are excluded); each distinct query term contributes once. Each term's
    postings list the profiles holding it, in store order, with the term's
    score contribution to each, so scoring touches only matching profiles.
    """

    @_gc_paused()
    def __init__(self, store: ProfileStore, k1: float = 1.5, b: float = 0.75):
        check_bm25(k1, b)
        if len(store) == 0:
            raise ValueError("profile store is empty")
        self.store = store
        n = len(store)
        lengths = np.array([len(d) for d in store.terms], dtype=np.float64)
        terms = list(chain.from_iterable(store.terms))
        ids = {t: i for i, t in enumerate(dict.fromkeys(terms))}
        term_ids = np.fromiter(map(ids.__getitem__, terms), dtype=np.int64, count=len(terms))
        # one key per distinct (term, profile) pair, sorted by term, then profile
        profile_ids = np.repeat(np.arange(n), lengths.astype(np.int64))
        keys, tf = np.unique(term_ids * n + profile_ids, return_counts=True)
        term, self._profiles = np.divmod(keys, n)
        df = np.bincount(term, minlength=len(ids))
        self.idf_table = IdfTable(doc_count=n, df=dict(zip(ids, df.tolist())))
        idf = np.array([self.idf_table.idf(t) for t in ids])
        norm = k1 * (1.0 - b + b * lengths / float(lengths.mean()))
        tf = tf.astype(np.float64)
        # the Okapi term of each pair, with the float operations in the order a
        # term-by-term loop uses, so the summed scores match that loop bit for bit
        self._weights = idf[term] * tf * (k1 + 1.0) / (tf + norm[self._profiles])
        ends = np.cumsum(df).tolist()
        self._postings = {t: slice(end - count, end) for t, end, count in zip(ids, ends, df.tolist())}

    def query_terms(self, document: Document, mask=None) -> list[str]:
        if mask is None:
            return sorted(set(document.normalized()))
        arr = check_mask(mask, len(document))
        return sorted({t.normalized for t, bit in zip(document.tokens, arr) if not bit})

    def scores(self, document: Document, mask=None) -> np.ndarray:
        scores = np.zeros(len(self.store), dtype=np.float64)
        for term in self.query_terms(document, mask):
            span = self._postings.get(term)
            if span is not None:
                scores[self._profiles[span]] += self._weights[span]
        return scores

    def distribution(self, document: Document, mask=None) -> np.ndarray:
        return softmax(self.scores(document, mask))


@dataclass
class EnsembleReport:
    """Reidentification outcome of an ensemble over a record set; rates over no records are None."""

    rate: float | None
    per_doc: list[dict]
    per_member: dict[str, float | None]


def ensemble_evaluate(
    members: Mapping[str, object],
    records: Sequence[tuple[str, Document, np.ndarray, int]],
) -> EnsembleReport:
    """Evaluate members over (doc_id, document, mask, true_index) records.

    A document counts as reidentified when at least one member puts its
    true profile at rank 1. Per-member ranks are kept for every document.
    Over no records there is no rate: `rate` and each member's rate are None.
    """
    if not members:
        raise ValueError("ensemble needs at least one member")
    per_doc = []
    member_hits = {name: 0 for name in members}
    reidentified_count = 0
    for doc_id, document, mask, true_index in records:
        ranks = {}
        for name, member in members.items():
            scores = member.scores(document, mask)
            ranks[name] = rank_of(scores, true_index)
            if ranks[name] == 1:
                member_hits[name] += 1
        flag = any(r == 1 for r in ranks.values())
        reidentified_count += int(flag)
        per_doc.append({"id": doc_id, "ranks": ranks, "reidentified": flag})

    def percent(count: int) -> float | None:
        return 100.0 * count / len(per_doc) if per_doc else None

    per_member = {name: percent(hits) for name, hits in member_hits.items()}
    return EnsembleReport(rate=percent(reidentified_count), per_doc=per_doc, per_member=per_member)
