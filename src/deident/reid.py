"""Reidentification of (possibly redacted) documents against a profile store.

Two reidentifier families share one duck-typed surface, `scores`: a
neural ranker built from a trained checkpoint, and a BM25 lexical ranker
over the store's term ids. The neural ranker scores every single document
through a `DocumentScorer`: `scores` is the audit of the mask's positions,
the same call each search state makes, and both rank those scores with
`rank_of`, so a certificate re-audits through the path that produced it
and `evaluate` reports the rank the search certified. An ensemble report
counts a document as reidentified when any member ranks its true profile
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Document, ProfileStore, check_mask, distinct_pairs, smoothed_idf
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
        """The softmax of `scores`; the benchmark's certificate check reads it. Ranks are taken on `scores`."""
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

    Query terms are the normalized unmasked document tokens (mask sentinels are excluded); each distinct query term
    contributes once. The postings of the store table's term id t, entries `_bounds[t]` to `_bounds[t + 1]` of
    `_profiles` and `_weights`, list the profiles holding t, in store order, and t's score contribution to each.
    They are built in place from one sorted int64 array of (term, profile) keys, one per entry of `store.terms`.
    """

    def __init__(self, store: ProfileStore, k1: float = 1.5, b: float = 0.75):
        check_bm25(k1, b)
        if len(store) == 0:
            raise ValueError("profile store is empty")
        self.store = store
        n = len(store)
        keys, first = distinct_pairs(store.terms, store.lengths)  # by term, then profile
        tf = np.diff(np.flatnonzero(np.append(first, True))).astype(np.float64)  # each pair's entries
        term = keys // n
        self._profiles = np.subtract(keys, term * n, out=keys)  # each pair's profile, in place
        df = np.bincount(term, minlength=len(store.table.terms))
        self._bounds = np.append(0, np.cumsum(df))
        norm = k1 * (1.0 - b + b * store.lengths / float(store.lengths.mean()))
        # the Okapi term of each pair, idf * tf * (k1 + 1) / (tf + norm), built in place with the float operations
        # in the order a term-by-term loop uses, so the summed scores match that loop bit for bit
        self._weights = smoothed_idf(n, df)[term]
        del term  # before the gather of norm, so four pair-sized arrays at most are held
        self._weights *= tf
        self._weights *= k1 + 1.0
        self._weights /= np.add(tf, norm[self._profiles], out=tf)

    def query_terms(self, document: Document, mask=None) -> list[str]:
        arr = check_mask(np.zeros(len(document)) if mask is None else mask, len(document))
        return sorted(set(map(document.table.terms.__getitem__, document.terms[arr == 0].tolist())))

    def scores(self, document: Document, mask=None) -> np.ndarray:
        scores = np.zeros(len(self.store), dtype=np.float64)
        get, bounds = self.store.table.term_ids.get, self._bounds
        for term in self.query_terms(document, mask):
            t = get(term, len(bounds))  # a term the table gained after this build has no postings either
            if t < len(bounds) - 1:
                span = slice(bounds[t], bounds[t + 1])
                scores[self._profiles[span]] += self._weights[span]
        return scores


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
    for doc_id, document, mask, true_index in records:
        ranks = {name: rank_of(member.scores(document, mask), true_index) for name, member in members.items()}
        per_doc.append({"id": doc_id, "ranks": ranks, "reidentified": 1 in ranks.values()})

    def percent(hits) -> float | None:
        return 100.0 * sum(hits) / len(per_doc) if per_doc else None

    per_member = {name: percent(doc["ranks"][name] == 1 for doc in per_doc) for name in members}
    return EnsembleReport(rate=percent(doc["reidentified"] for doc in per_doc), per_doc=per_doc, per_member=per_member)
