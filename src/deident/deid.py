"""Mask-construction methods: rank-based search and unsupervised baselines.

`search` repeatedly masks the position whose single-position addition
minimizes the true profile's probability, stopping once the true profile
drops out of the top K, by the guide's rank of its scores: the rank
`reid.ensemble_evaluate` gives that guide. Stopwords and pure punctuation
are not candidates. Greedy and beam are one search: it keeps the
`beam_width` lowest-probability mask states per depth, and greedy is its
width 1. One search answers a list of Ks, as a sweep over K needs. The
guide model must provide `store` and `document_scorer` (a per-document
state that audits mask sets and builds the candidate table), as
`NeuralReidentifier` does; `Bm25Reidentifier` cannot guide a search.

Baselines mask by profile overlap (lexical), rarity (IDF threshold), their
combination (table-aware IDF), or entity tags (file-provided or a built-in
rule tagger).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CorpusError, Document, IdfTable, Profile, _jsonl_rows
from .encoder import rank_of
from .stopwords import DEFAULT_STOPWORDS

ENTITY_TAGS = frozenset({"PER", "ORG", "LOC", "MISC"})

# Small gazetteer for the rule tagger: common given names and places.
GAZETTEER: dict[str, str] = {}
GAZETTEER.update(
    dict.fromkeys(
        """
        james john robert michael william david richard joseph thomas charles
        mary patricia jennifer linda elizabeth barbara susan margaret sarah anna
        peter paul george henry edward frank walter arthur harold albert
        """.split(),
        "PER",
    )
)
GAZETTEER.update(
    dict.fromkeys(
        """
        london paris berlin tokyo moscow madrid rome vienna amsterdam dublin
        chicago boston sydney melbourne toronto chelsea brooklyn manchester
        england france germany japan russia spain italy austria scotland wales
        ireland america australia canada india china brazil mexico egypt
        """.split(),
        "LOC",
    )
)

_SENTENCE_END = {".", "!", "?"}


@dataclass
class RedactionResult:
    """A produced mask plus provenance for auditing."""

    mask: np.ndarray
    method: str
    k: int
    steps: int
    final_rank: int | None
    final_prob: float | None
    success: bool
    order: list[int] = field(default_factory=list)

    def to_json(self, doc_id: str | None = None) -> dict:
        """The sidecar row: every field, the mask as a list, plus the document's id when given."""
        obj = {**vars(self), "mask": self.mask.tolist(), "order": list(self.order)}
        if doc_id is not None:
            obj["id"] = doc_id
        return obj


def candidate_positions(document: Document, stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> list[int]:
    """Positions eligible for search: not stopword, not punctuation."""
    words = zip(document.normalized(), document.punctuation.tolist())
    return [j for j, (term, punctuation) in enumerate(words) if not (punctuation or term in stopwords)]


def check_search(ks: Sequence[int], width: int) -> None:
    """Reject a beam width or a K below 1, as every search does before its first audit."""
    if width < 1:
        raise ValueError("beam_width must be >= 1")
    if min(ks, default=0) < 1:
        raise ValueError("k must be >= 1")


def search(
    model,
    document: Document,
    true_index: int,
    ks: Sequence[int],
    beam_width: int = 1,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> list[RedactionResult]:
    """Mask words until the true profile ranks below top-K: one result per K of `ks`, in its order.

    The method is `greedy` at width 1 and `beam` above. A state is the order
    in which its positions were masked. Depth 0 holds the empty mask, so the
    precheck is the same audit as every later stop check. An audit ranks the
    guide's scores of its state with `rank_of`, the rank `ensemble_evaluate`
    gives the guide. Each depth audits its states in order; a K is settled by
    the first state whose true profile ranks below K, and the search returns
    once all are. Otherwise every state is expanded by each of its remaining
    candidates, and the `beam_width` children with the lowest (true-profile
    probability, order) are kept, candidate ties going to the lower position;
    children with the same mask set keep their best entry. A child scores as
    its state's audited scores plus its candidate's row of the table of the
    guide's `document_scorer`, built at the first expansion. The last depth
    holds the single all-candidates state, which settles the Ks left, failing
    those it does not pass. No rank exceeds the store size, so a K at or
    above it fails there whatever the path: one audit of that state settles
    all such Ks first, with the candidates as the order, and the search runs
    only for the Ks below. No state depends on K, so each result equals a
    lone search at its K (a repeated K shares one object).
    """
    check_search(ks, beam_width)
    if not 0 <= true_index < len(model.store):
        raise ValueError(f"profile index {true_index} not in store")
    method = "beam" if beam_width > 1 else "greedy"
    candidates = candidate_positions(document, stopwords)
    scorer, table = model.document_scorer(document), None

    def true_probs(rows):
        """The true column of the softmax of each row (last axis) of rows, computed in place in rows."""
        rows -= rows.max(axis=-1, keepdims=True)
        np.exp(rows, out=rows)
        return rows[..., true_index] / rows.sum(axis=-1)

    def audit(picked):
        scores = scorer.audit(picked)
        return scores, rank_of(scores, true_index), float(true_probs(scores.copy()))

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
            table = scorer.table(candidates)
        # children keyed by their mask set as a bit set of positions
        children: dict[int, tuple[float, tuple[int, ...]]] = {}
        for picked, scores in audited:
            key = sum(1 << j for j in picked)
            left = [c for c, j in enumerate(candidates) if not key >> j & 1]
            rows = table.take(left, axis=0)
            rows += scores
            probs = true_probs(rows)
            # a child outside its state's `beam_width` lowest cannot be among the `beam_width` lowest overall
            for c in np.argsort(probs, kind="stable")[:beam_width]:
                j = candidates[left[c]]
                child_key, child = key | 1 << j, (float(probs[c]), picked + (j,))
                if child_key not in children or child < children[child_key]:
                    children[child_key] = child
        states = [picked for _, picked in sorted(children.values())[:beam_width]]


def lexical_baseline(document: Document, profile: Profile) -> RedactionResult:
    """Mask every non-punctuation word whose term occurs in a key or value of the profile, each split through
    the document's table (a loaded profile's fields are in its memo)."""
    fields = [document.table[text] for key, value in profile.entries for text in (key, str(value))]
    terms = document.table.arrays()[0].take(np.frombuffer(b"".join(fields), dtype=np.int32))
    overlap = np.isin(document.terms, terms) & ~document.punctuation
    return _result("lexical", document, np.flatnonzero(overlap).tolist())


def _result(
    method: str, document: Document, order: list[int], k: int = 0, final_rank=None, final_prob=None, success=True
) -> RedactionResult:
    """The result that masks the positions of order; a baseline's has no K or audit behind it."""
    mask = np.zeros(len(document), dtype=np.int8)
    mask[order] = 1
    return RedactionResult(
        mask=mask,
        method=method,
        k=k,
        steps=len(order),
        final_rank=final_rank,
        final_prob=final_prob,
        success=success,
        order=order,
    )


def check_threshold(threshold: float) -> None:
    """Reject a NaN IDF threshold, which no IDF reaches."""
    if math.isnan(threshold):
        raise ValueError("IDF threshold must not be NaN")


def _idf_at_least(document: Document, table: IdfTable, threshold: float, skip=frozenset()) -> list[int]:
    """Non-punctuation positions outside skip whose IDF reaches threshold, by (idf desc, position asc). A NaN
    threshold would mask nothing without complaint, so it raises ValueError."""
    check_threshold(threshold)
    idf, keep = table.of(document), ~document.punctuation
    keep[list(skip)] = False
    positions = np.flatnonzero(keep & (idf >= threshold))
    return positions[np.argsort(-idf[positions], kind="stable")].tolist()


def idf_baseline(document: Document, table: IdfTable, threshold: float) -> RedactionResult:
    """Mask all non-punctuation words whose IDF reaches the threshold."""
    return _result("idf", document, _idf_at_least(document, table, threshold))


def idf_table_aware_baseline(
    document: Document, profile: Profile, table: IdfTable, threshold: float
) -> RedactionResult:
    """Profile-overlap mask, then rarest-first IDF masking down to the threshold."""
    order = lexical_baseline(document, profile).order
    order += _idf_at_least(document, table, threshold, set(order))
    return _result("idf_table", document, order)


def rule_tags(document: Document) -> list[str]:
    """Heuristic entity tags: gazetteer hits plus capitalized mid-sentence words."""
    tags = []
    sentence_start = True
    for surface, term, punctuation in zip(document.surfaces(), document.normalized(), document.punctuation.tolist()):
        if punctuation:
            tags.append("O")
            if surface in _SENTENCE_END or any(c in _SENTENCE_END for c in surface):
                sentence_start = True
            continue
        tag = "O"
        if term in GAZETTEER:
            tag = GAZETTEER[term]
        elif surface[:1].isupper() and not sentence_start:
            tag = "MISC"
        tags.append(tag)
        sentence_start = False
    return tags


def ner_baseline(document: Document, tags: Sequence[str] | None = None) -> RedactionResult:
    """Mask tokens tagged PER/ORG/LOC/MISC; without tags, use the rule tagger."""
    if tags is None:
        tags = rule_tags(document)
    if len(tags) != len(document):
        raise CorpusError(
            f"tag sequence length {len(tags)} does not match document length {len(document)}"
        )
    order = [j for j, tag in enumerate(tags) if tag in ENTITY_TAGS]
    return _result("ner", document, order)


def load_tag_file(path: str | Path) -> dict[str, list[str]]:
    """Load per-token entity tags: JSONL rows of {"id": ..., "tags": [...]}.

    Each row needs a string 'id', used by no earlier row, and a list of
    string 'tags'; errors name the offending line.
    """

    def valid(obj: dict) -> bool:
        return isinstance(obj.get("tags"), list) and all(isinstance(t, str) for t in obj["tags"])

    rows = _jsonl_rows(path, "tag rows need a string 'id' and a 'tags' list of strings", valid)
    return {obj["id"]: obj["tags"] for _, obj in rows}
