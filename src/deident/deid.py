"""Mask-construction methods: rank-based search and unsupervised baselines.

The greedy search repeatedly masks the position whose single-position
addition minimizes the true profile's probability, stopping once the true
profile drops out of the top K. Stopwords and pure punctuation are not
candidates. The beam variant tracks several lowest-probability mask states
per depth and reduces exactly to greedy at width 1.

Baselines mask by profile overlap (lexical), rarity (IDF threshold), their
combination (table-aware IDF), or entity tags (file-provided or a built-in
rule tagger).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CorpusError, Document, IdfTable, Profile, _jsonl_rows, tokenize
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

    @property
    def n_masked(self) -> int:
        return int(self.mask.sum())

    def to_json(self, doc_id: str | None = None) -> dict:
        obj = {
            "method": self.method,
            "k": self.k,
            "steps": self.steps,
            "final_rank": self.final_rank,
            "final_prob": self.final_prob,
            "success": self.success,
            "mask": [int(b) for b in self.mask],
            "order": list(self.order),
        }
        if doc_id is not None:
            obj["id"] = doc_id
        return obj


def candidate_positions(
    document: Document, mask: np.ndarray, stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> list[int]:
    """Unmasked positions eligible for search: not stopword, not punctuation."""
    out = []
    for j, token in enumerate(document.tokens):
        if mask[j]:
            continue
        if token.is_punctuation or token.normalized in stopwords:
            continue
        out.append(j)
    return out


def _true_probs_for(model, document, mask, candidates, true_index) -> np.ndarray:
    if hasattr(model, "candidate_true_probs"):
        return model.candidate_true_probs(document, mask, candidates, true_index)
    probs = np.empty(len(candidates))
    for c, j in enumerate(candidates):
        trial = mask.copy()
        trial[j] = 1
        probs[c] = model.distribution(document, trial)[true_index]
    return probs


def greedy_deidentify(
    model,
    document: Document,
    true_index: int,
    k: int,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> RedactionResult:
    """Mask words one at a time until the true profile ranks below top-K.

    Each step masks the eligible position whose masking minimizes the true
    profile's probability (ties to the lowest index). The stopping condition
    is also checked before the first step, so an already-anonymous document
    gets an empty mask. Runs out of candidates -> success is False.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(document)
    if not 0 <= true_index < len(model.store):
        raise ValueError(f"profile index {true_index} not in store")
    mask = np.zeros(n, dtype=np.int8)
    dist = model.distribution(document, mask)
    rank = rank_of(dist, true_index)
    order: list[int] = []
    if rank > k:
        return RedactionResult(
            mask=mask,
            method="greedy",
            k=k,
            steps=0,
            final_rank=rank,
            final_prob=float(dist[true_index]),
            success=True,
            order=order,
        )
    candidates = candidate_positions(document, mask, stopwords)
    success = False
    while candidates:
        probs = _true_probs_for(model, document, mask, candidates, true_index)
        best = int(np.argmin(probs))
        j = candidates.pop(best)
        mask[j] = 1
        order.append(j)
        dist = model.distribution(document, mask)
        rank = rank_of(dist, true_index)
        if rank > k:
            success = True
            break
    return RedactionResult(
        mask=mask,
        method="greedy",
        k=k,
        steps=len(order),
        final_rank=rank,
        final_prob=float(dist[true_index]),
        success=success,
        order=order,
    )


def beam_deidentify(
    model,
    document: Document,
    true_index: int,
    k: int,
    beam_width: int = 4,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> RedactionResult:
    """Beam-search variant of greedy_deidentify.

    Keeps the beam_width states with the lowest true-profile probability at
    each depth; candidate ties break toward the lower position index, which
    makes width 1 reproduce greedy mask-for-mask.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(document)
    if not 0 <= true_index < len(model.store):
        raise ValueError(f"profile index {true_index} not in store")
    empty = np.zeros(n, dtype=np.int8)
    dist = model.distribution(document, empty)
    rank = rank_of(dist, true_index)
    if rank > k:
        return RedactionResult(
            mask=empty,
            method="beam",
            k=k,
            steps=0,
            final_rank=rank,
            final_prob=float(dist[true_index]),
            success=True,
            order=[],
        )
    all_candidates = candidate_positions(document, empty, stopwords)
    # states are (prob, order tuple); the mask is implied by the order
    states: list[tuple[float, tuple[int, ...]]] = [(float(dist[true_index]), ())]
    last_state = states[0]
    for depth in range(1, len(all_candidates) + 1):
        children: dict[frozenset[int], tuple[float, tuple[int, ...]]] = {}
        for prob, picked in states:
            mask = np.zeros(n, dtype=np.int8)
            mask[list(picked)] = 1
            cands = [j for j in all_candidates if not mask[j]]
            probs = _true_probs_for(model, document, mask, cands, true_index)
            for j, p in zip(cands, probs):
                key = frozenset(picked) | {j}
                entry = (float(p), picked + (j,))
                if key not in children or entry < children[key]:
                    children[key] = entry
        kept = sorted(children.values())[:beam_width]
        for prob, picked in kept:
            mask = np.zeros(n, dtype=np.int8)
            mask[list(picked)] = 1
            dist = model.distribution(document, mask)
            rank = rank_of(dist, true_index)
            if rank > k:
                return RedactionResult(
                    mask=mask,
                    method="beam",
                    k=k,
                    steps=depth,
                    final_rank=rank,
                    final_prob=float(dist[true_index]),
                    success=True,
                    order=list(picked),
                )
        states = kept
        last_state = kept[0]
    prob, picked = last_state
    mask = np.zeros(n, dtype=np.int8)
    mask[list(picked)] = 1
    dist = model.distribution(document, mask)
    return RedactionResult(
        mask=mask,
        method="beam",
        k=k,
        steps=len(picked),
        final_rank=rank_of(dist, true_index),
        final_prob=float(dist[true_index]),
        success=False,
        order=list(picked),
    )


def _profile_term_set(profile: Profile) -> set[str]:
    terms: set[str] = set()
    for key, value in profile.entries:
        terms.update(tokenize(key).normalized())
        terms.update(tokenize(str(value)).normalized())
    return terms


def lexical_baseline(document: Document, profile: Profile) -> RedactionResult:
    """Mask every non-punctuation word that also occurs in the profile."""
    terms = _profile_term_set(profile)
    mask = np.zeros(len(document), dtype=np.int8)
    order = []
    for j, token in enumerate(document.tokens):
        if not token.is_punctuation and token.normalized in terms:
            mask[j] = 1
            order.append(j)
    return RedactionResult(
        mask=mask,
        method="lexical",
        k=0,
        steps=len(order),
        final_rank=None,
        final_prob=None,
        success=True,
        order=order,
    )


def _idf_descending(document: Document, table: IdfTable, skip: set[int]) -> list[tuple[float, int]]:
    """Eligible positions sorted by (idf desc, position asc)."""
    scored = [
        (table.idf(token.normalized), j)
        for j, token in enumerate(document.tokens)
        if j not in skip and not token.is_punctuation
    ]
    return sorted(scored, key=lambda pair: (-pair[0], pair[1]))


def idf_baseline(document: Document, table: IdfTable, threshold: float) -> RedactionResult:
    """Mask all non-punctuation words whose IDF reaches the threshold."""
    order = [j for idf, j in _idf_descending(document, table, set()) if idf >= threshold]
    mask = np.zeros(len(document), dtype=np.int8)
    mask[order] = 1
    return RedactionResult(
        mask=mask,
        method="idf",
        k=0,
        steps=len(order),
        final_rank=None,
        final_prob=None,
        success=True,
        order=order,
    )


def idf_table_aware_baseline(
    document: Document, profile: Profile, table: IdfTable, threshold: float
) -> RedactionResult:
    """Profile-overlap mask, then rarest-first IDF masking down to the threshold."""
    lexical = lexical_baseline(document, profile)
    order = list(lexical.order)
    taken = set(order)
    order.extend(j for idf, j in _idf_descending(document, table, taken) if idf >= threshold)
    mask = np.zeros(len(document), dtype=np.int8)
    mask[order] = 1
    return RedactionResult(
        mask=mask,
        method="idf_table",
        k=0,
        steps=len(order),
        final_rank=None,
        final_prob=None,
        success=True,
        order=order,
    )


def rule_tags(document: Document) -> list[str]:
    """Heuristic entity tags: gazetteer hits plus capitalized mid-sentence words."""
    tags = []
    sentence_start = True
    for token in document.tokens:
        if token.is_punctuation:
            tags.append("O")
            if token.surface in _SENTENCE_END or any(c in _SENTENCE_END for c in token.surface):
                sentence_start = True
            continue
        tag = "O"
        if token.normalized in GAZETTEER:
            tag = GAZETTEER[token.normalized]
        elif token.surface[:1].isupper() and not sentence_start:
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
    mask = np.zeros(len(document), dtype=np.int8)
    mask[order] = 1
    return RedactionResult(
        mask=mask,
        method="ner",
        k=0,
        steps=len(order),
        final_rank=None,
        final_prob=None,
        success=True,
        order=order,
    )


def load_tag_file(path: str | Path) -> dict[str, list[str]]:
    """Load per-token entity tags: JSONL rows of {"id": ..., "tags": [...]}."""
    out: dict[str, list[str]] = {}
    for line_no, obj in _jsonl_rows(path):
        if "id" not in obj or not isinstance(obj.get("tags"), list):
            raise CorpusError("tag rows need 'id' and a 'tags' list", line_no)
        out[obj["id"]] = [str(t) for t in obj["tags"]]
    return out
