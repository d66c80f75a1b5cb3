"""Corpus handling: tokenization, aligned records, vocabulary, and IDF statistics.

A corpus file is UTF-8 JSONL with one object per line:

    {"id": "p17", "document": "raw text ...", "profile": [["name", "Lee Harding"], ...]}

Documents are tokenized at the word level (whitespace split with punctuation
separated into standalone tokens). Profiles are key/value tables that can be
linearized into a token sequence for encoding and lexical matching.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import re
import sys
import zlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

MASK_TOKEN = "<mask>"

# Maximum encoded length of a linearized profile, in tokens.
MAX_PROFILE_TOKENS = 128

_TOKEN_RE = re.compile(r"\w+|[^\w\s]+")
_ALNUM_RE = re.compile(r"[^\W_]")


class CorpusError(ValueError):
    """Raised for malformed corpus files. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic collector for one lexical set-up stage, then restore the caller's state.

    The stages build large graphs of acyclic objects, over which the collector's passes
    find nothing. The pause is scoped to a stage, not a process: the collection it
    defers is paid by the caller right after, and a caller's disabled collector stays so.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True, slots=True)
class Token:
    """A single word or punctuation run from a document."""

    surface: str
    normalized: str
    is_punctuation: bool


@dataclass(frozen=True, slots=True)
class Document:
    """An ordered token sequence."""

    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    def normalized(self) -> list[str]:
        return [t.normalized for t in self.tokens]


@dataclass(frozen=True, slots=True)
class Profile:
    """A key/value table describing one person."""

    id: str
    entries: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if len({k for k, _ in self.entries}) != len(self.entries):
            raise CorpusError(f"profile {self.id!r} has duplicate keys")


@dataclass(frozen=True, slots=True)
class AlignedRecord:
    """A document paired with the id of its true profile."""

    document: Document
    profile_id: str


class ProfileStore:
    """Ordered collection of unique profiles, addressable by id or index.

    `terms` holds each profile's linearized normalized terms, in store order. They are
    computed once, as the store is built, through the load's token table when it is given
    one, so a profile that does not linearize fails here.
    """

    def __init__(self, profiles: Sequence[Profile], table: _TokenTable | None = None):
        self.profiles: list[Profile] = list(profiles)
        self._index: dict[str, int] = {}
        for i, p in enumerate(self.profiles):
            if p.id in self._index:
                raise CorpusError(f"duplicate profile id {p.id!r}")
            self._index[p.id] = i
        table = _TokenTable() if table is None else table
        with _gc_paused():
            self.terms = tuple(tuple([t.normalized for t in _linearize(p, table)]) for p in self.profiles)

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self) -> Iterator[Profile]:
        return iter(self.profiles)

    def __getitem__(self, index: int) -> Profile:
        return self.profiles[index]

    def index_of(self, profile_id: str) -> int:
        if profile_id not in self._index:
            raise KeyError(f"unknown profile id {profile_id!r}")
        return self._index[profile_id]

    def get(self, profile_id: str) -> Profile:
        return self.profiles[self.index_of(profile_id)]


@dataclass
class Corpus:
    """Aligned records plus the store of all candidate profiles."""

    records: list[AlignedRecord]
    store: ProfileStore


class _TokenTable(dict):
    """The Tokens of each distinct text, split once; () for a text with none.

    Its texts are profile keys and values, the whitespace-separated chunks of documents and
    the surfaces of chunks. A text that is one surface holds that surface's one Token; any
    other text is the run of its chunks' or surfaces' entries, so each distinct surface gets
    one Token per table. A (key, value) pair is a profile entry of a load: its key and value
    are checked once for tokens, and each repeat of the entry (occupations, countries, teams)
    then holds one shared tuple and strings, not copies of its own. A table lives through
    one corpus load, its store's linearization included, or through one call; never across calls.
    """

    def __missing__(self, text: str | tuple[str, str]) -> tuple:
        if isinstance(text, tuple):
            key, value = text
            if not (self[key] and self[value]):
                part = "value" if self[key] else "key"
                raise CorpusError(f"profile entry {key!r} has no tokens in its {part}")
            entry = sys.intern(key), value
            self[entry] = entry
            return entry
        parts = text.split()
        if parts == [text]:
            parts = _TOKEN_RE.findall(text)
        if parts == [text]:
            tokens = (Token(text, text.casefold(), _ALNUM_RE.search(text) is None),)
        else:
            tokens = tuple(chain.from_iterable(map(self.__getitem__, parts)))
        self[text] = tokens
        return tokens


def _tokenize(text: str, table: _TokenTable) -> Document:
    # no token spans whitespace, and str.split's whitespace is the pattern's \s, so the
    # tokens of a text are those of its chunks, each of which the table splits once
    tokens = tuple(chain.from_iterable(map(table.__getitem__, text.split())))
    if not tokens:
        raise CorpusError("no tokens in input text")
    return Document(tokens)


def tokenize(text: str) -> Document:
    """Split raw text into a Document.

    Words are split on whitespace and punctuation runs become standalone
    tokens, so "John Smith, farmer." yields five tokens. Normalization is
    the casefolded surface. Raises CorpusError when no tokens result.
    """
    return _tokenize(text, _TokenTable())


def linearize_profile(profile: Profile, max_tokens: int = MAX_PROFILE_TOKENS) -> Document:
    """Render a profile as a token sequence "key : value | key : value ...".

    Whole trailing entries are dropped until the sequence fits max_tokens.
    The first entry is kept even if it must be clipped hard.
    """
    return Document(tuple(_linearize(profile, _TokenTable(), max_tokens)))


def _linearize(profile: Profile, table: _TokenTable, max_tokens: int = MAX_PROFILE_TOKENS) -> list[Token]:
    if not profile.entries:
        raise CorpusError(f"profile {profile.id!r} has no entries")
    colon, separator = table[":"], table["|"]
    tokens: list[Token] = []
    full = False
    # every entry is tokenized, kept or not, so a token-less one raises wherever it falls
    for key, value in profile.entries:
        key_tokens, value_tokens = table[key], table[str(value)]
        if not (key_tokens and value_tokens):
            raise CorpusError("no tokens in input text")
        if tokens:
            full = full or len(tokens) + len(key_tokens) + len(value_tokens) + 2 > max_tokens
            if full:
                continue
            tokens += separator
        tokens += key_tokens
        tokens += colon
        tokens += value_tokens
    return tokens[:max_tokens]


def _text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) for each line of a file; a line that is not UTF-8 raises CorpusError naming it."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(f"invalid UTF-8 ({exc.reason})", line_no) from exc
            yield line_no, line


def _jsonl_rows(path: str | Path, need: str, valid: Callable[[dict], bool]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each nonblank line of a JSONL file whose rows each name one id.

    A line that is not valid UTF-8 or JSON, or whose value is not an object,
    raises CorpusError naming the line. So does a row without a string 'id'
    or that `valid` refuses, as `need`, and a row whose id an earlier row
    used, as `duplicate id 'x' (first seen on line N)`.
    """
    seen: dict[str, int] = {}
    for line_no, line in _text_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"invalid JSON ({exc.msg})", line_no) from exc
        if not isinstance(obj, dict):
            raise CorpusError("expected a JSON object", line_no)
        if not isinstance(row_id := obj.get("id"), str) or not valid(obj):
            raise CorpusError(need, line_no)
        first = seen.setdefault(row_id, line_no)
        if first != line_no:
            raise CorpusError(f"duplicate id {row_id!r} (first seen on line {first})", line_no)
        yield line_no, obj


def _parse_record(obj: dict, line: int, table: _TokenTable) -> tuple[AlignedRecord, Profile]:
    for key in ("document", "profile"):
        if key not in obj:
            raise CorpusError(f"missing field {key!r}", line)
    record_id, text, entries = obj["id"], obj["document"], obj["profile"]
    if not isinstance(text, str):
        raise CorpusError("field 'document' must be a string", line)
    if not isinstance(entries, list) or not entries:
        raise CorpusError("field 'profile' must be a nonempty list", line)
    pairs = []
    try:
        for pair in entries:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise CorpusError("profile entries must be [key, value] pairs")
            pairs.append(table[str(pair[0]), str(pair[1])])
        document = _tokenize(text, table)
        profile = Profile(record_id, tuple(pairs))
    except CorpusError as exc:
        raise CorpusError(str(exc), line) from exc
    return AlignedRecord(document, record_id), profile


@_gc_paused()
def load_corpus(path: str | Path) -> Corpus:
    """Load a JSONL corpus file.

    Every line must parse, every row needs a nonempty string 'id' used by no
    earlier row, and every profile key and value must hold a token; errors
    name the offending line.
    """
    records: list[AlignedRecord] = []
    profiles: list[Profile] = []
    table = _TokenTable()
    for line_no, obj in _jsonl_rows(path, "corpus rows need a nonempty string 'id'", lambda obj: obj["id"] != ""):
        record, profile = _parse_record(obj, line_no, table)
        records.append(record)
        profiles.append(profile)
    if not records:
        raise CorpusError(f"no records in {path}")
    return Corpus(records=records, store=ProfileStore(profiles, table))


def load_redacted(path: str | Path) -> list[dict]:
    """Load a redacted JSONL file, returning raw dicts with id/mask/method/k.

    Each row needs a string 'id', used by no earlier row, and a list 'mask';
    whether the id names a profile and the mask fits its document is checked
    against the corpus.
    """
    need = "redacted rows need a string 'id' and a list 'mask'"
    return [obj for _, obj in _jsonl_rows(path, need, lambda obj: isinstance(obj.get("mask"), list))]


def load_sidecar(path: str | Path, redacted: list[dict]) -> list[dict]:
    """Load the sidecar of redacted rows as `load_redacted` returns them.

    Each row needs a bool 'success', an int 'k', and a string 'id' used by
    no earlier row that names a redacted row whose 'mask' equals its own.
    """
    masks = {row["id"]: row["mask"] for row in redacted}

    def valid(obj: dict) -> bool:
        return isinstance(obj.get("success"), bool) and type(obj.get("k")) is int

    rows = []
    for line_no, obj in _jsonl_rows(path, "sidecar rows need a string 'id', a bool 'success' and an int 'k'", valid):
        if obj["id"] not in masks:
            raise CorpusError(f"sidecar id {obj['id']!r} names no redacted row", line_no)
        if obj.get("mask") != masks[obj["id"]]:
            raise CorpusError(f"sidecar mask of {obj['id']!r} differs from its redacted row's", line_no)
        rows.append(obj)
    return rows


class IdfTable:
    """Smoothed inverse document frequency statistics.

    idf(t) = ln((1 + D) / (1 + df(t))), which is 0 for a term present in
    every document and maximal (ln(1 + D)) for unseen terms.
    """

    def __init__(self, doc_count: int, df: dict[str, int]):
        self.doc_count = doc_count
        self.df = df

    def idf(self, term: str) -> float:
        return math.log((1 + self.doc_count) / (1 + self.df.get(term, 0)))

    @property
    def max_idf(self) -> float:
        return math.log(1 + self.doc_count)

    @classmethod
    def from_token_documents(cls, docs: Iterable[Sequence[str]]) -> "IdfTable":
        """Build from an iterable of normalized-term sequences."""
        docs = list(docs)
        return cls(doc_count=len(docs), df=Counter(chain.from_iterable(map(set, docs))))


@_gc_paused()
def compute_idf(corpus: Corpus) -> IdfTable:
    """IDF over the union of documents and linearized profiles."""
    docs = chain((rec.document.normalized() for rec in corpus.records), corpus.store.terms)
    return IdfTable.from_token_documents(docs)


def check_mask(mask: np.ndarray | Sequence[int], n: int) -> np.ndarray:
    """Validate and canonicalize a 0/1 mask of length n; a bad mask raises ValueError.

    Entries must be bools or numbers equal to 0 or 1: strings, objects and
    values such as 0.5, which a cast to int8 would silently change, are rejected.
    """
    try:
        arr = np.asarray(mask)
    except ValueError as exc:
        raise ValueError(f"mask is not a 0/1 vector ({exc})") from exc
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"mask is not a 0/1 vector (entries of dtype {arr.dtype})")
    if arr.ndim != 1 or len(arr) != n:
        raise ValueError(f"mask length {arr.shape} does not match document length {n}")
    if np.any((arr != 0) & (arr != 1)):
        raise ValueError("mask entries must be 0 or 1")
    return arr.astype(np.int8, copy=False)


def apply_mask(document: Document, mask: np.ndarray | Sequence[int], mode: str = "replace") -> str:
    """Render a document with its mask applied.

    Modes: "replace" puts the literal <mask> at each masked position,
    "delete" drops masked words, and "collapse" joins each maximal run of
    masked words into a single <mask>.
    """
    arr = check_mask(mask, len(document))
    if mode not in ("replace", "delete", "collapse"):
        raise ValueError(f"unknown mask mode {mode!r}")
    out: list[str] = []
    prev_masked = False
    for token, bit in zip(document.tokens, arr):
        if bit:
            if mode == "replace":
                out.append(MASK_TOKEN)
            elif mode == "collapse" and not prev_masked:
                out.append(MASK_TOKEN)
            prev_masked = True
        else:
            out.append(token.surface)
            prev_masked = False
    return " ".join(out)


def deflate_size(text: str) -> int:
    """Byte length of the text under DEFLATE at level 6."""
    return len(zlib.compress(text.encode("utf-8"), 6))


def corpus_stats(corpus: Corpus) -> dict:
    """Summary counts used by the CLI stats command."""
    idf = compute_idf(corpus)
    lengths = [len(rec.document) for rec in corpus.records]
    return {
        "records": len(corpus.records),
        "profiles": len(corpus.store),
        "vocab_size": len(idf.df),
        "idf_documents": idf.doc_count,
        "mean_doc_tokens": sum(lengths) / len(lengths),
        "max_doc_tokens": max(lengths),
        "max_idf": idf.max_idf,
    }


class Vocabulary:
    """Dense term index: one row per corpus term, then the mask row.

    Known terms occupy rows [0, n_terms) in sorted order, so the layout is
    stable across save/load; row n_terms is the mask symbol. An unseen term
    reads as the mask row, so it encodes exactly like a masked position.
    """

    def __init__(self, terms: Sequence[str]):
        self.terms = tuple(terms)
        self._index = {t: i for i, t in enumerate(self.terms)}
        if len(self._index) != len(self.terms):
            raise ValueError("vocabulary terms must be unique")

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def mask_index(self) -> int:
        return self.n_terms

    @property
    def n_rows(self) -> int:
        return self.n_terms + 1

    def index_of(self, term: str) -> int:
        return self._index.get(term, self.mask_index)

    def indices(self, terms: Iterable[str]) -> np.ndarray:
        get, mask = self._index.get, self.mask_index
        return np.array([get(t, mask) for t in terms], dtype=np.int64)

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "Vocabulary":
        terms = {t.normalized for rec in corpus.records for t in rec.document}
        return cls(sorted(terms.union(*corpus.store.terms)))
