"""Corpus handling: tokenization, aligned records, vocabulary, and IDF statistics.

A corpus file is UTF-8 JSONL with one object per line:

    {"id": "p17", "document": "raw text ...", "profile": [["name", "Lee Harding"], ...]}

Documents are tokenized at the word level (whitespace split, punctuation runs
standalone) through one term table per load and held as int32 surface ids; the
store holds its profiles linearized as term ids. IDF counts by term id; BM25 shares its formula.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import re
import sys
import zlib
from array import array
from itertools import islice
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

MASK_TOKEN = "<mask>"
# How apply_mask renders masked positions; see its docstring.
MASK_MODES = ("replace", "delete", "collapse")

# Maximum encoded length of a linearized profile, in tokens.
MAX_PROFILE_TOKENS = 128
_IDF_BLOCK = 1 << 16  # compute_idf counts the items whose keys start in one window of this many keys at a time

_TOKEN_RE = re.compile(r"\w+|[^\w\s]+")
_ALNUM_RE = re.compile(r"[^\W_]")


class CorpusError(ValueError):
    """Raised for malformed corpus files. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, slots=True)
class Document:
    """An ordered token sequence: int32 surface ids into the term table it was split through, of which
    `surfaces()`, `normalized()`, `terms` (term ids) and `punctuation` (flags) are views.

    Documents are equal when their surfaces are, which fix their terms and flags, whatever their tables.
    """

    ids: np.ndarray
    table: _TermTable

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def terms(self) -> np.ndarray:
        return self.table.arrays()[0].take(self.ids)

    @property
    def punctuation(self) -> np.ndarray:
        return self.table.arrays()[1].take(self.ids)

    def surfaces(self) -> list[str]:
        return list(map(self.table.surfaces.__getitem__, self.ids.tolist()))

    def normalized(self) -> list[str]:
        return list(map(self.table.terms.__getitem__, self.terms.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        return self.surfaces() == other.surfaces()

    def __hash__(self) -> int:
        return hash(tuple(self.surfaces()))


@dataclass(frozen=True, slots=True)
class Profile:
    """One person's key/value table: nonempty, a token in every key and value, no key twice; else CorpusError."""

    id: str
    entries: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise CorpusError(f"profile {self.id!r} has no entries")
        for key, value in self.entries:  # a text holds a token exactly when it is not all whitespace
            if not isinstance(key, str):
                raise CorpusError(f"profile {self.id!r} has a key that is not a string: {key!r}")
            if not (key.strip() and str(value).strip()):
                raise CorpusError(f"profile entry {key!r} has no tokens in its {'value' if key.strip() else 'key'}")
        if len({k for k, _ in self.entries}) != len(self.entries):
            raise CorpusError(f"profile {self.id!r} has duplicate keys")


@dataclass(frozen=True, slots=True)
class AlignedRecord:
    """A document paired with the id of its true profile."""

    document: Document
    profile_id: str


class ProfileStore:
    """Ordered collection of unique profiles, addressable by id or index.

    `terms` holds the profiles' linearized normalized-term ids back to back, in store order,
    and `lengths` each one's count. The ids are into `table`, the load's or else the store's own.
    They are computed once, as the store is built.
    """

    def __init__(self, profiles: Sequence[Profile], table: _TermTable | None = None):
        self.profiles: list[Profile] = list(profiles)
        self._index: dict[str, int] = {}
        for i, p in enumerate(self.profiles):
            if p.id in self._index:
                raise CorpusError(f"duplicate profile id {p.id!r}")
            self._index[p.id] = i
        self.table = _TermTable() if table is None else table
        linearized = [_linearize(p, self.table) for p in self.profiles]
        self.lengths = np.array(list(map(len, linearized)), dtype=np.int64) // 4
        self.terms = self.table.arrays()[0].take(np.frombuffer(b"".join(linearized), dtype=np.int32))

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


class _TermTable(dict):
    """One load's term table: surface i is `surfaces[i]`, its casefolded term `terms[norms[i]]`, and `punct[i]`
    whether it has no letter or digit; `term_ids` maps terms to ids. All but `surfaces` catch up in `arrays()`.

    As a dict, it maps each distinct text, split once, to its surface ids as packed int32 bytes (b"" for a
    text with none): profile keys and values, documents' whitespace-separated chunks and their surfaces, a
    text that is not one surface being the run of its chunks' or surfaces' ids. A (key, value) profile entry
    maps to itself with its key interned, so its repeats share one tuple. A table lives as long as the documents
    and store split through it: one corpus load's, or one call's.
    """

    def __init__(self):
        self.surfaces: list[str] = []
        self.terms: list[str] = []
        self.norms = array("i")
        self.punct = array("b")
        self.term_ids: dict[str, int] = {}
        self._arrays = np.empty(0, dtype=np.int32), np.empty(0, dtype=bool)

    def __missing__(self, text: str | tuple[str, str]) -> bytes | tuple[str, str]:
        if isinstance(text, tuple):
            entry = sys.intern(text[0]), text[1]
            list(map(self.__getitem__, entry))  # split before any document's equal text, so the table keeps these
            self[entry] = entry
            return entry
        if _TOKEN_RE.fullmatch(text):  # one surface
            ids = len(self.surfaces).to_bytes(4, sys.byteorder)
            self.surfaces.append(text)
        else:  # the run of its chunks' ids, or of its surfaces' for one chunk
            parts = text.split()
            ids = b"".join(map(self.__getitem__, parts if len(parts) > 1 else _TOKEN_RE.findall(text)))
        self[text] = ids
        return ids

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """`norms` and `punct` as arrays over the surface ids, once the table has taken in its new surfaces."""
        new = self.surfaces[len(self.punct):]
        if new:
            # a surface that is its own casefolded term is that term's string
            terms = (surface if surface == term else term for surface, term in zip(new, map(str.casefold, new)))
            self.norms.extend(self.term_ids.setdefault(term, len(self.term_ids)) for term in terms)
            self.terms.extend(islice(self.term_ids, len(self.terms), None))
            self.punct.extend(_ALNUM_RE.search(surface) is None for surface in new)
            self._arrays = np.array(self.norms, dtype=np.int32), np.array(self.punct, dtype=bool)
        return self._arrays

    def split(self, texts: Iterable[str]) -> np.ndarray:
        """The surface ids of the texts' tokens, back to back, split through this table."""
        return np.frombuffer(b"".join(map(self.__getitem__, texts)), dtype=np.int32)


def _tokenize(text: str, table: _TermTable) -> Document:
    # no token spans whitespace, and str.split's whitespace is the pattern's \s, so the
    # tokens of a text are those of its chunks, each of which the table splits once
    ids = table.split(text.split())
    if not len(ids):
        raise CorpusError("no tokens in input text")
    return Document(ids, table)


def tokenize(text: str) -> Document:
    """Split raw text into a Document.

    Words are split on whitespace and punctuation runs become standalone
    tokens, so "John Smith, farmer." yields five tokens. Normalization is
    the casefolded surface. Raises CorpusError when no tokens result.
    """
    return _tokenize(text, _TermTable())


def _linearize(profile: Profile, table: _TermTable) -> bytes:
    """Render a profile as the surface ids of "key : value | key : value ...", through `table`, as packed int32 bytes.

    Whole trailing entries are dropped until the sequence fits MAX_PROFILE_TOKENS.
    The first entry is kept even if it must be clipped hard.
    """
    colon, separator = table[":"], table["|"]
    parts: list[bytes] = []
    kept = 0  # tokens in parts
    full = False
    for key, value in profile.entries:
        key_ids, value_ids = table[key], table[str(value)]
        tokens = (len(key_ids) + len(value_ids)) // 4 + 1  # key, colon, value
        if parts:
            full = full or kept + 1 + tokens > MAX_PROFILE_TOKENS
            if full:
                continue
            parts.append(separator)
            kept += 1
        parts += key_ids, colon, value_ids
        kept += tokens
    return b"".join(parts)[: 4 * MAX_PROFILE_TOKENS]


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


def _parse_record(obj: dict, line: int, table: _TermTable) -> tuple[AlignedRecord, Profile]:
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
        profile = Profile(record_id, tuple(pairs))
        document = _tokenize(text, table)
    except CorpusError as exc:
        raise CorpusError(str(exc), line) from exc
    return AlignedRecord(document, record_id), profile


def load_corpus(path: str | Path) -> Corpus:
    """Load a JSONL corpus file.

    Every line must parse, every row needs a nonempty string 'id' used by no
    earlier row, and every profile key and value must hold a token; errors
    name the offending line. The load's graph of objects has no cycles to find, so it runs
    with the cyclic collector paused; the caller's state is restored as it returns or raises.
    """
    records: list[AlignedRecord] = []
    profiles: list[Profile] = []
    table = _TermTable()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for line_no, obj in _jsonl_rows(path, "corpus rows need a nonempty string 'id'", lambda obj: obj["id"] != ""):
            record, profile = _parse_record(obj, line_no, table)
            records.append(record)
            profiles.append(profile)
        if not records:
            raise CorpusError(f"no records in {path}")
        return Corpus(records, ProfileStore(profiles, table))
    finally:
        if enabled:
            gc.enable()


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


def smoothed_idf(doc_count: int, df: np.ndarray) -> np.ndarray:
    """ln((1 + D) / (1 + d)) of each count d in df, over D = doc_count documents: one `math.log` per distinct d."""
    by_count = np.zeros(doc_count + 1)
    for d in np.flatnonzero(np.bincount(df)).tolist():
        by_count[d] = math.log((1 + doc_count) / (1 + d))
    return by_count[df]


class IdfTable:
    """Smoothed inverse document frequency statistics over the term ids of `table`.

    `df[t]` counts the documents holding term id t; idf(t) is `smoothed_idf` of that count, 0 for a term in every
    document. A term in none, or that the table lacks or took in after the count, reads `max_idf`, ln(1 + D).
    """

    def __init__(self, doc_count: int, df: np.ndarray, table: _TermTable):
        self.doc_count = doc_count
        self.df = df
        self.table = table
        self._idf = smoothed_idf(doc_count, np.append(df, 0))  # by term id, then an unseen term's
        self.max_idf = self._idf.item(-1)

    def idf(self, term: str) -> float:
        return self._idf.item(min(self.table.term_ids.get(term, len(self.df)), len(self.df)))

    def of(self, document: Document) -> np.ndarray:
        """Each position's idf, read by term id; a document of another table is split through this one first."""
        ids = document.ids if document.table is self.table else self.table.split(document.surfaces())
        return self._idf.take(np.minimum(self.table.arrays()[0].take(ids), len(self.df)))

    @property
    def terms(self) -> list[str]:
        """The counted terms, those of df > 0, in term-id order."""
        return list(map(self.table.terms.__getitem__, np.flatnonzero(self.df).tolist()))


def distinct_pairs(ids: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (term, item) keys term * len(lengths) + item of items whose term ids lie back to back in `ids`,
    ascending, and flags of where each one's run starts among all keys, which are one int64 array sorted in place."""
    keys = ids.astype(np.int64)
    keys *= len(lengths)
    keys += np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    keys.sort()
    first = np.append(True, keys[1:] != keys[:-1])
    return keys[first], first


def compute_idf(corpus: Corpus) -> IdfTable:
    """IDF over documents and linearized profiles, by term id in the store's table (a foreign document joins it).
    Each term counts once per document: the distinct (term, document) pairs of one block at a time add to df."""
    store, table = corpus.store, corpus.store.table
    docs = [d.ids if d.table is table else table.split(d.surfaces()) for d in (r.document for r in corpus.records)]
    terms = table.arrays()[0]  # read once every foreign document is split
    offsets = np.append(0, np.cumsum(store.lengths))
    lengths = np.append(np.fromiter(map(len, docs), np.int64, len(docs)), store.lengths)  # documents, then profiles
    df = np.zeros(len(table.terms), dtype=np.int64)
    cuts = np.flatnonzero(np.diff((np.cumsum(lengths) - lengths) // _IDF_BLOCK, prepend=-1)).tolist()
    for a, b in zip(cuts, [*cuts[1:], len(lengths)]):
        profiles = store.terms[offsets[max(a - len(docs), 0)] : offsets[max(b - len(docs), 0)]]
        ids = np.append(terms.take(np.concatenate([*docs[a:b], np.empty(0, np.int32)])), profiles)
        np.add.at(df, distinct_pairs(ids, lengths[a:b])[0] // (b - a), 1)
    return IdfTable(len(docs) + len(store), df, table)


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
    if mode not in MASK_MODES:
        raise ValueError(f"unknown mask mode {mode!r}")
    out: list[str] = []
    for i, (surface, bit) in enumerate(zip(document.surfaces(), arr)):
        if not bit:
            out.append(surface)
        elif mode == "replace" or (mode == "collapse" and not (i and arr[i - 1])):
            out.append(MASK_TOKEN)
    return " ".join(out)


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row, then each row with strings as they are and every other value as `repr(float(v))`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else repr(float(v)) for v in row] for row in rows)


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
        "vocab_size": len(idf.terms),
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

    def indices(self, terms: Iterable[str]) -> np.ndarray:
        get, mask = self._index.get, self.mask_index
        return np.array([get(t, mask) for t in terms], dtype=np.int64)

    @classmethod
    def from_idf(cls, idf: IdfTable) -> "Vocabulary":
        return cls(sorted(idf.terms))  # the counted terms of documents and linearized profiles
