import gc
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deident.corpus import (
    CorpusError,
    IdfTable,
    MASK_TOKEN,
    MAX_PROFILE_TOKENS,
    Profile,
    ProfileStore,
    Vocabulary,
    apply_mask,
    _TOKEN_RE,
    _TokenTable,
    _parse_record,
    _tokenize,
    compute_idf,
    corpus_stats,
    linearize_profile,
    load_corpus,
    load_redacted,
    load_sidecar,
    tokenize,
)
from deident.deid import load_tag_file
from deident.reid import Bm25Reidentifier

from conftest import write_jsonl
from oracles import document_frequencies, linearize
from synthdata import make_corpus_rows, make_distinct_rows


def test_tokenize_separates_punctuation():
    doc = tokenize("John Smith, farmer.")
    assert doc.surfaces() == ["John", "Smith", ",", "farmer", "."]
    assert [t.is_punctuation for t in doc.tokens] == [False, False, True, False, True]


def test_tokenize_single_token():
    doc = tokenize("a")
    assert len(doc) == 1
    assert doc.tokens[0].normalized == "a"


def test_tokenize_hand_counted_sentence():
    # Hand tokenization: 30 tokens, with "(" ")" "." standalone and
    # "long-distance" split into long / - / distance.
    text = (
        "Maria Kovacs (born 4 July 1978) is a Hungarian long-distance runner "
        "who won the Budapest marathon twice and later coached the national "
        "team in Szeged."
    )
    doc = tokenize(text)
    assert len(doc) == 30
    assert doc.surfaces()[:8] == ["Maria", "Kovacs", "(", "born", "4", "July", "1978", ")"]
    assert doc.surfaces()[11:14] == ["long", "-", "distance"]


def test_tokenize_empty_raises():
    with pytest.raises(CorpusError):
        tokenize("   \n\t  ")


def test_tokenize_deterministic(rng):
    alphabet = list("abcdefg .,!?-")
    for _ in range(50):
        text = "".join(rng.choice(alphabet) for _ in range(40))
        if not any(c.isalnum() for c in text):
            continue
        first = tokenize(text)
        second = tokenize(text)
        assert first.surfaces() == second.surfaces()
        assert [t.normalized for t in first.tokens] == [t.surface.casefold() for t in first.tokens]


def test_tokenize_shared_table_gives_equal_documents():
    text = "The farmer, the Farmer and THE farmer."
    table = _TokenTable()
    shared = _tokenize(text, table)
    assert shared == tokenize(text)
    again = _tokenize("the farmer", table)
    assert again == tokenize("the farmer")
    # each distinct surface is built once per table
    assert again.tokens[0] is shared.tokens[3]
    assert again.tokens[1] is shared.tokens[1] is shared.tokens[7]


# Text around the chunk boundaries: the ASCII separators \x1c-\x1f, NEL and Unicode
# spaces are whitespace to str.split and to the pattern's \s; \u200b and \u00ad are not.
_SPLIT_PIECES = st.sampled_from([
    "\x1c", "\x1d", "\x1e", "\x1f", " ", "\u3000", "\x85", "\u2028", "\t", "\n", "\u00a0",
    "\u200b", "\u00ad", "Ann", "é", "a_b", "1984", ",", "--", "«»",
])
_SPLIT_TEXT = st.one_of(st.text(), st.lists(st.one_of(_SPLIT_PIECES, st.text(max_size=3)), max_size=12).map("".join))


@settings(max_examples=400, deadline=None)
@given(texts=st.lists(_SPLIT_TEXT, min_size=1, max_size=4))
def test_tokenize_through_the_chunk_memo_matches_the_pattern(texts):
    table = _TokenTable()  # shared by the texts, as one corpus load shares it
    for text in texts:
        want = _TOKEN_RE.findall(text)
        assert [t.surface for t in table[text]] == want
        if want:
            assert _tokenize(text, table).surfaces() == want
        else:
            with pytest.raises(CorpusError):
                _tokenize(text, table)


def test_str_isspace_is_the_patterns_whitespace_on_every_code_point():
    text = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", text) == [c for c in text if c.isspace()]


@pytest.fixture
def restores_gc():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_lexical_set_up_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, restores_gc, enabled):
    rows = make_corpus_rows(20, seed=4)
    path = write_jsonl(tmp_path / "t.jsonl", rows)
    seen, parse = [], _parse_record

    def watched(*args):
        seen.append(gc.isenabled())
        return parse(*args)

    monkeypatch.setattr("deident.corpus._parse_record", watched)
    (gc.enable if enabled else gc.disable)()
    corpus = load_corpus(path)
    assert seen == [False] * 20  # paused for the whole load
    assert gc.isenabled() is enabled
    stages = [
        lambda: ProfileStore(corpus.store.profiles),
        lambda: compute_idf(corpus),
        lambda: Bm25Reidentifier(corpus.store),
    ]
    for stage in stages:
        stage()
        assert gc.isenabled() is enabled
    rows[10]["profile"] = [["city", " "]]
    with pytest.raises(CorpusError, match="line 11"):
        load_corpus(write_jsonl(tmp_path / "bad.jsonl", rows))
    assert gc.isenabled() is enabled
    with pytest.raises(ValueError):
        Bm25Reidentifier(corpus.store, k1=0.0)
    assert gc.isenabled() is enabled


def test_lexical_set_up_leaves_nothing_to_the_collector(tmp_path, restores_gc):
    # the pause defers collection, so a cycle made in a stage would hold its memory until a later pass
    path = write_jsonl(tmp_path / "t.jsonl", make_corpus_rows(20, seed=4))
    gc.collect()
    gc.disable()
    corpus = load_corpus(path)
    compute_idf(corpus)
    Bm25Reidentifier(corpus.store)
    del corpus
    assert gc.collect() == 0


def test_load_corpus_matches_per_call_tokenization(tmp_path):
    rows = make_corpus_rows(30, seed=4)
    corpus = load_corpus(write_jsonl(tmp_path / "t.jsonl", rows))
    for record, row in zip(corpus.records, rows, strict=True):
        assert record.document == tokenize(row["document"])
    assert corpus.store.terms == tuple(tuple(linearize_profile(p).normalized()) for p in corpus.store)


def test_load_corpus_three_records(tmp_path):
    rows = [
        {"id": "a", "document": "Ann is here.", "profile": [["name", "Ann"]]},
        {"id": "b", "document": "Bob is there.", "profile": [["name", "Bob"]]},
        {"id": "c", "document": "Cal is gone.", "profile": [["name", "Cal"]]},
    ]
    path = write_jsonl(tmp_path / "c.jsonl", rows)
    corpus = load_corpus(path)
    assert len(corpus.records) == 3
    assert len(corpus.store) == 3
    assert corpus.store.index_of("b") == 1


def test_load_corpus_duplicate_id_names_line(tmp_path):
    rows = [
        {"id": "a", "document": "Ann is here.", "profile": [["name", "Ann"]]},
        {"id": "a", "document": "Ann again.", "profile": [["name", "Ann"]]},
    ]
    path = write_jsonl(tmp_path / "dup.jsonl", rows)
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_load_corpus_malformed_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "document": "Ann is here.", "profile": [["name", "Ann"]]}\n'
        "{not json}\n"
    )
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def _row(row_id: str, bit: int) -> dict:
    """A row that each of the four JSONL readers takes."""
    return {
        "id": row_id, "document": "Ann.", "profile": [["name", "Ann"]],
        "mask": [bit], "success": True, "k": 1, "tags": ["O"],
    }


JSONL_READERS = pytest.mark.parametrize(
    "loader",
    [load_corpus, load_redacted, lambda path: load_sidecar(path, [_row("a", 0), _row("b", 1)]), load_tag_file],
    ids=["load_corpus", "load_redacted", "load_sidecar", "load_tag_file"],
)


@JSONL_READERS
def test_jsonl_rows_must_be_objects(tmp_path, loader):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(_row("a", 0)) + "\n\n5\n")
    with pytest.raises(CorpusError, match="line 3: expected a JSON object"):
        loader(path)


@JSONL_READERS
def test_jsonl_readers_reject_a_repeated_id(tmp_path, loader):
    rows = [_row("a", 0), _row("b", 1), _row("a", 1)]
    with pytest.raises(CorpusError, match=r"^line 3: duplicate id 'a' \(first seen on line 1\)$"):
        loader(write_jsonl(tmp_path / "rows.jsonl", rows))


def test_load_corpus_synthetic_thousand(tmp_path):
    path = write_jsonl(tmp_path / "big.jsonl", make_corpus_rows(1000, seed=3))
    corpus = load_corpus(path)
    assert len(corpus.records) == 1000
    assert len(corpus.store) == 1000


def test_distinct_rows_are_seeded_and_mostly_distinct(tmp_path):
    rows = make_distinct_rows(200, seed=3)
    assert rows == make_distinct_rows(200, seed=3) != make_distinct_rows(200, seed=4)
    df = compute_idf(load_corpus(write_jsonl(tmp_path / "d.jsonl", rows))).df
    assert sum(count == 1 for count in df.values()) > len(df) / 2


def test_linearize_profile_two_entries():
    profile = Profile(id="x", entries=(("name", "Lee Harding"), ("occupation", "writer")))
    doc = linearize_profile(profile)
    assert doc.surfaces() == ["name", ":", "Lee", "Harding", "|", "occupation", ":", "writer"]


def test_linearize_profile_single_entry_no_separator():
    profile = Profile(id="x", entries=(("name", "Lee Harding"),))
    assert "|" not in linearize_profile(profile).surfaces()


def test_linearize_profile_drops_trailing_entries():
    long_value = " ".join(f"w{i}" for i in range(60))
    profile = Profile(
        id="x",
        entries=(("first", long_value), ("second", long_value), ("third", "tail")),
    )
    doc = linearize_profile(profile, max_tokens=128)
    assert len(doc) <= 128
    surfaces = doc.surfaces()
    # first entry (62 tokens) + separator + second entry (62) = 125; third dropped whole
    assert surfaces.count("|") == 1
    assert "tail" not in surfaces


def test_linearize_profile_clips_oversized_first_entry():
    huge = " ".join(f"w{i}" for i in range(300))
    profile = Profile(id="x", entries=(("bio", huge), ("extra", "tail")))
    doc = linearize_profile(profile, max_tokens=128)
    assert len(doc) == 128
    assert "tail" not in doc.surfaces()


def test_linearize_empty_profile_raises():
    with pytest.raises(CorpusError):
        linearize_profile(Profile(id="x", entries=()))


# Profile key and value texts: words in mixed case, punctuation-only runs
# and Unicode whitespace (pieces may join into text with no tokens at all),
# or long runs of words that carry a profile past 128 tokens.
_FIELD_PIECES = st.sampled_from([
    "Ann", "ann", "LEE", "writer", "1984", "a_b", "Straße", "é",
    ",", ".", "--", "!?", "|", ":", " ", "\t", "\n", "\u00a0", "\u2003", "\u3000",
])
_FIELD_TEXT = st.one_of(
    st.lists(_FIELD_PIECES, max_size=10).map("".join),
    st.integers(0, 200).map(lambda n: " ".join(f"w{i}" for i in range(n))),
)
_PROFILE_ENTRIES = st.lists(st.tuples(_FIELD_TEXT, _FIELD_TEXT), max_size=6, unique_by=lambda e: e[0])


def _outcome(linearize_fn, *args):
    """The Document made, or the CorpusError message raised."""
    try:
        return linearize_fn(*args)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


@settings(max_examples=300, deadline=None)
@given(entries=_PROFILE_ENTRIES, max_tokens=st.one_of(st.just(MAX_PROFILE_TOKENS), st.integers(1, 24)))
@example(entries=[("a", "b"), ("c", "d")], max_tokens=6)  # the second entry misses by one token
@example(entries=[("a", "b"), ("c", "d")], max_tokens=7)  # the second entry fits exactly
def test_linearize_profile_matches_the_per_entry_oracle(entries, max_tokens):
    profile = Profile(id="x", entries=tuple(entries))
    got, want = _outcome(linearize_profile, profile, max_tokens), _outcome(linearize, profile, max_tokens)
    assert got == want
    if isinstance(want, str):
        return
    assert got.surfaces() == want.surfaces()
    assert got.normalized() == want.normalized()
    assert len(got) <= max_tokens


@settings(max_examples=150, deadline=None)
@given(profiles=st.lists(_PROFILE_ENTRIES, min_size=1, max_size=5), warm=st.booleans())
def test_store_linearized_matches_the_per_entry_oracle(profiles, warm):
    profiles = [Profile(id=f"p{i}", entries=tuple(entries)) for i, entries in enumerate(profiles)]
    table = _TokenTable()
    if warm:  # as a load leaves it: every key and value already split
        for profile in profiles:
            for key, value in profile.entries:
                table[key], table[value]
    want = [_outcome(linearize, p) for p in profiles]
    errors = [w for w in want if isinstance(w, str)]
    if errors:  # the store linearizes as it is built
        with pytest.raises(CorpusError) as info:
            ProfileStore(profiles, table)
        assert f"CorpusError: {info.value}" == errors[0]
        return
    assert ProfileStore(profiles, table).terms == tuple(tuple(d.normalized()) for d in want)


@pytest.mark.parametrize("entry, part", [
    (["city", "  "], "value"),
    (["city", "\u3000\n"], "value"),
    (["\u00a0", "Paris"], "key"),
])
def test_load_corpus_rejects_a_profile_field_without_tokens(tmp_path, entry, part):
    rows = make_corpus_rows(3, seed=4)
    rows[1]["profile"].append(entry)
    with pytest.raises(CorpusError) as info:
        load_corpus(write_jsonl(tmp_path / "t.jsonl", rows))
    assert info.value.line == 2
    assert str(info.value) == f"line 2: profile entry {entry[0]!r} has no tokens in its {part}"


def test_profile_duplicate_keys_rejected():
    with pytest.raises(CorpusError):
        Profile(id="x", entries=(("k", "1"), ("k", "2")))


def test_idf_term_in_every_document_is_zero():
    table = IdfTable.from_token_documents([["x", "a"], ["x", "b"], ["x", "c"], ["x", "d"]])
    assert table.idf("x") == pytest.approx(math.log(5 / 5), abs=0)
    assert table.idf("x") == 0.0


def test_idf_rare_term_value():
    docs = [["common"] for _ in range(99)]
    docs[0] = ["common", "rare"]
    table = IdfTable.from_token_documents(docs)
    assert table.doc_count == 99
    assert table.idf("rare") == pytest.approx(3.912023005428146, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", "g"]), max_size=8), max_size=12))
def test_idf_counting_matches_the_term_by_term_loop(docs):
    table = IdfTable.from_token_documents(iter(docs))
    count, df = document_frequencies(docs)
    assert table.doc_count == count
    assert table.df == df
    assert list(table.df) == list(df)


def test_idf_rarest_term_is_maximal(tmp_path):
    path = write_jsonl(tmp_path / "idf.jsonl", make_corpus_rows(200, seed=5))
    corpus = load_corpus(path)
    table = compute_idf(corpus)
    # brute-force document-frequency count over the same token documents
    token_docs = [rec.document.normalized() for rec in corpus.records]
    token_docs += [linearize_profile(p).normalized() for p in corpus.store]
    assert table.doc_count == len(token_docs)
    df = {}
    for doc in token_docs:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    assert df == table.df
    rarest = min(df, key=lambda t: (df[t], t))
    assert table.idf(rarest) == max(table.idf(t) for t in df)
    for term, count in df.items():
        assert count <= table.doc_count
        assert table.idf(term) >= 0.0


def test_apply_mask_zero_mask_round_trips():
    doc = tokenize("John Smith, farmer.")
    text = apply_mask(doc, np.zeros(len(doc), dtype=np.int8), mode="replace")
    assert tokenize(text).surfaces() == doc.surfaces()


@pytest.mark.parametrize("mode", ["replace", "delete", "collapse"])
def test_apply_mask_zero_mask_identity(mode):
    doc = tokenize("a b c d")
    assert apply_mask(doc, [0, 0, 0, 0], mode=mode) == "a b c d"


def test_apply_mask_modes():
    doc = tokenize("a b c")
    assert apply_mask(doc, [0, 1, 1], mode="replace") == "a <mask> <mask>"
    assert apply_mask(doc, [0, 1, 1], mode="collapse") == "a <mask>"
    assert apply_mask(doc, [0, 1, 1], mode="delete") == "a"


def test_apply_mask_length_mismatch():
    doc = tokenize("a b c")
    with pytest.raises(ValueError):
        apply_mask(doc, [0, 1], mode="replace")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_apply_mask_invariants(data):
    words = st.text(alphabet="abcXYZ019.,;!?'-", min_size=1, max_size=6)
    doc = tokenize(" ".join(data.draw(st.lists(words, min_size=1, max_size=12))))
    mask = data.draw(st.lists(st.booleans(), min_size=len(doc), max_size=len(doc)))
    surfaces = doc.surfaces()
    for mode in ("replace", "delete", "collapse"):
        assert apply_mask(doc, np.zeros(len(doc), dtype=np.int8), mode=mode) == " ".join(surfaces)
    replaced = apply_mask(doc, mask, mode="replace").split(" ")
    assert replaced == [MASK_TOKEN if bit else s for s, bit in zip(surfaces, mask)]
    assert apply_mask(doc, mask, mode="delete").split() == [s for s, bit in zip(surfaces, mask) if not bit]
    merged = [t for i, t in enumerate(replaced) if not (t == MASK_TOKEN and i and replaced[i - 1] == MASK_TOKEN)]
    assert apply_mask(doc, mask, mode="collapse") == " ".join(merged)


def test_apply_mask_counts_sentinels(rng):
    doc = tokenize("the quick brown fox jumps over the lazy dog tonight")
    for _ in range(25):
        mask = (rng.random(len(doc)) < 0.4).astype(np.int8)
        text = apply_mask(doc, mask, mode="replace")
        assert text.count(MASK_TOKEN) == int(mask.sum())


def test_vocabulary_layout_and_unseen_terms():
    vocab = Vocabulary(["alpha", "beta"])
    assert vocab.index_of("alpha") == 0
    assert vocab.index_of("beta") == 1
    assert vocab.mask_index == 2
    assert vocab.n_rows == 3
    # a term outside the vocabulary reads as the mask row
    assert vocab.index_of("gamma") == vocab.mask_index
    assert vocab.indices(["beta", "gamma", "alpha", "delta"]).tolist() == [1, 2, 0, 2]
    assert vocab.indices(["beta", "gamma"]).dtype == vocab.indices([]).dtype == np.int64


def test_vocabulary_from_corpus_is_sorted(tmp_path):
    path = write_jsonl(tmp_path / "v.jsonl", make_corpus_rows(20, seed=2))
    corpus = load_corpus(path)
    vocab = Vocabulary.from_corpus(corpus)
    assert list(vocab.terms) == sorted(vocab.terms)
    assert "name" in vocab.terms  # from linearized profiles


def test_corpus_stats_counts(tmp_path):
    rows = [
        {"id": "a", "document": "Ann is here.", "profile": [["name", "Ann"]]},
        {"id": "b", "document": "Bob is there.", "profile": [["name", "Bob"]]},
        {"id": "c", "document": "Cal is gone.", "profile": [["name", "Cal"]]},
    ]
    path = write_jsonl(tmp_path / "s.jsonl", rows)
    corpus = load_corpus(path)
    stats = corpus_stats(corpus)
    assert stats["records"] == 3
    assert stats["idf_documents"] == 6
    assert stats["vocab_size"] == Vocabulary.from_corpus(corpus).n_terms
