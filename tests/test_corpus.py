import gc
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deident.corpus import (
    AlignedRecord,
    Corpus,
    CorpusError,
    Document,
    IdfTable,
    MASK_TOKEN,
    MAX_PROFILE_TOKENS,
    Profile,
    ProfileStore,
    Vocabulary,
    apply_mask,
    _TOKEN_RE,
    _TermTable,
    _linearize,
    _parse_record,
    _tokenize,
    compute_idf,
    corpus_stats,
    load_corpus,
    load_redacted,
    load_sidecar,
    smoothed_idf,
    tokenize,
)
import deident.corpus
from deident.deid import load_tag_file
from deident.encoder import init_params
from deident.reid import Bm25Reidentifier, NeuralReidentifier

from conftest import idf_counts, store_terms, write_jsonl
from oracles import document_frequencies, linearize, naive_okapi, split_tokens
from synthdata import make_corpus_rows, make_distinct_rows, write_corpus


def test_tokenize_separates_punctuation():
    doc = tokenize("John Smith, farmer.")
    assert doc.surfaces() == ["John", "Smith", ",", "farmer", "."]
    assert doc.punctuation.tolist() == [False, False, True, False, True]


def test_tokenize_single_token():
    doc = tokenize("a")
    assert len(doc) == 1
    assert doc.normalized() == ["a"]


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
        assert first.normalized() == [s.casefold() for s in first.surfaces()]


def test_tokenize_shared_table_gives_equal_documents():
    text = "The farmer, the Farmer and THE farmer."
    table = _TermTable()
    shared = _tokenize(text, table)
    assert shared == tokenize(text)
    again = _tokenize("the farmer", table)
    assert again == tokenize("the farmer")
    # each distinct surface gets one id per table, and each distinct term one term id
    assert again.ids[0] == shared.ids[3]
    assert again.ids[1] == shared.ids[1] == shared.ids[7]
    assert len(set(shared.terms.tolist())) == 5  # the, farmer, and, "," and "."


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
    table = _TermTable()  # shared by the texts, as one corpus load shares it
    for text in texts:
        want = _TOKEN_RE.findall(text)
        assert [table.surfaces[i] for i in np.frombuffer(table[text], dtype=np.int32)] == want
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
    assert store_terms(corpus.store) == [_linearized(p).normalized() for p in corpus.store]


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
    df = idf_counts(compute_idf(load_corpus(write_jsonl(tmp_path / "d.jsonl", rows))))
    assert sum(count == 1 for count in df.values()) > len(df) / 2


def _linearized(profile, max_tokens=MAX_PROFILE_TOKENS) -> Document:
    """The profile's tokens as `ProfileStore` linearizes them, through a fresh term table, under max_tokens."""
    table = _TermTable()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(deident.corpus, "MAX_PROFILE_TOKENS", max_tokens)
        ids = _linearize(profile, table)
    return Document(np.frombuffer(ids, dtype=np.int32), table)


def test_linearize_profile_two_entries():
    profile = Profile(id="x", entries=(("name", "Lee Harding"), ("occupation", "writer")))
    doc = _linearized(profile)
    assert doc.surfaces() == ["name", ":", "Lee", "Harding", "|", "occupation", ":", "writer"]


def test_linearize_profile_single_entry_no_separator():
    profile = Profile(id="x", entries=(("name", "Lee Harding"),))
    assert "|" not in _linearized(profile).surfaces()


def test_linearize_profile_drops_trailing_entries():
    long_value = " ".join(f"w{i}" for i in range(60))
    profile = Profile(
        id="x",
        entries=(("first", long_value), ("second", long_value), ("third", "tail")),
    )
    doc = _linearized(profile, max_tokens=128)
    assert len(doc) <= 128
    surfaces = doc.surfaces()
    # first entry (62 tokens) + separator + second entry (62) = 125; third dropped whole
    assert surfaces.count("|") == 1
    assert "tail" not in surfaces


def test_linearize_profile_clips_oversized_first_entry():
    huge = " ".join(f"w{i}" for i in range(300))
    profile = Profile(id="x", entries=(("bio", huge), ("extra", "tail")))
    doc = _linearized(profile, max_tokens=128)
    assert len(doc) == 128
    assert "tail" not in doc.surfaces()


def test_linearize_empty_profile_raises():
    with pytest.raises(CorpusError, match="^profile 'x' has no entries$"):
        _linearized(Profile(id="x", entries=()))


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


def _outcome(make, *args):
    """What `make()` returns, or the CorpusError message raised."""
    try:
        return make(*args)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


def _linearized_from(linearize_fn, entries, *args, profile_id="x"):
    """The outcome of building a Profile of entries and linearizing it with linearize_fn, once it is checked that
    Profile refuses exactly the entries on which the oracle, given them unchecked, raises."""
    unchecked = _outcome(linearize, SimpleNamespace(id=profile_id, entries=tuple(entries)))
    outcome = _outcome(lambda: linearize_fn(Profile(profile_id, tuple(entries)), *args))
    assert isinstance(outcome, str) == isinstance(unchecked, str)
    return outcome


@settings(max_examples=300, deadline=None)
@given(entries=_PROFILE_ENTRIES, max_tokens=st.one_of(st.just(MAX_PROFILE_TOKENS), st.integers(1, 24)))
@example(entries=[("a", "b"), ("c", "d")], max_tokens=6)  # the second entry misses by one token
@example(entries=[("a", "b"), ("c", "d")], max_tokens=7)  # the second entry fits exactly
def test_linearize_profile_matches_the_per_entry_oracle(entries, max_tokens):
    got, want = _linearized_from(_linearized, entries, max_tokens), _linearized_from(linearize, entries, max_tokens)
    if isinstance(want, str):
        assert got == want
        return
    assert got.surfaces() == [surface for surface, _, _ in want]
    assert got.normalized() == [term for _, term, _ in want]
    assert got.punctuation.tolist() == [punctuation for _, _, punctuation in want]
    assert len(got) <= max_tokens


@settings(max_examples=150, deadline=None)
@given(profiles=st.lists(_PROFILE_ENTRIES, min_size=1, max_size=5), warm=st.booleans())
def test_store_linearized_matches_the_per_entry_oracle(profiles, warm):
    def store():
        table = _TermTable()
        if warm:  # as a load leaves it: every key and value already split
            for entries in profiles:
                for key, value in entries:
                    table[key], table[value]
        return ProfileStore([Profile(f"p{i}", tuple(entries)) for i, entries in enumerate(profiles)], table)

    want = [_linearized_from(linearize, entries, profile_id=f"p{i}") for i, entries in enumerate(profiles)]
    errors = [w for w in want if isinstance(w, str)]
    if errors:  # the first profile that cannot be built stops the store
        with pytest.raises(CorpusError) as info:
            store()
        assert f"CorpusError: {info.value}" == errors[0]
        return
    assert store_terms(store()) == [[term for _, term, _ in w] for w in want]


# Corpus rows for the term-table properties: words in mixed case and with non-ASCII letters, punctuation
# runs glued to them, stray characters and Unicode whitespace between them, from pools small enough that
# chunks and whole profile entries repeat across rows as well as differ.
_WORD = st.sampled_from(["Ann", "ann", "ANN", "Straße", "STRASSE", "É", "é", "Ωmega", "ωMEGA", "İzmir", "ﬁsh", "1984", "a_b"])
_GLUE = st.sampled_from(["", "", ",", ".", "--", "!?", "«", "»", "'", ":", "|"])
_SPACE = st.sampled_from([" ", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x85", "\x1c"])
_CHUNK = st.tuples(_GLUE, _WORD, _GLUE, st.one_of(st.just(""), st.text(max_size=2))).map("".join)
_TEXT = st.lists(st.tuples(_CHUNK, _SPACE).map("".join), min_size=1, max_size=8).map("".join)
_ROW = st.fixed_dictionaries({
    "document": _TEXT,
    "profile": st.lists(
        st.tuples(st.sampled_from(["name", "Name", "city", "born"]), st.one_of(st.sampled_from(["Ann", "ann Lee."]), _TEXT)),
        min_size=1, max_size=4, unique_by=lambda entry: entry[0],
    ),
})


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=6), bits=st.lists(st.integers(0, 1), min_size=1, max_size=16))
def test_a_load_s_term_ids_match_a_plain_split_of_its_text(tmp_path_factory, rows, bits):
    rows = [dict(row, id=f"r{i}") for i, row in enumerate(rows)]
    corpus = load_corpus(write_jsonl(tmp_path_factory.mktemp("terms") / "c.jsonl", rows))
    for record, row in zip(corpus.records, rows, strict=True):
        got = zip(record.document.surfaces(), record.document.normalized(), record.document.punctuation.tolist())
        assert list(got) == split_tokens(row["document"])
    profiles = [Profile(row["id"], tuple(row["profile"])) for row in rows]
    linearized = [[term for _, term, _ in linearize(p)] for p in profiles]
    assert store_terms(corpus.store) == linearized
    documents = [[term for _, term, _ in split_tokens(row["document"])] for row in rows]
    count, df = document_frequencies(documents + linearized)
    idf = compute_idf(corpus)
    assert (idf.doc_count, idf_counts(idf)) == (count, df)
    for term, d in df.items():
        assert idf.idf(term) == math.log((1 + count) / (1 + d))
    vocab = Vocabulary.from_idf(compute_idf(corpus))
    assert vocab.terms == tuple(sorted(df))
    # a store built without the load's table, and documents split apart, give the same terms, IDF and scores;
    # the own store's table takes in the documents' terms after its ranker is built
    own = ProfileStore(corpus.store.profiles)
    assert store_terms(own) == linearized
    rankers = Bm25Reidentifier(corpus.store), Bm25Reidentifier(own)
    params = init_params(vocab, dim=4)
    neural = NeuralReidentifier(params, corpus.store), NeuralReidentifier(params, own)
    apart = compute_idf(Corpus(corpus.records, own))
    assert (apart.doc_count, idf_counts(apart)) == (count, df)
    for record, row in zip(corpus.records, rows):
        mask = np.resize(np.array(bits, dtype=np.int8), len(record.document))
        want = naive_okapi(profiles, record.document, mask, 1.5, 0.75).tobytes()
        twin = tokenize(row["document"])
        for document in (record.document, twin):
            assert [ranker.scores(document, mask).tobytes() for ranker in rankers] == [want, want]
        # an untrained model scores a loaded document and its tokenize twin alike, under either store
        for model in neural:
            assert model.scores(record.document, mask).tobytes() == model.scores(twin, mask).tobytes()
    # terms the table never saw read max_idf, and so do they once the store's table takes them in after the count
    unseen = ["q" * (1 + max(map(len, corpus.store.table.terms))) + end for end in "ab"]
    assert idf.max_idf == math.log(1 + count)
    assert [idf.idf(term) for term in unseen] == [idf.max_idf] * 2
    corpus.store.table.split(unseen)
    corpus.store.table.arrays()
    assert set(unseen) <= corpus.store.table.term_ids.keys()
    assert [idf.idf(term) for term in unseen] == [idf.max_idf] * 2


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


@pytest.mark.parametrize("entries, message", [
    ((), "profile 'x' has no entries"),
    ((("name", "Ann"), ("city", "\u3000\n")), "profile entry 'city' has no tokens in its value"),
    ((("\u00a0", "Paris"),), "profile entry '\\xa0' has no tokens in its key"),
    ((("k", 7), ("", " ")), "profile entry '' has no tokens in its key"),  # 7 holds a token as str; keys go first
    ((("k", " "), ("k", "1")), "profile entry 'k' has no tokens in its value"),  # tokens before duplicate keys
    ((("k", "1"), ("k", " ")), "profile entry 'k' has no tokens in its value"),
    ((("k", "-"), ("k", "2")), "profile 'x' has duplicate keys"),  # punctuation alone is a token
    (((1, "a"),), "profile 'x' has a key that is not a string: 1"),
    (((b"k", "v"),), "profile 'x' has a key that is not a string: b'k'"),  # no str method would refuse bytes
])
def test_profile_refuses_what_it_cannot_linearize_as_it_is_built(entries, message):
    with pytest.raises(CorpusError) as info:
        Profile("x", entries)
    assert (str(info.value), info.value.line) == (message, None)


def _idf_of(docs) -> IdfTable:
    """compute_idf over token documents alone, with a store of no profiles, checked against the oracle's counts."""
    table = compute_idf(Corpus([AlignedRecord(tokenize(" ".join(doc)), "p") for doc in docs], ProfileStore([])))
    assert (table.doc_count, idf_counts(table)) == document_frequencies(docs)
    return table


def test_lexical_set_up_holds_no_full_size_key_array(tmp_path):
    # peak traced bytes per corpus entry (document tokens plus linearized profile terms): builds that hold an int64 key
    # per entry beside copies of the ids read above both bounds, 15.7 for compute_idf and 14.0 for BM25 on this corpus
    corpus = load_corpus(write_corpus(tmp_path / "c.jsonl", 5000, seed=1))
    entries = sum(len(record.document) for record in corpus.records) + len(corpus.store.terms)
    per_entry = {}
    stages = {"compute_idf": lambda: compute_idf(corpus), "bm25": lambda: Bm25Reidentifier(corpus.store)}
    for stage, build in stages.items():
        tracemalloc.start()
        try:
            build()
            per_entry[stage] = tracemalloc.get_traced_memory()[1] / entries
        finally:
            tracemalloc.stop()
    assert per_entry["compute_idf"] < 10 and per_entry["bm25"] < 12, per_entry


def test_idf_table_keeps_its_values_as_one_float_array(tmp_path):
    # what compute_idf leaves held per counted term: df and the IDF by term id, 8 bytes each as int64 and float64;
    # one Python float object per term, as a list holds them, reads about 40
    corpus = load_corpus(write_corpus(tmp_path / "c.jsonl", 500, seed=1, make_rows=make_distinct_rows))
    tracemalloc.start()
    try:
        idf = compute_idf(corpus)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept / len(idf.terms) < 24, kept / len(idf.terms)
    assert type(idf.max_idf) is float and all(type(idf.idf(term)) is float for term in idf.terms[:50])


def test_smoothed_idf_takes_math_log_bit_for_bit():
    # np.log is not bit-identical to math.log on every argument, and the IDF mask prior's checkpoints and the BM25
    # scores depend on which one runs; (20, 19), (40, 34) and (41, 39) were such (documents, count) pairs with numpy 2.4
    differ = {}
    for doc_count in range(1, 64):
        for d in range(doc_count + 1):
            if np.log((1 + doc_count) / (1 + d)) != math.log((1 + doc_count) / (1 + d)):
                differ.setdefault(doc_count, []).append(d)
    assert differ
    for doc_count, counts in differ.items():
        want = [math.log((1 + doc_count) / (1 + d)) for d in counts]
        assert smoothed_idf(doc_count, np.array(counts)).tobytes() == np.array(want).tobytes()


def test_idf_term_in_every_document_is_zero():
    table = _idf_of([["x", "a"], ["x", "b"], ["x", "c"], ["x", "d"]])
    assert table.idf("x") == pytest.approx(math.log(5 / 5), abs=0)
    assert table.idf("x") == 0.0


def test_idf_rare_term_value():
    docs = [["common"] for _ in range(99)]
    docs[0] = ["common", "rare"]
    table = _idf_of(docs)
    assert table.doc_count == 99
    assert table.idf("rare") == pytest.approx(3.912023005428146, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", "g"]), max_size=8), max_size=12),
    st.sampled_from([2, 3, deident.corpus._IDF_BLOCK]),
)
# blocks of 2 keys take the documents as [0], [1], then [2] with the profile: the last block holds a document split
# through a table of its own, which brings the store's table a term it lacks, counted though it comes last
@example(docs=[["a", "b"], ["c", "d"], ["g"]], block=2)
def test_idf_counting_matches_the_term_by_term_loop(docs, block):
    store = ProfileStore([Profile("p", (("name", "a b"),))])
    # a document without words can only be built by hand, as an empty run of ids into a table
    documents = [tokenize(" ".join(doc)) if doc else Document(np.empty(0, dtype=np.int32), store.table) for doc in docs]
    with pytest.MonkeyPatch.context() as patch:  # compute_idf counts the documents, then the profile, a block at a time
        patch.setattr(deident.corpus, "_IDF_BLOCK", block)
        table = compute_idf(Corpus([AlignedRecord(document, "p") for document in documents], store))
    profile = ["name", ":", "a", "b"]
    count, df = document_frequencies(docs + [profile])
    assert table.doc_count == count
    assert idf_counts(table) == df
    # terms come in the order the store's table first took them in: the linearization's ":" and "|",
    # then the profile's terms, then the documents' in record order
    seen = dict.fromkeys([":", "|", *profile, *(term for doc in docs for term in doc)])
    assert list(idf_counts(table)) == [term for term in seen if term in df]


def test_idf_rarest_term_is_maximal(tmp_path):
    path = write_jsonl(tmp_path / "idf.jsonl", make_corpus_rows(200, seed=5))
    corpus = load_corpus(path)
    table = compute_idf(corpus)
    # brute-force document-frequency count over the same token documents
    token_docs = [rec.document.normalized() for rec in corpus.records]
    token_docs += [_linearized(p).normalized() for p in corpus.store]
    assert table.doc_count == len(token_docs)
    df = {}
    for doc in token_docs:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    assert df == idf_counts(table)
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
    assert vocab.indices(["alpha"])[0] == 0
    assert vocab.indices(["beta"])[0] == 1
    assert vocab.mask_index == 2
    assert vocab.n_rows == 3
    # a term outside the vocabulary reads as the mask row
    assert vocab.indices(["gamma"])[0] == vocab.mask_index
    assert vocab.indices(["beta", "gamma", "alpha", "delta"]).tolist() == [1, 2, 0, 2]
    assert vocab.indices(["beta", "gamma"]).dtype == vocab.indices([]).dtype == np.int64


def test_vocabulary_from_corpus_is_sorted(tmp_path):
    path = write_jsonl(tmp_path / "v.jsonl", make_corpus_rows(20, seed=2))
    corpus = load_corpus(path)
    vocab = Vocabulary.from_idf(compute_idf(corpus))
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
    assert stats["vocab_size"] == Vocabulary.from_idf(compute_idf(corpus)).n_terms
