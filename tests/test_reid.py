import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deident.cli import _write_jsonl
from deident.corpus import IdfTable, Profile, ProfileStore, Vocabulary, linearize_profile, tokenize
from deident.encoder import init_params, rank_of
from deident.reid import Bm25Reidentifier, NeuralReidentifier, ensemble_evaluate


@pytest.fixture()
def hand_store():
    return ProfileStore(
        [
            Profile(id="pa", entries=(("name", "Ada Fenwick"), ("occupation", "glassblower"))),
            Profile(id="pb", entries=(("name", "Bo Fenwick"), ("city", "Dover"))),
            Profile(
                id="pc",
                entries=(("name", "Cyrus Moth"), ("occupation", "farmer"), ("city", "Dover")),
            ),
        ]
    )


def test_bm25_no_shared_terms_scores_zero(hand_store):
    doc = tokenize("zzz yyy xxx")
    assert np.array_equal(Bm25Reidentifier(hand_store).scores(doc), np.zeros(3))


def test_bm25_hand_fixture_exact(hand_store):
    # Frozen from an independent arithmetic evaluation of the Okapi formula
    # with k1=1.5, b=0.75, smoothed idf ln((1+3)/(1+df)), profile lengths
    # 8, 8, 12 (avg 28/3), query terms {fenwick, the, farmer, of, dover}.
    doc = tokenize("Fenwick the farmer of Dover")
    scores = Bm25Reidentifier(hand_store, k1=1.5, b=0.75).scores(doc)
    assert scores[0] == pytest.approx(0.30744648964312454, abs=1e-9)
    assert scores[1] == pytest.approx(0.6148929792862491, abs=1e-9)
    assert scores[2] == pytest.approx(0.8690892115293777, abs=1e-9)


def test_bm25_duplicate_profiles_tie(hand_store):
    store = ProfileStore(
        [
            Profile(id="a", entries=(("name", "Rex Mole"),)),
            Profile(id="b", entries=(("name", "Rex Mole"),)),
        ]
    )
    doc = tokenize("Rex Mole walked home")
    scores = Bm25Reidentifier(store).scores(doc)
    assert scores[0] == scores[1]


def test_bm25_excludes_masked_query_terms(hand_store):
    doc = tokenize("Fenwick the farmer of Dover")
    mask = np.array([1, 0, 0, 0, 1], dtype=np.int8)  # hide fenwick and dover
    model = Bm25Reidentifier(hand_store)
    assert model.query_terms(doc, mask) == ["farmer", "of", "the"]
    scores = model.scores(doc, mask)
    # only "farmer" overlaps now, so only pc scores
    assert scores[0] == 0.0 and scores[1] == 0.0 and scores[2] > 0.0


def test_bm25_nonnegative_and_zero_iff_no_overlap(hand_store, rng):
    # terms present in every profile (df == D) have smoothed idf exactly 0
    # and cannot contribute, so overlap is judged on positive-idf terms
    model = Bm25Reidentifier(hand_store)
    profile_terms = [set(terms) for terms in hand_store.terms]
    pool = ["fenwick", "dover", "farmer", "qqq", "zzz", "name", "the"]
    for _ in range(40):
        words = [pool[int(rng.integers(len(pool)))] for _ in range(5)]
        doc = tokenize(" ".join(words))
        scores = model.scores(doc)
        assert np.all(scores >= 0)
        for i, terms in enumerate(profile_terms):
            overlap = {
                t for t in terms & set(doc.normalized()) if model.idf_table.idf(t) > 0
            }
            assert (scores[i] > 0) == bool(overlap)


def naive_okapi(store, document, mask, k1, b):
    """Okapi BM25 one term and one profile at a time, as a plain loop."""
    docs = [linearize_profile(p).normalized() for p in store]
    term_freqs = [Counter(d) for d in docs]
    lengths = np.array([len(d) for d in docs], dtype=np.float64)
    avg_length = float(lengths.mean())
    idf_table = IdfTable.from_token_documents(docs)
    if mask is None:
        terms = sorted(set(document.normalized()))
    else:
        terms = sorted({t.normalized for t, bit in zip(document.tokens, mask) if not bit})
    scores = np.zeros(len(store), dtype=np.float64)
    norm = k1 * (1.0 - b + b * lengths / avg_length)
    for term in terms:
        idf = idf_table.idf(term)
        for i, tf_map in enumerate(term_freqs):
            tf = tf_map.get(term)
            if tf:
                scores[i] += idf * tf * (k1 + 1.0) / (tf + norm[i])
    return scores


# "qqq" and "zzz" are never in a profile; ":" is in every one (df = D)
ORACLE_WORDS = ["ada", "bo", "dover", "farmer", "fenwick", "moth", "name", "city", ":", "qqq", "zzz"]
ORACLE_PROFILE = st.lists(
    st.tuples(
        st.sampled_from(["name", "city", "occupation"]),
        st.lists(st.sampled_from(ORACLE_WORDS[:8]), min_size=1, max_size=5).map(" ".join),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda entry: entry[0],
)


@settings(max_examples=80, deadline=None)
@given(
    profiles=st.lists(ORACLE_PROFILE, min_size=1, max_size=7),
    words=st.lists(st.sampled_from(ORACLE_WORDS), min_size=1, max_size=14),
    bits=st.lists(st.integers(0, 1), min_size=14, max_size=14),
    k1=st.floats(0.05, 3.0),
    b=st.floats(0.0, 1.0),
)
@example(
    profiles=[[("name", "ada fenwick")], [("name", "bo fenwick"), ("city", "dover")]],
    words=["fenwick", "name", ":", "fenwick", "qqq", "dover"],
    bits=[0, 0, 0, 1, 0, 1] + [0] * 8,
    k1=1.5,
    b=0.75,
)
def test_bm25_postings_match_naive_loop_bit_for_bit(profiles, words, bits, k1, b):
    store = ProfileStore([Profile(id=f"p{i}", entries=tuple(e)) for i, e in enumerate(profiles)])
    doc = tokenize(" ".join(words))
    mask = np.array(bits[: len(doc)], dtype=np.int8)
    model = Bm25Reidentifier(store, k1=k1, b=b)
    for m in (None, mask):
        assert model.scores(doc, m).tobytes() == naive_okapi(store, doc, m, k1, b).tobytes()


BAD_MASKS = {
    "short": [0, 1, 0],
    "not-0-1": [0, 2, 0, 0, 1],
    "negative": [0, -1, 0, 0, 1],
    "2d": [[0, 0, 0, 0, 0]],
}


@pytest.mark.parametrize(
    "ranker, mask",
    [("bm25", mask) for mask in BAD_MASKS.values()] + [("neural", mask) for mask in BAD_MASKS.values()],
    ids=[*BAD_MASKS, *(f"neural-{name}" for name in BAD_MASKS)],
)
def test_bm25_rejects_a_bad_mask(hand_store, ranker, mask):
    doc = tokenize("Fenwick the farmer of Dover")
    if ranker == "bm25":
        model = Bm25Reidentifier(hand_store)
        with pytest.raises(ValueError):
            model.query_terms(doc, mask)
    else:
        vocab = Vocabulary(sorted(set(doc.normalized())))
        model = NeuralReidentifier(init_params(vocab, dim=4, seed=0), hand_store)
    with pytest.raises(ValueError):
        model.scores(doc, mask)
    with pytest.raises(ValueError):
        model.distribution(doc, mask)


@pytest.mark.parametrize("candidates", [[-1], [0, 5], [7]], ids=["negative", "length", "past-length"])
def test_candidate_scores_rejects_a_position_outside_the_document(hand_store, candidates):
    # a negative position would otherwise wrap round to the document's end
    doc = tokenize("Fenwick the farmer of Dover")
    model = NeuralReidentifier(init_params(Vocabulary(sorted(set(doc.normalized()))), dim=4, seed=0), hand_store)
    scorer = model.document_scorer(doc)
    with pytest.raises(ValueError, match="candidate"):
        scorer.table(candidates)
    with pytest.raises(ValueError, match="candidate"):
        scorer.audit(candidates)
    assert scorer.table([0, 4]).shape == (2, len(hand_store))


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True),
    words=st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=40),
)
@example(terms=["a"], words=["a"])  # one distinct word row besides the mask row
@example(terms=["a", "b"], words=["z", "z"])  # every word reads as the mask row
def test_document_scorer_rows_counts_and_slots_match_np_unique(terms, words):
    vocab = Vocabulary(sorted(terms))
    params = init_params(vocab, dim=3, seed=0)
    model = NeuralReidentifier(params, ProfileStore([Profile(id=t, entries=((t, t),)) for t in terms]))
    document = tokenize(" ".join(words))
    scorer = model.document_scorer(document)
    rows = np.append(vocab.indices(document.normalized()), vocab.mask_index)
    unique, slot, counts = np.unique(rows, return_inverse=True, return_counts=True)
    assert scorer._slot.tobytes() == slot.tobytes()
    assert scorer._counts.tobytes() == counts.tobytes()
    assert scorer._emb.tobytes() == params.embeddings[unique].astype(np.float64).tobytes()


def test_bm25_parameter_validation(hand_store):
    # a NaN or infinite k1 scores every matching term NaN, so every true profile would rank first
    for k1 in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="k1"):
            Bm25Reidentifier(hand_store, k1=k1)
    with pytest.raises(ValueError):
        Bm25Reidentifier(hand_store, b=1.5)


def test_reidentify_returns_permutation(hand_store):
    doc = tokenize("Fenwick the farmer of Dover")
    scores = Bm25Reidentifier(hand_store).scores(doc)
    assert sorted(rank_of(scores, i) for i in range(3)) == [1, 2, 3]
    assert rank_of(scores, 2) == 1  # pc has the highest hand-computed score


def test_reidentify_rank_matches_sort(rng):
    store = ProfileStore([Profile(id=f"p{i}", entries=(("name", f"n{i}"),)) for i in range(8)])
    vocab = Vocabulary(sorted({"name", ":", "|", *(f"n{i}" for i in range(8)), "a", "b"}))
    params = init_params(vocab, dim=8, seed=1)
    model = NeuralReidentifier(params, store)
    doc = tokenize("a b a")
    scores = model.scores(doc)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    for position, index in enumerate(order):
        assert rank_of(scores, index) == position + 1


def test_neural_trained_model_ranks_own_profile_first(toy_corpus, toy_model):
    hits = 0
    for rec in toy_corpus.records:
        hits += rank_of(toy_model.scores(rec.document), toy_corpus.store.index_of(rec.profile_id)) == 1
    assert hits >= 28  # at most the held-out records miss


def test_neural_full_mask_is_content_independent(toy_corpus, toy_model):
    doc_a = toy_corpus.records[0].document
    doc_b = toy_corpus.records[1].document
    mask_a = np.ones(len(doc_a), dtype=np.int8)
    mask_b = np.ones(len(doc_b), dtype=np.int8)
    assert np.array_equal(toy_model.scores(doc_a, mask_a), toy_model.scores(doc_b, mask_b))


def test_bm25_unique_lexical_match_ranks_first():
    store = ProfileStore(
        [
            Profile(id="a", entries=(("name", "Quorax Vintner"),)),
            Profile(id="b", entries=(("name", "Plain Person"),)),
            Profile(id="c", entries=(("name", "Other Human"),)),
        ]
    )
    doc = tokenize("the quorax was here")
    scores = Bm25Reidentifier(store).scores(doc)
    assert rank_of(scores, 0) == 1


def make_eval_records(store, texts, masks=None):
    records = []
    for i, text in enumerate(texts):
        doc = tokenize(text)
        mask = np.zeros(len(doc), dtype=np.int8) if masks is None else masks[i]
        records.append((store[i].id, doc, mask, i))
    return records


class FixedRanker:
    """Test double: a reidentifier with pre-set scores per document text."""

    def __init__(self, store, table):
        self.store = store
        self.table = table

    def scores(self, document, mask=None):
        return np.asarray(self.table[" ".join(document.surfaces())], dtype=np.float64)


def test_ensemble_flags(hand_store):
    texts = ["doc one", "doc two"]
    hit = {"doc one": [1.0, 0.0, 0.0], "doc two": [0.0, 1.0, 0.0]}
    miss = {"doc one": [0.0, 1.0, 0.0], "doc two": [1.0, 0.0, 0.0]}
    records = make_eval_records(hand_store, texts)

    all_hit = ensemble_evaluate({"a": FixedRanker(hand_store, hit)}, records)
    assert all_hit.rate == 100.0
    assert all(d["reidentified"] for d in all_hit.per_doc)

    none = ensemble_evaluate({"a": FixedRanker(hand_store, miss)}, records)
    assert none.rate == 0.0

    one_of_two = ensemble_evaluate(
        {"hit": FixedRanker(hand_store, hit), "miss": FixedRanker(hand_store, miss)}, records
    )
    assert one_of_two.rate == 100.0  # a single successful member suffices


def test_ensemble_monotone_in_members(hand_store, rng):
    texts = ["alpha beta", "gamma delta", "epsilon zeta"]
    records = make_eval_records(hand_store, texts)
    tables = []
    for _ in range(3):
        tables.append({t: rng.random(3).tolist() for t in texts})
    members = {}
    previous_rate = -1.0
    for i, table in enumerate(tables):
        members[f"m{i}"] = FixedRanker(hand_store, table)
        report = ensemble_evaluate(dict(members), records)
        assert report.rate >= previous_rate
        previous_rate = report.rate


def test_ensemble_single_member_rank1_equivalence(hand_store, rng):
    texts = ["alpha beta", "gamma delta", "epsilon zeta"]
    records = make_eval_records(hand_store, texts)
    table = {t: rng.random(3).tolist() for t in texts}
    member = FixedRanker(hand_store, table)
    report = ensemble_evaluate({"m": member}, records)
    for (doc_id, doc, mask, true_index), entry in zip(records, report.per_doc):
        expected = rank_of(member.scores(doc, mask), true_index) == 1
        assert entry["reidentified"] == expected
        assert entry["ranks"]["m"] == rank_of(member.scores(doc, mask), true_index)


def test_ensemble_report_rate_definition(hand_store):
    texts = ["doc one", "doc two"]
    table = {"doc one": [1.0, 0.0, 0.0], "doc two": [1.0, 0.0, 0.0]}  # only doc one's truth on top
    records = make_eval_records(hand_store, texts)
    report = ensemble_evaluate({"m": FixedRanker(hand_store, table)}, records)
    flagged = sum(d["reidentified"] for d in report.per_doc)
    assert report.rate == pytest.approx(100.0 * flagged / len(records))


def test_ensemble_over_no_records_has_no_rates(hand_store):
    members = {name: FixedRanker(hand_store, {}) for name in ("a", "b")}
    report = ensemble_evaluate(members, [])
    assert vars(report) == {"rate": None, "per_member": {"a": None, "b": None}, "per_doc": []}


def test_ensemble_report_json_round_trip(tmp_path, hand_store):
    records = make_eval_records(hand_store, ["doc one"])
    report = ensemble_evaluate(
        {"m": FixedRanker(hand_store, {"doc one": [1.0, 0.0, 0.0]})}, records
    )
    path = tmp_path / "report.json"
    _write_jsonl(path, [vars(report)])
    loaded = json.loads(path.read_text())
    assert loaded["rate"] == 100.0
    assert loaded["per_doc"][0]["ranks"]["m"] == 1
    assert loaded["per_doc"][0]["reidentified"] is True
