import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deident.corpus import CorpusError, Profile, ProfileStore, Vocabulary, compute_idf, load_corpus, tokenize
from deident.deid import (
    _search,
    beam_deidentify,
    candidate_positions,
    check_search,
    greedy_deidentify,
    idf_baseline,
    idf_table_aware_baseline,
    lexical_baseline,
    load_tag_file,
    ner_baseline,
    rule_tags,
)
from deident.encoder import (
    ModelParams,
    build_profile_matrix,
    init_params,
    rank_of,
)
from deident.reid import NeuralReidentifier
from deident.stopwords import DEFAULT_STOPWORDS

from conftest import write_jsonl
from oracles import (
    document_row_indices,
    encode_document,
    lexical_overlap,
    reference_search,
    score_and_normalize,
    score_rows,
)


def random_instance(seed, n_profiles=10, n_words=8):
    """A random small model plus a document with <= n_words candidates."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(25)]
    profiles = ProfileStore(
        [
            Profile(
                id=f"p{i}",
                entries=(("name", f"{words[int(rng.integers(25))]} {words[int(rng.integers(25))]}"),),
            )
            for i in range(n_profiles)
        ]
    )
    vocab = Vocabulary(sorted({"name", ":", "|", "the", ".", *words}))
    params = init_params(vocab, dim=12, seed=seed)
    model = NeuralReidentifier(params, profiles)
    # documents mix content words with a stopword and punctuation filler
    content = [words[int(rng.integers(25))] for _ in range(n_words)]
    doc = tokenize(" ".join(content[: n_words // 2]) + " the " + " ".join(content[n_words // 2 :]) + " .")
    true_index = int(rng.integers(n_profiles))
    return model, doc, true_index


def oracle_distribution(model, doc, mask):
    emb = encode_document(model.params, doc, mask)
    return score_and_normalize(emb, build_profile_matrix(model.params, model.store))


def replay_greedy_with_oracle(model, doc, true_index, k, result):
    """Re-walk the chosen order, checking each step against exhaustive argmin."""
    mask = np.zeros(len(doc), dtype=np.int8)
    dist = oracle_distribution(model, doc, mask)
    assert rank_of(dist, true_index) <= k or result.steps == 0
    for step, chosen in enumerate(result.order):
        best = oracle_greedy_pick(model, doc, true_index, mask)
        assert best == chosen, f"step {step}: oracle {best} != {chosen}"
        mask[chosen] = 1
    final = oracle_distribution(model, doc, mask)
    if result.success:
        assert rank_of(final, true_index) > k


def oracle_greedy_pick(model, doc, true_index, mask):
    """The candidate whose masking leaves the true profile least probable, by exhaustive rescoring."""
    candidates = [j for j in candidate_positions(doc, DEFAULT_STOPWORDS) if not mask[j]]
    probs = [float(oracle_distribution(model, doc, _with(mask, j))[true_index]) for j in candidates]
    return candidates[min(range(len(candidates)), key=lambda c: (probs[c], candidates[c]))]


def _with(mask, j):
    trial = mask.copy()
    trial[j] = 1
    return trial


def test_greedy_precheck_returns_empty_mask():
    model, doc, _ = random_instance(0)
    dist = model.distribution(doc, np.zeros(len(doc), dtype=np.int8))
    # choose the worst-ranked profile as the target: already anonymous at k = rank-1
    worst = int(np.argmin(dist))
    rank = rank_of(dist, worst)
    assert rank > 1
    result = greedy_deidentify(model, doc, worst, rank - 1)
    assert result.success
    assert result.steps == 0
    assert result.mask.sum() == 0
    assert result.final_rank == rank


def test_greedy_first_step_matches_bruteforce_argmin():
    model, doc, _ = random_instance(1)
    # the top-ranked profile must mask at least one word to rank below K = |store| - 1; a K
    # at or above the store size fails with one audit and takes no greedy step
    true_index = int(np.argmax(model.distribution(doc)))
    result = greedy_deidentify(model, doc, true_index, k=len(model.store) - 1)
    assert result.steps >= 1
    assert result.order[0] == oracle_greedy_pick(model, doc, true_index, np.zeros(len(doc), dtype=np.int8))


def test_greedy_exhaustion_reports_failure():
    model, doc, true_index = random_instance(3)
    # walk greedy's whole path with the oracle: at K = the highest rank on it, which is
    # below the store size, no state passes, so the search masks every candidate and fails
    mask = np.zeros(len(doc), dtype=np.int8)
    candidates = candidate_positions(doc, DEFAULT_STOPWORDS)
    path, ranks = [], [rank_of(oracle_distribution(model, doc, mask), true_index)]
    for _ in candidates:
        path.append(oracle_greedy_pick(model, doc, true_index, mask))
        mask[path[-1]] = 1
        ranks.append(rank_of(oracle_distribution(model, doc, mask), true_index))
    k = max(ranks)
    assert k < len(model.store)
    guide = CountingGuide(model)
    result = greedy_deidentify(guide, doc, true_index, k)
    assert not result.success
    assert result.order == path and result.steps == len(candidates)
    assert result.mask.sum() == len(candidates)
    assert guide.audits == len(candidates) + 1  # one state per depth, down to all candidates


def test_greedy_step_optimality_random_instances():
    for seed in range(25):
        model, doc, _ = random_instance(seed, n_profiles=8, n_words=8)
        # the depth-0 top-ranked profile ranks within every K, so greedy must mask
        # and the replay checks audits of states with picked positions
        true_index = int(np.argmax(model.distribution(doc)))
        k = int(np.random.default_rng(seed).integers(1, 4))
        result = greedy_deidentify(model, doc, true_index, k)
        assert result.steps >= 1, f"seed {seed}"
        replay_greedy_with_oracle(model, doc, true_index, k, result)


def test_unseen_words_read_as_the_mask_row():
    # swapping one unseen word for another moves nothing, and an unseen word
    # encodes exactly like a masked position
    for seed in range(5):
        model, doc, _ = random_instance(seed)
        words, at = doc.surfaces(), 2
        doc_a = tokenize(" ".join([*words[:at], "zebra", *words[at:]]))
        doc_b = tokenize(" ".join([*words[:at], "quokka", *words[at:]]))
        unmasked = np.zeros(len(doc_a), dtype=np.int8)
        masked = unmasked.copy()
        masked[at] = 1
        assert model.scores(doc_a, unmasked).tobytes() == model.scores(doc_b, unmasked).tobytes()
        assert model.scores(doc_a).tobytes() == model.scores(doc_a, masked).tobytes()
        # the top-ranked profile stays at or above K = |store| - 1 down greedy's whole path
        true_index = int(np.argmax(model.distribution(doc_a)))
        for k in (2, len(model.store) - 1):
            result_a = greedy_deidentify(model, doc_a, true_index, k)
            result_b = greedy_deidentify(model, doc_b, true_index, k)
            assert np.array_equal(result_a.mask, result_b.mask)
            assert result_a.order == result_b.order
        candidates = candidate_positions(doc_a, DEFAULT_STOPWORDS)
        assert not result_a.success and result_a.steps == len(candidates)


def test_greedy_masks_only_grow_and_steps_match():
    model, doc, _ = random_instance(3)
    true_index = int(np.argmax(model.distribution(doc)))  # ranks first, so greedy must mask
    result = greedy_deidentify(model, doc, true_index, k=2)
    assert result.steps >= 1
    assert result.steps == len(result.order) == int(result.mask.sum())
    seen = set()
    for j in result.order:
        assert j not in seen
        seen.add(j)
        assert not doc.punctuation[j]
        assert doc.normalized()[j] not in DEFAULT_STOPWORDS


def test_greedy_success_audited_by_rescoring(toy_corpus, toy_model):
    for rec in toy_corpus.records[:12]:
        true_index = toy_corpus.store.index_of(rec.profile_id)
        result = greedy_deidentify(toy_model, rec.document, true_index, k=2)
        if result.success:
            dist = oracle_distribution(toy_model, rec.document, result.mask)
            assert rank_of(dist, true_index) > 2


def test_greedy_deterministic(toy_corpus, toy_model):
    rec = toy_corpus.records[4]
    true_index = toy_corpus.store.index_of(rec.profile_id)
    a = greedy_deidentify(toy_model, rec.document, true_index, k=3)
    b = greedy_deidentify(toy_model, rec.document, true_index, k=3)
    assert np.array_equal(a.mask, b.mask)
    assert a.order == b.order
    assert a.final_prob == b.final_prob


def test_greedy_include_stopwords_flag(toy_corpus, toy_model):
    rec = toy_corpus.records[2]
    true_index = toy_corpus.store.index_of(rec.profile_id)
    no_stop = greedy_deidentify(toy_model, rec.document, true_index, k=2, stopwords=frozenset())
    for j in no_stop.order:
        assert not rec.document.punctuation[j]  # punctuation still excluded


def test_greedy_rejects_bad_arguments(toy_corpus, toy_model):
    rec = toy_corpus.records[0]
    with pytest.raises(ValueError):
        greedy_deidentify(toy_model, rec.document, 0, k=0)
    with pytest.raises(ValueError):
        greedy_deidentify(toy_model, rec.document, len(toy_model.store), k=1)


def test_beam_width_one_equals_greedy():
    for seed in range(100):
        model, doc, true_index = random_instance(seed, n_profiles=6, n_words=6)
        k = int(np.random.default_rng(1000 + seed).integers(1, 4))
        greedy = greedy_deidentify(model, doc, true_index, k)
        beam = beam_deidentify(model, doc, true_index, k, beam_width=1)
        assert np.array_equal(greedy.mask, beam.mask), f"seed {seed}"
        assert greedy.success == beam.success
        assert greedy.steps == beam.steps


def test_beam_keeps_the_tied_child_of_the_lower_order():
    # integer embeddings and identity projections over bags of 4 and 8 tokens score exactly, so two states that
    # mask different words can tie bit for bit; of tied children the beam keeps the lower (probability, order)
    vocab = Vocabulary((":", "a", "b", "c", "d", "name", "|"))
    embeddings = np.array([[0, 1], [1, -2], [1, 2], [1, 0], [2, 1], [-2, 2], [2, 0], [-2, 0]], dtype=np.float32)
    identity = np.eye(2, dtype=np.float32)
    values = ["b d", "b b", "b d", "b a", "a d"]
    store = ProfileStore([Profile(f"p{i}", (("name", value),)) for i, value in enumerate(values)])
    model = NeuralReidentifier(ModelParams(vocab, embeddings, identity, identity), store)
    doc = tokenize("c b a b b a a c")
    result = beam_deidentify(model, doc, 2, 4, beam_width=3, stopwords=frozenset())
    assert result.order == [1, 3, 0, 7] and result.success
    tied = np.zeros(len(doc), dtype=np.int8)
    tied[[1, 3, 4, 2]] = 1  # what keeping tied children by insertion would return
    assert model.distribution(doc, tied)[2] == result.final_prob
    assert result.to_json() == reference_search(model, doc, 2, [4], 3, frozenset(), "beam")[0].to_json()


def test_an_empty_k_list_is_refused():
    model, doc, true_index = random_instance(0)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        check_search([], 1)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        _search(model, doc, true_index, [], 1, DEFAULT_STOPWORDS, "greedy")


def test_beam_satisfies_k_anonymity_audit():
    for seed in range(20):
        model, doc, _ = random_instance(300 + seed)
        # the depth-0 top-ranked profile ranks within K, so beam must mask and
        # the audit re-scores a state with picked positions
        true_index = int(np.argmax(model.distribution(doc)))
        result = beam_deidentify(model, doc, true_index, k=3, beam_width=4)
        assert result.steps >= 1, f"seed {seed}"
        if result.success:
            dist = oracle_distribution(model, doc, result.mask)
            assert rank_of(dist, true_index) > 3
        assert result.steps == int(result.mask.sum())


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_profiles=st.integers(2, 12),
    n_words=st.integers(1, 8),
    k=st.integers(1, 4),
    width=st.integers(1, 4),
)
def test_search_results_re_audit_under_the_oracle(seed, n_profiles, n_words, k, width):
    model, doc, true_index = random_instance(seed, n_profiles=n_profiles, n_words=n_words)
    candidates = candidate_positions(doc, DEFAULT_STOPWORDS)
    greedy = greedy_deidentify(model, doc, true_index, k)
    beam = beam_deidentify(model, doc, true_index, k, beam_width=width)
    for result in (greedy, beam):
        assert result.steps == len(result.order) == int(result.mask.sum())
        assert len(set(result.order)) == len(result.order)
        assert set(result.order) <= set(candidates)
        assert np.flatnonzero(result.mask).tolist() == sorted(result.order)
        if result.success:
            assert rank_of(oracle_distribution(model, doc, result.mask), true_index) > k
        else:
            assert sorted(result.order) == candidates


# a child's scores are a sum of the state's scores and a table row, so they
# differ from a direct encoding by roundoff only, measured against the largest score
CHILD_SCORE_RTOL = 1e-12


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_profiles=st.integers(2, 12),
    n_words=st.integers(1, 8),
    bits=st.integers(0, 2**8 - 1),
)
def test_candidate_table_rows_add_up_to_each_childs_scores(seed, n_profiles, n_words, bits):
    model, doc, _ = random_instance(seed, n_profiles=n_profiles, n_words=n_words)
    candidates = candidate_positions(doc, DEFAULT_STOPWORDS)
    table = model.document_scorer(doc).table(candidates)
    assert table.shape == (len(candidates), len(model.store))
    state = np.zeros(len(doc), dtype=np.int8)
    state[[j for i, j in enumerate(candidates) if bits >> i & 1]] = 1
    scores = model.scores(doc, state)
    for i, j in enumerate(candidates):
        if not state[j]:
            expected = model.scores(doc, _with(state, j))
            error = np.abs(scores + table[i] - expected).max()
            assert error <= CHILD_SCORE_RTOL * np.abs(expected).max()


class CountingGuide:
    """A guide, and its own document scorer, that counts candidate-table builds and audits.

    It otherwise defers to the model and to the model's scorer of the document searched last.
    """

    def __init__(self, model):
        self.model, self.builds, self.audits = model, 0, 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def document_scorer(self, document):
        self.scorer = self.model.document_scorer(document)
        return self

    def table(self, candidates):
        self.builds += 1
        return self.scorer.table(candidates)

    def audit(self, picked):
        self.audits += 1
        return self.scorer.audit(picked)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_words=st.integers(1, 8),
    k=st.integers(1, 6),
    width=st.integers(1, 4),
)
def test_a_search_builds_its_candidate_table_once_and_only_past_depth_zero(seed, n_words, k, width):
    model, doc, true_index = random_instance(seed, n_words=n_words)
    for search, extra in ((greedy_deidentify, {}), (beam_deidentify, {"beam_width": width})):
        guide = CountingGuide(model)
        result = search(guide, doc, true_index, k, **extra)
        assert guide.builds == (result.steps > 0)
        same = search(model, doc, true_index, k, **extra)
        assert result.order == same.order and result.final_prob == same.final_prob


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_words=st.integers(1, 8),
    width=st.integers(1, 4),
    ks=st.lists(st.integers(1, 12), min_size=1, max_size=6),
)
def test_one_search_over_many_ks_equals_a_lone_search_at_each(seed, n_words, width, ks):
    # a repeated K at the end; hypothesis supplies the unsorted orders, and
    # Ks from the 10 profiles up fail at the all-candidates state
    ks = ks + ks[:1]
    model, doc, true_index = random_instance(seed, n_words=n_words)
    lone_searches = {
        "greedy": (1, lambda guide, k: greedy_deidentify(guide, doc, true_index, k)),
        "beam": (width, lambda guide, k: beam_deidentify(guide, doc, true_index, k, beam_width=width)),
    }
    for method, (search_width, lone) in lone_searches.items():
        guide = CountingGuide(model)
        results = _search(guide, doc, true_index, ks, search_width, DEFAULT_STOPWORDS, method)
        assert len(results) == len(ks)
        for k, result in zip(ks, results):
            assert result.to_json() == lone(model, k).to_json(), (method, k)
        # the search stops once the largest K below the store size is settled, as a lone
        # search at it does; the Ks at or above it share one audit of their own
        below = [k for k in ks if k < len(model.store)]
        lone_guide = CountingGuide(model)
        if below:
            lone(lone_guide, max(below))
        above = len(below) < len(ks)
        assert (guide.audits, guide.builds) == (lone_guide.audits + above, lone_guide.builds)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_profiles=st.integers(2, 12),
    n_words=st.integers(1, 8),
    width=st.integers(1, 4),
    ks=st.lists(st.integers(1, 14), min_size=1, max_size=4),
    top=st.booleans(),
)
def test_the_search_equals_the_row_copy_reference_search(seed, n_profiles, n_words, width, ks, top):
    # every field, final_prob's bits and the order too, for targets that do and do not need a mask
    model, doc, true_index = random_instance(seed, n_profiles=n_profiles, n_words=n_words)
    if top:
        true_index = int(np.argmax(model.distribution(doc)))
    method = "greedy" if width == 1 else "beam"
    results = _search(model, doc, true_index, ks, width, DEFAULT_STOPWORDS, method)
    expected = reference_search(model, doc, true_index, ks, width, DEFAULT_STOPWORDS, method)
    assert [r.to_json() for r in results] == [r.to_json() for r in expected]


def _audit_cases(seed, n_words, unseen, bits):
    """(model, document, picked) with repeated words, unseen words among them, any picked set."""
    model, doc, _ = random_instance(seed, n_words=n_words)
    words = doc.surfaces()
    for i, word in enumerate(["zebra", "quokka", "zebra"][:unseen]):
        words.insert(2 * i % (len(words) + 1), word)
    doc = tokenize(" ".join(words))
    candidates = candidate_positions(doc, DEFAULT_STOPWORDS)
    picked = tuple(j for j in range(len(doc)) if bits >> j & 1)
    return [(model, doc, picked), (model, doc, tuple(candidates)), (model, tokenize(words[0]), ()),
            (model, tokenize(words[0]), (0,))]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_words=st.integers(1, 8),
    unseen=st.integers(0, 3),
    bits=st.integers(0, 2**14 - 1),
)
def test_an_audit_scores_its_mask_bit_for_bit(seed, n_words, unseen, bits):
    for model, doc, picked in _audit_cases(seed, n_words, unseen, bits):
        mask = np.zeros(len(doc), dtype=np.int8)
        mask[list(picked)] = 1
        expected = score_rows(model, document_row_indices(model.params.vocab, doc, mask))
        audited = model.document_scorer(doc).audit(picked)
        assert audited.tobytes() == expected.tobytes(), (doc.surfaces(), picked)
        assert model.scores(doc, mask).tobytes() == expected.tobytes(), (doc.surfaces(), picked)


@pytest.mark.parametrize("seed", range(5))
def test_a_k_at_or_above_the_store_size_fails_with_one_audit(seed):
    model, doc, true_index = random_instance(seed, n_profiles=40)
    candidates = candidate_positions(doc, DEFAULT_STOPWORDS)
    for search, extra in ((greedy_deidentify, {}), (beam_deidentify, {"beam_width": 3})):
        guide = CountingGuide(model)
        result = search(guide, doc, true_index, 64, **extra)
        assert (guide.audits, guide.builds) == (1, 0)
        assert not result.success and result.k == 64
        assert result.order == candidates and result.steps == len(candidates)
        dist = oracle_distribution(model, doc, result.mask)
        assert (result.final_rank, result.final_prob) == (rank_of(dist, true_index), float(dist[true_index]))


def test_beam_depth_one_when_single_mask_suffices(toy_corpus, toy_model):
    # per record, K is set just below the rank greedy's first mask reaches, so
    # that one mask suffices; beam must then terminate at depth one too
    checked = 0
    for rec in toy_corpus.records:
        true_index = toy_corpus.store.index_of(rec.profile_id)
        doc = rec.document
        start = rank_of(toy_model.distribution(doc, np.zeros(len(doc), dtype=np.int8)), true_index)
        path = greedy_deidentify(toy_model, doc, true_index, k=len(toy_corpus.store) - 1).order
        if not path:  # already ranked last: no K below the store size needs a mask
            continue
        first = path[0]
        k = rank_of(toy_model.distribution(doc, _with(np.zeros(len(doc), dtype=np.int8), first)), true_index) - 1
        if k < start:
            continue
        greedy = greedy_deidentify(toy_model, doc, true_index, k=k)
        assert greedy.success and greedy.steps == 1
        beam = beam_deidentify(toy_model, doc, true_index, k=k, beam_width=2)
        assert beam.success
        assert beam.steps == 1
        checked += 1
    assert checked > 0, "no record where one mask suffices in the toy corpus"


def test_lexical_baseline_masks_overlap():
    doc = tokenize("john smith is a farmer")
    profile = Profile(id="x", entries=(("name", "John Smith"),))
    result = lexical_baseline(doc, profile)
    assert result.order == [0, 1]
    assert result.mask.tolist() == [1, 1, 0, 0, 0]


def test_lexical_baseline_disjoint_vocabulary():
    doc = tokenize("alpha beta gamma")
    profile = Profile(id="x", entries=(("name", "Zeta Omega"),))
    assert lexical_baseline(doc, profile).mask.sum() == 0


# words whose terms meet under casefolding ("Straße" and "STRASSE"), punctuation runs, and digits
LEXICAL_WORDS = ["John", "john", "JOHN", "Smith", "Straße", "STRASSE", "ß", "née", "NÉE", "ǅ", "ǆ", "x-ray", "42", "-", ","]
# texts whose words are glued ("John," is two tokens, "JohnSmith" one) or set apart by whitespace
LEXICAL_TEXTS = st.lists(
    st.tuples(st.sampled_from(LEXICAL_WORDS), st.sampled_from([" ", "", "\t"])), min_size=1, max_size=6
).map(lambda parts: "".join(word + gap for word, gap in parts))
LEXICAL_ENTRIES = st.lists(
    st.tuples(st.sampled_from(["name", "Name", "city", "note"]), st.one_of(LEXICAL_TEXTS, st.just("John Smith"))),
    min_size=1, max_size=4, unique_by=lambda entry: entry[0],
)


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(LEXICAL_TEXTS, LEXICAL_ENTRIES), min_size=1, max_size=3), foreign=LEXICAL_ENTRIES)
@example(  # repeated fields: one value under two keys and in two profiles, and a key that is another's value
    rows=[("john smith, JOHN", [("name", "John Smith"), ("note", "John Smith")]), ("city name", [("city", "name")])],
    foreign=[("name", "Straße -")],
)
def test_lexical_baseline_matches_the_per_field_overlap(rows, foreign):
    with tempfile.TemporaryDirectory() as tmp:
        records = [{"id": f"r{i}", "document": text, "profile": entries} for i, (text, entries) in enumerate(rows)]
        corpus = load_corpus(write_jsonl(Path(tmp) / "corpus.jsonl", records))
    table = corpus.store.table
    before = len(table), len(table.surfaces)
    for record, (text, _) in zip(corpus.records, rows):
        profile = corpus.store.get(record.profile_id)
        expected = lexical_overlap(record.document, profile)
        assert lexical_baseline(record.document, profile).order == expected
        # the same words split through a table of their own, which the loaded profile's fields join
        assert lexical_baseline(tokenize(text), profile).order == expected
    assert (len(table), len(table.surfaces)) == before  # a loaded profile's fields were all in the load's memo
    other = Profile("other", tuple(foreign))  # a profile from elsewhere adds its surfaces to the load's table
    for record in corpus.records:
        assert lexical_baseline(record.document, other).order == lexical_overlap(record.document, other)


@pytest.mark.parametrize("entries, message", [
    ((("name", " \t"),), "profile entry 'name' has no tokens in its value"),
    ((("", "Ann"),), "profile entry '' has no tokens in its key"),
    ((("name", "Ann"), ("note", "")), "profile entry 'note' has no tokens in its value"),
    ((), "profile 'x' has no entries"),
], ids=[f"entries{i}" for i in range(4)])
def test_lexical_baseline_refuses_a_field_without_tokens(entries, message):
    # the Profile refuses the field as it is built, so no baseline sees it; the oracle, given the unchecked
    # entries, refuses a field without tokens too
    with pytest.raises(CorpusError) as info:
        Profile("x", entries)
    assert str(info.value) == message
    if entries:
        with pytest.raises(CorpusError, match="^no tokens in input text$"):
            lexical_overlap(tokenize("Ann is here ."), SimpleNamespace(id="x", entries=entries))


def test_lexical_baseline_mean_fraction_reported(desk_corpus):
    from deident.metrics import percent_masked

    fractions = []
    for rec in desk_corpus.records[:100]:
        profile = desk_corpus.store.get(rec.profile_id)
        result = lexical_baseline(rec.document, profile)
        fractions.append(percent_masked(result.mask, rec.document))
    mean = float(np.mean(fractions))
    print(f"lexical baseline masks {mean:.1f}% of tokens on the desk corpus slice")
    assert 0.0 < mean < 100.0


def test_idf_baseline_extremes(toy_corpus):
    table = compute_idf(toy_corpus)
    doc = toy_corpus.records[0].document
    assert idf_baseline(doc, table, float("inf")).mask.sum() == 0
    full = idf_baseline(doc, table, 0.0)
    n_non_punct = int((~doc.punctuation).sum())
    assert full.mask.sum() == n_non_punct
    assert np.array_equal(idf_baseline(doc, table, -float("inf")).mask, full.mask)
    profile = toy_corpus.store.get(toy_corpus.records[0].profile_id)
    with pytest.raises(ValueError, match="NaN"):
        idf_baseline(doc, table, float("nan"))
    with pytest.raises(ValueError, match="NaN"):
        idf_table_aware_baseline(doc, profile, table, float("nan"))


def test_idf_baseline_median_threshold_matches_filter(toy_corpus):
    table = compute_idf(toy_corpus)
    doc = toy_corpus.records[1].document
    words = [(j, t) for j, (t, punctuation) in enumerate(zip(doc.normalized(), doc.punctuation)) if not punctuation]
    values = sorted(table.idf(t) for _, t in words)
    threshold = values[len(values) // 2]
    result = idf_baseline(doc, table, threshold)
    expected = {j for j, t in words if table.idf(t) >= threshold}
    assert set(np.flatnonzero(result.mask)) == expected


def test_idf_table_aware_reduces_to_lexical_at_infinity(toy_corpus):
    table = compute_idf(toy_corpus)
    rec = toy_corpus.records[3]
    profile = toy_corpus.store.get(rec.profile_id)
    aware = idf_table_aware_baseline(rec.document, profile, table, float("inf"))
    lexical = lexical_baseline(rec.document, profile)
    assert np.array_equal(aware.mask, lexical.mask)


def test_idf_table_aware_masks_nest(toy_corpus):
    table = compute_idf(toy_corpus)
    rec = toy_corpus.records[5]
    profile = toy_corpus.store.get(rec.profile_id)
    previous = None
    for threshold in (6.0, 4.0, 2.0, 1.0, 0.0):
        mask = idf_table_aware_baseline(rec.document, profile, table, threshold).mask
        if previous is not None:
            assert np.all(mask >= previous)  # lower threshold only adds masks
        previous = mask


def test_idf_table_aware_order_is_nonincreasing_idf(toy_corpus):
    table = compute_idf(toy_corpus)
    rec = toy_corpus.records[7]
    profile = toy_corpus.store.get(rec.profile_id)
    result = idf_table_aware_baseline(rec.document, profile, table, 1.0)
    lexical_count = len(lexical_baseline(rec.document, profile).order)
    idf_sequence = [table.idf(rec.document.normalized()[j]) for j in result.order[lexical_count:]]
    assert idf_sequence == sorted(idf_sequence, reverse=True)


def test_ner_baseline_with_explicit_tags():
    doc = tokenize("alpha beta gamma")
    result = ner_baseline(doc, ["PER", "O", "LOC"])
    assert result.mask.tolist() == [1, 0, 1]
    assert ner_baseline(doc, ["O", "O", "O"]).mask.sum() == 0


def test_ner_baseline_tag_length_mismatch():
    doc = tokenize("alpha beta")
    with pytest.raises(CorpusError):
        ner_baseline(doc, ["PER"])


def test_rule_tagger_masks_capitalized_non_initial():
    doc = tokenize("He played for Chelsea in London")
    result = ner_baseline(doc)
    masked_surfaces = {doc.surfaces()[j] for j in np.flatnonzero(result.mask)}
    assert masked_surfaces == {"Chelsea", "London"}


def test_rule_tagger_sentence_boundaries():
    doc = tokenize("Paris is lovely. Floria went home.")
    tags = rule_tags(doc)
    # "Paris" is sentence-initial but caught by the gazetteer; "Floria" is
    # capitalized yet sentence-initial and not in the gazetteer
    assert tags[0] == "LOC"
    surfaces = doc.surfaces()
    assert tags[surfaces.index("Floria")] == "O"


def test_load_tag_file_round_trip(tmp_path):
    path = tmp_path / "tags.jsonl"
    path.write_text('{"id": "a", "tags": ["PER", "O"]}\n{"id": "b", "tags": ["O"]}\n')
    tags = load_tag_file(path)
    assert tags == {"a": ["PER", "O"], "b": ["O"]}


@pytest.mark.parametrize(
    "row",
    [
        '{"id": "a"}', '{"id": "a", "tags": 5}', '{"id": "a", "tags": "PER"}', "[]",
        '{"id": "b", "tags": ["PER"]}', '{"id": "a", "tags": ["O", null]}', '{"id": 5, "tags": ["O"]}',
    ],
    ids=["no-tags", "tags-int", "tags-str", "not-object", "repeated-id", "null-tag", "integer-id"],
)
def test_load_tag_file_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "tags.jsonl"
    path.write_text('{"id": "b", "tags": ["O"]}\n' + row + "\n")
    with pytest.raises(CorpusError, match="line 2"):
        load_tag_file(path)
