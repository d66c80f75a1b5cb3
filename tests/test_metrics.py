import zlib

import numpy as np
import pytest

from deident.corpus import apply_mask, compute_idf, tokenize
from deident.deid import idf_table_aware_baseline
from deident.metrics import (
    ParetoPoint,
    information_loss,
    pareto_sweep,
    percent_masked,
    utility_report,
    write_pareto_csv,
)


def test_percent_masked_values():
    doc = tokenize("a b c d e f g h i j")
    assert percent_masked(np.zeros(10, dtype=np.int8), doc) == 0.0
    mask = np.zeros(10, dtype=np.int8)
    mask[:3] = 1
    assert percent_masked(mask, doc) == 30.0
    assert percent_masked(np.ones(10, dtype=np.int8), doc) == 100.0


def test_percent_masked_is_length_weighted():
    doc_a = tokenize("a b c d")
    doc_b = tokenize("e f g h i j")
    mask_a = np.array([1, 1, 0, 0], dtype=np.int8)
    mask_b = np.array([1, 0, 0, 0, 0, 0], dtype=np.int8)
    combined = tokenize("a b c d e f g h i j")
    combined_mask = np.concatenate([mask_a, mask_b])
    weighted = (percent_masked(mask_a, doc_a) * 4 + percent_masked(mask_b, doc_b) * 6) / 10
    assert percent_masked(combined_mask, combined) == pytest.approx(weighted)


def test_information_loss_identity_is_exactly_zero():
    doc = tokenize("the swift fox jumps over the lazy dog")
    assert information_loss(doc, np.zeros(len(doc), dtype=np.int8)) == 0.0


def test_information_loss_full_mask_matches_compressor():
    doc = tokenize("the swift fox jumps over the lazy dog")
    mask = np.ones(len(doc), dtype=np.int8)
    loss = information_loss(doc, mask)
    original = apply_mask(doc, np.zeros(len(doc), dtype=np.int8), mode="delete")
    redacted = apply_mask(doc, mask, mode="delete")
    expected = 100.0 * (1 - len(zlib.compress(redacted.encode(), 6)) / len(zlib.compress(original.encode(), 6)))
    assert loss == pytest.approx(min(100.0, max(0.0, expected)))
    assert loss > 0.0


def test_information_loss_rare_word_positive():
    doc = tokenize("a a a a extraordinarily a a a a")
    mask = np.zeros(len(doc), dtype=np.int8)
    mask[4] = 1
    assert information_loss(doc, mask) > 0.0


def test_information_loss_clamped_to_range(rng):
    doc = tokenize("x y z w v u t s r q")
    for _ in range(20):
        mask = (rng.random(len(doc)) < rng.random()).astype(np.int8)
        loss = information_loss(doc, mask)
        assert 0.0 <= loss <= 100.0


def test_information_loss_reads_zero_where_deleting_compresses_larger():
    # with the first "cd" deleted, DEFLATE at level 6 codes the text in 18 bytes against the original's 17
    doc = tokenize("ab cd ab cd ab cd ab cd ab cd ab cd")
    mask = np.zeros(len(doc), dtype=np.int8)
    mask[1] = 1
    original = len(zlib.compress(" ".join(doc.surfaces()).encode(), 6))
    assert len(zlib.compress(apply_mask(doc, mask, mode="delete").encode(), 6)) > original
    assert information_loss(doc, mask) == 0.0


def test_utility_report_means():
    docs = [tokenize("a b c d"), tokenize("e f g h")]
    masks = [np.array([1, 1, 0, 0], dtype=np.int8), np.array([0, 0, 0, 0], dtype=np.int8)]
    report = utility_report(docs, masks)
    assert report.percent_masked == pytest.approx(25.0)
    assert report.information_loss >= 0.0


def test_idf_threshold_sweep_monotone_utility(toy_corpus):
    table = compute_idf(toy_corpus)
    rec = toy_corpus.records[0]
    profile = toy_corpus.store.get(rec.profile_id)
    thresholds = [8.0, 5.0, 3.0, 1.5, 0.0]
    pcts = []
    for threshold in thresholds:
        result = idf_table_aware_baseline(rec.document, profile, table, threshold)
        pcts.append(percent_masked(result.mask, rec.document))
    assert pcts == sorted(pcts)


class ConstantRanker:
    def __init__(self, store):
        self.store = store

    def scores(self, document, mask=None):
        return np.linspace(1.0, 0.0, len(self.store))


def _redact(corpus, i, control):
    rec = corpus.records[i]
    profile = corpus.store.get(rec.profile_id)
    return idf_table_aware_baseline(rec.document, profile, compute_idf(corpus), control)


def _sweep_inputs(corpus, controls, n=6):
    """Records and their results[i][c] at each of controls, as pareto_sweep takes them."""
    records = [
        (rec.profile_id, rec.document, corpus.store.index_of(rec.profile_id))
        for rec in corpus.records[:n]
    ]
    results = [[_redact(corpus, i, control) for control in controls] for i in range(len(records))]
    return records, results


def test_pareto_sweep_single_point(toy_corpus):
    records, results = _sweep_inputs(toy_corpus, [2.0])
    members = {"const": ConstantRanker(toy_corpus.store)}
    points = pareto_sweep("idf_table", [2.0], records, results, members)
    assert len(points) == 1
    assert points[0].method == "idf_table"
    assert points[0].control == 2.0
    assert 0.0 <= points[0].reid_rate <= 100.0


def test_pareto_sweep_threshold_monotonicity(toy_corpus):
    records, results = _sweep_inputs(toy_corpus, [6.0, 3.0, 1.0])
    members = {"const": ConstantRanker(toy_corpus.store)}
    points = pareto_sweep("idf_table", [6.0, 3.0, 1.0], records, results, members)
    assert points[0].pct_masked <= points[1].pct_masked <= points[2].pct_masked


def test_pareto_sweep_rates_match_recomputation(toy_corpus, toy_model):
    from deident.reid import ensemble_evaluate

    records, results = _sweep_inputs(toy_corpus, [5.0, 1.0], n=10)
    members = {"toy": toy_model}
    points = pareto_sweep("idf_table", [5.0, 1.0], records, results, members)
    for point in points:
        redone = [_redact(toy_corpus, i, point.control) for i in range(len(records))]
        eval_records = [
            (doc_id, doc, redone[i].mask, true) for i, (doc_id, doc, true) in enumerate(records)
        ]
        report = ensemble_evaluate(members, eval_records)
        assert point.reid_rate == pytest.approx(report.rate)


def test_pareto_sweep_deterministic(toy_corpus, toy_model):
    records, results = _sweep_inputs(toy_corpus, [4.0, 2.0], n=8)
    members = {"toy": toy_model}
    first = pareto_sweep("idf_table", [4.0, 2.0], records, results, members)
    second = pareto_sweep("idf_table", [4.0, 2.0], records, results, members)
    assert [vars(p) for p in first] == [vars(p) for p in second]


def test_pareto_csv_round_trip(tmp_path):
    points = [
        ParetoPoint("greedy", 1.0, 12.5, 10.0, 8.0, 100.0),
        ParetoPoint("greedy", 8.0, 2.5, 22.0, 19.5, 97.5),
    ]
    path = tmp_path / "pareto.csv"
    write_pareto_csv(points, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "method,control,reid_rate,pct_masked,info_loss,success_rate"
    assert lines[1].startswith("greedy,1.0,12.5,")
    assert len(lines) == 3


def test_pareto_sweep_requires_controls(toy_corpus):
    records, results = _sweep_inputs(toy_corpus, [])
    with pytest.raises(ValueError):
        pareto_sweep("idf_table", [], records, results, {"c": ConstantRanker(toy_corpus.store)})


def test_pareto_sweep_rejects_results_that_do_not_match_records_and_controls(toy_corpus):
    records, results = _sweep_inputs(toy_corpus, [4.0, 2.0])
    members = {"c": ConstantRanker(toy_corpus.store)}
    for bad in (results[:-1], [row[:1] for row in results]):
        with pytest.raises(ValueError):
            pareto_sweep("idf_table", [4.0, 2.0], records, bad, members)
