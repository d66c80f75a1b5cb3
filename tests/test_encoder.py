import json
import math

import numpy as np
import pytest

from deident.corpus import Profile, ProfileStore, Vocabulary, tokenize
from deident.encoder import (
    CheckpointError,
    build_profile_matrix,
    encode_document,
    encode_profile,
    init_params,
    load_checkpoint,
    rank_of,
    save_checkpoint,
    score_and_normalize,
)


def small_vocab(extra=()):
    terms = sorted({"alpha", "beta", "gamma", "delta", "name", ":", "|", *extra})
    return Vocabulary(terms, hash_buckets=8)


@pytest.fixture()
def params():
    return init_params(small_vocab(), dim=16, seed=3)


def test_encode_document_deterministic(params):
    doc = tokenize("alpha beta gamma")
    mask = np.array([0, 1, 0], dtype=np.int8)
    first = encode_document(params, doc, mask)
    second = encode_document(params, doc, mask)
    assert np.array_equal(first, second)


def test_full_mask_is_content_independent(params):
    doc_a = tokenize("alpha beta gamma")
    doc_b = tokenize("delta delta delta")
    ones = np.ones(3, dtype=np.int8)
    assert np.array_equal(encode_document(params, doc_a, ones), encode_document(params, doc_b, ones))


def test_masking_changes_embedding(params):
    doc = tokenize("alpha beta")
    plain = encode_document(params, doc, np.array([0, 0], dtype=np.int8))
    masked = encode_document(params, doc, np.array([1, 0], dtype=np.int8))
    assert not np.allclose(plain, masked)


def test_masked_positions_hide_content(params):
    # growing the mask makes the embedding independent of what was masked
    doc_a = tokenize("alpha beta gamma")
    doc_b = tokenize("delta beta gamma")
    mask = np.array([1, 0, 0], dtype=np.int8)
    assert np.array_equal(encode_document(params, doc_a, mask), encode_document(params, doc_b, mask))


def test_encode_profile_identity_and_difference(params):
    one = Profile(id="a", entries=(("name", "alpha beta"),))
    same = Profile(id="b", entries=(("name", "alpha beta"),))
    other = Profile(id="c", entries=(("name", "alpha gamma"),))
    assert np.array_equal(encode_profile(params, one), encode_profile(params, same))
    assert not np.allclose(encode_profile(params, one), encode_profile(params, other))


def test_encode_profile_truncation_equivalence(params):
    from deident.corpus import linearize_profile
    from deident.encoder import mean_rows

    long_value = " ".join(["alpha"] * 300)
    profile = Profile(id="a", entries=(("name", long_value), ("extra", "beta")))
    truncated = linearize_profile(profile)
    assert len(truncated) <= 128
    direct = encode_profile(params, profile)
    rows = params.vocab.indices(truncated.normalized())
    manual = mean_rows(params.embeddings, rows) @ params.profile_proj.astype(np.float64)
    assert np.array_equal(direct, manual)


def test_profile_matrix_rows_match_encode_profile(params):
    store = ProfileStore(
        [
            Profile(id="a", entries=(("name", "alpha"),)),
            Profile(id="b", entries=(("name", "beta"),)),
            Profile(id="c", entries=(("name", "gamma delta"),)),
        ]
    )
    matrix = build_profile_matrix(params, store)
    assert matrix.shape == (3, params.out_dim)
    for i, profile in enumerate(store):
        assert np.array_equal(matrix[i], encode_profile(params, profile))


def test_profile_matrix_single_profile(params):
    store = ProfileStore([Profile(id="a", entries=(("name", "alpha"),))])
    matrix = build_profile_matrix(params, store)
    assert matrix.shape == (1, params.out_dim)
    assert np.array_equal(matrix[0], encode_profile(params, store[0]))


def test_profile_matrix_tracks_params_change(params):
    store = ProfileStore([Profile(id="a", entries=(("name", "alpha"),))])
    before = build_profile_matrix(params, store)
    params.embeddings[params.vocab.index_of("alpha")] += 1.0
    after = build_profile_matrix(params, store)
    assert not np.allclose(before, after)


def test_profile_matrix_spot_check_large(desk_corpus, desk_models):
    params = desk_models[0]
    matrix = build_profile_matrix(params, desk_corpus.store)
    picks = np.random.default_rng(4).choice(len(desk_corpus.store), size=5, replace=False)
    for i in picks:
        assert np.array_equal(matrix[i], encode_profile(params, desk_corpus.store[int(i)]))


def test_softmax_uniform_for_identical_rows():
    emb = np.array([1.0, 2.0])
    matrix = np.array([[0.5, 0.5]] * 4)
    dist = score_and_normalize(emb, matrix)
    assert np.allclose(dist, 0.25)


def test_softmax_known_values():
    emb = np.array([1.0])
    matrix = np.array([[math.log(2.0)], [0.0]])
    dist = score_and_normalize(emb, matrix)
    assert dist == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_softmax_sums_to_one(rng):
    for _ in range(20):
        emb = rng.normal(size=8)
        matrix = rng.normal(size=(30, 8)) * 10
        dist = score_and_normalize(emb, matrix)
        assert dist.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(dist >= 0)


def test_softmax_shift_invariant(rng):
    # appending a constant coordinate adds 7.5 to every score
    emb = rng.normal(size=4)
    matrix = rng.normal(size=(10, 4))
    base = score_and_normalize(emb, matrix)
    shifted = score_and_normalize(np.append(emb, 1.0), np.column_stack([matrix, np.full(10, 7.5)]))
    assert np.allclose(base, shifted, atol=1e-6)


def test_rank_of_unique_max():
    assert rank_of(np.array([0.1, 0.7, 0.2]), 1) == 1


def test_rank_of_uniform_tie_break():
    assert rank_of(np.full(4, 0.25), 3) == 4
    assert rank_of(np.full(4, 0.25), 0) == 1


def test_rank_of_matches_sort_oracle(rng):
    for _ in range(50):
        values = np.round(rng.random(10), 2)  # rounding forces occasional ties
        order = sorted(range(10), key=lambda i: (-values[i], i))
        for idx in range(10):
            assert rank_of(values, idx) == order.index(idx) + 1


def test_rank_of_argmax_consistency(rng):
    for _ in range(30):
        values = rng.random(12)
        idx = int(np.argmax(values))
        assert rank_of(values, idx) == 1


def test_checkpoint_round_trip(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.embeddings, params.embeddings.astype(np.float32))
    assert np.array_equal(loaded.doc_proj, params.doc_proj)
    assert np.array_equal(loaded.profile_proj, params.profile_proj)
    assert loaded.vocab.terms == params.vocab.terms
    assert loaded.vocab.hash_buckets == params.vocab.hash_buckets
    assert loaded.label_smoothing == params.label_smoothing


def test_checkpoint_save_is_byte_stable(tmp_path, params):
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_checkpoint(params, a)
    save_checkpoint(params, b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_version_mismatch_rejected(tmp_path, params):
    path = tmp_path / "model.ckpt"
    params.version = 999
    save_checkpoint(params, path)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_payload_is_raw_float32_arrays(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    header, payload = path.read_bytes().split(b"\n", 1)
    names = [spec["name"] for spec in json.loads(header)["arrays"]]
    assert names == ["embeddings", "doc_proj", "profile_proj"]
    expected = b"".join(
        np.ascontiguousarray(getattr(params, name), dtype="<f4").tobytes() for name in names
    )
    assert payload == expected


def test_checkpoint_short_payload_rejected(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n" + payload[:-1])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)
    # a manifest claiming far more than the file holds fails before allocating it
    manifest = json.loads(header)
    manifest["arrays"][-1].update(shape=[2**20, 2**20], bytes=4 * 2**40)
    path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_garbage_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"\x00\x01\x02 not a checkpoint\n\xff")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
