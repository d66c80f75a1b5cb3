import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deident.corpus import Profile, ProfileStore, Vocabulary, tokenize
from deident.encoder import (
    Bags,
    CheckpointError,
    DenseBags,
    build_profile_matrix,
    init_params,
    load_checkpoint,
    profile_bags,
    rank_of,
    save_checkpoint,
)
from deident.reid import NeuralReidentifier

from oracles import (
    ChunkedSegmentSum,
    UniqueDenseBags,
    document_row_indices,
    linearize,
    mean_rows,
    score_and_normalize,
)


def small_vocab(extra=()):
    terms = sorted({"alpha", "beta", "gamma", "delta", "name", ":", "|", *extra})
    return Vocabulary(terms)


@pytest.fixture()
def params():
    return init_params(small_vocab(), dim=16, seed=3)


def small_reidentifier(params):
    """A neural reidentifier over three one-entry profiles: what a single document is scored by."""
    words = ("alpha beta", "gamma", "delta alpha")
    return NeuralReidentifier(params, ProfileStore([Profile(id=w, entries=(("name", w),)) for w in words]))


def test_encode_document_deterministic(params):
    doc = tokenize("alpha beta gamma")
    mask = np.array([0, 1, 0], dtype=np.int8)
    first = small_reidentifier(params).scores(doc, mask)
    second = small_reidentifier(params).scores(doc, mask)
    assert np.array_equal(first, second)


def test_full_mask_is_content_independent(params):
    doc_a = tokenize("alpha beta gamma")
    doc_b = tokenize("delta delta delta")
    ones = np.ones(3, dtype=np.int8)
    model = small_reidentifier(params)
    assert np.array_equal(model.scores(doc_a, ones), model.scores(doc_b, ones))


def test_masking_changes_embedding(params):
    doc = tokenize("alpha beta")
    model = small_reidentifier(params)
    plain = model.scores(doc, np.array([0, 0], dtype=np.int8))
    masked = model.scores(doc, np.array([1, 0], dtype=np.int8))
    assert not np.allclose(plain, masked)


def test_masked_positions_hide_content(params):
    # growing the mask makes the scores independent of what was masked
    doc_a = tokenize("alpha beta gamma")
    doc_b = tokenize("delta beta gamma")
    mask = np.array([1, 0, 0], dtype=np.int8)
    model = small_reidentifier(params)
    assert np.array_equal(model.scores(doc_a, mask), model.scores(doc_b, mask))


def one_bag_mean(params, profile):
    """A profile's token mean computed as a store of one."""
    return profile_bags(params.vocab, ProfileStore([profile])).mean(params.embeddings)[0]


def assert_store_rows_exact(params, store):
    """Every row of the store's means is its profile's one-bag mean, and the matrix is means @ proj."""
    means = profile_bags(params.vocab, store).mean(params.embeddings)
    for i, profile in enumerate(store):
        assert np.array_equal(means[i], one_bag_mean(params, profile))
    proj = params.profile_proj.astype(np.float64)
    assert np.array_equal(build_profile_matrix(params, store), means @ proj)


def test_encode_profile_identity_and_difference(params):
    one = Profile(id="a", entries=(("name", "alpha beta"),))
    same = Profile(id="b", entries=(("name", "alpha beta"),))
    other = Profile(id="c", entries=(("name", "alpha gamma"),))
    means = profile_bags(params.vocab, ProfileStore([one, same, other])).mean(params.embeddings)
    assert np.array_equal(means[0], means[1])
    assert not np.allclose(means[0], means[2])


def test_encode_profile_truncation_equivalence(params):
    long_value = " ".join(["alpha"] * 300)
    profile = Profile(id="a", entries=(("name", long_value), ("extra", "beta")))
    truncated = linearize(profile)
    assert len(truncated) <= 128
    direct = build_profile_matrix(params, ProfileStore([profile]))
    rows = params.vocab.indices([term for _, term, _ in truncated])
    manual = Bags(rows, [len(rows)]).mean(params.embeddings) @ params.profile_proj.astype(np.float64)
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
    assert_store_rows_exact(params, store)


def test_profile_matrix_single_profile(params):
    store = ProfileStore([Profile(id="a", entries=(("name", "alpha"),))])
    matrix = build_profile_matrix(params, store)
    assert matrix.shape == (1, params.out_dim)
    assert_store_rows_exact(params, store)


def test_profile_matrix_tracks_params_change(params):
    store = ProfileStore([Profile(id="a", entries=(("name", "alpha"),))])
    before = build_profile_matrix(params, store)
    params.embeddings[params.vocab.indices(["alpha"])[0]] += 1.0
    after = build_profile_matrix(params, store)
    assert not np.allclose(before, after)


def test_profile_matrix_spot_check_large(desk_corpus, desk_models):
    params = desk_models[0]
    store = desk_corpus.store
    means = profile_bags(params.vocab, store).mean(params.embeddings)
    picks = np.random.default_rng(4).choice(len(store), size=5, replace=False)
    for i in picks:
        assert np.array_equal(means[i], one_bag_mean(params, store[int(i)]))
    assert np.array_equal(build_profile_matrix(params, store), means @ params.profile_proj.astype(np.float64))


@settings(max_examples=80, deadline=None)
@given(
    terms=st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True),
    words=st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=40),
    bags=st.lists(st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=12), min_size=1, max_size=6),
    dim=st.integers(1, 24),
    seed=st.integers(0, 2**16),
)
def test_encoder_means_match_one_bag_oracles(terms, words, bags, dim, seed):
    # a word outside `terms` reads as the mask row, like a masked position
    vocab = Vocabulary(sorted(terms))
    params = init_params(vocab, dim=dim, seed=seed)
    model = NeuralReidentifier(params, ProfileStore([Profile(id=t, entries=((t, t),)) for t in terms]))
    document = tokenize(" ".join(words))
    mask = np.random.default_rng(seed).integers(0, 2, len(document)).astype(np.int8)
    rows = document_row_indices(vocab, document, mask)
    expected = model.matrix @ (mean_rows(params.embeddings, rows) @ params.doc_proj.astype(np.float64))
    assert np.array_equal(model.scores(document, mask), expected)
    row_arrays = [vocab.indices(bag) for bag in bags]
    means = Bags(np.concatenate(row_arrays), [len(r) for r in row_arrays]).mean(params.embeddings)
    for i, bag_rows in enumerate(row_arrays):
        assert np.array_equal(means[i], Bags(bag_rows, [len(bag_rows)]).mean(params.embeddings)[0])


def seeded_bags(seed: int, n_bags: int, max_len: int, n_rows: int) -> list[list[int]]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, n_rows, rng.integers(1, max_len + 1)).tolist() for _ in range(n_bags)]


# up to 400 bags, so that wide inputs run several blocks; few rows, so that bags repeat rows
KERNEL_BAGS = st.builds(
    seeded_bags, st.integers(0, 2**16), st.integers(1, 400), st.integers(1, 30), st.integers(1, 60)
)
# a single bag, a one-row bag among longer ones, and repeated rows
SHAPED_BAGS = [[[3]], [[5], [0, 1, 2, 5], [1, 1]], [[2, 2, 2, 2]], [[0, 4, 4], [4, 4, 0, 0, 0]]]


@settings(max_examples=80, deadline=None)
@given(
    bags=KERNEL_BAGS,
    width=st.sampled_from([1, 7, 32, 128, 200]),
    block_floats=st.sampled_from([None, 1, 200]),
    seed=st.integers(0, 2**16),
)
@example(bags=SHAPED_BAGS[0], width=200, block_floats=None, seed=0)
@example(bags=SHAPED_BAGS[1], width=7, block_floats=1, seed=1)
@example(bags=SHAPED_BAGS[2], width=1, block_floats=None, seed=2)
@example(bags=SHAPED_BAGS[3], width=128, block_floats=200, seed=3)
def test_bags_forward_matches_the_chunked_segment_sum_bit_for_bit(bags, width, block_floats, seed):
    op = Bags(np.concatenate(bags), [len(b) for b in bags])
    if block_floats is not None:  # blocks of one row, or of a few, at any width
        op.forward.BLOCK_FLOATS = block_floats
    x = np.random.default_rng(seed).standard_normal((len(op.rows), width))
    assert op.forward(x).tobytes() == ChunkedSegmentSum(op._bag, op._col, op._weight)(x).tobytes()


@settings(max_examples=80, deadline=None)
@given(bags=st.one_of(KERNEL_BAGS, st.sampled_from(SHAPED_BAGS)))
def test_dense_bags_match_the_unique_dense_bags_bit_for_bit(bags):
    flat, lengths = np.concatenate([np.array(b, dtype=np.int64) for b in bags]), [len(b) for b in bags]
    got, want = DenseBags(flat, lengths), UniqueDenseBags(flat, lengths)
    assert got.rows.tobytes() == want.rows.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


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


def test_checkpoint_whose_header_carries_label_smoothing_loads_the_same(tmp_path, params):
    # earlier writers put the training's label smoothing in the header, between "dim" and "out_dim" in key order
    path, old, again = tmp_path / "model.ckpt", tmp_path / "old.ckpt", tmp_path / "again.ckpt"
    save_checkpoint(params, path)
    header, payload = path.read_bytes().split(b"\n", 1)
    header = {**json.loads(header), "label_smoothing": 0.15}
    old.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    current, loaded = load_checkpoint(path), load_checkpoint(old)
    assert loaded.vocab.terms == current.vocab.terms
    for name in ("embeddings", "doc_proj", "profile_proj"):
        assert getattr(loaded, name).tobytes() == getattr(current, name).tobytes()
    document = tokenize("alpha gamma beta")
    scores = [small_reidentifier(model).scores(document).tobytes() for model in (current, loaded)]
    assert scores[0] == scores[1]
    save_checkpoint(loaded, again)  # saved again, it is the current format
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_save_is_byte_stable(tmp_path, params):
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_checkpoint(params, a)
    save_checkpoint(params, b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_version_mismatch_rejected(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    header_line, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(dict(json.loads(header_line), version=999)).encode() + b"\n" + payload)
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
    # a manifest claiming far more than its dimensions imply is not their layout
    manifest = json.loads(header)
    manifest["arrays"][-1].update(shape=[2**20, 2**20], bytes=4 * 2**40)
    path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
    with pytest.raises(CheckpointError, match="does not match"):
        load_checkpoint(path)


def test_checkpoint_with_bytes_after_its_payload_rejected(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 7000)
    with pytest.raises(CheckpointError, match="7000 bytes after its payload"):
        load_checkpoint(path)


def _checkpoint_layout(n_rows, dim, out_dim):
    """The `arrays` section a checkpoint of these dimensions holds: its float32 arrays back to back."""
    shapes = [[n_rows, dim], [dim, out_dim], [dim, out_dim]]
    sizes = [4 * rows * cols for rows, cols in shapes]
    offsets = [0, sizes[0], sizes[0] + sizes[1]]
    names = ["embeddings", "doc_proj", "profile_proj"]
    return [{"name": n, "shape": s, "offset": o, "bytes": b} for n, s, o, b in zip(names, shapes, offsets, sizes)]


def _rewrite_header(path, edit):
    header, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def test_checkpoint_header_holds_the_layout_of_its_dimensions(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["arrays"] == _checkpoint_layout(params.vocab.n_rows, params.dim, params.out_dim)


def test_checkpoint_claiming_more_than_the_file_holds_fails_before_allocating(tmp_path, params):
    # dimensions and arrays agree, and claim terabytes: reading them would exhaust memory first
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    big = 2**20
    arrays = _checkpoint_layout(params.vocab.n_rows, big, big)
    _rewrite_header(path, lambda h: h.update(dim=big, out_dim=big, arrays=arrays))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h["arrays"].reverse(),
        lambda h: h["arrays"][0].update(dtype="<f4"),
        lambda h: h.update(dim=h["dim"] + 1),
        lambda h: h.update(out_dim=h["out_dim"] - 1),
        lambda h: h.update(dim=True),
        lambda h: h.pop("out_dim"),
        lambda h: h["arrays"].pop(),
    ],
    ids=["reversed", "extra-key", "dim-disagrees", "out-dim-disagrees", "dim-bool", "no-out-dim", "missing-array"],
)
def test_checkpoint_header_that_is_not_its_layout_rejected(tmp_path, params, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    _rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match="does not match|positive integers"):
        load_checkpoint(path)


def test_checkpoint_garbage_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"\x00\x01\x02 not a checkpoint\n\xff")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
