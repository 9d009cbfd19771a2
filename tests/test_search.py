import json
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semb
import semb.binio
import semb.embedder
import semb.search
from semb.binio import (
    ChecksumError,
    DimensionMismatchError,
    FormatError,
    TruncatedError,
    VersionError,
    pack_block,
    pack_u32,
    pack_u64,
)
from semb.embedder import SentenceEmbedder
from semb.encoder import Encoder, EncoderConfig, Vocab
from semb.search import (
    STORE_MAGIC,
    STORE_VERSION,
    MostSimilarResult,
    VectorStore,
    bench_embedding,
    embed_corpus,
    most_similar_pair,
    top_k,
)

WORDS = ["red", "green", "blue", "fish", "bird", "stone", "river", "cloud"]


def small_embedder(seed=0):
    vocab = Vocab(WORDS)
    cfg = EncoderConfig(vocab_size=vocab.size, dim=8, n_layers=1, n_heads=2, ffn_dim=12, max_seq_len=16)
    return SentenceEmbedder(vocab, Encoder(cfg, seed=seed))


@pytest.mark.parametrize("batch_size", [0, -3])
def test_naive_embed_rejects_batch_size_below_one(batch_size):
    # a chunk plan with no chunks would leave the output rows uninitialized
    with pytest.raises(ValueError, match="batch_size"):
        small_embedder().embed(["red fish", "blue bird", "green stone"], batch_size=batch_size, smart=False)


def random_store(n, dim, seed):
    rng = np.random.default_rng(seed)
    store = VectorStore(dim)
    store.add_many([f"v{i:04d}" for i in range(n)], rng.normal(size=(n, dim)).astype(np.float32))
    return store


# --- store basics -------------------------------------------------------------


def test_store_add_get_contains():
    store = VectorStore(3)
    store.add("a", [1, 2, 3])
    store.add("b", [4, 5, 6])
    assert len(store) == 2
    assert "a" in store and "c" not in store
    np.testing.assert_array_equal(store.get("b"), np.array([4, 5, 6], dtype=np.float32))
    assert store.ids == ["a", "b"]
    with pytest.raises(KeyError):
        store.get("zz")


def test_store_rejects_bad_ids_and_shapes():
    store = VectorStore(2)
    store.add("ok", [1.0, 2.0])
    with pytest.raises(ValueError):
        store.add("ok", [3.0, 4.0])  # duplicate
    with pytest.raises(ValueError):
        store.add("", [1.0, 2.0])
    with pytest.raises(ValueError):
        store.add("two\nlines", [1.0, 2.0])
    with pytest.raises(ValueError):
        store.add(7, [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        store.add("wide", [1.0, 2.0, 3.0])


def test_store_norms_track_rows():
    store = VectorStore(2)
    store.add("a", [3.0, 4.0])
    np.testing.assert_allclose(store.norms, [5.0], atol=1e-6)
    store.add("b", [0.0, 0.0])
    np.testing.assert_allclose(store.norms, [5.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(
        store.norms, np.linalg.norm(store.matrix.astype(np.float64), axis=1), atol=1e-6
    )


# --- store file format --------------------------------------------------------


def test_store_roundtrip_bit_exact(tmp_path):
    store = random_store(17, 5, seed=3)
    path = tmp_path / "vectors.semv"
    store.save(path)
    back = VectorStore.load(path)
    assert back.ids == store.ids
    assert back.dim == store.dim
    np.testing.assert_array_equal(back.matrix, store.matrix)


def test_store_roundtrip_unicode_ids_and_empty(tmp_path):
    store = VectorStore(2)
    store.add("café", [1.0, 0.0])
    store.add("Ωmega 2", [0.0, 1.0])
    path = tmp_path / "u.semv"
    store.save(path)
    assert VectorStore.load(path).ids == ["café", "Ωmega 2"]

    empty = VectorStore(4)
    path2 = tmp_path / "empty.semv"
    empty.save(path2)
    back = VectorStore.load(path2)
    assert len(back) == 0 and back.dim == 4


def test_store_header_layout(tmp_path):
    store = random_store(3, 2, seed=0)
    path = tmp_path / "v.semv"
    store.save(path)
    raw = path.read_bytes()
    assert raw[:4] == STORE_MAGIC == b"SEMV"
    assert struct.unpack("<I", raw[4:8])[0] == STORE_VERSION == 1
    assert struct.unpack("<I", raw[8:12])[0] == 2  # dim
    assert struct.unpack("<Q", raw[12:20])[0] == 3  # count


def test_store_corruption_is_detected(tmp_path):
    store = random_store(6, 4, seed=1)
    path = tmp_path / "v.semv"
    store.save(path)
    raw = path.read_bytes()

    bad = bytearray(raw)
    bad[:4] = b"NOPE"
    (tmp_path / "m.semv").write_bytes(bytes(bad))
    with pytest.raises(FormatError):
        VectorStore.load(tmp_path / "m.semv")

    bad = bytearray(raw)
    bad[4:8] = struct.pack("<I", 7)
    (tmp_path / "ver.semv").write_bytes(bytes(bad))
    with pytest.raises(VersionError):
        VectorStore.load(tmp_path / "ver.semv")

    (tmp_path / "t.semv").write_bytes(raw[:30])
    with pytest.raises(TruncatedError):
        VectorStore.load(tmp_path / "t.semv")

    bad = bytearray(raw)
    bad[-8] ^= 0x40  # inside the float payload
    (tmp_path / "c.semv").write_bytes(bytes(bad))
    with pytest.raises(ChecksumError):
        VectorStore.load(tmp_path / "c.semv")

    (tmp_path / "j.semv").write_bytes(raw + b"xx")
    with pytest.raises(FormatError):
        VectorStore.load(tmp_path / "j.semv")


def finish_with_crc(body: bytes) -> bytes:
    return body + pack_u32(zlib.crc32(body) & 0xFFFFFFFF)


def semv_bytes(dim, count, id_block: bytes, values) -> bytes:
    """A `.semv` file with a valid checksum around whatever header and ids it is given."""
    body = STORE_MAGIC + pack_u32(STORE_VERSION) + pack_u32(dim) + pack_u64(count) + pack_block(id_block)
    return finish_with_crc(body + np.asarray(values, dtype="<f4").tobytes())


@pytest.mark.parametrize(
    "dim, count, id_block, problem",
    [
        (2, 2, b"a\na", "duplicate"),
        (2, 2, b"a\n", "non-empty"),
        (2, 3, b"a\nb", "header says 3"),
        (0, 1, b"a", "dim"),
        (2, 1, b"\xff", "utf-8"),
    ],
    ids=["duplicate-id", "empty-id", "count-mismatch", "zero-dim", "bad-utf8"],
)
def test_store_load_refuses_bad_ids_and_header_as_format_error(tmp_path, dim, count, id_block, problem):
    path = tmp_path / "bad.semv"
    path.write_bytes(semv_bytes(dim, count, id_block, np.ones(count * dim)))
    with pytest.raises(FormatError, match=problem) as info:
        VectorStore.load(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("count", [0, 1, 10_000])
def test_store_save_writes_the_reference_bytes(tmp_path, count):
    rng = np.random.default_rng(count)
    ids = [f"v{i:05d}" for i in range(count)]
    store = VectorStore(64)
    store.add_many(ids, rng.normal(size=(count, 64)))
    store.save(tmp_path / "s.semv")
    want = semv_bytes(64, count, "\n".join(ids).encode("utf-8"), store.matrix)
    assert (tmp_path / "s.semv").read_bytes() == want


AWKWARD_IDS = ["café", "Café", "CAFÉ", "two words", " lead", "trail ", "Ωmega", "ω", "日本語 文", "e\u0301", "x\ty", "\u00a0"]


@pytest.mark.parametrize("count", [0, 1, 2_000])
def test_store_roundtrip_keeps_awkward_ids_their_order_and_bits(tmp_path, count):
    ids = (AWKWARD_IDS + [f"{AWKWARD_IDS[i % len(AWKWARD_IDS)]} #{i}" for i in range(count)])[:count]
    rows = np.random.default_rng(3).normal(size=(count, 7)).astype(np.float32)
    rows[::5] = [np.nan, np.inf, -0.0, 0.0, -np.inf, 1e-45, 3.4e38]
    store = VectorStore(7)
    store.add_many(ids, rows)
    store.save(tmp_path / "a.semv")
    back = VectorStore.load(tmp_path / "a.semv")
    assert back.ids == ids
    assert back.matrix.tobytes() == rows.tobytes()
    assert all(id_ in back for id_ in ids)
    # the adopted buffer is one BLAS can take as it is
    flags = back.matrix.flags
    assert flags.aligned and flags.writeable and flags.c_contiguous and back.matrix.dtype == np.float32


@settings(max_examples=150, deadline=None)
@given(
    ids=st.lists(st.sampled_from(AWKWARD_IDS + ["a", "b"]), min_size=2, max_size=40, unique=True),
    data=st.data(),
)
def test_a_repeated_id_anywhere_in_a_store_file_names_its_first_repeat(tmp_path_factory, ids, data):
    repeats = data.draw(st.lists(st.tuples(st.integers(0, len(ids) - 1), st.integers(0, len(ids))), min_size=1, max_size=3))
    listed = list(ids)
    for source, at in repeats:
        listed.insert(at, ids[source])
    seen = set()
    first_repeat = next(id_ for id_ in listed if id_ in seen or seen.add(id_))
    path = tmp_path_factory.mktemp("dup") / "dup.semv"
    path.write_bytes(semv_bytes(1, len(listed), "\n".join(listed).encode("utf-8"), np.ones(len(listed))))
    with pytest.raises(FormatError) as info:
        VectorStore.load(path)
    assert str(info.value) == f"{path}: duplicate vector id {first_repeat!r}"


def test_store_load_peaks_at_most_1_6_times_the_file_size(tmp_path):
    # the file's rows read once into their array, plus the id block, the ids and one set of them
    store = VectorStore(64)
    store.add_many([f"s{i:06d}" for i in range(10_000)], np.random.default_rng(0).normal(size=(10_000, 64)))
    path = tmp_path / "10k.semv"
    store.save(path)
    del store
    tracemalloc.start()
    try:
        VectorStore.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * path.stat().st_size


def test_normalizing_a_200k_row_store_peaks_at_most_1_3_times_its_rows():
    # the float32 unit rows, the norms and the mask, plus one block's float64 scratch
    store = VectorStore(64)
    store.add_many([f"s{i:06d}" for i in range(200_000)], np.random.default_rng(0).normal(size=(200_000, 64)))
    tracemalloc.start()
    try:
        store._normalized()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * store.matrix.nbytes


def whole_matrix_normalized(matrix):
    """The one-pass float64 normalization that `_normalized` computes in row blocks, kept as its reference."""
    rows = matrix.astype(np.float64)
    norms = np.linalg.norm(rows, axis=1)
    dead = ~(norms > 0.0) | np.isinf(norms)
    rows /= np.where(dead, 1.0, norms)[:, None]
    rows[dead] = 0.0
    return norms, dead, rows.astype(np.float32)


@pytest.mark.parametrize("n", [1, 4_095, 4_096, 4_097, 8_193])
def test_blocked_normalization_keeps_every_bit_of_the_whole_matrix_one(n):
    assert semb.search._NORM_ROWS == 4_096
    rng = np.random.default_rng(n)
    rows = (rng.normal(size=(n, 9)) * np.exp(rng.normal(scale=10, size=(n, 1)))).astype(np.float32)
    # dead rows at and beside each block edge: zero, infinite, NaN, and a norm that overflows float32 alone
    for edge in range(0, n + 1, 4_096):
        for row, value in zip((edge - 2, edge - 1, edge, edge + 1), (0.0, np.inf, np.nan, 3e38)):
            if 0 <= row < n:
                rows[row, row % 9] = value
                if value == 0.0:
                    rows[row] = 0.0
    store = VectorStore(9)
    store.add_many([f"r{i}" for i in range(n)], rows)
    got = store._normalized()
    for have, want in zip(got, whole_matrix_normalized(store.matrix)):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes()
    if n > 1:
        assert got[1].any()


def test_a_loaded_store_indexes_its_ids_on_first_use(tmp_path):
    ids = AWKWARD_IDS + [f"r{i}" for i in range(50)]
    rows = np.random.default_rng(4).normal(size=(len(ids), 3)).astype(np.float32)
    store = VectorStore(3)
    store.add_many(ids, rows)
    store.save(tmp_path / "s.semv")
    back = VectorStore.load(tmp_path / "s.semv")
    top_k(back, np.ones(3), 3)
    most_similar_pair(back)
    assert back._index is None  # search reads rows by number alone
    assert all(id_ in back for id_ in ids) and "absent" not in back
    for i, id_ in enumerate(ids):
        assert back.get(id_).tobytes() == rows[i].tobytes()
    with pytest.raises(KeyError):
        back.get("absent")
    with pytest.raises(ValueError, match="duplicate vector id 'café'"):
        VectorStore.load(tmp_path / "s.semv").add("café", np.ones(3))
    with pytest.raises(ValueError, match="duplicate vector id 'Ωmega'"):
        VectorStore.load(tmp_path / "s.semv").add_many(["new", "Ωmega"], np.ones((2, 3)))
    fresh = VectorStore.load(tmp_path / "s.semv")
    fresh.add_many(["new", "日本"], np.ones((2, 3)))
    assert fresh.ids == ids + ["new", "日本"] and "日本" in fresh and fresh.get(ids[-1]).tobytes() == rows[-1].tobytes()


def test_embed_corpus_indexes_its_ids_once(monkeypatch):
    calls = []
    original = VectorStore._new_index
    monkeypatch.setattr(VectorStore, "_new_index", lambda self, ids: calls.append(len(ids)) or original(self, ids))
    store = embed_corpus(small_embedder(), [("a", "red fish"), ("b", "blue bird"), ("c", "green stone")])
    assert calls == [3]
    assert store.ids == ["a", "b", "c"] and "b" in store and store.matrix.shape == (3, store.dim)
    with pytest.raises(ValueError, match="duplicate vector id 'a'"):
        store.add("a", np.ones(store.dim))


@pytest.mark.parametrize(
    "count, id_block_len", [(2**40, 1), (1, 2**32 - 1)], ids=["rows-past-the-end", "id-block-past-the-end"]
)
def test_a_header_that_claims_more_than_the_file_holds_allocates_nothing_for_it(tmp_path, count, id_block_len):
    body = STORE_MAGIC + pack_u32(STORE_VERSION) + pack_u32(64) + pack_u64(count) + pack_u32(id_block_len) + b"a"
    path = tmp_path / "claims.semv"
    path.write_bytes(finish_with_crc(body + bytes(256)))
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedError, match="more bytes at offset"):
            VectorStore.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_store_that_shrinks_while_it_loads_is_truncated(tmp_path, monkeypatch):
    # the reader takes the size when it opens the file; a read that then comes back short is truncation too
    store = VectorStore(2)
    store.add_many(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
    store.save(tmp_path / "s.semv")
    raw = (tmp_path / "s.semv").read_bytes()
    opened_at = len(raw)
    real_init = semb.binio.ByteReader.__init__

    def open_then_shrink(self, fh, what):
        real_init(self, fh, what)
        self.size = opened_at

    for cut in range(len(raw)):
        (tmp_path / "cut.semv").write_bytes(raw[:cut])
        with monkeypatch.context() as patched:
            patched.setattr(semb.binio.ByteReader, "__init__", open_then_shrink)
            with pytest.raises(TruncatedError) as shrank:
                VectorStore.load(tmp_path / "cut.semv")
        if 24 <= cut < len(raw) - 4:  # within the id block or the rows, both read whole
            with pytest.raises(TruncatedError, match=f"^{re.escape(str(shrank.value))}$"):
                VectorStore.load(tmp_path / "cut.semv")


def per_id_index(store, ids):
    """The per-id check that names the first bad id, kept as the reference for `_new_index`."""
    new = {}
    for row, id_ in enumerate(ids, len(store)):
        if not isinstance(id_, str) or not id_:
            raise ValueError("vector id must be a non-empty string")
        if "\n" in id_:
            raise ValueError(f"vector id may not contain newlines: {id_!r}")
        if id_ in store or id_ in new:
            raise ValueError(f"duplicate vector id {id_!r}")
        new[id_] = row
    return new


class Tag(str):
    """A str subclass: accepted as an id, though not by the all-`str` fast path."""


@settings(max_examples=300, deadline=None)
@given(
    ids=st.lists(
        st.one_of(
            st.sampled_from(["a", "b", "c", "A", "é", "", "d\ne", "\n", " "]),
            st.just(7),
            st.just(None),
            st.builds(lambda: ["unhashable"]),
            st.builds(Tag, st.sampled_from(["a", "t"])),
        ),
        max_size=8,
    ),
    existing=st.lists(st.sampled_from(["a", "b", "t", "é"]), unique=True, max_size=3),
)
def test_new_index_refuses_and_names_exactly_what_the_per_id_loop_does(ids, existing):
    store = VectorStore(1)
    store.add_many(existing, np.ones((len(existing), 1)))
    try:
        want = per_id_index(store, ids)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            store._new_index(ids)
        assert str(info.value) == str(exc)
    else:
        got = store._new_index(ids)
        assert got == want and list(got) == list(want)


# --- top_k --------------------------------------------------------------------


def brute_force_ranking(store, query):
    # independent definition: python sort over per-row f32 cosines; a row
    # whose norm is zero, NaN or infinite scores -inf
    query = np.asarray(query, dtype=np.float64)
    rows = store.matrix.astype(np.float64)
    scored = []
    for id_, row in zip(store.ids, rows):
        norm = np.linalg.norm(row) * np.linalg.norm(query)
        score = np.float32(row @ query / norm) if 0.0 < norm < np.inf else np.float32(-np.inf)
        scored.append((id_, float(score)))
    return sorted(scored, key=lambda t: (-t[1], t[0]))


def test_top_k_matches_full_sort_oracle():
    store = random_store(200, 6, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(5):
        query = rng.normal(size=6)
        want = brute_force_ranking(store, query)
        assert top_k(store, query, 10) == want[:10]
        assert top_k(store, query, 1) == want[:1]


def test_top_k_ranks_rows_a_few_ulps_apart_as_float64_does():
    # float32 scoring cannot order these rows; the float64 re-rank must
    rng = np.random.default_rng(8)
    base = rng.normal(size=32).astype(np.float32)
    bumps = rng.integers(-2, 3, size=(300, 32)).astype(np.int32)
    rows = (np.tile(base, (300, 1)).view(np.int32) + bumps).view(np.float32)
    store = VectorStore(32)
    store.add_many([f"n{i:03d}" for i in rng.permutation(300)], rows)
    for query in (base, rng.normal(size=32)):
        want = brute_force_ranking(store, query)
        for k in (1, 2, 5, 17, 100, 299):
            assert top_k(store, query, k) == want[:k]


def test_top_k_ties_break_on_ascending_id():
    store = VectorStore(2)
    for id_ in ["zebra", "apple", "mango"]:
        store.add(id_, [2.0, 0.0])  # identical direction: exact score ties
    store.add("other", [0.0, 1.0])
    got = top_k(store, [1.0, 0.0], 4)
    assert [g[0] for g in got] == ["apple", "mango", "zebra", "other"]
    assert got[0][1] == pytest.approx(1.0)


def test_top_k_k_larger_than_store_and_bad_inputs():
    store = random_store(4, 3, seed=2)
    assert len(top_k(store, [1.0, 0.0, 0.0], 99)) == 4
    with pytest.raises(ValueError):
        top_k(store, [1.0, 0.0, 0.0], 0)
    with pytest.raises(DimensionMismatchError):
        top_k(store, [1.0, 0.0], 3)
    for query in ([0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="zero-norm or non-finite query"):
            top_k(store, query, 3)


def test_top_k_zero_norm_rows_rank_last():
    store = VectorStore(2)
    store.add("null", [0.0, 0.0])
    store.add("real", [1.0, 1.0])
    got = top_k(store, [1.0, 0.0], 2)
    assert got[0][0] == "real"
    assert got[1] == ("null", float("-inf"))


# --- most_similar_pair --------------------------------------------------------


def brute_force_closest_pair(store):
    rows = store.matrix.astype(np.float64)
    norms = np.linalg.norm(rows, axis=1)
    best = None
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if norms[i] == 0.0 or norms[j] == 0.0:
                score = -np.inf
            else:
                score = float(rows[i] @ rows[j] / (norms[i] * norms[j]))
            if best is None or score > best[0]:
                best = (score, i, j)
    return best


def test_most_similar_pair_matches_brute_force():
    for seed in range(4):
        store = random_store(40, 5, seed=seed)
        got = most_similar_pair(store)
        want_score, i, j = brute_force_closest_pair(store)
        assert got.id_a == store.ids[i] and got.id_b == store.ids[j]
        assert got.score == pytest.approx(want_score, abs=1e-12)
        assert got.comparisons == 40 * 39 // 2


def test_most_similar_pair_blocking_does_not_change_answer(monkeypatch):
    store = random_store(23, 4, seed=9)
    whole = most_similar_pair(store)
    monkeypatch.setattr(semb.search, "_BLOCK_ROWS", 3)
    blocked = most_similar_pair(store)
    assert blocked == whole
    assert blocked.comparisons == 23 * 22 // 2


def test_most_similar_pair_tie_prefers_the_earlier_pair_from_a_later_tile(monkeypatch):
    # with 2-row tiles, (1, 2) sits in the tile of columns 2-3, visited before
    # the tile of columns 4-5 that holds the earlier pair (0, 4); both score exactly 1
    rows = np.eye(4, dtype=np.float32)[[0, 1, 1, 2, 0, 3]]
    store = VectorStore(4)
    store.add_many([f"r{i}" for i in range(6)], rows)
    monkeypatch.setattr(semb.search, "_BLOCK_ROWS", 2)
    result = most_similar_pair(store)
    assert (result.id_a, result.id_b, result.score) == ("r0", "r4", 1.0)
    assert result.comparisons == 15


def test_most_similar_pair_finds_planted_duplicate():
    store = random_store(30, 6, seed=11)
    store.add("dupe-a", store.get("v0007") * 2.0)  # same direction as v0007
    result = most_similar_pair(store)
    assert {result.id_a, result.id_b} == {"v0007", "dupe-a"}
    assert result.score == pytest.approx(1.0, abs=1e-9)


def test_most_similar_pair_two_vectors_and_ties():
    store = VectorStore(2)
    store.add("a", [1.0, 0.0])
    store.add("b", [1.0, 1.0])
    result = most_similar_pair(store)
    assert result == MostSimilarResult("a", "b", pytest.approx(1 / np.sqrt(2)), 1)

    tied = VectorStore(2)
    tied.add("p", [1.0, 0.0])
    tied.add("q", [2.0, 0.0])
    tied.add("r", [3.0, 0.0])
    res = most_similar_pair(tied)  # all three pairs score exactly 1
    assert (res.id_a, res.id_b) == ("p", "q")  # earliest insertion-order pair
    assert res.comparisons == 3

    with pytest.raises(ValueError):
        most_similar_pair(VectorStore(2))


def test_most_similar_pair_ignores_zero_rows():
    store = VectorStore(2)
    store.add("null1", [0.0, 0.0])
    store.add("x", [1.0, 0.0])
    store.add("null2", [0.0, 0.0])
    store.add("y", [1.0, 0.1])
    result = most_similar_pair(store)
    assert {result.id_a, result.id_b} == {"x", "y"}

    opposite = VectorStore(2)  # the only real pair scores below a zero row's 0
    opposite.add("x", [1.0, 0.0])
    opposite.add("minus-x", [-1.0, 0.0])
    opposite.add("null", [0.0, 0.0])
    result = most_similar_pair(opposite)
    assert (result.id_a, result.id_b, result.score) == ("x", "minus-x", -1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_inf_row_is_dead_and_hides_no_pair():
    store = VectorStore(2)
    store.add_many(["bad", "a", "b"], np.array([[np.inf, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    result = most_similar_pair(store)
    assert (result.id_a, result.id_b, result.score) == ("a", "b", 1.0)
    assert top_k(store, [1.0, 0.0], 3) == [("a", 1.0), ("b", 1.0), ("bad", float("-inf"))]
    # [0, 1] against [inf, 0] is inf * 0, NaN in a product over the raw row
    assert top_k(store, [0.0, 1.0], 3) == [("a", 0.0), ("b", 0.0), ("bad", float("-inf"))]
    assert store.norms[0] == np.inf


def test_most_similar_score_agrees_with_top_k_second_hits():
    store = random_store(25, 4, seed=14)
    best = most_similar_pair(store)
    runner_up = max(
        top_k(store, store.get(id_), 2)[1][1] for id_ in store.ids
    )
    assert best.score == pytest.approx(runner_up, abs=1e-6)


# --- properties -----------------------------------------------------------------


def exact_store(seed):
    """A store whose cosines are exact in binary, so every tie is exact.

    Rows are one of six directions (one of them zero) with 1, 4 or 16
    entries of +-1, times a power of two: unit rows hold 0, +-1, +-1/2 or
    +-1/4, and equal directions give bit-identical unit rows. Ids sort
    in neither insertion nor numeric order.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([4, 5, 17]))
    directions = np.zeros((6, dim))
    for direction in directions[1:]:
        count = rng.choice([1, 4, 16] if dim >= 16 else [1, 4])
        direction[rng.choice(dim, count, replace=False)] = rng.choice([-1.0, 1.0], count)
    n = int(rng.integers(1, 41))
    rows = directions[rng.integers(0, 6, n)] * 2.0 ** rng.integers(-3, 4, (n, 1))
    store = VectorStore(dim)
    store.add_many([f"r{j}" for j in rng.permutation(n)], rows)
    return store, rng


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), query_kind=st.sampled_from(["row", "negated row", "random"]),
       extra_k=st.integers(-40, 3))
def test_top_k_equals_a_full_float64_sort(seed, query_kind, extra_k):
    store, rng = exact_store(seed)
    query = {
        "row": lambda: store.matrix[rng.integers(len(store))],
        "negated row": lambda: -store.matrix[rng.integers(len(store))],
        "random": lambda: rng.normal(size=store.dim),
    }[query_kind]()
    if not np.any(query):
        query = np.ones(store.dim)
    k = max(1, len(store) + extra_k)  # k >= n about one time in ten
    assert top_k(store, query, k) == brute_force_ranking(store, query)[:k]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block_rows=st.integers(1, 9))
def test_most_similar_pair_equals_a_brute_force_scan(seed, block_rows):
    store, _ = exact_store(seed)
    if len(store) < 2:
        return
    with mock.patch.object(semb.search, "_BLOCK_ROWS", block_rows):
        got = most_similar_pair(store)
    want_score, i, j = brute_force_closest_pair(store)
    assert (got.id_a, got.id_b) == (store.ids[i], store.ids[j])
    assert got.score == pytest.approx(want_score, abs=1e-12)
    assert got.comparisons == len(store) * (len(store) - 1) // 2


def duplicate_store(seed):
    """Up to 600 rows drawn from a few Gaussian float32 rows, one of them sometimes zero.

    Unit rows of equal rows are equal, but a GEMM can give two copies of
    one pair dot products an ulp apart, depending on where they sit.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([5, 16, 64]))
    base = rng.normal(size=(int(rng.integers(1, 8)), dim)).astype(np.float32)
    if rng.random() < 0.3:
        base[0] = 0.0
    rows = base[rng.integers(0, len(base), int(rng.integers(2, 601)))]
    store = VectorStore(dim)
    store.add_many([f"r{i}" for i in range(len(rows))], rows)
    return store, rows


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block_rows=st.sampled_from([7, 64, 512]))
@example(seed=36, block_rows=512)  # a GEMM once gave (0, 24) for a copy of (0, 3)
def test_most_similar_pair_reports_the_earliest_copy_of_the_best_pair(seed, block_rows):
    store, rows = duplicate_store(seed)
    with mock.patch.object(semb.search, "_BLOCK_ROWS", block_rows):
        got = most_similar_pair(store)
    a, b = store.ids.index(got.id_a), store.ids.index(got.id_b)
    copies_a = np.flatnonzero((rows == rows[a]).all(axis=1))
    copies_b = np.flatnonzero((rows == rows[b]).all(axis=1))
    assert (a, b) == min((min(i, j), max(i, j)) for i in copies_a for j in copies_b if i != j)
    norms = np.linalg.norm(rows.astype(np.float64), axis=1)
    if norms[a] > 0 and norms[b] > 0:
        unit = rows / np.where(norms > 0, norms, 1.0)[:, None]
        cos = np.where(np.outer(norms > 0, norms > 0), unit @ unit.T, -np.inf)
        assert got.score == pytest.approx(cos[a, b], abs=1e-12)
        assert got.score >= cos[np.triu_indices(len(rows), 1)].max() - 1e-12
    assert got.comparisons == len(rows) * (len(rows) - 1) // 2


def float64_closest_pair(store, block_rows):
    """The float64 tile scan that float32 tiles replaced, kept as the reference answer.

    A row whose float64 norm is not positive and finite is dead: it
    scores -inf against every row.
    """
    n = len(store)
    rows = store.matrix.astype(np.float64)
    norms = np.linalg.norm(rows, axis=1)
    dead = ~((norms > 0.0) & (norms < np.inf))
    unit = np.where(dead[:, None], 0.0, rows / np.where(dead, 1.0, norms)[:, None])
    margin = 4 * (store.dim + 2) * 2.0**-53
    lower = np.tri(block_rows, dtype=bool)
    best_score = -np.inf
    best = (0, 1)
    for r0 in range(0, n, block_rows):
        r1 = min(r0 + block_rows, n)
        for c0 in range(r0, n, block_rows):
            c1 = min(c0 + block_rows, n)
            scores = unit[r0:r1] @ unit[c0:c1].T
            if c0 == r0:
                scores[lower[: r1 - r0, : c1 - c0]] = -np.inf
            scores[:, dead[c0:c1]] = -np.inf
            scores[dead[r0:r1]] = -np.inf
            top = scores.max()
            if not top > best_score - margin:
                continue
            i, j = np.nonzero(scores >= top - margin)
            i += r0
            j += c0
            exact = np.sum(unit[i] * unit[j], axis=1)
            pick = np.lexsort((j, i, -exact))[0]
            pair = (int(i[pick]), int(j[pick]))
            if exact[pick] > best_score or (exact[pick] == best_score and pair < best):
                best_score = float(exact[pick])
                best = pair
    ids = store.ids
    return MostSimilarResult(ids[best[0]], ids[best[1]], best_score, n * (n - 1) // 2)


def ulp_store(seed):
    """Copies of a few rows moved 1-3 float32 ulps apart, plus scaled copies, zero rows and non-finite rows.

    Rows a few ulps apart have cosines closer than the float32 margin
    can separate; a row scaled by a power of two has the unit row of its
    original, so it ties with it exactly. A NaN or inf entry makes a
    row no search can score, like a zero row.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([3, 8, 33]))
    base = rng.normal(size=(int(rng.integers(1, 5)), dim)).astype(np.float32)
    n = int(rng.integers(2, 41))
    rows = base[rng.integers(0, len(base), n)] * np.float32(2.0) ** rng.integers(-2, 3, (n, 1)).astype(np.float32)
    moved = (rng.random((n, 1)) < 0.5) & (rng.random((n, dim)) < 0.3)
    rows.view(np.int32)[...] += (moved * rng.integers(1, 4, (n, dim))).astype(np.int32)  # nonzero entries stay finite
    rows[rng.random(n) < 0.1] = 0.0
    for bad in (np.nan, np.inf):
        if rng.random() < 0.3:
            rows[rng.integers(n), rng.integers(dim)] = bad
    store = VectorStore(dim)
    store.add_many([f"r{i}" for i in range(n)], rows)
    return store


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no NaN or inf reaches a product, whatever the rows hold
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block_rows=st.integers(1, 9), per_helper=st.integers(1, 3),
       query_row=st.integers(0, 39))
def test_float32_tiles_on_helper_threads_give_the_float64_scans_answer(seed, block_rows, per_helper, query_row):
    store = ulp_store(seed)
    query = store.matrix[query_row % len(store)]
    if not 0.0 < np.linalg.norm(query.astype(np.float64)) < np.inf:
        query = np.ones(store.dim)
    with mock.patch.object(semb.search, "_BLOCK_ROWS", block_rows), \
            mock.patch.object(semb.search, "_TILES_PER_HELPER", per_helper), \
            mock.patch.object(semb.embedder, "_worker_count", lambda: 2):
        got = most_similar_pair(store)
        hits = {k: top_k(store, query, k) for k in range(1, len(store) + 2)}
    assert got == float64_closest_pair(store, block_rows)
    ranking = brute_force_ranking(store, query)
    for k, got_k in hits.items():
        assert got_k == ranking[:k]
        assert not any(np.isnan(score) for _, score in got_k)
    assert [t for t in threading.enumerate() if t.name == "semb-embed"] == []


def test_a_tile_that_fails_on_a_helper_thread_raises_in_the_caller_and_leaves_no_thread(monkeypatch):
    helper_took_a_tile = threading.Event()
    run_jobs = semb.search._run_jobs

    def failing_on_the_helper(jobs, work, per_helper):
        def tile(job):
            if threading.current_thread().name == "semb-embed":
                helper_took_a_tile.set()
                raise RuntimeError("boom in a tile")
            helper_took_a_tile.wait(10.0)  # so the caller cannot drain every tile first
            work(job)

        run_jobs(jobs, tile, per_helper)

    monkeypatch.setattr(semb.search, "_run_jobs", failing_on_the_helper)
    monkeypatch.setattr(semb.search, "_BLOCK_ROWS", 2)
    monkeypatch.setattr(semb.embedder, "_worker_count", lambda: 2)
    with pytest.raises(RuntimeError, match="boom in a tile"):
        most_similar_pair(random_store(80, 4, seed=3))  # 820 tiles, so one helper starts
    assert helper_took_a_tile.is_set()
    assert [t for t in threading.enumerate() if t.name == "semb-embed"] == []


PAIR_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import semb.embedder
from semb.search import VectorStore, most_similar_pair
rng = np.random.default_rng(5)
rows = rng.normal(size=(4100, 16)).astype(np.float32)
rows[4099] = rows[17] * np.float32(4.0)  # three pairs tie exactly; (17, 901) is the earliest
rows[901] = rows[17]
rows[3000] = rows[2] + np.float32(1e-3)
store = VectorStore(16)
store.add_many([f"s{i:04d}" for i in range(len(rows))], rows)
r = most_similar_pair(store)
print(json.dumps({"pair": [r.id_a, r.id_b, repr(r.score)], "workers": semb.embedder._worker_count()}))
"""


def test_the_pair_is_the_same_with_blas_pinned_to_one_thread_and_unset():
    """Pinned to 1 BLAS thread, the 45 tiles of 4,100 rows run on a helper thread too; unset, serially."""
    src = Path(semb.__file__).resolve().parents[1]
    results = {}
    for pinned in (True, False):
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if pinned:
            env["OPENBLAS_NUM_THREADS"] = "1"
        proc = subprocess.run([sys.executable, "-c", PAIR_CHILD, str(src)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        results[pinned] = json.loads(proc.stdout)
    assert results[True]["workers"] == len(os.sched_getaffinity(0))
    assert results[False]["workers"] == 1
    assert results[True]["pair"] == results[False]["pair"] == ["s0017", "s0901", "1.0"]


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.one_of(st.sampled_from(["a", "b", "c", "", "d\ne"]), st.just(7)), max_size=5),
    n_rows=st.integers(0, 6),
    width=st.sampled_from([2, 3]),
    has_a=st.booleans(),
)
def test_add_many_refuses_exactly_what_repeated_add_refuses(ids, n_rows, width, has_a):
    def fresh():
        store = VectorStore(2)
        if has_a:
            store.add("a", [1.0, 2.0])
        return store

    matrix = np.arange(n_rows * width, dtype=np.float32).reshape(n_rows, width)
    one_by_one = fresh()
    try:
        for id_, row in zip(ids, matrix, strict=True):
            one_by_one.add(id_, row)
    except ValueError:
        one_by_one = None
    batch = fresh()
    try:
        batch.add_many(ids, matrix)
    except ValueError:
        assert one_by_one is None
        want = fresh()  # a refused add_many adds nothing
    else:
        assert one_by_one is not None
        want = one_by_one
    assert batch.ids == want.ids
    assert batch.matrix.tobytes() == want.matrix.tobytes()


def test_repeated_add_grows_the_buffer_geometrically():
    store = VectorStore(3)
    buffer, regrowths = store._buffer, 0
    for i in range(1000):
        store.add(f"v{i}", [i, 1.0, 2.0])
        regrowths += store._buffer is not buffer
        buffer = store._buffer
    assert regrowths == 11  # capacity 1, 2, 4, ..., 1024
    assert store.get("v999").tolist() == [999.0, 1.0, 2.0]
    np.testing.assert_array_equal(store.matrix[:, 0], np.arange(1000))


# --- embed_corpus -------------------------------------------------------------


def corpus_texts():
    rng = np.random.default_rng(21)
    return [
        (f"s{i}", " ".join(rng.choice(WORDS, size=rng.integers(1, 8))))
        for i in range(23)
    ]


def test_embed_corpus_rows_follow_input_order():
    emb = small_embedder(seed=4)
    sentences = corpus_texts()
    store = embed_corpus(emb, sentences, batch_size=4, smart=True)
    assert store.ids == [id_ for id_, _ in sentences]
    # one text per call, so no batching can put a row in another's place
    alone = np.vstack([emb.embed([text]) for _, text in sentences])
    np.testing.assert_allclose(store.matrix, alone, rtol=1e-5, atol=1e-6)


def test_embed_corpus_smart_and_naive_agree():
    emb = small_embedder(seed=4)
    sentences = corpus_texts()
    fast = embed_corpus(emb, sentences, batch_size=4, smart=True)
    plain = embed_corpus(emb, sentences, batch_size=4, smart=False)
    assert fast.ids == plain.ids
    np.testing.assert_allclose(fast.matrix, plain.matrix, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("smart", [True, False])
def test_embed_tokenizes_each_text_once(encode_calls, smart):
    texts = [text for _, text in corpus_texts()]
    small_embedder(seed=4).embed(texts, batch_size=4, smart=smart)
    assert sorted(encode_calls) == sorted(texts)


@pytest.mark.parametrize("smart", [True, False])
def test_embed_corpus_tokenizes_each_text_once(encode_calls, smart):
    sentences = corpus_texts()
    embed_corpus(small_embedder(seed=4), sentences, batch_size=4, smart=smart)
    assert sorted(encode_calls) == sorted(text for _, text in sentences)


def test_embed_corpus_rejects_duplicates_and_empty():
    emb = small_embedder()
    with pytest.raises(ValueError):
        embed_corpus(emb, [("a", "red"), ("a", "blue")])
    with pytest.raises(ValueError):
        embed_corpus(emb, [])


# --- throughput bench ---------------------------------------------------------


def test_bench_reports_both_modes():
    emb = small_embedder(seed=1)
    texts = ["red", "green blue fish bird stone river cloud red green blue"] * 10
    smart = bench_embedding(emb, texts, batch_size=4, smart=True)
    naive = bench_embedding(emb, texts, batch_size=4, smart=False)
    for report, mode in ((smart, "cpu_smart"), (naive, "cpu_naive")):
        assert report["mode"] == mode
        assert report["total_sentences"] == 20
        assert report["batches"] == 5
        assert report["wall_seconds"] > 0
        assert report["sentences_per_second"] > 0
    # the skewed corpus is exactly what length grouping is for
    assert smart["padded_token_count"] < naive["padded_token_count"]
    assert smart["real_token_count"] == naive["real_token_count"]


def test_bench_token_counts_are_the_cells_the_forwards_take(forward_calls):
    # a forward takes every row of one batch width, each row padded to its own batch's width,
    # so the plan's padded count is still the grid the encoder runs over
    emb = small_embedder(seed=1)
    texts = ["red", "green blue fish bird stone river cloud red green blue"] * 10
    for smart, forwards in ((True, 2), (False, 1)):  # in fixed order every batch holds a long text
        forward_calls.clear()
        report = bench_embedding(emb, texts, batch_size=4, smart=smart)
        assert report["batches"] == 5 and len(forward_calls) == forwards
        cells = sum(rows * width for rows, width, _ in forward_calls)
        assert report["padded_token_count"] == cells == (8 * 3 + 12 * 12 if smart else 20 * 12)
        assert report["real_token_count"] == sum(real for _, _, real in forward_calls) == 10 * 3 + 10 * 12


def test_bench_rejects_empty_corpus():
    with pytest.raises(ValueError):
        bench_embedding(small_embedder(), [])
