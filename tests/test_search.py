import struct

import numpy as np
import pytest

import semb.search
from semb.binio import (
    ChecksumError,
    DimensionMismatchError,
    FormatError,
    TruncatedError,
    VersionError,
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


# --- top_k --------------------------------------------------------------------


def brute_force_ranking(store, query):
    # independent definition: python sort over per-row f32 cosines
    query = np.asarray(query, dtype=np.float64)
    rows = store.matrix.astype(np.float64)
    scored = []
    for id_, row in zip(store.ids, rows):
        norm = np.linalg.norm(row) * np.linalg.norm(query)
        score = np.float32(row @ query / norm) if norm > 0 else np.float32(-np.inf)
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
    with pytest.raises(ValueError):
        top_k(store, [0.0, 0.0, 0.0], 3)  # zero-norm query


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


def test_most_similar_score_agrees_with_top_k_second_hits():
    store = random_store(25, 4, seed=14)
    best = most_similar_pair(store)
    runner_up = max(
        top_k(store, store.get(id_), 2)[1][1] for id_ in store.ids
    )
    assert best.score == pytest.approx(runner_up, abs=1e-6)


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


def test_bench_rejects_empty_corpus():
    with pytest.raises(ValueError):
        bench_embedding(small_embedder(), [])
