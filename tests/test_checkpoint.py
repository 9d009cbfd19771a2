import gc
import hashlib
import struct
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import semb.embedder
from semb import trainer
from semb.binio import ChecksumError, FormatError, TruncatedError, VersionError
from semb.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from semb.embedder import SentenceEmbedder
from semb.encoder import Encoder, EncoderConfig, Vocab
from semb.pooling import POOLING_MODES
from semb.tensor import Tensor


def small_embedder(seed=0, pooling="mean"):
    vocab = Vocab(["red", "green", "blue", "fish"])
    cfg = EncoderConfig(vocab_size=vocab.size, dim=8, n_layers=1, n_heads=2, ffn_dim=12, max_seq_len=10)
    return SentenceEmbedder(vocab, Encoder(cfg, seed=seed), pooling=pooling)


def test_roundtrip_is_bit_exact(tmp_path):
    emb = small_embedder(seed=4, pooling="max")
    path = tmp_path / "model.semb"
    emb.save(path)
    back = SentenceEmbedder.load(path)
    assert back.pooling == "max"
    assert back.include_special is True
    assert back.vocab.tokens == emb.vocab.tokens
    for name, p in emb.encoder.params.items():
        np.testing.assert_array_equal(back.encoder.params[name].data, p.data)
    texts = ["red fish", "blue green fish fish"]
    np.testing.assert_array_equal(back.embed(texts), emb.embed(texts))


class NoWeightDraws(np.random.Generator):
    """A generator whose `normal` refuses: `Generator` itself is an immutable type, so it cannot be patched."""

    def normal(self, *args, **kwargs):
        raise AssertionError("drew an initial weight")


def test_load_draws_no_initial_weight_and_keeps_every_bit(tmp_path, monkeypatch):
    vocab = Vocab(["red", "green", "blue", "fish"])
    cfg = EncoderConfig(vocab_size=vocab.size, dim=8, n_layers=2, n_heads=2, ffn_dim=12, max_seq_len=10, dropout=0.1)
    emb = SentenceEmbedder(vocab, Encoder(cfg, seed=5), pooling="cls")
    path = tmp_path / "model.semb"
    emb.save(path)
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoWeightDraws(np.random.PCG64(seed)))
    back = SentenceEmbedder.load(path)
    monkeypatch.undo()
    assert list(back.encoder.params) == list(emb.encoder.params)
    for name, p in emb.encoder.params.items():
        assert back.encoder.params[name].data.dtype == np.float32
        assert back.encoder.params[name].data.tobytes() == p.data.tobytes()
    texts = ["red fish", "blue green fish fish", "unknown words here"]
    assert back.embed(texts).tobytes() == emb.embed(texts).tobytes()
    # dropout draws as a freshly built seed-0 encoder's would, as before
    assert back.encoder._drop_rng.integers(0, 2**62) == Encoder(cfg)._drop_rng.integers(0, 2**62)


def test_a_fresh_checkpoint_keeps_its_pinned_bytes(tmp_path):
    # init draw order and payload order both feed this hash; two layers, so
    # a per-layer reordering shows too
    vocab = Vocab(["red", "green", "blue", "fish"])
    cfg = EncoderConfig(vocab_size=vocab.size, dim=8, n_layers=2, n_heads=2, ffn_dim=12, max_seq_len=10)
    path = tmp_path / "fresh.semb"
    SentenceEmbedder(vocab, Encoder(cfg, seed=7)).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9d231adb7c6d6add423389bee9d96a72ea716eeac4babef63a25144aa9ff9c29"
    )


def test_header_layout(tmp_path):
    emb = small_embedder()
    path = tmp_path / "model.semb"
    emb.save(path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC == b"SEMB"
    assert struct.unpack("<I", raw[4:8])[0] == VERSION == 1
    manifest_len = struct.unpack("<I", raw[8:12])[0]
    manifest = raw[12 : 12 + manifest_len].decode("utf-8")
    assert '"pooling"' in manifest
    # trailer is the crc of the tensor payload (everything between manifest and crc)
    stored = struct.unpack("<I", raw[-4:])[0]
    assert stored == zlib.crc32(raw[12 + manifest_len : -4]) & 0xFFFFFFFF


def test_payload_is_little_endian_f32_in_manifest_order(tmp_path):
    emb = small_embedder()
    path = tmp_path / "model.semb"
    emb.save(path)
    raw = path.read_bytes()
    manifest_len = struct.unpack("<I", raw[8:12])[0]
    payload = raw[12 + manifest_len : -4]
    first = emb.encoder.params["tok_emb"].data.astype("<f4")
    got = np.frombuffer(payload[: first.nbytes], dtype="<f4").reshape(first.shape)
    np.testing.assert_array_equal(got, first)


def test_bad_magic(tmp_path):
    path = tmp_path / "x.semb"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "magic" in str(err.value)


def test_unsupported_version(tmp_path):
    emb = small_embedder()
    path = tmp_path / "model.semb"
    emb.save(path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    emb = small_embedder()
    path = tmp_path / "model.semb"
    emb.save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedError):
        load_checkpoint(path)


def test_corrupted_payload_fails_checksum(tmp_path):
    emb = small_embedder()
    path = tmp_path / "model.semb"
    emb.save(path)
    raw = bytearray(path.read_bytes())
    raw[-20] ^= 0xFF  # flip bits inside the last parameter array
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    emb = small_embedder()
    path = tmp_path / "model.semb"
    emb.save(path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_load_checkpoint_returns_manifest_and_arrays(tmp_path):
    path = tmp_path / "raw.semb"
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    save_checkpoint(
        path,
        config={"vocab_size": 8, "dim": 3},
        pooling="mean",
        include_special=True,
        vocab_tokens=["a", "b", "c", "d"],
        params={"w": arr},
    )
    manifest, params = load_checkpoint(path)
    assert manifest["vocab"] == ["a", "b", "c", "d"]
    assert manifest["params"] == [{"name": "w", "shape": [2, 3], "offset": 0}]
    assert manifest["objective"] is None
    assert manifest["steps"] == 0
    np.testing.assert_array_equal(params["w"], arr)


def test_manifest_offsets_walk_the_payload(tmp_path):
    emb = small_embedder()
    path = tmp_path / "model.semb"
    emb.save(path, objective={"objective": "triplet", "margin": 1.0}, steps=42)
    manifest, params = load_checkpoint(path)
    assert manifest["objective"] == {"objective": "triplet", "margin": 1.0}
    assert manifest["steps"] == 42
    running = 0
    for entry in manifest["params"]:
        assert entry["offset"] == running
        running += params[entry["name"]].nbytes


def test_wrong_offset_in_manifest_rejected(tmp_path):
    path = tmp_path / "raw.semb"
    save_checkpoint(
        path,
        config={"vocab_size": 8, "dim": 3},
        pooling="mean",
        include_special=True,
        vocab_tokens=["a", "b", "c", "d"],
        params={"w": np.zeros((2, 3), dtype=np.float32), "b": np.zeros(3, dtype=np.float32)},
    )
    raw = path.read_bytes()
    manifest_len = struct.unpack("<I", raw[8:12])[0]
    doctored = raw[12 : 12 + manifest_len].decode("utf-8").replace('"offset": 24', '"offset": 16')
    body = doctored.encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(body)) + body + raw[12 + manifest_len :])
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "offset" in str(err.value)


def test_a_save_that_cannot_serialize_its_manifest_keeps_the_last_good_file(tmp_path):
    path = tmp_path / "model.semb"
    emb = small_embedder()
    emb.save(path, objective={"margin": 1.0})
    good = path.read_bytes()
    with pytest.raises(TypeError):  # json cannot write a numpy scalar
        emb.save(path, objective={"margin": np.float32(1.0)})
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["model.semb"]


def test_embedder_load_rejects_param_set_mismatch(tmp_path):
    emb = small_embedder()
    path = tmp_path / "model.semb"
    params = dict(emb.encoder.params)
    params.pop("tok_emb")
    save_checkpoint(
        path,
        config=emb.encoder.config.to_dict(),
        pooling="mean",
        include_special=True,
        vocab_tokens=emb.vocab.tokens,
        params=params,
    )
    with pytest.raises(FormatError) as err:
        SentenceEmbedder.load(path)
    assert "tok_emb" in str(err.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_embedder_load_refuses_a_weight_that_is_not_finite(tmp_path, value):
    emb = small_embedder()
    emb.encoder.params["tok_emb"].data[2, 3] = value
    path = tmp_path / "nanw.semb"
    emb.save(path)
    with pytest.raises(FormatError) as err:
        SentenceEmbedder.load(path)
    assert str(err.value) == f"{path}: parameter 'tok_emb' holds a value that is not finite"


def test_embedder_vocab_size_must_match_config():
    vocab = Vocab(["only", "two"])
    cfg = EncoderConfig(vocab_size=99, dim=8, n_layers=1, n_heads=2, ffn_dim=8, max_seq_len=8)
    with pytest.raises(ValueError):
        SentenceEmbedder(vocab, Encoder(cfg))


# Row i of a batch sees only its own tokens: padding is masked out of
# attention and pooling. What batch composition can change is float32
# rounding (BLAS sums over a padded width in a different order), a few
# units in the last place of values of order 1.
FLOAT32_RTOL = 1e-5
FLOAT32_ATOL = 1e-6

skewed_texts = st.lists(
    st.one_of(
        st.lists(st.sampled_from(["red", "green", "blue", "fish", "zzz"]), max_size=2),
        # up to and past max_seq_len (10, cls and sep included), so some rows are truncated
        st.lists(st.sampled_from(["red", "green", "blue", "fish", "zzz"]), min_size=6, max_size=12),
    ).map(" ".join),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(texts=skewed_texts, batch_size=st.integers(1, 14))
def test_embed_batches_agree_with_single_batch(texts, batch_size):
    emb = small_embedder(seed=9)
    smart = emb.embed(texts, batch_size=batch_size)
    assert smart.dtype == np.float32
    assert smart.shape == (len(texts), emb.dim)
    alone = np.vstack([emb.embed([text]) for text in texts])
    np.testing.assert_allclose(smart, alone, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)
    fixed = emb.embed(texts, batch_size=batch_size, smart=False)
    np.testing.assert_allclose(smart, fixed, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)


# at 1 byte every slab is one row; at 2**40 one slab takes every row of a padded width
@pytest.mark.parametrize("slab_bytes", [1, 2**40])
# forward_calls records across examples, so each example clears it first
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=skewed_texts, batch_size=st.integers(1, 14), smart=st.booleans(),
       pooling=st.sampled_from(POOLING_MODES), include_special=st.booleans())
def test_embed_rows_are_the_bits_of_embed_tensor_on_each_batch(
    texts, batch_size, smart, pooling, include_special, slab_bytes, forward_calls
):
    emb = small_embedder(seed=5, pooling=pooling)
    emb.include_special = include_special
    batches = []

    def recording(plan):
        def wrapper(*args):
            planned = plan(*args)
            batches.extend(planned)
            return planned

        return wrapper

    forward_calls.clear()
    with mock.patch.object(trainer, "smart_batches", recording(trainer.smart_batches)), \
            mock.patch.object(trainer, "naive_batches", recording(trainer.naive_batches)), \
            mock.patch.object(semb.embedder, "_SLAB_BYTES", slab_bytes):
        out = emb.embed(texts, batch_size=batch_size, smart=smart)
    forwards = list(forward_calls)
    assert sorted(i for batch in batches for i in batch) == list(range(len(texts)))
    widths = [len(emb.encode_batch([texts[i] for i in batch])[0][0]) for batch in batches]
    assert len(forwards) == (len(texts) if slab_bytes == 1 else len(set(widths)))
    # every row is padded to its batch's width, however the slabs were cut
    assert sorted(width for rows, width, _ in forwards for _ in range(rows)) == sorted(
        width for batch, width in zip(batches, widths) for _ in batch
    )
    for batch in batches:
        want = emb.embed_tensor([texts[i] for i in batch]).data
        assert out[batch].tobytes() == want.tobytes()


def test_embed_leaves_no_graph_for_the_cycle_collector():
    emb = small_embedder(seed=6, pooling="max")
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)  # what the collector frees stays in gc.garbage
    try:
        emb.embed(["red fish", "blue green fish fish", "zzz"] * 20, batch_size=4)
        gc.collect()
        tensors = [obj for obj in gc.garbage if isinstance(obj, Tensor)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert tensors == []


def test_embed_empty_list():
    emb = small_embedder()
    out = emb.embed([])
    assert out.shape == (0, emb.dim)


def test_exclude_special_changes_mean_pooling():
    vocab = Vocab(["red", "green", "blue", "fish"])
    cfg = EncoderConfig(vocab_size=vocab.size, dim=8, n_layers=1, n_heads=2, ffn_dim=12, max_seq_len=10)
    enc = Encoder(cfg, seed=2)
    with_special = SentenceEmbedder(vocab, enc, pooling="mean", include_special=True)
    without = SentenceEmbedder(vocab, enc, pooling="mean", include_special=False)
    texts = ["red green fish"]
    a = with_special.embed(texts)
    b = without.embed(texts)
    assert not np.allclose(a, b)
    # with no interior tokens the marker positions are all there is
    np.testing.assert_array_equal(with_special.embed([""]), without.embed([""]))
