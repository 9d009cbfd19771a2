import numpy as np
import pytest

from semb import tensor as T
from semb.data import DataFormatError
from semb.encoder import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    Encoder,
    EncoderConfig,
    StaticEncoder,
    Vocab,
    tokenize,
)
from semb.pooling import pool
from semb.tensor import ShapeError


# --- tokenizer and vocabulary -------------------------------------------------


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]
    assert tokenize("don't") == ["don", "'", "t"]
    assert tokenize("pi is 3.14") == ["pi", "is", "3", ".", "14"]
    assert tokenize("") == []


def test_reserved_ids():
    assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID) == (0, 1, 2, 3)


def test_vocab_assigns_ids_from_four():
    v = Vocab(["cat", "dog"])
    assert v.id_of("cat") == 4
    assert v.id_of("dog") == 5
    assert v.id_of("bird") == UNK_ID
    assert v.size == 6
    assert "cat" in v and "bird" not in v


def test_vocab_encode_wraps_and_truncates():
    v = Vocab(["a", "b", "c"])
    assert v.encode("a b", max_len=16) == [CLS_ID, 4, 5, SEP_ID]
    # interior truncated to max_len - 2
    assert v.encode("a b c a b c", max_len=5) == [CLS_ID, 4, 5, 6, SEP_ID]
    assert v.encode("", max_len=8) == [CLS_ID, SEP_ID]


def test_vocab_from_corpus_orders_by_frequency_then_alphabet():
    v = Vocab.from_corpus(["b b a", "a b c"])
    assert v.id_of("b") == 4  # count 3
    assert v.id_of("a") == 5  # count 2
    assert v.id_of("c") == 6  # count 1
    tied = Vocab.from_corpus(["z q"])
    assert tied.id_of("q") == 4 and tied.id_of("z") == 5


def test_vocab_from_corpus_min_count_and_max_size():
    v = Vocab.from_corpus(["b b a", "a b c"], min_count=2)
    assert v.id_of("c") == UNK_ID
    capped = Vocab.from_corpus(["b b a", "a b c"], max_size=6)
    assert capped.size == 6
    assert capped.id_of("c") == UNK_ID


def test_vocab_file_roundtrip_line_number_is_id_minus_four(tmp_path):
    v = Vocab(["zebra", "apple"])
    path = tmp_path / "vocab.txt"
    v.save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["zebra", "apple"]  # 0-based line number == id - 4
    loaded = Vocab.from_file(path)
    assert loaded.id_of("zebra") == 4
    assert loaded.id_of("apple") == 5


def test_vocab_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("ok\n\nmore\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as err:
        Vocab.from_file(path)
    assert err.value.line == 2

    path.write_text("dup\ndup\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as err:
        Vocab.from_file(path)
    assert err.value.line == 2

    path.write_text("ok\n<pad>\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        Vocab.from_file(path)


def test_vocab_rejects_duplicates():
    with pytest.raises(ValueError):
        Vocab(["x", "x"])


# --- encoder ------------------------------------------------------------------


def tiny_config(**overrides):
    base = dict(vocab_size=16, dim=8, n_layers=1, n_heads=2, ffn_dim=16, max_seq_len=10)
    base.update(overrides)
    return EncoderConfig(**base)


@pytest.mark.parametrize(
    "field, value",
    [("dim", 0), ("dim", -4), ("n_heads", 0), ("n_heads", 3), ("ffn_dim", 0),
     ("n_layers", -1), ("max_seq_len", 1), ("dropout", 1.0), ("vocab_size", 3)],
)
def test_encoder_config_error_starts_with_the_field(field, value):
    # the CLI prefixes "encoder." to these messages to name the dotted field
    with pytest.raises(ValueError, match=f"^{field} "):
        tiny_config(**{field: value})


def make_batch(lengths, pad_to, rng, vocab_size=16):
    B = len(lengths)
    ids = np.full((B, pad_to), PAD_ID, dtype=np.int64)
    mask = np.zeros((B, pad_to), dtype=np.float64)
    for row, n in enumerate(lengths):
        ids[row, 0] = CLS_ID
        ids[row, 1 : n - 1] = rng.integers(4, vocab_size, size=n - 2)
        ids[row, n - 1] = SEP_ID
        mask[row, :n] = 1.0
    return ids, mask


def test_forward_shape_and_determinism():
    enc = Encoder(tiny_config(), seed=1)
    rng = np.random.default_rng(0)
    ids, mask = make_batch([4, 6], pad_to=6, rng=rng)
    out1 = enc.forward(ids, mask).data
    assert out1.shape == (2, 6, 8)
    out2 = Encoder(tiny_config(), seed=1).forward(ids, mask).data
    np.testing.assert_array_equal(out1, out2)
    out3 = Encoder(tiny_config(), seed=2).forward(ids, mask).data
    assert not np.array_equal(out1, out3)


def test_forward_rejects_overlong_sequences():
    enc = Encoder(tiny_config(max_seq_len=4))
    ids = np.full((1, 5), CLS_ID)
    with pytest.raises(ShapeError):
        enc.forward(ids, np.ones((1, 5)))


def test_num_parameters_matches_shapes():
    enc = Encoder(tiny_config())
    assert enc.num_parameters() == sum(int(np.prod(p.shape)) for p in enc.params.values())


def test_dropout_only_active_in_train_mode():
    enc = Encoder(tiny_config(dropout=0.5), seed=0)
    rng = np.random.default_rng(1)
    ids, mask = make_batch([5], pad_to=5, rng=rng)
    eval1 = enc.forward(ids, mask, train=False).data
    eval2 = enc.forward(ids, mask, train=False).data
    np.testing.assert_array_equal(eval1, eval2)
    train1 = enc.forward(ids, mask, train=True).data
    train2 = enc.forward(ids, mask, train=True).data
    assert not np.array_equal(train1, train2)


# --- reference forward pass (straight-line numpy, no autodiff machinery) ------


def _ln(x, gain, bias, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _gelu(x):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def reference_forward(enc, ids, mask):
    c = enc.config
    P = {k: t.data.astype(np.float64) for k, t in enc.params.items()}
    B, L = ids.shape
    H, dh = c.n_heads, c.dim // c.n_heads

    h = P["tok_emb"][ids] + P["pos_emb"][:L]
    h = _ln(h, P["emb_ln.gain"], P["emb_ln.bias"])
    for i in range(c.n_layers):
        p = f"layers.{i}."
        q = h @ P[p + "attn.wq"] + P[p + "attn.bq"]
        k = h @ P[p + "attn.wk"] + P[p + "attn.bk"]
        v = h @ P[p + "attn.wv"] + P[p + "attn.bv"]
        ctx = np.zeros_like(h)
        for b in range(B):
            for head in range(H):
                cols = slice(head * dh, (head + 1) * dh)
                scores = q[b][:, cols] @ k[b][:, cols].T / np.sqrt(dh)
                scores = scores * mask[b][None, :] + (1.0 - mask[b][None, :]) * -1e9
                scores = scores - scores.max(-1, keepdims=True)
                w = np.exp(scores)
                w = w / w.sum(-1, keepdims=True)
                ctx[b][:, cols] = w @ v[b][:, cols]
        attn = ctx @ P[p + "attn.wo"] + P[p + "attn.bo"]
        h = _ln(h + attn, P[p + "ln1.gain"], P[p + "ln1.bias"])
        ffn = _gelu(h @ P[p + "ffn.w1"] + P[p + "ffn.b1"]) @ P[p + "ffn.w2"] + P[p + "ffn.b2"]
        h = _ln(h + ffn, P[p + "ln2.gain"], P[p + "ln2.bias"])
    return h


def test_forward_matches_reference_single_head():
    cfg = EncoderConfig(vocab_size=12, dim=6, n_layers=1, n_heads=1, ffn_dim=12, max_seq_len=8)
    enc = Encoder(cfg, seed=7, dtype=np.float64)
    rng = np.random.default_rng(7)
    ids, mask = make_batch([5, 3], pad_to=5, rng=rng, vocab_size=12)
    got = enc.forward(ids, mask).data
    want = reference_forward(enc, ids, mask)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_forward_matches_reference_multi_layer_multi_head():
    cfg = EncoderConfig(vocab_size=20, dim=8, n_layers=2, n_heads=4, ffn_dim=24, max_seq_len=12)
    enc = Encoder(cfg, seed=19, dtype=np.float64)
    rng = np.random.default_rng(19)
    ids, mask = make_batch([9, 4, 7], pad_to=9, rng=rng, vocab_size=20)
    got = enc.forward(ids, mask).data
    want = reference_forward(enc, ids, mask)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_padding_does_not_change_real_positions():
    cfg = tiny_config()
    rng = np.random.default_rng(5)
    ids, mask = make_batch([6, 4], pad_to=6, rng=rng)
    padded_ids = np.full((2, 9), PAD_ID, dtype=np.int64)
    padded_ids[:, :6] = ids
    padded_mask = np.zeros((2, 9))
    padded_mask[:, :6] = mask

    enc64 = Encoder(cfg, seed=3, dtype=np.float64)
    tight = enc64.forward(ids, mask).data
    loose = enc64.forward(padded_ids, padded_mask).data
    np.testing.assert_allclose(loose[:, :6, :], tight, atol=1e-12)

    enc32 = Encoder(cfg, seed=3, dtype=np.float32)
    tight32 = enc32.forward(ids, mask.astype(np.float32)).data
    loose32 = enc32.forward(padded_ids, padded_mask.astype(np.float32)).data
    np.testing.assert_allclose(loose32[:, :6, :], tight32, rtol=1e-5, atol=1e-6)


def two_mask_forward(enc, ids, mask):
    """Encoder.forward with padding keys masked as `scores * keep + fill`."""
    p, c = enc.params, enc.config
    B, L = ids.shape
    H, dh = c.n_heads, c.dim // c.n_heads
    keep = np.broadcast_to(mask[:, None, None, :], (B, H, L, L)).reshape(B * H, L, L)
    keep_t = T.tensor(keep, dtype=enc.dtype)
    fill_t = T.tensor((1.0 - keep) * -1e9, dtype=enc.dtype)

    def linear(x, weight, bias):
        return T.add_bias(T.matmul(x, p[weight]), p[bias])

    def heads(x):
        return T.reshape(T.transpose(T.reshape(x, (B, L, H, dh)), (0, 2, 1, 3)), (B * H, L, dh))

    h = T.add_bias(T.embedding(p["tok_emb"], ids), T.slice_rows(p["pos_emb"], 0, L))
    h = T.layer_norm(h, p["emb_ln.gain"], p["emb_ln.bias"])
    for i in range(c.n_layers):
        pre = f"layers.{i}."
        flat = T.reshape(h, (B * L, c.dim))
        q, k, v = (heads(linear(flat, pre + "attn.w" + n, pre + "attn.b" + n)) for n in "qkv")
        scores = T.mul_scalar(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
        ctx = T.matmul(T.softmax(T.add(T.mul(scores, keep_t), fill_t)), v)
        merged = T.reshape(T.transpose(T.reshape(ctx, (B, H, L, dh)), (0, 2, 1, 3)), (B * L, c.dim))
        attn = T.reshape(linear(merged, pre + "attn.wo", pre + "attn.bo"), (B, L, c.dim))
        h = T.layer_norm(T.add(h, attn), p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        flat = T.reshape(h, (B * L, c.dim))
        inner = T.gelu(linear(flat, pre + "ffn.w1", pre + "ffn.b1"))
        ffn = T.reshape(linear(inner, pre + "ffn.w2", pre + "ffn.b2"), (B, L, c.dim))
        h = T.layer_norm(T.add(h, ffn), p[pre + "ln2.gain"], p[pre + "ln2.bias"])
    return h


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_additive_mask_matches_two_mask_reference_bit_for_bit(dtype):
    # padding keys get softmax weight exactly 0 whether their score is
    # zeroed before the -1e9 is added or not, so nothing may move
    cfg = EncoderConfig(vocab_size=20, dim=8, n_layers=2, n_heads=2, ffn_dim=16, max_seq_len=12)
    rng = np.random.default_rng(23)
    ids, mask = make_batch([9, 4, 6], pad_to=11, rng=rng, vocab_size=20)
    mask = mask.astype(dtype)
    out_weights = T.tensor(rng.normal(size=(3, 11, cfg.dim)), dtype=dtype)

    def run(forward):
        enc = Encoder(cfg, seed=23, dtype=dtype)
        hidden = forward(enc)
        T.tsum(T.mul(hidden, out_weights)).backward()
        return hidden.data, {name: t.grad for name, t in enc.params.items()}

    hidden, grads = run(lambda enc: enc.forward(ids, mask))
    ref_hidden, ref_grads = run(lambda enc: two_mask_forward(enc, ids, mask))
    np.testing.assert_array_equal(hidden, ref_hidden)
    for name, ref in ref_grads.items():
        assert np.abs(ref).max() > 0, name
        np.testing.assert_array_equal(grads[name], ref, err_msg=name)


def test_whole_encoder_gradients_match_finite_differences():
    cfg = EncoderConfig(vocab_size=8, dim=4, n_layers=1, n_heads=2, ffn_dim=6, max_seq_len=6)
    enc = Encoder(cfg, seed=11, dtype=np.float64)
    rng = np.random.default_rng(11)
    ids, mask = make_batch([4, 3], pad_to=4, rng=rng, vocab_size=8)
    names = list(enc.params)
    weights = T.tensor(np.linspace(0.5, 1.5, 2 * cfg.dim).reshape(2, cfg.dim), dtype=np.float64)

    def loss_fn(*tensors):
        for name, t in zip(names, tensors):
            enc.params[name] = t
        pooled = pool(enc.forward(ids, mask), mask, "mean")
        return T.tsum(T.mul(pooled, weights))

    err = T.grad_check(loss_fn, [enc.params[n] for n in names], eps=1e-5)
    assert err < 1e-5, f"max relative gradient error {err:.3e}"


# --- static word-vector encoder ----------------------------------------------


def test_static_encoder_averages_known_words(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("hot 1.0 0.0\ncold 0.0 1.0\n", encoding="utf-8")
    enc = StaticEncoder.from_text_file(path)
    assert enc.dim == 2
    out = enc.embed(["Hot cold", "hot", "zzz unknown"])
    np.testing.assert_allclose(out, [[0.5, 0.5], [1.0, 0.0], [0.0, 0.0]])


def test_static_encoder_rejects_ragged_or_bad_lines(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1.0 2.0\nb 3.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as err:
        StaticEncoder.from_text_file(path)
    assert err.value.line == 2

    path.write_text("a 1.0 x\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        StaticEncoder.from_text_file(path)

    path.write_text("", encoding="utf-8")
    with pytest.raises(DataFormatError):
        StaticEncoder.from_text_file(path)
