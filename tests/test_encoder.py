import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semb import tensor as T
from semb.data import DataFormatError
from semb.encoder import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    Encoder,
    EncoderConfig,
    Vocab,
    tokenize,
)
from semb.pooling import POOLING_MODES, pool
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
    assert v.tokens == ["cat", "dog"]


def test_vocab_encode_wraps_and_truncates():
    v = Vocab(["a", "b", "c"])
    assert v.encode("a b", max_len=16) == [CLS_ID, 4, 5, SEP_ID]
    # interior truncated to max_len - 2
    assert v.encode("a b c a b c", max_len=5) == [CLS_ID, 4, 5, 6, SEP_ID]
    assert v.encode("", max_len=8) == [CLS_ID, SEP_ID]


def test_vocab_encode_matches_a_token_by_token_lookup():
    v = Vocab(["a", "b", "c", ",", "word"])
    rng = np.random.default_rng(0)
    pool = ["a", "b", "c", ",", "word", "zzz", "Word", "unknown", "?"]  # some map to unk
    for max_len in (2, 3, 8, 16):
        for n_tokens in range(0, 24, 3):  # past max_len - 2, so some texts are truncated
            text = " ".join(rng.choice(pool, size=n_tokens))
            want = [CLS_ID] + [v.id_of(tok) for tok in tokenize(text)][: max_len - 2] + [SEP_ID]
            assert v.encode(text, max_len) == want


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
     ("n_layers", -1), ("max_seq_len", 1), ("dropout", 1.0), ("vocab_size", 3),
     # a value of the wrong type, whatever it compares equal to
     ("n_heads", 2.0), ("n_layers", True), ("dim", "16"), ("dropout", False), ("dim", 2**63),
     ("vocab_size", None), ("dropout", float("nan"))],
)
def test_encoder_config_error_starts_with_the_field(field, value):
    # the CLI prefixes "encoder." to these messages to name the dotted field
    with pytest.raises(ValueError, match=f"^{field} "):
        tiny_config(**{field: value})


def test_encoder_config_keeps_an_integer_dropout_as_a_float():
    config = tiny_config(dropout=0)
    assert type(config.dropout) is float and config.to_dict()["dropout"] == 0.0


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


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(2, 7), min_size=1, max_size=4),
    extra=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_padding_does_not_change_real_positions(lengths, extra, seed):
    cfg = tiny_config()
    rng = np.random.default_rng(seed)
    width = max(lengths)
    ids, mask = make_batch(lengths, pad_to=width, rng=rng)
    padded_ids = np.full((len(lengths), width + extra), PAD_ID, dtype=np.int64)
    padded_ids[:, :width] = ids
    padded_mask = np.zeros(padded_ids.shape)
    padded_mask[:, :width] = mask
    real = mask.astype(bool)
    enc_seed = int(rng.integers(2**31))

    for dtype, tol in ((np.float64, dict(rtol=0, atol=1e-12)), (np.float32, dict(rtol=1e-5, atol=1e-6))):
        enc = Encoder(cfg, seed=enc_seed, dtype=dtype)
        tight = enc.forward(ids, mask)
        loose = enc.forward(padded_ids, padded_mask)
        np.testing.assert_allclose(loose.data[:, :width][real], tight.data[real], **tol)
        for mode in POOLING_MODES:
            np.testing.assert_allclose(
                pool(loose, padded_mask, mode).data, pool(tight, mask, mode).data, **tol
            )


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
        return T.reshape(T.transpose(x, (0, 2, 1, 3)), (B * H, L, dh))

    h = T.add_bias(T.embedding(p["tok_emb"], ids), T.slice_rows(p["pos_emb"], 0, L))
    h = T.layer_norm(h, p["emb_ln.gain"], p["emb_ln.bias"])
    for i in range(c.n_layers):
        pre = f"layers.{i}."
        flat = T.reshape(h, (B * L, c.dim))
        # the encoder's one projection GEMM, split into queries, keys and values
        w_qkv = T.concat([p[pre + "attn.w" + n] for n in "qkv"], axis=1)
        b_qkv = T.concat([p[pre + "attn.b" + n] for n in "qkv"], axis=0)
        qkv = T.reshape(T.linear(flat, w_qkv, b_qkv), (B, L, 3, H, dh))
        q, k, v = (heads(T.select_index(qkv, 2, j)) for j in range(3))
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

