import threading
import zlib

import numpy as np
import pytest

from semb import tensor as T
from semb.embedder import SentenceEmbedder
from semb.encoder import Encoder, EncoderConfig, Vocab
from semb.tensor import Tensor, ShapeError


def t64(data, requires_grad=False):
    return Tensor(data, requires_grad=requires_grad, dtype=np.float64)


def test_default_storage_is_float32():
    x = T.tensor([[1.0, 2.0]])
    assert x.dtype == np.float32
    y = T.tensor(np.arange(4, dtype=np.int64))
    assert y.dtype == np.float32


def test_float64_opt_in():
    x = T.tensor([1.0], dtype=np.float64)
    assert x.dtype == np.float64


def test_matmul_known_value():
    a = T.tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.tensor([[5.0], [6.0]])
    out = T.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[17.0], [39.0]])


def test_softmax_known_value():
    x = t64([[0.0, np.log(2.0)]])
    y = T.softmax(x)
    np.testing.assert_allclose(y.data, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = t64(rng.normal(size=(5, 9)) * 30.0)
    y = T.softmax(x)
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(5), atol=1e-12)
    assert np.isfinite(y.data).all()


def test_softmax_stable_at_large_magnitude():
    x = T.tensor([[1000.0, 1000.0]])
    y = T.softmax(x)
    np.testing.assert_allclose(y.data, [[0.5, 0.5]], atol=1e-6)


def _old_softmax_rows(x):
    y = x - np.max(x, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.sum(y, axis=-1, keepdims=True, dtype=np.float64).astype(y.dtype)
    return y


@pytest.mark.parametrize("shape", [(4,), (6, 1), (6, 4), (2, 3, 6, 4), (64, 9, 4), (3, 700, 1)])
def test_row_max_is_numpys_last_axis_max_and_softmax_keeps_its_bits(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.normal(size=shape).astype(np.float32)
    rows = x.reshape(-1, shape[-1])
    rows[::2, -1] = -1e9  # masked keys, as attention fills them
    rows[0] = [-0.0, 0.0, -1e9, -2.0][: shape[-1]]  # a zero maximum of both signs
    rows[1:2] = [0.0, -0.0, -1e9, -1e9][: shape[-1]]  # slices, so a lone row skips these
    rows[2:3, 0] = np.nan
    want = np.max(x, axis=-1, keepdims=True)
    got = T._row_max(x)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)  # NaN matches NaN, and +0 matches -0
    np.testing.assert_array_equal(T._row_max(x.T), np.max(x.T, axis=-1, keepdims=True))  # a strided view
    with np.errstate(invalid="ignore"):
        assert T._softmax_rows(x).tobytes() == _old_softmax_rows(x).tobytes()


def test_abs_diff_known_value():
    a = T.tensor([1.0, -2.0])
    b = T.tensor([3.0, 1.0])
    np.testing.assert_array_equal(T.abs_diff(a, b).data, [2.0, 3.0])


def test_abs_diff_zero_point_subgradient_is_zero():
    a = t64([2.0], requires_grad=True)
    b = t64([2.0], requires_grad=True)
    out = T.tsum(T.abs_diff(a, b))
    out.backward()
    np.testing.assert_array_equal(a.grad, [0.0])
    np.testing.assert_array_equal(b.grad, [0.0])


def test_max_tie_routes_to_first_index():
    x = t64([[5.0, 5.0, 5.0]], requires_grad=True)
    out = T.tsum(T.max_over_axis(x, axis=1))
    out.backward()
    np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0]])


def test_no_broadcasting_in_elementwise_ops():
    a = T.tensor(np.ones((2, 3)))
    b = T.tensor(np.ones((3,)))
    for op in (T.add, T.sub, T.mul, T.div, T.abs_diff):
        with pytest.raises(ShapeError):
            op(a, b)


def test_matmul_rejects_mismatched_batch_dims():
    a = T.tensor(np.ones((2, 3, 4)))
    b = T.tensor(np.ones((3, 4, 5)))
    with pytest.raises(ShapeError):
        T.matmul(a, b)


def test_add_bias_requires_strict_suffix():
    x = T.tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        T.add_bias(x, T.tensor(np.ones((2, 3))))  # same rank is not a suffix
    with pytest.raises(ShapeError):
        T.add_bias(x, T.tensor(np.ones((2,))))  # wrong trailing dim
    out = T.add_bias(x, T.tensor(np.array([1.0, 2.0, 3.0])))
    np.testing.assert_array_equal(out.data, [[2.0, 3.0, 4.0], [2.0, 3.0, 4.0]])


def test_cross_entropy_known_value():
    # uniform logits over 3 classes: loss = ln 3 per row
    logits = t64(np.zeros((2, 3)))
    losses = T.cross_entropy(logits, np.array([0, 2]))
    np.testing.assert_allclose(losses.data, np.log(3.0) * np.ones(2), atol=1e-12)


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    got = T.cross_entropy(t64(logits), labels).data
    ref = -(logits - np.log(np.exp(logits).sum(axis=1, keepdims=True)))[np.arange(6), labels]
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_embedding_forward_and_scatter_grad():
    table = t64(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ids = np.array([[1, 1], [3, 0]])
    out = T.embedding(table, ids)
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.data[0, 0], [3.0, 4.0, 5.0])
    T.tsum(out).backward()
    # row 1 used twice, rows 0 and 3 once, row 2 never
    np.testing.assert_array_equal(table.grad[:, 0], [1.0, 2.0, 0.0, 1.0])


def test_embedding_rejects_out_of_range_ids():
    table = T.tensor(np.ones((4, 3)))
    with pytest.raises(IndexError):
        T.embedding(table, np.array([4]))


def test_layer_norm_output_is_normalized():
    rng = np.random.default_rng(11)
    x = t64(rng.normal(size=(3, 8)) * 5.0 + 2.0)
    gain = t64(np.ones(8))
    bias = t64(np.zeros(8))
    y = T.layer_norm(x, gain, bias).data
    np.testing.assert_allclose(y.mean(axis=-1), np.zeros(3), atol=1e-10)
    np.testing.assert_allclose(y.std(axis=-1), np.ones(3), atol=1e-4)


def test_backward_requires_scalar():
    x = t64(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        T.mul_scalar(x, 2.0).backward()


def test_grad_accumulates_until_zeroed():
    x = t64([2.0], requires_grad=True)
    T.tsum(T.mul_scalar(x, 3.0)).backward()
    np.testing.assert_array_equal(x.grad, [3.0])
    T.tsum(T.mul_scalar(x, 3.0)).backward()
    np.testing.assert_array_equal(x.grad, [6.0])
    x.zero_grad()
    T.tsum(T.mul_scalar(x, 3.0)).backward()
    np.testing.assert_array_equal(x.grad, [3.0])


def test_disconnected_leaf_keeps_zero_grad():
    x = t64([1.0], requires_grad=True)
    y = t64([1.0], requires_grad=True)
    T.tsum(T.mul_scalar(x, 2.0)).backward()
    np.testing.assert_array_equal(y.grad, [0.0])


def test_diamond_graph_reuses_node_once():
    # z = x*x + x*x: each path contributes 2x, total 4x
    x = t64([3.0], requires_grad=True)
    sq = T.mul(x, x)
    T.tsum(T.add(sq, sq)).backward()
    np.testing.assert_array_equal(x.grad, [12.0])


def test_repeated_backward_after_reset_is_identical():
    rng = np.random.default_rng(5)
    w = t64(rng.normal(size=(4, 4)), requires_grad=True)
    x = t64(rng.normal(size=(2, 4)))

    def run():
        w.zero_grad()
        loss = T.tsum(T.gelu(T.matmul(x, w)))
        loss.backward()
        return w.grad.copy()

    first, second = run(), run()
    np.testing.assert_array_equal(first, second)


def _reachable(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_gradient_buffers_appear_only_once_backward_reaches_them():
    vocab = Vocab(["red", "blue", "fish", "bird"])
    cfg = EncoderConfig(vocab_size=vocab.size, dim=8, n_layers=2, n_heads=2, ffn_dim=12, max_seq_len=8)
    embedder = SentenceEmbedder(vocab, Encoder(cfg, seed=0))
    pooled = embedder.embed_tensor(["red fish", "blue bird fish fish"])
    op_outputs = [node for node in _reachable(pooled) if node._op != "leaf"]
    assert pooled in op_outputs
    assert all(node.grad is None for node in op_outputs)

    loss = T.tsum(T.mul(pooled, pooled))
    loss.backward()
    nodes = _reachable(loss)
    assert all(node.grad is not None and node.grad.shape == node.shape for node in nodes if node.requires_grad)
    assert all(node.grad is None for node in nodes if not node.requires_grad)
    assert all(p.grad is not None for p in embedder.encoder.params.values())


def _pass_through_graph(x, y):
    # add, sub, reshape, transpose, concat and an all-axes tsum each hand one
    # incoming gradient to several parents, and x, y and s are used again
    s = T.add(x, y)
    d = T.sub(s, x)
    t = T.transpose(T.reshape(d, (4, 3)), (1, 0))
    c = T.concat([t, T.transpose(T.reshape(s, (4, 3)), (1, 0)), t], axis=1)
    return T.add(T.tsum(T.mul(c, c)), T.tsum(T.sub(T.add(s, y), x)))


def test_pass_through_rules_match_finite_differences():
    rng = np.random.default_rng(17)
    args = [t64(rng.normal(size=(2, 6))) for _ in range(2)]
    assert T.grad_check(_pass_through_graph, args, eps=1e-5) < 1e-6


def test_no_two_gradients_share_memory():
    rng = np.random.default_rng(18)
    x, y = (t64(rng.normal(size=(2, 6)), requires_grad=True) for _ in range(2))
    loss = _pass_through_graph(x, y)
    loss.backward()
    grads = [node.grad for node in _reachable(loss) if node.grad is not None]
    assert len(grads) > 10
    for i, a in enumerate(grads):
        for b in grads[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_select_index_and_slice_rows_grads():
    x = t64(np.arange(12.0).reshape(4, 3), requires_grad=True)
    T.tsum(T.select_index(x, axis=0, index=2)).backward()
    expect = np.zeros((4, 3))
    expect[2] = 1.0
    np.testing.assert_array_equal(x.grad, expect)

    x.zero_grad()
    T.tsum(T.slice_rows(x, 1, 3)).backward()
    expect = np.zeros((4, 3))
    expect[1:3] = 1.0
    np.testing.assert_array_equal(x.grad, expect)


def test_dropout_zero_rate_is_identity():
    x = t64(np.ones(10), requires_grad=True)
    out = T.dropout(x, 0.0, np.random.default_rng(0))
    assert out is x


def test_dropout_masks_and_rescales():
    rng = np.random.default_rng(42)
    x = t64(np.ones(10_000))
    out = T.dropout(x, 0.25, rng)
    kept = out.data != 0.0
    assert abs(kept.mean() - 0.75) < 0.02
    np.testing.assert_allclose(out.data[kept], 1.0 / 0.75)


def test_dropout_deterministic_under_seed():
    x = t64(np.ones(100))
    a = T.dropout(x, 0.5, np.random.default_rng(9)).data
    b = T.dropout(x, 0.5, np.random.default_rng(9)).data
    np.testing.assert_array_equal(a, b)


def test_reduction_accumulates_in_float64():
    # a float32 running sum of ones stalls at 2^24; float64 accumulation
    # reaches the true count (kept representable for the cast back)
    n = (1 << 24) + 4
    x = T.tensor(np.ones(n, dtype=np.float32))
    assert T.tsum(x).item() == float(n)


GRAD_CASES = {}


def grad_case(fn):
    GRAD_CASES[fn.__name__.removeprefix("case_")] = fn
    return fn


@grad_case
def case_add(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    return lambda x, y: T.tsum(T.mul(T.add(x, y), T.add(x, y))), [a, b]


@grad_case
def case_sub_div(rng):
    a = rng.normal(size=(3, 4))
    # denominators bounded away from 0 so finite differences stay sane
    b = rng.uniform(0.8, 2.5, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
    return lambda x, y: T.tsum(T.div(T.sub(x, y), y)), [a, b]


@grad_case
def case_scalar_ops(rng):
    a = rng.normal(size=(5,))
    return lambda x: T.tsum(T.mul_scalar(T.add_scalar(x, 1.5), -2.0)), [a]


@grad_case
def case_abs_diff(rng):
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    return lambda x, y: T.tsum(T.abs_diff(x, y)), [a, b]


@grad_case
def case_matmul_2d(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    return lambda x, y: T.tsum(T.matmul(x, y)), [a, b]


@grad_case
def case_matmul_batched(rng):
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3))
    return lambda x, y: T.tmean(T.matmul(x, y)), [a, b]


@grad_case
def case_add_bias(rng):
    x, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4,))
    return lambda u, v: T.tsum(T.mul(T.add_bias(u, v), T.add_bias(u, v))), [x, b]


@grad_case
def case_linear(rng):
    x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(4,))
    return lambda u, v, c: T.tsum(T.mul(T.linear(u, v, c), T.linear(u, v, c))), [x, w, b]


@grad_case
def case_linear_3d(rng):
    x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,))
    return lambda u, v, c: T.tsum(T.mul(T.linear(u, v, c), T.linear(u, v, c))), [x, w, b]


@grad_case
def case_reshape_transpose(rng):
    a = rng.normal(size=(2, 3, 4))
    return lambda x: T.tsum(T.mul(T.transpose(T.reshape(x, (2, 12)), (1, 0)), T.transpose(T.reshape(x, (2, 12)), (1, 0)))), [a]


@grad_case
def case_concat(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 5))
    return lambda x, y: T.tsum(T.mul(T.concat([x, y], axis=1), T.concat([x, y], axis=1))), [a, b]


@grad_case
def case_slice_select(rng):
    a = rng.normal(size=(5, 4))
    return lambda x: T.add(T.tsum(T.slice_rows(x, 1, 4)), T.tsum(T.select_index(x, axis=1, index=2))), [a]


@grad_case
def case_sum_axis(rng):
    a = rng.normal(size=(3, 4))
    return lambda x: T.tsum(T.mul(T.tsum(x, axis=1), T.tsum(x, axis=1))), [a]


@grad_case
def case_mean_axis(rng):
    a = rng.normal(size=(3, 4))
    return lambda x: T.tsum(T.mul(T.tmean(x, axis=0), T.tmean(x, axis=0))), [a]


@grad_case
def case_max(rng):
    a = rng.normal(size=(4, 6))  # continuous draws: ties have probability zero
    return lambda x: T.tsum(T.max_over_axis(x, axis=1)), [a]


@grad_case
def case_softmax(rng):
    a = rng.normal(size=(3, 5))
    w = rng.normal(size=(3, 5))
    wt = T.tensor(w, dtype=np.float64)
    return lambda x: T.tsum(T.mul(T.softmax(x), wt)), [a]


@grad_case
def case_cross_entropy(rng):
    a = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, size=4)
    return lambda x: T.tmean(T.cross_entropy(x, labels)), [a]


@grad_case
def case_layer_norm(rng):
    x = rng.normal(size=(3, 6))
    gain = rng.normal(size=(6,)) + 1.0
    bias = rng.normal(size=(6,))
    return lambda a, g, b: T.tsum(T.mul(T.layer_norm(a, g, b), T.layer_norm(a, g, b))), [x, gain, bias]


@grad_case
def case_gelu(rng):
    a = rng.normal(size=(3, 4)) * 2.0
    return lambda x: T.tsum(T.gelu(x)), [a]


@grad_case
def case_relu(rng):
    a = rng.normal(size=(3, 4)) + 0.05  # nudge off the kink
    return lambda x: T.tsum(T.relu(x)), [a]


@grad_case
def case_sqrt(rng):
    a = rng.uniform(0.5, 4.0, size=(3, 4))
    return lambda x: T.tsum(T.sqrt(x)), [a]


@grad_case
def case_embedding(rng):
    table = rng.normal(size=(6, 3))
    ids = np.array([[0, 2], [5, 2]])
    return lambda t: T.tsum(T.mul(T.embedding(t, ids), T.embedding(t, ids))), [table]


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_gradients_match_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    f, arrays = GRAD_CASES[name](rng)
    args = [Tensor(a, dtype=np.float64) for a in arrays]
    err = T.grad_check(f, args, eps=1e-5)
    assert err < 1e-5, f"{name}: max relative gradient error {err:.3e}"


@pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_gelu_matches_float64_tanh_formula(dtype, atol):
    rng = np.random.default_rng(3)
    x = np.concatenate([np.linspace(-8.0, 8.0, 161), rng.normal(scale=3.0, size=200)]).astype(dtype)
    xd = x.astype(np.float64)
    want = 0.5 * xd * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (xd + 0.044715 * xd**3)))
    got = T.gelu(Tensor(x)).data
    assert got.dtype == dtype
    np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)


def test_gelu_gradient_is_tight_at_float64():
    x = t64(np.linspace(-5.0, 5.0, 40).reshape(5, 8))
    assert T.grad_check(lambda a: T.tsum(T.gelu(a)), [x], eps=1e-5) < 1e-6


def test_grad_check_float32_tolerance():
    # the same machinery at storage precision; 1e-2 is the honest bound there
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    b = Tensor(rng.normal(size=(4, 2)).astype(np.float32))
    err = T.grad_check(lambda x, y: T.tsum(T.gelu(T.matmul(x, y))), [a, b], eps=1e-2)
    assert err < 1e-2


def test_grad_check_catches_a_wrong_gradient():
    # sanity: the checker itself must fail loudly when the rule is wrong
    def bad_square(x):
        out = T.tensor(x.data * x.data)
        out.requires_grad = True
        out.grad = np.zeros_like(out.data)
        out._parents = (x,)

        def backward(g):
            x.grad += g * x.data  # missing factor of 2

        out._backward = backward
        return T.tsum(out)

    a = Tensor(np.array([1.0, 2.0]), dtype=np.float64)
    err = T.grad_check(bad_square, [a], eps=1e-5)
    assert err > 1e-2


def test_linear_gives_the_bits_of_matmul_then_add_bias():
    rng = np.random.default_rng(21)
    arrays = [rng.normal(size=shape).astype(np.float32) for shape in ((37, 24), (24, 40), (40,))]
    upstream = T.tensor(rng.normal(size=(37, 40)), dtype=np.float32)
    results = []
    for op in (T.linear, lambda x, w, b: T.add_bias(T.matmul(x, w), b)):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves)
        T.tsum(T.mul(out, upstream)).backward()
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for fused, pair in zip(*results):
        assert fused.dtype == pair.dtype == np.float32
        assert fused.tobytes() == pair.tobytes()


def test_linear_over_leading_axes_gives_the_bits_of_reshape_linear_reshape():
    rng = np.random.default_rng(22)
    arrays = [rng.normal(size=shape).astype(np.float32) for shape in ((5, 9, 24), (24, 40), (40,))]
    upstream = T.tensor(rng.normal(size=(5, 9, 40)), dtype=np.float32)

    def flattened(x, w, b):
        return T.reshape(T.linear(T.reshape(x, (45, 24)), w, b), (5, 9, 40))

    results = []
    for op in (T.linear, flattened):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves)
        T.tsum(T.mul(out, upstream)).backward()
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for direct, reference in zip(*results):
        assert direct.shape == reference.shape
        assert direct.tobytes() == reference.tobytes()


# The expressions `gelu` and `layer_norm` evaluated one NumPy temporary at a
# time before they were rewritten to fill buffers in place; the rewrite must
# keep their bits.


def reference_gelu(x, g):
    c = float(np.sqrt(2.0 / np.pi))
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    out = (0.5 * x * (1.0 + t)).astype(x.dtype)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x**2)
    return out, (g * local).astype(x.dtype)


def reference_layer_norm_bits(x, gain, bias, g, eps=1e-5):
    dtype = x.dtype
    mu = np.mean(x, axis=-1, keepdims=True, dtype=np.float64)
    xhat = x - mu.astype(dtype)
    var = np.mean(xhat * xhat, axis=-1, keepdims=True, dtype=np.float64)
    inv_std = (1.0 / np.sqrt(var + eps)).astype(dtype)
    xhat *= inv_std
    out = xhat * gain
    out += bias
    lead = tuple(range(g.ndim - 1))
    g_gain = np.sum(g * xhat, axis=lead, dtype=np.float64).astype(dtype)
    g_bias = np.sum(g, axis=lead, dtype=np.float64).astype(dtype)
    gx = g * gain
    mean_gx = np.mean(gx, axis=-1, keepdims=True, dtype=np.float64).astype(dtype)
    mean_gx_xhat = np.mean(gx * xhat, axis=-1, keepdims=True, dtype=np.float64).astype(dtype)
    gx -= mean_gx
    gx -= xhat * mean_gx_xhat
    gx *= inv_std
    return out, gx, g_gain, g_bias


def _forward_and_grads(op, arrays, g):
    # interior inputs take the rule's gradients as they are; a leaf would add
    # them to its zero buffer, which turns -0.0 into 0.0
    inputs = [T.mul_scalar(Tensor(a, requires_grad=True), 1.0) for a in arrays]
    out = op(*inputs)
    T.tsum(T.mul(out, T.tensor(g))).backward()
    return [out.data] + [x.grad for x in inputs]


# (batch, length, width) of the default encoder's activations: a short and a long batch
@pytest.mark.parametrize("shape", [(16, 12, 64), (32, 62, 64), (32, 62, 256)])
def test_gelu_and_layer_norm_keep_the_bits_of_their_reference_expressions(shape):
    rng = np.random.default_rng(shape[1] * shape[2])
    x = (rng.normal(size=shape) * 3.0).astype(np.float32)
    g = rng.normal(size=shape).astype(np.float32)
    gain = (1.0 + 0.1 * rng.normal(size=shape[-1])).astype(np.float32)
    bias = (0.1 * rng.normal(size=shape[-1])).astype(np.float32)

    got = _forward_and_grads(T.gelu, [x], g)
    want = reference_gelu(x, g)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float32
        assert a.tobytes() == b.tobytes()

    out, gx, g_gain, g_bias = reference_layer_norm_bits(x, gain, bias, g)
    got = _forward_and_grads(T.layer_norm, [x, gain, bias], g)
    for a, b in zip(got, [out, gx, g_gain, g_bias]):
        assert a.dtype == b.dtype == np.float32
        assert a.tobytes() == b.tobytes()


def _unfused_attention(qkv, fill, heads):
    """The op chain `attention` stands for, one op per step."""
    B, L, width = qkv.shape
    dim = width // 3
    dh = dim // heads
    parts = T.reshape(qkv, (B, L, 3, heads, dh))
    q, k, v = (T.reshape(T.transpose(T.select_index(parts, 2, j), (0, 2, 1, 3)), (B * heads, L, dh)) for j in range(3))
    fill_t = T.tensor(np.broadcast_to(fill, (B, heads, L, L)).reshape(B * heads, L, L), dtype=qkv.dtype)
    scores = T.add(T.mul_scalar(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh)), fill_t)
    ctx = T.matmul(T.softmax(scores), v)
    return T.reshape(T.transpose(T.reshape(ctx, (B, heads, L, dh)), (0, 2, 1, 3)), (B, L, dim))


def test_attention_has_the_forward_bits_of_the_unfused_chain_and_ignores_padded_keys():
    rng = np.random.default_rng(31)
    B, L, dim, heads = 3, 7, 16, 4
    lengths = [7, 4, 2]
    mask = (np.arange(L)[None, :] < np.array(lengths)[:, None]).astype(np.float32)
    fill = (1.0 - mask)[:, None, None, :] * -1e9
    qkv = Tensor(rng.normal(size=(B, L, 3 * dim)).astype(np.float32), requires_grad=True)
    out = T.attention(qkv, fill, heads)
    assert out.dtype == np.float32
    assert out.data.tobytes() == _unfused_attention(qkv, fill, heads).data.tobytes()

    T.tsum(T.mul(out, T.tensor(rng.normal(size=(B, L, dim)), dtype=np.float32))).backward()
    grads = qkv.grad.reshape(B, L, 3, dim)
    for row, n in enumerate(lengths):
        for which in (1, 2):  # keys and values
            assert np.all(grads[row, n:, which] == 0.0)
            assert np.all(np.abs(grads[row, :n, which]).max(axis=-1) > 0)


def test_attention_rejects_mismatched_operands():
    qkv = T.tensor(np.ones((2, 3, 12)))
    with pytest.raises(ShapeError):
        T.attention(qkv, np.zeros((2, 1, 1, 4)), 2)  # fill for four keys
    with pytest.raises(ShapeError):
        T.attention(qkv, np.zeros((2, 1, 1, 3)), 3)  # 3 heads do not divide dim 4
    with pytest.raises(ShapeError):
        T.attention(T.tensor(np.ones((2, 3, 10))), np.zeros((2, 1, 1, 3)), 2)


def test_linear_rejects_mismatched_operands():
    x, w, b = T.tensor([[1.0] * 3] * 2), T.tensor([[1.0] * 4] * 3), T.tensor([1.0] * 4)
    with pytest.raises(ShapeError):
        T.linear(x, T.tensor(np.ones((2, 4))), b)
    with pytest.raises(ShapeError):
        T.linear(x, w, T.tensor(np.ones(3)))
    with pytest.raises(TypeError):
        T.linear(x, w, t64(np.ones(4)))


def reference_layer_norm(x, gain, bias, eps=1e-5):
    x = x.astype(np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def reference_softmax(x):
    e = np.exp(x.astype(np.float64) - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (5.0, 2.0), (30.0, -100.0)])
def test_float32_layer_norm_and_softmax_match_a_float64_reference(scale, offset):
    rng = np.random.default_rng(int(scale))
    x = (rng.normal(size=(4, 7, 64)) * scale + offset).astype(np.float32)
    gain = (1.0 + 0.1 * rng.normal(size=64)).astype(np.float32)
    bias = (0.1 * rng.normal(size=64)).astype(np.float32)
    upstream = rng.normal(size=x.shape)

    ln = T.layer_norm(T.tensor(x), T.tensor(gain), T.tensor(bias))
    assert ln.dtype == np.float32
    np.testing.assert_allclose(ln.data, reference_layer_norm(x, gain, bias), rtol=0, atol=1e-6)
    sm = T.softmax(T.tensor(x))
    assert sm.dtype == np.float32
    np.testing.assert_allclose(sm.data, reference_softmax(x), rtol=0, atol=1e-6)

    # backward: the float32 rules against the float64 ones, which grad_check validates
    def input_grads(dtype):
        grads = []
        for op in (lambda a: T.layer_norm(a, T.tensor(gain, dtype=dtype), T.tensor(bias, dtype=dtype)), T.softmax):
            leaf = Tensor(x, requires_grad=True, dtype=dtype)
            T.tsum(T.mul(op(leaf), T.tensor(upstream, dtype=dtype))).backward()
            grads.append(leaf.grad)
        return grads

    for g32, g64 in zip(input_grads(np.float32), input_grads(np.float64)):
        assert g32.dtype == np.float32
        np.testing.assert_allclose(g32, g64, rtol=1e-5, atol=1e-6)


def test_no_grad_builds_bare_tensors_and_restores_the_mode():
    w = Tensor(np.ones((3, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    with T.no_grad():
        outs = [T.linear(w, w, b), T.layer_norm(w, b, b), T.softmax(T.matmul(w, w))]
        with T.no_grad():
            pass
        outs.append(T.add(w, w))  # the inner block restored "off", not "on"
    for out in outs:
        assert out._parents == () and out._backward is None and not out.requires_grad

    with T.no_grad():  # another thread keeps its own mode
        seen = []
        worker = threading.Thread(target=lambda: seen.append(T.add(w, w)._backward is not None))
        worker.start()
        worker.join(timeout=30)
    assert seen == [True]

    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("inside")
    out = T.linear(w, w, b)
    assert out._parents == (w, w, b) and out._backward is not None
    T.tsum(out).backward()
    assert np.any(w.grad)
