"""Dense tensors with reverse-mode automatic differentiation.

Values are stored row-major in float32 by default; float64 tensors are
supported so that gradients can be validated against central finite
differences at tight tolerances. Every op computes in the storage dtype;
sums and means accumulate in float64 and round back to it.

Ops record a graph for `Tensor.backward`: each output keeps its parents
and a backward rule `backward(g)` that takes the output's gradient as an
argument and hands each parent its share. An interior node's gradient
appears on first touch: the first share becomes its `grad` (copied when
it is `g` or a view of it), and later shares are added to it. A leaf
built with `requires_grad` keeps its zero buffer and accumulates into it.
No rule refers to its own output, so a graph holds no reference cycle,
and reference counting frees it as soon as the caller drops the loss.
Inside `no_grad()` ops record no graph: each returns a bare tensor, so
an inference pass keeps no activation alive once its consumer is done
with it.

Broadcasting is deliberately restricted: binary elementwise ops require
identical shapes, with explicit scalar variants (`add_scalar`,
`mul_scalar`) and an explicit trailing-suffix op (`add_bias`) for the
bias/position patterns a transformer needs. Anything else is a shape
error, not a silent broadcast.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "tensor",
    "add",
    "sub",
    "mul",
    "div",
    "add_scalar",
    "mul_scalar",
    "abs_diff",
    "matmul",
    "add_bias",
    "linear",
    "embedding",
    "reshape",
    "transpose",
    "concat",
    "slice_rows",
    "select_index",
    "tsum",
    "tmean",
    "max_over_axis",
    "softmax",
    "attention",
    "cross_entropy",
    "layer_norm",
    "gelu",
    "relu",
    "sqrt",
    "dropout",
    "grad_check",
]

_FLOAT_DTYPES = (np.float32, np.float64)


class _GradMode(threading.local):
    """Per thread: False inside `no_grad()`. Only `_result` reads it."""

    enabled = True


_grad_mode = _GradMode()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an op's contract."""


def _coerce(data, dtype):
    if dtype is not None:
        return np.ascontiguousarray(data, dtype=dtype)
    # numpy float arrays keep their precision; everything else (lists,
    # ints, mixed) lands in the float32 default
    if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
        return data
    if isinstance(data, _FLOAT_DTYPES):
        return np.asarray(data)
    return np.ascontiguousarray(data, dtype=np.float32)


class Tensor:
    """A dense array plus an optional gradient buffer and graph linkage.

    Tensors are immutable once created, except for in-place parameter
    updates applied by an optimizer between training steps. `grad` has
    the same shape as `data`. A leaf built with `requires_grad` has a zero
    buffer from construction; a tensor an op returns has none until a
    backward rule first hands it a gradient, which then becomes its
    `grad` without a zero fill. So a forward pass that is never
    differentiated allocates no gradient memory. Once present, `grad`
    accumulates across backward calls until `zero_grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, dtype=None, _parents=(), _op="leaf"):
        self.data = _coerce(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = _parents
        self._backward = None
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def backward(self):
        """Backpropagate from a scalar loss into every reachable gradient buffer.

        Each node's backward rule runs exactly once, consumers before
        producers, as `node._backward(node.grad)`, deterministically for
        a fixed graph. Interior nodes get their `grad` on first touch, as
        the module docstring describes; a node no share reached has a
        zero gradient, so its rule is skipped. Leaves that do not feed
        the loss keep their (zero-initialized) gradient untouched. The
        graph is freed by reference counting once the caller drops the
        loss.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward called on a tensor that does not require grad")
        _give(self, np.ones_like(self.data))
        for node in reversed(_topo_order(self)):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad=False, dtype=None) -> Tensor:
    """Construct a Tensor; float32 storage unless `dtype` says otherwise."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def _topo_order(root):
    # iterative post-order: every parent precedes its consumers
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: every op returns a bare tensor.

    Such a tensor has no parents and no backward rule, so nothing can be
    differentiated through it, and each intermediate is freed as soon as
    the next op has consumed it. The mode belongs to the calling thread,
    and its previous value is restored on exit, also when the block
    raises.
    """
    saved = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = saved


def _result(data, parents, op, backward_fn):
    if not _grad_mode.enabled:
        return Tensor(data, _op=op)
    out = Tensor(data, _parents=tuple(parents), _op=op)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._backward = backward_fn
    return out


def _give(t, g):
    """Hand `t` a fresh gradient array the rule owns: it becomes `t.grad` on first touch."""
    if t.grad is None and isinstance(g, np.ndarray) and g.shape == t.data.shape and g.dtype == t.data.dtype:
        t.grad = g
    else:
        _pass(t, g)


def _pass(t, g):
    """Hand `t` a gradient it must not keep (the rule's `g` or a view of it), or one to broadcast."""
    if t.grad is None:
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
        t.grad += g


def _zeroed(t):
    """`t.grad`, zero-filled on first touch, for rules that write into a slice of it."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")
    if a.data.dtype != b.data.dtype:
        raise TypeError(f"{op}: dtypes {a.data.dtype} and {b.data.dtype} differ")


def _reduce_sum(arr, axis=None, keepdims=False):
    # float64 accumulation regardless of storage dtype
    return np.sum(arr, axis=axis, keepdims=keepdims, dtype=np.float64).astype(arr.dtype)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _pass(a, g)
        if b.requires_grad:
            _pass(b, g)

    return _result(out_data, (a, b), "add", backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _pass(a, g)
        if b.requires_grad:
            _give(b, -g)

    return _result(out_data, (a, b), "sub", backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _give(a, g * b.data)
        if b.requires_grad:
            _give(b, g * a.data)

    return _result(out_data, (a, b), "mul", backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "div")
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _give(a, g / b.data)
        if b.requires_grad:
            _give(b, -(g * a.data / (b.data * b.data)))

    return _result(out_data, (a, b), "div", backward)


def add_scalar(a: Tensor, c: float) -> Tensor:
    out_data = a.data + a.data.dtype.type(c)

    def backward(g):
        if a.requires_grad:
            _pass(a, g)

    return _result(out_data, (a,), "add_scalar", backward)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = a.data.dtype.type(c)
    out_data = a.data * c

    def backward(g):
        if a.requires_grad:
            _give(a, g * c)

    return _result(out_data, (a,), "mul_scalar", backward)


def abs_diff(a: Tensor, b: Tensor) -> Tensor:
    """|a - b| with subgradient 0 at a == b (np.sign(0) == 0)."""
    _check_same_shape(a, b, "abs_diff")
    diff = a.data - b.data
    sign = np.sign(diff)

    def backward(g):
        if a.requires_grad:
            _give(a, g * sign)
        if b.requires_grad:
            _give(b, -(g * sign))

    return _result(np.abs(diff), (a, b), "abs_diff", backward)


# ---------------------------------------------------------------------------
# linear algebra and structural ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, 2-D or stacked with identical leading dimensions.

    Batch dimensions must match exactly; there is no batch broadcasting.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.data.shape} and {b.data.shape}")
    if a.data.ndim != b.data.ndim or a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(f"matmul: leading dims of {a.data.shape} and {b.data.shape} differ")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dims of {a.data.shape} and {b.data.shape} disagree")
    if a.data.dtype != b.data.dtype:
        raise TypeError(f"matmul: dtypes {a.data.dtype} and {b.data.dtype} differ")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            _give(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            _give(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _result(out_data, (a, b), "matmul", backward)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add `b` to every leading slice of `x`; b.shape must be a strict trailing suffix of x.shape."""
    if b.data.ndim >= x.data.ndim or x.data.shape[x.data.ndim - b.data.ndim :] != b.data.shape:
        raise ShapeError(f"add_bias: {b.data.shape} is not a trailing suffix of {x.data.shape}")
    if x.data.dtype != b.data.dtype:
        raise TypeError(f"add_bias: dtypes {x.data.dtype} and {b.data.dtype} differ")
    lead_axes = tuple(range(x.data.ndim - b.data.ndim))
    out_data = x.data + b.data

    def backward(g):
        if x.requires_grad:
            _pass(x, g)
        if b.requires_grad:
            _give(b, np.sum(g, axis=lead_axes, dtype=np.float64).astype(b.data.dtype))

    return _result(out_data, (x, b), "add_bias", backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis, for any leading shape, as one node.

    `x` is (..., in), `w` is (in, out) and the result is (..., out). The
    leading axes are flattened into rows, so the product is one 2-D GEMM
    with the bits of `reshape` to 2-D, `matmul`, `add_bias` and `reshape`
    back.
    """
    if x.data.ndim < 1 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear: cannot multiply {x.data.shape} by {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear: bias {b.data.shape} does not match {w.data.shape[1]} outputs")
    if not x.data.dtype == w.data.dtype == b.data.dtype:
        raise TypeError(f"linear: dtypes {x.data.dtype}, {w.data.dtype} and {b.data.dtype} differ")
    rows = x.data.reshape(-1, w.data.shape[0])
    out_rows = np.matmul(rows, w.data)
    out_rows += b.data

    def backward(g):
        g = g.reshape(out_rows.shape)
        if x.requires_grad:
            _give(x, np.matmul(g, w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            _give(w, np.matmul(rows.T, g))
        if b.requires_grad:
            _give(b, np.sum(g, axis=0, dtype=np.float64).astype(b.data.dtype))

    return _result(out_rows.reshape(*x.data.shape[:-1], w.data.shape[1]), (x, w, b), "linear", backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into `table` by an integer id array; gradients scatter-add."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError(f"embedding: ids must be integers, got {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"embedding: id out of range for table with {table.data.shape[0]} rows")
    out_data = table.data[ids]

    def backward(g):
        if table.requires_grad:
            width = table.data.shape[1]
            np.add.at(_zeroed(table), ids.reshape(-1), g.reshape(-1, width))

    return _result(out_data, (table,), "embedding", backward)


def reshape(x: Tensor, shape) -> Tensor:
    in_shape = x.data.shape
    out_data = np.reshape(x.data, shape)

    def backward(g):
        if x.requires_grad:
            _pass(x, g.reshape(in_shape))

    return _result(out_data, (x,), "reshape", backward)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = np.transpose(x.data, axes)

    def backward(g):
        if x.requires_grad:
            _pass(x, np.transpose(g, inverse))

    return _result(out_data, (x,), "transpose", backward)


def concat(parts, axis: int) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat: need at least one tensor")
    out_data = np.concatenate([p.data for p in parts], axis=axis)

    def backward(g):
        index = [slice(None)] * g.ndim
        start = 0
        for part in parts:
            stop = start + part.data.shape[axis]
            if part.requires_grad:
                index[axis] = slice(start, stop)
                _pass(part, g[tuple(index)])
            start = stop

    return _result(out_data, parts, "concat", backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    out_data = x.data[start:stop]

    def backward(g):
        if x.requires_grad:
            _zeroed(x)[start:stop] += g

    return _result(out_data, (x,), "slice_rows", backward)


def select_index(x: Tensor, axis: int, index: int) -> Tensor:
    """Pick one slice along `axis`, removing that axis."""
    out_data = np.take(x.data, index, axis=axis)

    def backward(g):
        if x.requires_grad:
            slicer = [slice(None)] * x.data.ndim
            slicer[axis] = index
            _zeroed(x)[tuple(slicer)] += g

    return _result(out_data, (x,), "select_index", backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(x: Tensor, axis=None) -> Tensor:
    out_data = _reduce_sum(x.data, axis=axis)

    def backward(g):
        if x.requires_grad:
            _pass(x, g if axis is None else np.expand_dims(g, axis))

    return _result(out_data, (x,), "sum", backward)


def tmean(x: Tensor, axis=None) -> Tensor:
    count = x.data.size if axis is None else x.data.shape[axis]
    if count == 0:
        raise ShapeError("mean: empty axis")
    out_data = (_reduce_sum(x.data, axis=axis).astype(np.float64) / count).astype(x.data.dtype)
    inv = 1.0 / count

    def backward(g):
        if x.requires_grad:
            _give(x, (g if axis is None else np.expand_dims(g, axis)) * inv)

    return _result(out_data, (x,), "mean", backward)


def max_over_axis(x: Tensor, axis: int) -> Tensor:
    """Maximum along `axis`; gradient routes to the first maximal index on ties."""
    if x.data.shape[axis] == 0:
        raise ShapeError("max_over_axis: empty axis")
    out_data = np.max(x.data, axis=axis)
    argmax = np.argmax(x.data, axis=axis)  # first occurrence wins ties

    def backward(g):
        if x.requires_grad:
            mask = np.zeros_like(x.data)
            np.put_along_axis(mask, np.expand_dims(argmax, axis), 1.0, axis=axis)
            _give(x, mask * np.expand_dims(g, axis))

    return _result(out_data, (x,), "max_over_axis", backward)


# ---------------------------------------------------------------------------
# nonlinear ops


def _row_max(x):
    """`np.max(x, axis=-1, keepdims=True)`, taken over a key-major copy of the rows.

    NumPy reduces a short last axis one row at a time, several times
    slower than it reduces the rows of a contiguous copy elementwise
    (117 against 13 microseconds on (1536, 12) float32, and 3.7 against
    3.5 on a one-text query's (1, 4, 5, 5), on one Xeon core). The
    values are the same, NaN included, except that a zero maximum may
    carry the other sign.
    """
    rows = x.reshape(-1, x.shape[-1])
    return np.max(rows.T.copy(), axis=0).reshape(*x.shape[:-1], 1)


def _softmax_rows(x, out=None):
    """Softmax over the last axis of array `x`, into `out` (which may be `x`) or a new array.

    Max-subtracted for stability (the sign of a zero maximum changes no
    difference's exponential); exponentials are taken in the storage
    dtype, and each row's normalizer is summed in float64.
    """
    y = np.subtract(x, _row_max(x), out=out)
    np.exp(y, out=y)
    y /= np.sum(y, axis=-1, keepdims=True, dtype=np.float64).astype(y.dtype)
    return y


def _softmax_grad(g, y):
    """The gradient at a softmax's input, from `g` at its output `y`, as a new array."""
    inner = np.sum(g * y, axis=-1, keepdims=True, dtype=np.float64).astype(y.dtype)
    gx = g - inner
    gx *= y
    return gx


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis (the arithmetic of `_softmax_rows`)."""
    y = _softmax_rows(x.data)

    def backward(g):
        if x.requires_grad:
            _give(x, _softmax_grad(g, y))

    return _result(y, (x,), "softmax", backward)


def attention(qkv: Tensor, fill, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one graph node.

    `qkv` is (B, L, 3 * dim): the query, key and value projections side
    by side, each split into `heads` heads of width dim // heads. `fill`
    is a constant additive key mask of shape (B, 1, 1, L): 0 where a key
    is visible, a large negative number where it is not. Scores are
    scaled by 1 / sqrt(dim // heads), then masked, then normalized as in
    `softmax`; the heads' contexts come back merged as (B, L, dim). The
    forward has the same bits as the chain of `reshape`, `transpose`,
    `matmul`, `mul_scalar`, `add` and `softmax` ops it stands for.
    """
    if qkv.data.ndim != 3 or qkv.data.shape[2] % 3 != 0:
        raise ShapeError(f"attention: qkv must be (B, L, 3 * dim), got {qkv.data.shape}")
    B, L, width = qkv.data.shape
    dim = width // 3
    if heads < 1 or dim % heads != 0:
        raise ShapeError(f"attention: {heads} heads do not divide dim {dim}")
    dtype = qkv.data.dtype
    fill = np.asarray(fill, dtype=dtype)
    if fill.shape != (B, 1, 1, L):
        raise ShapeError(f"attention: fill must be {(B, 1, 1, L)}, got {fill.shape}")
    dh = dim // heads
    scale = dtype.type(1.0 / np.sqrt(dh))
    # strided (B, heads, L, dh) views of the queries, keys and values; BLAS reads them in place
    q, k, v = qkv.data.reshape(B, L, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    scores = np.matmul(q, np.swapaxes(k, -1, -2))
    scores *= scale
    scores += fill
    weights = _softmax_rows(scores, out=scores)
    # each head's context lands in its columns of the merged (B, L, dim) result
    out_data = np.empty((B, L, heads, dh), dtype)
    np.matmul(weights, v, out=out_data.transpose(0, 2, 1, 3))
    out_data = out_data.reshape(B, L, dim)

    def backward(g):
        if qkv.requires_grad:
            g_ctx = g.reshape(B, L, heads, dh).transpose(0, 2, 1, 3)
            g_scores = _softmax_grad(np.matmul(g_ctx, np.swapaxes(v, -1, -2)), weights)
            g_scores *= scale
            g_qkv = np.empty((B, L, 3, heads, dh), dtype)
            g_qkv[:, :, 0] = np.matmul(g_scores, k).transpose(0, 2, 1, 3)
            # keys as (q^T g)^T, the product the unfused chain's `matmul` rule forms
            g_qkv[:, :, 1] = np.matmul(np.swapaxes(q, -1, -2), g_scores).transpose(0, 3, 1, 2)
            g_qkv[:, :, 2] = np.matmul(np.swapaxes(weights, -1, -2), g_ctx).transpose(0, 2, 1, 3)
            _give(qkv, g_qkv.reshape(B, L, width))

    return _result(out_data, (qkv,), "attention", backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Per-row negative log-likelihood of `labels` under softmax(logits).

    Computed via log-sum-exp in float64; backward uses softmax - one_hot.
    """
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-D, got {logits.data.shape}")
    rows, k = logits.data.shape
    if labels.shape != (rows,):
        raise ShapeError(f"cross_entropy: labels shape {labels.shape} does not match {rows} rows")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise IndexError(f"cross_entropy: label out of range [0, {k})")
    z = logits.data.astype(np.float64)
    z = z - np.max(z, axis=-1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    log_probs = z - log_norm
    losses = (-log_probs[np.arange(rows), labels]).astype(logits.data.dtype)
    probs = np.exp(log_probs)

    def backward(g):
        if logits.requires_grad:
            delta = probs.copy()
            delta[np.arange(rows), labels] -= 1.0
            _give(logits, (delta * g[:, None]).astype(logits.data.dtype))

    return _result(losses, (logits,), "cross_entropy", backward)


def _row_means(a):
    """Float64 means over the last axis of 2-D `a`: one matrix-vector product with a ones vector."""
    n = a.shape[-1]
    return (a.astype(np.float64, copy=False) @ np.ones(n)) / n


def _column_sums(a):
    """Float64 sums over the rows of 2-D `a`: one vector-matrix product with a ones vector."""
    return np.ones(a.shape[0]) @ a.astype(np.float64, copy=False)


_LN_EPS = 1e-5  # added to each row's variance


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    Computed in the storage dtype over the rows of `x` flattened to 2-D.
    The mean and variance of each row, and in backward the sums over
    rows for `gain` and `bias`, are accumulated in float64, each as one
    BLAS matrix-vector product with a ones vector. The output buffer
    holds the squared deviations until the variance is taken.
    """
    n = x.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({n},)")
    dtype = x.data.dtype
    rows = x.data.reshape(-1, n)
    xhat = rows - _row_means(rows).astype(dtype)[:, None]
    out_data = np.multiply(xhat, xhat)
    inv_std = (1.0 / np.sqrt(_row_means(out_data) + _LN_EPS)).astype(dtype)[:, None]
    xhat *= inv_std
    np.multiply(xhat, gain.data, out=out_data)
    out_data += bias.data

    def backward(g):
        g = g.reshape(xhat.shape)
        scratch = np.multiply(g, xhat)
        if gain.requires_grad:
            _give(gain, _column_sums(scratch).astype(dtype))
        if bias.requires_grad:
            _give(bias, _column_sums(g).astype(dtype))
        if x.requires_grad:
            gx = g * gain.data
            mean_gx = _row_means(gx).astype(dtype)[:, None]
            np.multiply(gx, xhat, out=scratch)
            mean_gx_xhat = _row_means(scratch).astype(dtype)[:, None]
            gx -= mean_gx
            np.multiply(xhat, mean_gx_xhat, out=scratch)
            gx -= scratch
            gx *= inv_std
            _give(x, gx.reshape(x.data.shape))

    return _result(out_data.reshape(x.data.shape), (x, gain, bias), "layer_norm", backward)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation).

    Forward and backward each fill two fresh buffers in place, one
    operation at a time, and keep the bits of evaluating the expressions
    in the comments below with one NumPy temporary per operation.
    """
    xd = x.data
    # t = tanh(c * (x + 0.044715 * x**3)), the cube multiplied out: x**3 goes
    # through float pow, about 100x slower at float32
    t = np.multiply(xd, xd)
    t *= xd
    t *= 0.044715
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    # 0.5 * x * (1 + t) as (1 + t) * 0.5 * x: halving is exact short of subnormals, so the bits agree
    out_data = np.add(t, 1.0)
    out_data *= 0.5
    out_data *= xd

    def backward(g):
        if x.requires_grad:
            # g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * 0.044715 * x**2))
            a = np.multiply(t, t)
            np.subtract(1.0, a, out=a)
            local = np.multiply(xd, 0.5)
            local *= a
            local *= _GELU_C
            np.multiply(xd, xd, out=a)
            a *= 3 * 0.044715
            a += 1.0
            local *= a
            np.add(t, 1.0, out=a)
            a *= 0.5
            a += local
            a *= g
            _give(x, a)

    return _result(out_data, (x,), "gelu", backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); subgradient 0 at x == 0."""
    mask = x.data > 0

    def backward(g):
        if x.requires_grad:
            _give(x, g * mask)

    return _result(np.where(mask, x.data, x.data.dtype.type(0)), (x,), "relu", backward)


def sqrt(x: Tensor) -> Tensor:
    out_data = np.sqrt(x.data)

    def backward(g):
        if x.requires_grad:
            # clamp keeps the subgradient finite if an input sits exactly at 0
            _give(x, g * (0.5 / np.maximum(out_data, 1e-12)))

    return _result(out_data, (x,), "sqrt", backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate == 0. Mask is drawn from `rng`."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    scale = x.data.dtype.type(1.0 / (1.0 - rate))

    def backward(g):
        if x.requires_grad:
            _give(x, g * keep * scale)

    return _result(x.data * keep * scale, (x,), "dropout", backward)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f, args, eps: float = 1e-4) -> float:
    """Compare analytic gradients of scalar-valued `f` against central differences.

    `args` is a Tensor or sequence of Tensors; each is rebuilt with
    requires_grad so the check does not disturb the caller's graph.
    Returns max over coordinates of |analytic - numeric| / max(1, |numeric|).
    Run at float64 for tight tolerances; float32 rounding dominates otherwise.
    """
    if isinstance(args, Tensor):
        args = [args]
    points = [Tensor(a.data.copy(), requires_grad=True) for a in args]

    loss = f(*points)
    if loss.data.size != 1:
        raise ValueError("grad_check: f must be scalar-valued")
    loss.backward()
    analytic = [p.grad.copy() for p in points]

    worst = 0.0
    for p, ana in zip(points, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            up = f(*points).item()
            flat[i] = saved - eps
            down = f(*points).item()
            flat[i] = saved
            numeric = (up - down) / (2.0 * eps)
            err = abs(float(ana.reshape(-1)[i]) - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
