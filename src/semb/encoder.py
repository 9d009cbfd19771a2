"""Tokenizer, vocabulary, and the transformer sentence encoder.

The encoder is a small BERT-style stack (post-layer-norm, GELU feed
forward, learned positions) built entirely from the autodiff ops in
`semb.tensor`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, asdict
from itertools import repeat

import numpy as np

from . import tensor as T
from .data import DataFormatError, check_fields, read_lines
from .tensor import ShapeError, Tensor

__all__ = [
    "tokenize",
    "Vocab",
    "EncoderConfig",
    "Encoder",
    "PAD_ID",
    "UNK_ID",
    "CLS_ID",
    "SEP_ID",
]

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
_RESERVED = ("<pad>", "<unk>", "<cls>", "<sep>")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase, then split into word characters runs and single punctuation marks."""
    return _TOKEN_RE.findall(text.lower())


class Vocab:
    """Token-to-id table with four reserved ids (pad, unk, cls, sep).

    Real tokens start at id 4; in the on-disk file (one token per line)
    the 0-based line number is therefore id - 4.
    """

    def __init__(self, tokens):
        tokens = list(tokens)
        self._id_of = {}
        for i, token in enumerate(tokens):
            if token in self._id_of or token in _RESERVED:
                raise ValueError(f"duplicate or reserved token in vocabulary: {token!r}")
            self._id_of[token] = i + 4
        self._tokens = tokens

    @property
    def size(self) -> int:
        return len(self._tokens) + 4

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def id_of(self, token: str) -> int:
        return self._id_of.get(token, UNK_ID)

    def encode(self, text: str, max_len: int) -> list[int]:
        """Token ids wrapped in cls/sep; interior truncated to max_len - 2."""
        if max_len < 2:
            raise ValueError(f"max_len must be at least 2, got {max_len}")
        # truncate before the lookup, so an over-long text maps only the tokens it keeps
        return [CLS_ID, *map(self._id_of.get, tokenize(text)[: max_len - 2], repeat(UNK_ID)), SEP_ID]

    @classmethod
    def from_corpus(cls, texts, min_count: int = 1, max_size: int | None = None) -> "Vocab":
        counts: dict[str, int] = {}
        for text in texts:
            for token in tokenize(text):
                counts[token] = counts.get(token, 0) + 1
        # most frequent first; ties alphabetical, so rebuilds are stable
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        kept = [tok for tok, c in ranked if c >= min_count]
        if max_size is not None:
            kept = kept[: max(0, max_size - 4)]
        return cls(kept)

    @classmethod
    def from_file(cls, path) -> "Vocab":
        tokens = []
        seen = set()
        for lineno, raw in read_lines(path):
            token = raw.rstrip("\n")
            if not token:
                raise DataFormatError(path, lineno, "empty vocabulary line")
            if token != token.strip():
                raise DataFormatError(path, lineno, "token has surrounding whitespace")
            if token in seen or token in _RESERVED:
                raise DataFormatError(path, lineno, f"duplicate or reserved token {token!r}")
            seen.add(token)
            tokens.append(token)
        return cls(tokens)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for token in self._tokens:
                fh.write(token + "\n")


@dataclass
class EncoderConfig:
    """Encoder shape; each check's ValueError message starts with the field's name."""

    vocab_size: int
    dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ffn_dim: int = 256
    max_seq_len: int = 64
    dropout: float = 0.0

    def __post_init__(self):
        check_fields(self)
        for name in ("dim", "n_heads", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.n_layers < 0:
            raise ValueError(f"n_layers must be non-negative, got {self.n_layers}")
        if self.max_seq_len < 2:
            raise ValueError(f"max_seq_len must be at least 2 (cls and sep), got {self.max_seq_len}")
        if self.dim % self.n_heads != 0:
            raise ValueError(f"n_heads must divide dim {self.dim}, got {self.n_heads}")
        if self.vocab_size < 4:
            raise ValueError("vocab_size must cover the four reserved ids")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        # every weight matrix is dim x one of these, first drawn as float64
        widest = max(("dim", "ffn_dim", "max_seq_len", "vocab_size"), key=lambda name: getattr(self, name))
        if self.dim * getattr(self, widest) * 8 > np.iinfo(np.intp).max:
            raise ValueError(
                f"{widest} is too large: a {self.dim} x {getattr(self, widest)} weight "
                "is past the largest array NumPy can hold"
            )

    def to_dict(self) -> dict:
        return asdict(self)


class Encoder:
    """Transformer encoder producing per-token hidden states.

    Weights live in an insertion-ordered name -> Tensor dict in `layout`
    order, which is also the checkpoint payload order. All randomness
    (init, dropout) is seeded at construction; given `params`, arrays
    of the layout's names and shapes, it wraps them and draws no weight.
    """

    def __init__(self, config: EncoderConfig, seed: int = 0, dtype=np.float32, params=None):
        self.config = config
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        self._drop_rng = np.random.default_rng(rng.integers(0, 2**63))
        layout = self.layout(config)
        if params is None:
            draw = {
                "normal": lambda shape: rng.normal(0.0, 0.02, size=shape).astype(self.dtype),
                "zeros": lambda shape: np.zeros(shape, dtype=self.dtype),
                "ones": lambda shape: np.ones(shape, dtype=self.dtype),
            }
            params = {name: draw[init](shape) for name, shape, init in layout}
        self.params = {name: Tensor(params[name], requires_grad=True, dtype=self.dtype) for name, _, _ in layout}

    @staticmethod
    def layout(c: EncoderConfig) -> list[tuple[str, tuple[int, ...], str]]:
        """Every parameter's (name, shape, init), in init draw order; init is "normal", "zeros" or "ones"."""
        table = [
            ("tok_emb", (c.vocab_size, c.dim), "normal"),
            ("pos_emb", (c.max_seq_len, c.dim), "normal"),
            ("emb_ln.gain", (c.dim,), "ones"),
            ("emb_ln.bias", (c.dim,), "zeros"),
        ]
        for i in range(c.n_layers):
            p = f"layers.{i}."
            table += [(p + "attn." + which, (c.dim, c.dim), "normal") for which in ("wq", "wk", "wv", "wo")]
            table += [(p + "attn." + which, (c.dim,), "zeros") for which in ("bq", "bk", "bv", "bo")]
            table += [
                (p + "ln1.gain", (c.dim,), "ones"), (p + "ln1.bias", (c.dim,), "zeros"),
                (p + "ffn.w1", (c.dim, c.ffn_dim), "normal"), (p + "ffn.b1", (c.ffn_dim,), "zeros"),
                (p + "ffn.w2", (c.ffn_dim, c.dim), "normal"), (p + "ffn.b2", (c.dim,), "zeros"),
                (p + "ln2.gain", (c.dim,), "ones"), (p + "ln2.bias", (c.dim,), "zeros"),
            ]
        return table

    def _maybe_dropout(self, x: Tensor, train: bool) -> Tensor:
        if train and self.config.dropout > 0.0:
            return T.dropout(x, self.config.dropout, self._drop_rng)
        return x

    def forward(self, ids: np.ndarray, mask: np.ndarray, train: bool = False) -> Tensor:
        """Hidden states of shape (batch, length, dim).

        `ids` is an int array (batch, length); `mask` marks real tokens
        with 1.0 and padding with 0.0. Positions whose mask is 0 are
        invisible as attention keys, so outputs at real positions do not
        depend on how much padding the batch carries.
        """
        ids = np.asarray(ids)
        mask = np.asarray(mask, dtype=self.dtype)
        if ids.ndim != 2 or mask.shape != ids.shape:
            raise ShapeError(f"forward: ids {ids.shape} and mask {mask.shape} must be matching 2-D")
        B, L = ids.shape
        c = self.config
        if L > c.max_seq_len:
            raise ShapeError(f"sequence length {L} exceeds max_seq_len {c.max_seq_len}")

        h = T.embedding(self.params["tok_emb"], ids)
        h = T.add_bias(h, T.slice_rows(self.params["pos_emb"], 0, L))
        h = T.layer_norm(h, self.params["emb_ln.gain"], self.params["emb_ln.bias"])
        h = self._maybe_dropout(h, train)

        # key visibility, shared by every layer and head: -1e9 on padding
        # keys swamps any score, so their softmax weight (and gradient) is 0
        fill = (1.0 - mask)[:, None, None, :] * -1e9
        for i in range(c.n_layers):
            h = self._block(i, h, fill, train)
        return h

    def _block(self, i, h, fill, train):
        p = self.params
        pre = f"layers.{i}."

        # one GEMM projects queries, keys and values; the three stay separate parameters
        w_qkv = T.concat([p[pre + "attn.w" + which] for which in "qkv"], axis=1)
        b_qkv = T.concat([p[pre + "attn.b" + which] for which in "qkv"], axis=0)
        ctx = T.attention(T.linear(h, w_qkv, b_qkv), fill, self.config.n_heads)
        attn_out = self._maybe_dropout(T.linear(ctx, p[pre + "attn.wo"], p[pre + "attn.bo"]), train)
        h = T.layer_norm(T.add(h, attn_out), p[pre + "ln1.gain"], p[pre + "ln1.bias"])

        inner = T.gelu(T.linear(h, p[pre + "ffn.w1"], p[pre + "ffn.b1"]))
        ffn_out = self._maybe_dropout(T.linear(inner, p[pre + "ffn.w2"], p[pre + "ffn.b2"]), train)
        return T.layer_norm(T.add(h, ffn_out), p[pre + "ln2.gain"], p[pre + "ln2.bias"])
