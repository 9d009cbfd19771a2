"""Tokenizer, vocabulary, and the transformer sentence encoder.

The encoder is a small BERT-style stack (post-layer-norm, GELU feed
forward, learned positions) built entirely from the autodiff ops in
`semb.tensor`. A `StaticEncoder` over pretrained word vectors is
included as a non-trainable baseline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import tensor as T
from .data import DataFormatError
from .tensor import ShapeError, Tensor

__all__ = [
    "tokenize",
    "Vocab",
    "EncoderConfig",
    "Encoder",
    "StaticEncoder",
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

    def __contains__(self, token) -> bool:
        return token in self._id_of

    def encode(self, text: str, max_len: int) -> list[int]:
        """Token ids wrapped in cls/sep; interior truncated to max_len - 2."""
        if max_len < 2:
            raise ValueError(f"max_len must be at least 2, got {max_len}")
        inner = [self.id_of(tok) for tok in tokenize(text)][: max_len - 2]
        return [CLS_ID] + inner + [SEP_ID]

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
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown encoder config fields: {sorted(unknown)}")
        return cls(**d)


class Encoder:
    """Transformer encoder producing per-token hidden states.

    Weights live in an insertion-ordered name -> Tensor dict, which is
    also the checkpoint payload order. All randomness (init, dropout) is
    seeded at construction.
    """

    def __init__(self, config: EncoderConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._drop_rng = np.random.default_rng(rng.integers(0, 2**63))
        self.params: dict[str, Tensor] = {}

        def weight(name, shape):
            self.params[name] = Tensor(
                rng.normal(0.0, 0.02, size=shape).astype(self.dtype), requires_grad=True
            )

        def zeros(name, shape):
            self.params[name] = Tensor(np.zeros(shape, dtype=self.dtype), requires_grad=True)

        def ones(name, shape):
            self.params[name] = Tensor(np.ones(shape, dtype=self.dtype), requires_grad=True)

        c = config
        weight("tok_emb", (c.vocab_size, c.dim))
        weight("pos_emb", (c.max_seq_len, c.dim))
        ones("emb_ln.gain", (c.dim,))
        zeros("emb_ln.bias", (c.dim,))
        for i in range(c.n_layers):
            p = f"layers.{i}."
            for which in ("wq", "wk", "wv", "wo"):
                weight(p + "attn." + which, (c.dim, c.dim))
            for which in ("bq", "bk", "bv", "bo"):
                zeros(p + "attn." + which, (c.dim,))
            ones(p + "ln1.gain", (c.dim,))
            zeros(p + "ln1.bias", (c.dim,))
            weight(p + "ffn.w1", (c.dim, c.ffn_dim))
            zeros(p + "ffn.b1", (c.ffn_dim,))
            weight(p + "ffn.w2", (c.ffn_dim, c.dim))
            zeros(p + "ffn.b2", (c.dim,))
            ones(p + "ln2.gain", (c.dim,))
            zeros(p + "ln2.bias", (c.dim,))

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def num_parameters(self) -> int:
        return sum(p.size for p in self.params.values())

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def _const(self, arr) -> Tensor:
        return Tensor(np.ascontiguousarray(arr, dtype=self.dtype))

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

        H = c.n_heads
        dh = c.dim // H
        # key visibility, shared by every layer and head: -1e9 on padding
        # keys swamps any score, so their softmax weight (and gradient) is 0
        fill = (1.0 - mask)[:, None, None, :] * -1e9
        fill_t = self._const(np.broadcast_to(fill, (B, H, L, L)).reshape(B * H, L, L))

        for i in range(c.n_layers):
            h = self._block(i, h, fill_t, B, L, H, dh, train)
        return h

    def _block(self, i, h, fill_t, B, L, H, dh, train):
        p = self.params
        c = self.config
        pre = f"layers.{i}."

        def proj(flat, which):
            return T.add_bias(T.matmul(flat, p[pre + "attn.w" + which]), p[pre + "attn.b" + which])

        def split_heads(x):
            return T.reshape(T.transpose(T.reshape(x, (B, L, H, dh)), (0, 2, 1, 3)), (B * H, L, dh))

        flat = T.reshape(h, (B * L, c.dim))
        q = split_heads(proj(flat, "q"))
        k = split_heads(proj(flat, "k"))
        v = split_heads(proj(flat, "v"))

        scores = T.mul_scalar(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
        scores = T.add(scores, fill_t)
        weights = T.softmax(scores)
        ctx = T.matmul(weights, v)

        merged = T.reshape(T.transpose(T.reshape(ctx, (B, H, L, dh)), (0, 2, 1, 3)), (B * L, c.dim))
        attn_out = T.reshape(T.add_bias(T.matmul(merged, p[pre + "attn.wo"]), p[pre + "attn.bo"]), (B, L, c.dim))
        attn_out = self._maybe_dropout(attn_out, train)
        h = T.layer_norm(T.add(h, attn_out), p[pre + "ln1.gain"], p[pre + "ln1.bias"])

        flat = T.reshape(h, (B * L, c.dim))
        inner = T.gelu(T.add_bias(T.matmul(flat, p[pre + "ffn.w1"]), p[pre + "ffn.b1"]))
        ffn_out = T.reshape(T.add_bias(T.matmul(inner, p[pre + "ffn.w2"]), p[pre + "ffn.b2"]), (B, L, c.dim))
        ffn_out = self._maybe_dropout(ffn_out, train)
        return T.layer_norm(T.add(h, ffn_out), p[pre + "ln2.gain"], p[pre + "ln2.bias"])


class StaticEncoder:
    """Average of pretrained word vectors; the untrainable baseline.

    Vectors come from the common text format: one `word v1 ... vd` line
    per entry. Sentences with no in-vocabulary token embed to zeros.
    """

    def __init__(self, vectors: dict[str, np.ndarray], dim: int):
        self.vectors = vectors
        self.dim = dim

    @classmethod
    def from_text_file(cls, path) -> "StaticEncoder":
        vectors: dict[str, np.ndarray] = {}
        dim = None
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                parts = raw.rstrip("\n").split(" ")
                if len(parts) < 2:
                    raise DataFormatError(path, lineno, "expected 'word v1 ... vd'")
                word = parts[0]
                try:
                    vec = np.array([float(x) for x in parts[1:]], dtype=np.float32)
                except ValueError:
                    raise DataFormatError(path, lineno, "non-numeric vector component") from None
                if dim is None:
                    dim = vec.size
                elif vec.size != dim:
                    raise DataFormatError(path, lineno, f"vector has {vec.size} components, expected {dim}")
                vectors[word] = vec
        if dim is None:
            raise DataFormatError(path, 0, "vector file is empty")
        return cls(vectors, dim)

    def embed(self, texts) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for row, text in enumerate(texts):
            hits = [self.vectors[t] for t in tokenize(text) if t in self.vectors]
            if hits:
                out[row] = np.mean(hits, axis=0)
        return out
