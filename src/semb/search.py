"""Vector store with exact cosine search, plus an embedding throughput bench.

Corpora reach the store through `SentenceEmbedder.embed`, the one batched
inference path: `embed_corpus` adds ids to its rows, and
`bench_embedding` times the same call.

The store serializes to a single binary file (magic "SEMV"): u32
version, u32 dim, u64 count, a length-prefixed newline-joined id block,
count*dim little-endian float32 values, CRC-32 trailer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .binio import (
    ByteReader,
    DimensionMismatchError,
    FormatError,
    finish_with_crc,
    pack_block,
    pack_u32,
    pack_u64,
)
from .trainer import naive_batches, padded_token_count, smart_batches

__all__ = [
    "VectorStore",
    "embed_corpus",
    "top_k",
    "MostSimilarResult",
    "most_similar_pair",
    "bench_embedding",
]

STORE_MAGIC = b"SEMV"
STORE_VERSION = 1

# rows scored per GEMM block in the all-pairs scan
_BLOCK_ROWS = 512


class VectorStore:
    """Ordered id -> vector map with float32 storage."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._ids: list[str] = []
        self._index: dict[str, int] = {}
        self._rows: list[np.ndarray] = []
        self._matrix: np.ndarray | None = None
        self._norms: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, id_: str) -> bool:
        return id_ in self._index

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None or len(self._matrix) != len(self._rows):
            if self._rows:
                self._matrix = np.vstack(self._rows)
            else:
                self._matrix = np.zeros((0, self.dim), dtype=np.float32)
        return self._matrix

    @property
    def norms(self) -> np.ndarray:
        """Precomputed L2 norm of every row, in insertion order."""
        if self._norms is None or len(self._norms) != len(self._rows):
            self._norms = np.linalg.norm(self.matrix.astype(np.float64), axis=1)
        return self._norms

    def add(self, id_: str, vector) -> None:
        if not isinstance(id_, str) or not id_:
            raise ValueError("vector id must be a non-empty string")
        if "\n" in id_:
            raise ValueError(f"vector id may not contain newlines: {id_!r}")
        if id_ in self._index:
            raise ValueError(f"duplicate vector id {id_!r}")
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        if vector.size != self.dim:
            raise DimensionMismatchError(f"vector for {id_!r} has {vector.size} dims, store expects {self.dim}")
        self._index[id_] = len(self._ids)
        self._ids.append(id_)
        self._rows.append(vector)
        self._matrix = None
        self._norms = None

    def add_many(self, ids, matrix) -> None:
        matrix = np.asarray(matrix)
        for id_, row in zip(ids, matrix, strict=True):
            self.add(id_, row)

    def get(self, id_: str) -> np.ndarray:
        if id_ not in self._index:
            raise KeyError(id_)
        return self._rows[self._index[id_]].copy()

    def save(self, path) -> None:
        body = bytearray()
        body += STORE_MAGIC
        body += pack_u32(STORE_VERSION)
        body += pack_u32(self.dim)
        body += pack_u64(len(self._ids))
        body += pack_block("\n".join(self._ids).encode("utf-8"))
        body += np.ascontiguousarray(self.matrix, dtype="<f4").tobytes()
        with open(path, "wb") as fh:
            fh.write(finish_with_crc(bytes(body)))

    @classmethod
    def load(cls, path) -> "VectorStore":
        with open(path, "rb") as fh:
            reader = ByteReader(fh.read(), what=str(path))
        reader.expect_magic(STORE_MAGIC)
        reader.expect_version(STORE_VERSION)
        dim = reader.u32()
        count = reader.u64()
        id_block = reader.block().decode("utf-8")
        ids = id_block.split("\n") if id_block else []
        if len(ids) != count:
            raise FormatError(f"{path}: header says {count} vectors but id block lists {len(ids)}")
        values = reader.f32_array(count * dim)
        reader.verify_crc_trailer()
        store = cls(dim)
        store.add_many(ids, values.reshape(count, dim))
        return store


def embed_corpus(embedder, sentences, batch_size: int = 32, smart: bool = True, seed: int = 0) -> VectorStore:
    """Embed (id, text) pairs into a store whose rows follow input order.

    The vectors come from `SentenceEmbedder.embed`, so row i of the
    store is always sentence i, however the batches were planned.
    Duplicate ids are rejected before any embedding happens. `seed` is
    accepted for callers, but batch order cannot change a row, so it is
    unused.
    """
    sentences = list(sentences)
    if not sentences:
        raise ValueError("embed_corpus needs a non-empty corpus")
    ids = []
    texts = []
    seen = set()
    for pair in sentences:
        id_, text = pair
        if id_ in seen:
            raise ValueError(f"duplicate sentence id {id_!r}")
        seen.add(id_)
        ids.append(id_)
        texts.append(text)

    store = VectorStore(embedder.dim)
    store.add_many(ids, embedder.embed(texts, batch_size=batch_size, smart=smart))
    return store


def _cosine_against_store(store: VectorStore, query: np.ndarray) -> np.ndarray:
    """Float64 cosine of the query against every row; zero-norm rows score -inf."""
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.size != store.dim:
        raise DimensionMismatchError(f"query has {query.size} dims, store expects {store.dim}")
    q_norm = np.linalg.norm(query)
    if q_norm == 0.0:
        raise ValueError("cannot search with a zero-norm query")
    matrix = store.matrix.astype(np.float64)
    dots = matrix @ query
    row_norms = store.norms
    scores = np.full(len(store), -np.inf)
    valid = row_norms > 0.0
    scores[valid] = dots[valid] / (row_norms[valid] * q_norm)
    return scores


def top_k(store: VectorStore, query, k: int) -> list[tuple[str, float]]:
    """The k best rows by cosine similarity, as (id, float32 score) pairs.

    Equal scores break toward the lexicographically smaller id; rows
    with zero norm never outrank a real match, and a zero-norm query is
    refused outright.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    scores = _cosine_against_store(store, query).astype(np.float32)
    ids = np.array(store.ids)
    order = np.lexsort((ids, -scores))
    return [(str(ids[i]), float(scores[i])) for i in order[: min(k, len(store))]]


@dataclass(frozen=True)
class MostSimilarResult:
    id_a: str
    id_b: str
    score: float
    comparisons: int


def most_similar_pair(store: VectorStore) -> MostSimilarResult:
    """Exhaustive scan for the closest pair by cosine.

    Scores every unordered pair exactly once (n*(n-1)/2 comparisons,
    counted and reported); ties resolve to the earliest pair in
    insertion order. Rows with zero norm lose to everything.
    """
    n = len(store)
    if n < 2:
        raise ValueError(f"most_similar_pair needs at least 2 vectors, got {n}")
    matrix = store.matrix.astype(np.float64)
    norms = store.norms
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = matrix / safe[:, None]
    dead = norms == 0.0

    best_score = -np.inf
    best = (0, 1)
    comparisons = 0
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block_scores = unit[start:stop] @ unit.T  # (block, n)
        for local in range(stop - start):
            g = start + local
            comparisons += n - g - 1
            if g + 1 >= n:
                continue
            row = block_scores[local, g + 1 :].copy()
            if dead[g]:
                row[:] = -np.inf
            else:
                row[dead[g + 1 :]] = -np.inf
            j_local = int(np.argmax(row))  # first hit = smallest j on ties
            if row[j_local] > best_score:
                best_score = float(row[j_local])
                best = (g, g + 1 + j_local)
    ids = store.ids
    return MostSimilarResult(id_a=ids[best[0]], id_b=ids[best[1]], score=best_score, comparisons=comparisons)


def bench_embedding(embedder, texts, batch_size: int = 32, smart: bool = True, seed: int = 0) -> dict:
    """Time `SentenceEmbedder.embed` over a corpus and report padding overhead.

    The timed call covers tokenization, padding and the forward pass of
    every batch. The token counts come from the same batch plan, rebuilt
    untimed afterwards.
    """
    texts = list(texts)
    if not texts:
        raise ValueError("bench needs a non-empty corpus")
    start = time.perf_counter()
    embedder.embed(texts, batch_size=batch_size, smart=smart)
    elapsed = time.perf_counter() - start

    lengths = [len(row) for row in embedder.token_ids(texts)]
    if smart:
        batches = smart_batches(lengths, batch_size, np.random.default_rng(seed))
    else:
        batches = naive_batches(len(texts), batch_size)
    return {
        "mode": "cpu_smart" if smart else "cpu_naive",
        "total_sentences": len(texts),
        "batch_size": batch_size,
        "batches": len(batches),
        "wall_seconds": elapsed,
        "sentences_per_second": len(texts) / elapsed if elapsed > 0 else float("inf"),
        "padded_token_count": padded_token_count(batches, lengths),
        "real_token_count": int(sum(lengths)),
    }
