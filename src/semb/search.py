"""Vector store with exact cosine search, plus an embedding throughput bench.

Corpora reach the store through `SentenceEmbedder.embed`, the one batched
inference path: `embed_corpus` adds ids to its rows, and
`bench_embedding` times the same call.

A store keeps one contiguous float32 matrix and, built on first use
after an add, its float64 row norms, zero-norm mask and float32 unit
rows. `top_k` scores the unit rows in float32, then re-scores in float64
only rows that could reach the top k, so it returns what a float64 sort
of every row would. `most_similar_pair` scans the float64 cosine
matrix's upper triangle in blocks of rows, then re-scores the pairs
near each block's best one pair at a time, so equal rows tie exactly.

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
    write_atomic,
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

# rows, and columns, of one GEMM tile in the all-pairs scan
_BLOCK_ROWS = 512


class VectorStore:
    """Ordered id -> vector map over one contiguous float32 matrix.

    Rows live in a buffer that at least doubles when it fills, so
    repeated `add` calls stay linear in the number of rows.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._ids: list[str] = []
        self._index: dict[str, int] = {}
        self._buffer = np.empty((0, dim), dtype=np.float32)
        self._derived: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, id_: str) -> bool:
        return id_ in self._index

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    @property
    def matrix(self) -> np.ndarray:
        return self._buffer[: len(self._ids)]

    @property
    def norms(self) -> np.ndarray:
        """Precomputed L2 norm of every row, in insertion order."""
        return self._normalized()[0]

    def _normalized(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float64 row norms, the zero-norm mask and float32 unit rows (zero rows stay zero)."""
        if self._derived is None:
            rows = self.matrix.astype(np.float64)
            norms = np.linalg.norm(rows, axis=1)
            dead = ~(norms > 0.0)  # a NaN norm scores like a zero one
            rows /= np.where(dead, 1.0, norms)[:, None]
            self._derived = (norms, dead, rows.astype(np.float32))
        return self._derived

    def _new_index(self, ids: list) -> dict[str, int]:
        """Row numbers for ids about to be appended; a bad or repeated id is refused."""
        new: dict[str, int] = {}
        for row, id_ in enumerate(ids, len(self._ids)):
            if not isinstance(id_, str) or not id_:
                raise ValueError("vector id must be a non-empty string")
            if "\n" in id_:
                raise ValueError(f"vector id may not contain newlines: {id_!r}")
            if id_ in self._index or id_ in new:
                raise ValueError(f"duplicate vector id {id_!r}")
            new[id_] = row
        return new

    def add(self, id_: str, vector) -> None:
        self.add_many([id_], np.asarray(vector, dtype=np.float32).reshape(1, -1))

    def add_many(self, ids, matrix) -> None:
        """Append one row per id, in order; a refused id or shape adds nothing."""
        ids = list(ids)
        rows = np.asarray(matrix, dtype=np.float32)
        if len(rows) != len(ids):
            raise ValueError(f"got {len(ids)} ids for {len(rows)} vectors")
        if not ids:
            return
        rows = rows.reshape(len(ids), -1)
        if rows.shape[1] != self.dim:
            raise DimensionMismatchError(f"vector for {ids[0]!r} has {rows.shape[1]} dims, store expects {self.dim}")
        new = self._new_index(ids)
        start, stop = len(self._ids), len(self._ids) + len(ids)
        if stop > len(self._buffer):
            grown = np.empty((max(stop, 2 * len(self._buffer)), self.dim), dtype=np.float32)
            grown[:start] = self.matrix
            self._buffer = grown
        self._buffer[start:stop] = rows
        self._ids += ids
        self._index.update(new)
        self._derived = None

    def get(self, id_: str) -> np.ndarray:
        if id_ not in self._index:
            raise KeyError(id_)
        return self._buffer[self._index[id_]].copy()

    def save(self, path) -> None:
        body = bytearray()
        body += STORE_MAGIC
        body += pack_u32(STORE_VERSION)
        body += pack_u32(self.dim)
        body += pack_u64(len(self._ids))
        body += pack_block("\n".join(self._ids).encode("utf-8"))
        body += np.ascontiguousarray(self.matrix, dtype="<f4").tobytes()
        write_atomic(path, finish_with_crc(bytes(body)))

    @classmethod
    def load(cls, path) -> "VectorStore":
        """Read a `.semv` file; any structural fault, bad ids included, is a `FormatError`."""
        with open(path, "rb") as fh:
            reader = ByteReader(fh.read(), what=str(path))
        reader.expect_magic(STORE_MAGIC)
        reader.expect_version(STORE_VERSION)
        dim = reader.u32()
        count = reader.u64()
        id_block = reader.block()
        values = reader.f32_array(count * dim)
        reader.verify_crc_trailer()
        try:
            ids = id_block.decode("utf-8").split("\n") if id_block else []
            if len(ids) != count:
                raise ValueError(f"header says {count} vectors but id block lists {len(ids)}")
            store = cls(dim)
            store.add_many(ids, values.reshape(count, dim))
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
        return store


def embed_corpus(embedder, sentences, batch_size: int = 32, smart: bool = True, seed: int = 0) -> VectorStore:
    """Embed (id, text) pairs into a store whose rows follow input order.

    The vectors come from `SentenceEmbedder.embed`, so row i of the
    store is always sentence i, however the batches were planned.
    A bad or repeated id is refused before any embedding happens. `seed`
    is accepted for callers, but batch order cannot change a row, so it
    is unused.
    """
    sentences = list(sentences)
    if not sentences:
        raise ValueError("embed_corpus needs a non-empty corpus")
    ids = [id_ for id_, _ in sentences]
    store = VectorStore(embedder.dim)
    store._new_index(ids)
    store.add_many(ids, embedder.embed([text for _, text in sentences], batch_size=batch_size, smart=smart))
    return store


def _cosine_against_store(store: VectorStore, unit_query: np.ndarray) -> np.ndarray:
    """Float32 cosine of a unit query with every row; zero-norm rows score -inf."""
    _, dead, unit = store._normalized()
    scores = unit @ unit_query.astype(np.float32)
    scores[dead] = -np.inf
    return scores


def top_k(store: VectorStore, query, k: int) -> list[tuple[str, float]]:
    """The k best rows by cosine similarity, as (id, float32 score) pairs.

    Equal scores break toward the lexicographically smaller id; rows
    with zero norm never outrank a real match, and a zero-norm query is
    refused outright. Scores are the float64 cosine cast to float32.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.size != store.dim:
        raise DimensionMismatchError(f"query has {query.size} dims, store expects {store.dim}")
    q_norm = np.linalg.norm(query)
    if q_norm == 0.0:
        raise ValueError("cannot search with a zero-norm query")
    n = len(store)
    approx = _cosine_against_store(store, query / q_norm)
    rows = np.arange(n)
    if k < n:
        # A float32 cosine is within (dim+2)*2^-24 of the float64 one, and
        # the float32 cast moves a score by at most 2^-23, so no row of the
        # exact top k scores below the k-th approximate score less
        # 2*(dim+3)*2^-24. The margin is about twice that; a -inf k-th
        # score keeps every row.
        key = np.fmax(approx, -np.inf)  # rows holding inf score NaN: select them as if -inf
        kth = float(np.partition(key, n - k)[n - k])
        rows = np.flatnonzero(key >= kth - 4 * (store.dim + 2) * 2.0**-24)
    norms, dead, _ = store._normalized()
    exact = (store.matrix[rows].astype(np.float64) @ query) / (np.where(dead[rows], 1.0, norms[rows]) * q_norm)
    scores = np.where(np.isneginf(approx[rows]), -np.inf, exact).astype(np.float32)
    ids = store._ids
    order = np.lexsort((np.array([ids[i] for i in rows]), -scores))  # NaN scores sort last
    return [(ids[rows[i]], float(scores[i])) for i in order[:k]]


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
    insertion order. A pair's score depends only on its two rows, so
    copies of the same two rows tie exactly wherever they sit. Rows with
    zero norm lose to everything.
    """
    n = len(store)
    if n < 2:
        raise ValueError(f"most_similar_pair needs at least 2 vectors, got {n}")
    norms, dead, _ = store._normalized()
    unit = store.matrix.astype(np.float64) / np.where(dead, 1.0, norms)[:, None]
    # A GEMM score and a pair's own dot product are each within
    # (dim+2)*2^-53 of the exact dot product of the unit rows, so the pair
    # that is best by its own dot product has a GEMM score within four
    # times that of the GEMM's best.
    margin = 4 * (store.dim + 2) * 2.0**-53
    lower = np.tri(_BLOCK_ROWS, dtype=bool)

    best_score = -np.inf
    best = (0, 1)
    # square tiles of rows i against rows j >= i, so a tile's scores take
    # the same memory whatever n is
    for r0 in range(0, n, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, n)
        for c0 in range(r0, n, _BLOCK_ROWS):
            c1 = min(c0 + _BLOCK_ROWS, n)
            scores = unit[r0:r1] @ unit[c0:c1].T
            if c0 == r0:  # j <= i is masked
                scores[lower[: r1 - r0, : c1 - c0]] = -np.inf
            scores[:, dead[c0:c1]] = -np.inf
            scores[dead[r0:r1]] = -np.inf
            top = scores.max()
            if not top > best_score - margin:  # NaN skips the tile, as -inf does
                continue
            # GEMM bits depend on a pair's tile position, so equal rows can
            # score an ulp apart there; re-score the near-best pairs on their own
            i, j = np.nonzero(scores >= top - margin)
            i += r0
            j += c0
            exact = np.sum(unit[i] * unit[j], axis=1)
            pick = np.lexsort((j, i, -exact))[0]
            pair = (int(i[pick]), int(j[pick]))
            # a later tile can hold an earlier pair (a smaller i in a later column tile)
            if exact[pick] > best_score or (exact[pick] == best_score and pair < best):
                best_score = float(exact[pick])
                best = pair
    ids = store._ids
    return MostSimilarResult(id_a=ids[best[0]], id_b=ids[best[1]], score=best_score, comparisons=n * (n - 1) // 2)


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
