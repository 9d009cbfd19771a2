"""Vector store with exact cosine search, plus an embedding throughput bench.

Corpora reach the store through `SentenceEmbedder.embed`, the one batched
inference path: `embed_corpus` adds ids to its rows, and
`bench_embedding` times the same call.

A store keeps one contiguous float32 matrix and, built on first use
after an add, its float64 row norms, dead-row mask and float32 unit
rows, in blocks; a row whose norm is zero, NaN or infinite is dead, its
unit row zero and its score -inf. A loaded store indexes its ids when
`in`, `get` or an add first needs them. `top_k` scores the unit rows in
float32, then re-scores in float64 only rows that could reach the top k,
so it returns what a float64 sort of every row would.
`most_similar_pair` scores the upper triangle in float32 tiles of the
unit rows, on a helper thread per 32 tiles when BLAS leaves cores
idle (as `embed` does, see `embedder._worker_count`), then re-scores in
float64 only pairs near the best so far, one pair at a time, so it gives
a float64 scan's answer and equal rows tie exactly.

The store serializes to a single binary file (magic "SEMV"): u32
version, u32 dim, u64 count, a length-prefixed newline-joined id block,
count*dim little-endian float32 values, CRC-32 trailer.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

from .binio import (
    ByteReader,
    DimensionMismatchError,
    FormatError,
    pack_block,
    pack_u32,
    pack_u64,
    write_atomic,
)
from .embedder import _run_jobs
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
# the scan starts one helper thread per this many tiles, up to the idle cores
_TILES_PER_HELPER = 32
# rows normalized at a time, so the float64 scratch stays a few MB however large the store
_NORM_ROWS = 4096


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
        self._index: dict[str, int] | None = {}  # id -> row; None until first use after a load
        self._buffer = np.empty((0, dim), dtype=np.float32)
        self._derived: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, id_: str) -> bool:
        return id_ in self._row_of()

    def _row_of(self) -> dict[str, int]:
        if self._index is None:
            self._index = dict(zip(self._ids, range(len(self._ids))))
        return self._index

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
        """Float64 row norms, the dead-row mask (norm zero, NaN or infinite) and float32 unit rows, zero where dead."""
        if self._derived is None:
            # each row's norm is its own pairwise sum and the rest is elementwise, so blocks keep every bit
            norms, dead, unit = np.empty(len(self)), np.empty(len(self), dtype=bool), np.empty_like(self.matrix)
            for block in (slice(start, start + _NORM_ROWS) for start in range(0, len(self), _NORM_ROWS)):
                rows = self.matrix[block].astype(np.float64)
                norms[block] = np.linalg.norm(rows, axis=1)
                dead[block] = ~(norms[block] > 0.0) | np.isinf(norms[block])
                rows /= np.where(dead[block], 1.0, norms[block])[:, None]
                rows[dead[block]] = 0.0
                unit[block] = rows
            self._derived = (norms, dead, unit)
        return self._derived

    def _new_index(self, ids: list) -> dict[str, int]:
        """Row numbers for ids about to be appended; a bad or repeated id is refused.

        Checks made in C pass a good list; only a refused one is walked id by id, to name its first bad id.
        """
        start, index = len(self._ids), self._row_of()
        new = dict(zip(ids, range(start, start + len(ids)))) if set(map(type, ids)) <= {str} else {}
        if len(new) == len(ids) and "" not in new and "\n" not in "".join(ids) and index.keys().isdisjoint(new.keys()):
            return new
        new = {}
        for row, id_ in enumerate(ids, start):
            if not isinstance(id_, str) or not id_:
                raise ValueError("vector id must be a non-empty string")
            if "\n" in id_:
                raise ValueError(f"vector id may not contain newlines: {id_!r}")
            if id_ in index or id_ in new:
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
        return self._buffer[self._row_of()[id_]].copy()

    def save(self, path) -> None:
        """Write the store as one `.semv` file; the rows go out from the buffer, not from a copy."""
        head = STORE_MAGIC + pack_u32(STORE_VERSION) + pack_u32(self.dim) + pack_u64(len(self._ids))
        id_block = pack_block("\n".join(self._ids).encode("utf-8"))
        rows = np.ascontiguousarray(self.matrix, dtype="<f4").data
        crc = zlib.crc32(rows, zlib.crc32(id_block, zlib.crc32(head)))
        write_atomic(path, head, id_block, rows, pack_u32(crc & 0xFFFFFFFF))

    @classmethod
    def load(cls, path) -> "VectorStore":
        """Read a `.semv` file; any structural fault, bad ids included, is a `FormatError`."""
        with open(path, "rb") as fh:
            reader = ByteReader(fh, what=str(path))
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
            if len(distinct := set(ids)) != count or "" in distinct:  # the per-id walk names the first bad id
                store._new_index(ids)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
        # the reader's fresh aligned array becomes the buffer as it is; ids are indexed on first use
        store._ids, store._index, store._buffer = ids, None, values.reshape(count, dim)
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
    store._index = store._new_index(ids)  # embed's rows are a fresh float32 (n, dim) array: the buffer as it is
    store._ids, store._buffer = ids, embedder.embed([text for _, text in sentences], batch_size=batch_size, smart=smart)
    return store


def _cosine_against_store(store: VectorStore, unit_query: np.ndarray) -> np.ndarray:
    """Float32 cosine of a unit query with every row; dead rows score -inf."""
    _, dead, unit = store._normalized()
    scores = unit @ unit_query.astype(np.float32)
    scores[dead] = -np.inf
    return scores


def top_k(store: VectorStore, query, k: int) -> list[tuple[str, float]]:
    """The k best rows by cosine similarity, as (id, float32 score) pairs.

    Equal scores break toward the lexicographically smaller id; dead
    rows (norm zero, NaN or infinite) score -inf, below every real
    match, and a query whose norm is zero or not finite is refused
    outright. Scores are the float64 cosine cast to float32.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.size != store.dim:
        raise DimensionMismatchError(f"query has {query.size} dims, store expects {store.dim}")
    q_norm = np.linalg.norm(query)
    if not 0.0 < q_norm < np.inf:
        raise ValueError("cannot search with a zero-norm or non-finite query")
    n = len(store)
    approx = _cosine_against_store(store, query / q_norm)
    rows = np.arange(n)
    if k < n:
        # A float32 cosine is within (dim+2)*2^-24 of the float64 one, and
        # the float32 cast moves a score by at most 2^-23, so no row of the
        # exact top k scores below the k-th approximate score less
        # 2*(dim+3)*2^-24. The margin is about twice that; a -inf k-th
        # score keeps every row.
        kth = float(np.partition(approx, n - k)[n - k])
        rows = np.flatnonzero(approx >= kth - 4 * (store.dim + 2) * 2.0**-24)
    norms, dead, _ = store._normalized()
    dead = dead[rows]
    candidates = store.matrix[rows].astype(np.float64)
    candidates[dead] = 0.0  # a dead row may hold inf or NaN
    exact = (candidates @ query) / (np.where(dead, 1.0, norms[rows]) * q_norm)
    scores = np.where(dead, -np.inf, exact).astype(np.float32)
    ids = store._ids
    order = np.lexsort((np.array([ids[i] for i in rows]), -scores))
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
    copies of the same two rows tie exactly wherever they sit. Dead rows
    (norm zero, NaN or infinite) lose to everything.
    """
    n = len(store)
    if n < 2:
        raise ValueError(f"most_similar_pair needs at least 2 vectors, got {n}")
    norms, dead, unit = store._normalized()
    # A float32 GEMM score of float32-rounded unit rows lies within about
    # (dim+2)*2^-24 of the exact cosine, so the pair best by exact score
    # lies within twice that of its tile's float32 maximum, and a tile
    # whose maximum is that far below a found score holds no better pair.
    margin = 4 * (store.dim + 2) * 2.0**-24
    lower = np.tri(_BLOCK_ROWS, dtype=bool)
    best = [-np.inf, (0, 1)]  # an exact score found so far, a lower bound whenever read, and its pair
    lock = threading.Lock()

    def scan(tile):
        r0, c0 = tile
        r1, c1 = min(r0 + _BLOCK_ROWS, n), min(c0 + _BLOCK_ROWS, n)
        scores = unit[r0:r1] @ unit[c0:c1].T
        if c0 == r0:  # j <= i is masked
            scores[lower[: r1 - r0, : c1 - c0]] = -np.inf
        if dead.any():
            scores[:, dead[c0:c1]] = -np.inf
            scores[dead[r0:r1]] = -np.inf
        top = float(scores.max())
        if top <= best[0] - margin:
            return
        i, j = np.divmod(np.flatnonzero(scores >= top - margin), c1 - c0)
        i += r0
        j += c0
        # float64 unit rows of the candidates alone, with a whole-matrix division's bits (a candidate
        # scored above -inf, so is never dead); scored one pair at a time, equal rows tie exactly
        # wherever their tiles sit
        ui = store.matrix[i].astype(np.float64) / norms[i][:, None]
        uj = store.matrix[j].astype(np.float64) / norms[j][:, None]
        exact = np.sum(ui * uj, axis=1)
        pick = np.lexsort((j, i, -exact))[0]
        found = (float(exact[pick]), (int(i[pick]), int(j[pick])))
        with lock:
            # a later tile can hold an earlier pair (a smaller i in a later column tile)
            if found[0] > best[0] or (found[0] == best[0] and found[1] < best[1]):
                best[:] = found

    # square tiles of rows i against rows j >= i, so a tile's scores take
    # the same memory whatever n is
    _run_jobs([(r0, c0) for r0 in range(0, n, _BLOCK_ROWS) for c0 in range(r0, n, _BLOCK_ROWS)], scan,
              _TILES_PER_HELPER)
    i, j = best[1]
    return MostSimilarResult(id_a=store._ids[i], id_b=store._ids[j], score=best[0], comparisons=n * (n - 1) // 2)


def bench_embedding(embedder, texts, batch_size: int = 32, smart: bool = True, seed: int = 0) -> dict:
    """Time `SentenceEmbedder.embed` over a corpus and report padding overhead.

    The timed call covers tokenization, padding and the forward pass of
    every batch. The token counts come from the same batch plan, rebuilt
    untimed afterwards: a plan's batches do not depend on the generator,
    which only orders them, so `seed` need not be `embed`'s.
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
