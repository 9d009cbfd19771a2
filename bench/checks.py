"""Correctness oracles and the tally of attempted and failed operations.

Every operation a workload performs is counted once in `Tally`. It fails
when the call raises or when its output disagrees with an oracle here.
The oracles are written independently of `semb.search` so that an
unsound speed-up there is caught rather than scored.
"""

from __future__ import annotations

import sys
import traceback

import numpy as np

# Score slack for results computed in float32 or in another summation
# order. Bit-identical rows get one shared float64 cosine in the oracle,
# so duplicates tie exactly and must break toward the smaller id.
SCORE_TOL = 2e-6


class Tally:
    """Counts operations and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {detail}" if detail else what)
                print(f"check failed: {self.failures[-1]}", file=sys.stderr)
        return ok

    def check(self, what: str, problem: str | None) -> bool:
        """Record one operation whose check returned `problem` (None means correct)."""
        return self.record(problem is None, what, problem or "")

    def crashed(self, what: str, exc: BaseException) -> None:
        tb = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self.record(False, what, f"raised {tb}")


class StoreOracle:
    """Float64 reference answers for one (ids, float32 matrix) vector store."""

    def __init__(self, ids, matrix):
        self.ids = list(ids)
        matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        keys = matrix.view(np.dtype((np.void, matrix.shape[1] * 4))).ravel()
        _, first, self.group = np.unique(keys, return_index=True, return_inverse=True)
        unique = matrix[first].astype(np.float64)
        norms = np.linalg.norm(unique, axis=1)
        self.unique_dead = norms == 0.0
        self.unit = unique / np.where(self.unique_dead, 1.0, norms)[:, None]
        self.dead = self.unique_dead[self.group]
        self.row_of = {id_: i for i, id_ in enumerate(self.ids)}
        # lexicographic rank of every id, for tie-breaks
        self.id_rank = np.empty(len(self.ids), dtype=np.int64)
        self.id_rank[np.argsort(np.array(self.ids), kind="stable")] = np.arange(len(self.ids))

    def cosines(self, query) -> np.ndarray:
        """Cosine of every row with the query; zero-norm rows score -inf."""
        q = np.asarray(query, dtype=np.float64).reshape(-1)
        scores = self.unit @ (q / np.linalg.norm(q))
        scores[self.unique_dead] = -np.inf
        return scores[self.group]

    def check_top_k(self, query, k: int, hits) -> str | None:
        """None if `hits` is a correct top-k answer for `query`, else what is wrong."""
        cos = self.cosines(query)
        k = min(k, len(cos))
        candidates = np.flatnonzero(cos >= np.partition(cos, len(cos) - k)[len(cos) - k])
        want = candidates[np.lexsort((self.id_rank[candidates], -cos[candidates]))][:k]
        if len(hits) != len(want):
            return f"returned {len(hits)} hits, expected {len(want)}"
        try:
            got = np.array([self.row_of[id_] for id_, _ in hits], dtype=np.int64)
        except KeyError as exc:
            return f"unknown id {exc.args[0]!r}"
        if len(set(got.tolist())) != len(got):
            return "an id is returned twice"
        scores = np.array([s for _, s in hits], dtype=np.float64)
        finite = np.isfinite(cos[got])
        if not np.all(np.abs(scores[finite] - cos[got][finite]) <= SCORE_TOL):
            return "a returned score differs from the row's cosine"
        if np.any(self.dead[got]) and np.count_nonzero(~self.dead) >= len(want):
            return "a zero-norm row outranks a real match"
        boundary = cos[want[-1]]
        if np.any(cos[got] < boundary - SCORE_TOL):
            return f"a returned row scores below the k-th best ({boundary:.7f})"
        if np.setdiff1d(np.flatnonzero(cos > boundary + SCORE_TOL), got).size:
            return "a row scoring above the k-th best was left out"
        for a, b in zip(got[:-1], got[1:]):
            if cos[a] < cos[b] - SCORE_TOL:
                return "hits are not in descending score order"
            if cos[a] == cos[b] and self.id_rank[a] > self.id_rank[b]:
                return f"tie between {self.ids[a]!r} and {self.ids[b]!r} not broken toward the smaller id"
        lowest = cos[got].min()
        tied_out = np.setdiff1d(np.flatnonzero(cos == lowest), got)
        if tied_out.size and self.id_rank[tied_out].min() < self.id_rank[got[cos[got] == lowest]].max():
            return "a row tied at the k-th score with a smaller id was left out"
        return None

    def closest_pair(self, block: int = 512) -> tuple[int, int, float]:
        """Blockwise exhaustive scan: best cosine pair i < j, earliest pair on exact ties."""
        unit = self.unit[self.group]
        n = len(unit)
        best = (-np.inf, 0, 1)
        for start in range(0, n, block):
            stop = min(start + block, n)
            scores = unit[start:stop] @ unit.T
            scores[np.arange(n)[None, :] <= np.arange(start, stop)[:, None]] = -np.inf
            scores[:, self.dead] = -np.inf
            scores[self.dead[start:stop]] = -np.inf
            i, j = divmod(int(np.argmax(scores)), n)  # row-major: first hit is the earliest pair
            if scores[i, j] > best[0]:
                best = (float(scores[i, j]), start + i, j)
        return best[1], best[2], best[0]

    def check_pair(self, result, best) -> str | None:
        """Check a most-similar-pair result against the oracle's `closest_pair()`.

        Pairs within SCORE_TOL of the best are accepted: which of several
        near-1.0 duplicate pairs wins depends on summation order.
        """
        n = len(self.ids)
        if result.comparisons != n * (n - 1) // 2:
            return f"{result.comparisons} comparisons reported, expected {n * (n - 1) // 2}"
        i, j = self.row_of.get(result.id_a), self.row_of.get(result.id_b)
        if i is None or j is None or i >= j:
            return f"pair ({result.id_a!r}, {result.id_b!r}) is not two rows in insertion order"
        if self.dead[i] or self.dead[j]:
            return "the pair includes a zero-norm row"
        s = float(self.unit[self.group[i]] @ self.unit[self.group[j]])
        if abs(result.score - s) > SCORE_TOL:
            return f"reported score {result.score} but the pair's cosine is {s}"
        if s < best[2] - SCORE_TOL:
            return f"pair scores {s:.7f}, best pair scores {best[2]:.7f}"
        return None


def same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
