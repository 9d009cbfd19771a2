"""`semb.search` must pass the benchmark's float64 oracle (bench/checks.py).

The benchmark counts every `top_k` and `most_similar_pair` answer that
`StoreOracle` rejects as a failed operation. The same checks run here on
a small store with exact ties and zero rows, so a store change the
benchmark would reject fails the test suite first.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from semb.search import VectorStore, most_similar_pair, top_k


@pytest.fixture
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module("checks")


def tied_store(n=700, dim=16, n_copies=12, n_zero=5, seed=3):
    """Gaussian rows, zero rows whose ids sort first, and exact copies inserted
    after their originals under ids that sort before them; more rows than one
    pair-scan block."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, dim)).astype(np.float32)
    ids = [f"v{i:04d}" for i in range(n)]
    copied = rng.choice(n, n_copies, replace=False)
    store = VectorStore(dim)
    store.add_many([f"0zero{j}" for j in range(n_zero)], np.zeros((n_zero, dim), np.float32))
    store.add_many(ids, matrix)
    store.add_many([f"copy-{ids[i]}" for i in copied], matrix[copied])
    return store, matrix, copied, rng


def test_top_k_passes_the_benchmark_oracle(checks):
    store, matrix, copied, rng = tied_store()
    oracle = checks.StoreOracle(store.ids, store.matrix)
    n_real = len(store) - 5
    queries = [(matrix[i], 10) for i in copied]  # ties: the copy must come first
    queries += [(-matrix[i], n_real) for i in copied[:3]]  # every real row before any zero row
    queries += [(rng.normal(size=store.dim), k) for k in (1, 5, len(store), len(store) + 7)]
    for query, k in queries:
        assert oracle.check_top_k(query, k, top_k(store, query, k)) is None


def test_oracle_catches_a_tie_broken_the_wrong_way(checks):
    store, matrix, copied, _ = tied_store()
    oracle = checks.StoreOracle(store.ids, store.matrix)
    hits = top_k(store, matrix[copied[0]], 10)
    assert hits[0][1] == hits[1][1]
    hits[0], hits[1] = hits[1], hits[0]
    assert "tie" in oracle.check_top_k(matrix[copied[0]], 10, hits)


def test_most_similar_pair_passes_the_benchmark_oracle(checks):
    store, _, _, _ = tied_store()
    oracle = checks.StoreOracle(store.ids, store.matrix)
    result = most_similar_pair(store)
    assert result.score == pytest.approx(1.0, abs=1e-12)  # an exact copy
    assert oracle.check_pair(result, oracle.closest_pair()) is None
