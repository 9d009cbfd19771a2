"""Known faults planted in semb to prove that the checks catch them.

`python3 bench/run.py --workload embed-pair --plant top_k_tie_swap`
must report failed operations and `"correct": false`. `selftest.py`
runs every plant on the workload that should catch it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from tracing import replace


def _top_k_tie_swap(fn):
    # swap the first two hits that tie, as a sort that ignores ids would
    def top_k(*args, **kwargs):
        hits = fn(*args, **kwargs)
        for i in range(len(hits) - 1):
            if hits[i][1] == hits[i + 1][1]:
                hits[i], hits[i + 1] = hits[i + 1], hits[i]
                break
        return hits

    return top_k


def _zero_norm_score(fn):
    # score zero-norm rows 0 instead of -inf, so they outrank any row scoring below 0
    def cosine(*args, **kwargs):
        scores = fn(*args, **kwargs)
        scores[np.isneginf(scores)] = 0.0
        return scores

    return cosine


def _pair_count(fn):
    def most_similar_pair(*args, **kwargs):
        result = fn(*args, **kwargs)
        return dataclasses.replace(result, comparisons=result.comparisons - 1)

    return most_similar_pair


def _store_bitflip(fn):
    def load(cls, path):
        store = fn(cls, path)
        matrix = store.matrix.copy()
        matrix.view(np.uint32)[0, 0] ^= 1
        flipped = cls(store.dim)
        flipped.add_many(store.ids, matrix)
        return flipped

    return load


def _checkpoint_drift(fn):
    def load(cls, path):
        model = fn(cls, path)
        table = model.encoder.params["tok_emb"].data
        table[4, 0] = np.nextafter(table[4, 0], np.float32(np.inf))
        return model

    return load


def _nan_loss(fn):
    calls = []

    def loss(self, *args, **kwargs):
        calls.append(None)
        out = fn(self, *args, **kwargs)
        if len(calls) == 10:
            out.data[...] = np.nan
        return out

    return loss


def plant(name: str):
    """Install the named fault; returns a function that removes it."""
    from semb import embedder, objectives, search

    targets = {
        "top_k_tie_swap": (search, "top_k", _top_k_tie_swap),
        "zero_norm_score": (search, "_cosine_against_store", _zero_norm_score),
        "pair_count": (search, "most_similar_pair", _pair_count),
        "store_bitflip": (search.VectorStore, "load", _store_bitflip),
        "checkpoint_drift": (embedder.SentenceEmbedder, "load", _checkpoint_drift),
        "nan_loss": (objectives.RegressionObjective, "loss", _nan_loss),
    }
    if name not in targets:
        raise SystemExit(f"unknown plant {name!r}; expected one of {sorted(targets)}")
    owner, attr, make = targets[name]
    raw = replace(owner, attr, make)
    return lambda: setattr(owner, attr, raw)


# plant -> the workload whose checks must catch it
CAUGHT_BY = {
    "top_k_tie_swap": "embed-pair",
    "zero_norm_score": "embed-pair",
    "pair_count": "embed-pair",
    "store_bitflip": "embed-pair",
    "checkpoint_drift": "train",
    "nan_loss": "train",
}
