"""The benchmark's tracer (bench/tracing.py) must find every name it wraps.

It looks each one up with `inspect.getattr_static`, so renaming or
removing a wrapped function in `semb` would crash a `--trace 1` run.
"""

import importlib
import inspect
from pathlib import Path

import semb.data
import semb.embedder
import semb.encoder
import semb.evaluation
import semb.objectives
import semb.search
import semb.tensor
import semb.trainer

MODULES = (
    semb.data, semb.embedder, semb.encoder, semb.evaluation,
    semb.objectives, semb.search, semb.tensor, semb.trainer,
)


def attributes():
    """Every attribute of each module above and of each class it defines, keyed by owner and name."""
    owners = list(MODULES) + [
        obj for module in MODULES for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    ]
    return {
        (getattr(owner, "__qualname__", owner.__name__), name): value
        for owner in owners
        for name, value in vars(owner).items()
    }


def test_tracer_wraps_its_names_and_uninstall_restores_every_original(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    before = attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = attributes()
    finally:
        tracer.uninstall()
    after = attributes()

    wrapped = {key for key in before if during[key] is not before[key]}
    assert {
        ("semb.search", "smart_batches"),
        ("semb.search", "naive_batches"),
        ("semb.trainer", "smart_batches"),
        ("semb.embedder", "pool"),
        ("SentenceEmbedder", "encode_batch"),
        ("SentenceEmbedder", "embed_tensor"),
        ("SentenceEmbedder", "embed"),
        ("semb.data", "load_scored_pairs"),
        ("semb.data", "load_classification_pairs"),
        ("semb.data", "load_triplets"),
    } <= wrapped
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
