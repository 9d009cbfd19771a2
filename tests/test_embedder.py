"""`SentenceEmbedder.embed` on helper threads.

Helpers start only when the environment pins BLAS to fewer threads than
there are cores, which the test suite does not do, so these tests patch
the worker count (or set the environment of a child process).
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import semb
import semb.embedder
from semb.embedder import SentenceEmbedder
from semb.encoder import Encoder, EncoderConfig, Vocab
from semb.tensor import _grad_mode, no_grad

WORDS = ["red", "green", "blue", "fish", "bird", "stone"]
WAIT_S = 10.0


def small_embedder(seed=0):
    vocab = Vocab(WORDS)
    cfg = EncoderConfig(vocab_size=vocab.size, dim=8, n_layers=1, n_heads=2, ffn_dim=12, max_seq_len=12)
    return SentenceEmbedder(vocab, Encoder(cfg, seed=seed))


def corpus(n, seed=0):
    rng = np.random.default_rng(seed)
    # "zzz" is unknown; up to 14 words runs past max_seq_len
    return [" ".join(rng.choice(WORDS + ["zzz"], size=rng.integers(0, 15))) for _ in range(n)]


def embed_threads():
    return [t for t in threading.enumerate() if t.name == "semb-embed"]


def with_workers(monkeypatch, count):
    monkeypatch.setattr(semb.embedder, "_worker_count", lambda: count)


def both_threads_forward(emb, monkeypatch, on_forward=None):
    """Wrap `emb.forward` so the first thread to arrive waits for a second one.

    Returns the set of thread idents that ran a batch. Without the wait,
    the caller could drain every batch before the helper starts.
    """
    seen = set()
    second = threading.Event()
    original = emb.forward

    def forward(*args, **kwargs):
        seen.add(threading.get_ident())
        if len(seen) > 1:
            second.set()
        second.wait(WAIT_S)
        if on_forward is not None:
            on_forward()
        return original(*args, **kwargs)

    monkeypatch.setattr(emb, "forward", forward)
    return seen


@pytest.mark.parametrize("workers, batch_size", [(2, 1), (3, 2), (8, 4)])
@pytest.mark.parametrize("smart", [True, False])
def test_threaded_rows_are_the_serial_bits(monkeypatch, workers, batch_size, smart):
    emb = small_embedder(seed=3)
    texts = corpus(150, seed=1)
    serial = emb.embed(texts, batch_size=batch_size, smart=smart)
    with_workers(monkeypatch, workers)
    seen = both_threads_forward(emb, monkeypatch)
    threaded = emb.embed(texts, batch_size=batch_size, smart=smart)
    assert len(seen) > 1
    assert threaded.tobytes() == serial.tobytes()
    assert embed_threads() == []


def test_many_helpers_with_frequent_switches_take_each_slab_once(monkeypatch, forward_calls):
    emb = small_embedder(seed=4)
    texts = corpus(300, seed=5)
    serial = emb.embed(texts, batch_size=1)
    planned = []
    plan = semb.embedder._slabs

    def slabs(*args):
        planned.extend(plan(*args))
        return planned

    monkeypatch.setattr(semb.embedder, "_slabs", slabs)
    monkeypatch.setattr(semb.embedder, "_SLAB_BYTES", 1)  # one row per slab, so 300 jobs to share out
    with_workers(monkeypatch, 8)  # 7 helpers on 300 batches, more threads than cores
    forward_calls.clear()  # the serial call's
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = emb.embed(texts, batch_size=1)
    finally:
        sys.setswitchinterval(interval)
    # a slab taken twice, or lost, would show here
    assert sorted(i for _, members in planned for i in members) == list(range(300))
    assert len(forward_calls) == len(planned) == 300
    assert sum(rows for rows, _, _ in forward_calls) == 300
    assert threaded.tobytes() == serial.tobytes()
    assert embed_threads() == []


def test_a_one_text_embed_is_one_forward(forward_calls):
    small_embedder().embed(["red fish blue"])
    assert forward_calls == [(1, 5, 5)]


def test_smart_batches_of_one_width_share_a_forward(forward_calls):
    texts = ["red fish", "blue bird stone", "green stone"] * 8  # widths 4, 5, 4
    small_embedder(seed=2).embed(texts, batch_size=4)  # 6 batches: 4 of width 4, 2 of width 5
    assert sorted(forward_calls) == [(8, 5, 40), (16, 4, 64)]


def test_no_helper_under_32_batches_or_at_one_worker(monkeypatch):
    emb = small_embedder()
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    with_workers(monkeypatch, 2)
    emb.embed(corpus(31), batch_size=1)  # 31 batches
    emb.embed(["red fish"])
    assert started == []
    with_workers(monkeypatch, 1)
    emb.embed(corpus(64), batch_size=1)
    assert started == []
    with_workers(monkeypatch, 2)
    emb.embed(corpus(32), batch_size=1)
    assert started == ["semb-embed"]


@pytest.mark.parametrize("fail_in", ["helper", "caller"])
def test_an_exception_in_any_thread_reaches_the_caller_and_no_thread_is_left(monkeypatch, fail_in):
    emb = small_embedder()
    caller = threading.get_ident()

    def fail():
        if (threading.get_ident() == caller) == (fail_in == "caller"):
            raise RuntimeError(f"boom in {fail_in}")

    with_workers(monkeypatch, 2)
    both_threads_forward(emb, monkeypatch, on_forward=fail)
    with pytest.raises(RuntimeError, match=f"boom in {fail_in}"):
        emb.embed(corpus(64), batch_size=1)
    assert embed_threads() == []


def test_the_callers_grad_mode_is_unchanged_and_no_thread_records_a_graph(monkeypatch):
    emb = small_embedder()
    modes = []
    with_workers(monkeypatch, 2)
    seen = both_threads_forward(emb, monkeypatch, on_forward=lambda: modes.append(_grad_mode.enabled))
    out = emb.embed(corpus(64), batch_size=1)
    assert len(seen) > 1 and modes and not any(modes)
    assert _grad_mode.enabled
    with no_grad():
        again = emb.embed(corpus(64), batch_size=1)
        assert not _grad_mode.enabled
    assert _grad_mode.enabled
    assert again.tobytes() == out.tobytes()


@pytest.mark.parametrize(
    "env, workers",
    [({}, 1), ({"OMP_NUM_THREADS": "1"}, None), ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, None),
     ({"OPENBLAS_NUM_THREADS": "0"}, 1), ({"OPENBLAS_NUM_THREADS": "many"}, 1), ({"OPENBLAS_NUM_THREADS": ""}, 1)],
)
def test_worker_count_reads_the_blas_thread_count(monkeypatch, env, workers):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    cores = len(os.sched_getaffinity(0))
    assert semb.embedder._worker_count() == (cores if workers is None else workers)


CHILD = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
import semb.embedder
from tests.test_embedder import corpus, small_embedder
out = small_embedder(seed=7).embed(corpus(400, seed=2), batch_size=4)
print(json.dumps({"sha256": hashlib.sha256(out.tobytes()).hexdigest(), "workers": semb.embedder._worker_count()}))
"""


def test_embed_bytes_match_with_blas_pinned_to_one_thread_and_unset():
    """Pinned to 1 BLAS thread, a 100-batch call runs on helper threads; unset, it runs serially."""
    src = Path(semb.__file__).resolve().parents[1]
    root = Path(__file__).resolve().parents[1]
    results = {}
    for pinned in (True, False):
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if pinned:
            env["OPENBLAS_NUM_THREADS"] = "1"
        proc = subprocess.run([sys.executable, "-c", CHILD, str(src)], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        results[pinned] = json.loads(proc.stdout)
    assert results[True]["workers"] == len(os.sched_getaffinity(0))
    assert results[False]["workers"] == 1
    assert results[True]["sha256"] == results[False]["sha256"]
