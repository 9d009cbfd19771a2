"""Median times of the three loads and of the first search after a store load, for one checkout's `src/`.

    OPENBLAS_NUM_THREADS=1 python3 scripts/load_times.py --src ../parent/src --data /tmp/loads

Times `SentenceEmbedder.load` on a default-config checkpoint with a
470-id vocabulary, and `VectorStore.load` on 10,000- and 200,000-row
stores of 64 dims, each after one untimed warm-up load, with the
median minor page faults of each load (`getrusage`). Times the first
`top_k` (k = 10) on a freshly loaded store of each size, which
includes normalizing its rows. Reports the tracemalloc peak of one
10k-row load as a multiple of the file's size, and of normalizing a
loaded 200k-row store as a multiple of its float32 rows. The files are
written under `--data` by the first run and reused, so that two
checkouts time the same bytes. Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src/ directory whose semb is timed")
    parser.add_argument("--data", required=True, help="directory for the checkpoint and stores")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np

    from semb.embedder import SentenceEmbedder
    from semb.encoder import Encoder, EncoderConfig, Vocab
    from semb.search import VectorStore, top_k

    os.makedirs(args.data, exist_ok=True)
    checkpoint = os.path.join(args.data, "model.semb")
    stores = {n: os.path.join(args.data, f"rows{n}.semv") for n in (10_000, 200_000)}
    if not os.path.exists(checkpoint):
        vocab = Vocab([f"w{i}" for i in range(466)])
        SentenceEmbedder(vocab, Encoder(EncoderConfig(vocab.size), seed=1)).save(checkpoint)
        rng = np.random.default_rng(0)
        for n, path in stores.items():
            store = VectorStore(64)
            store.add_many([f"s{i:06d}" for i in range(n)], rng.normal(size=(n, 64)))
            store.save(path)

    def medians(load, path, reps):
        """Median ms and median minor page faults of `load(path)`, after one untimed load."""
        load(path)
        times, faults = [], []
        for _ in range(reps):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            load(path)
            times.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return statistics.median(times) * 1e3, statistics.median(faults)

    def first_top_k_ms(path, reps):
        """Median ms of the first `top_k` on a store just loaded, after one untimed round."""
        query = np.ones(64)
        times = []
        for _ in range(reps + 1):
            store = VectorStore.load(path)
            t0 = time.perf_counter()
            top_k(store, query, 10)
            times.append(time.perf_counter() - t0)
        return statistics.median(times[1:]) * 1e3

    out = {}
    for name, load, path, reps in (
        ("checkpoint_load", SentenceEmbedder.load, checkpoint, 60),
        ("store_load_10k", VectorStore.load, stores[10_000], 40),
        ("store_load_200k", VectorStore.load, stores[200_000], 9),
    ):
        out[f"{name}_ms"], out[f"{name}_minor_faults"] = medians(load, path, reps)
    out["first_top_k_10k_ms"] = first_top_k_ms(stores[10_000], 40)
    out["first_top_k_200k_ms"] = first_top_k_ms(stores[200_000], 9)
    tracemalloc.start()
    VectorStore.load(stores[10_000])
    out["store_load_10k_peak_over_file"] = tracemalloc.get_traced_memory()[1] / os.path.getsize(stores[10_000])
    tracemalloc.stop()
    store = VectorStore.load(stores[200_000])
    tracemalloc.start()
    store._normalized()
    out["normalize_200k_peak_over_rows"] = tracemalloc.get_traced_memory()[1] / store.matrix.nbytes
    tracemalloc.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
