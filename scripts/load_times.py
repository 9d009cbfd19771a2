"""Median times of the three loads, for one checkout's `src/`.

    OPENBLAS_NUM_THREADS=1 python3 scripts/load_times.py --src ../parent/src --data /tmp/loads

Times `SentenceEmbedder.load` on a default-config checkpoint with a
470-id vocabulary, and `VectorStore.load` on 10,000- and 200,000-row
stores of 64 dims, each after one untimed warm-up load, and the
tracemalloc peak of one 10k-row load as a multiple of the file's size.
The files are written under `--data` by the first run and reused, so
that two checkouts time the same bytes. Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
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
    from semb.search import VectorStore

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

    def median_ms(load, path, reps):
        load(path)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            load(path)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    out = {
        "checkpoint_load_ms": median_ms(SentenceEmbedder.load, checkpoint, 60),
        "store_load_10k_ms": median_ms(VectorStore.load, stores[10_000], 40),
        "store_load_200k_ms": median_ms(VectorStore.load, stores[200_000], 9),
    }
    tracemalloc.start()
    VectorStore.load(stores[10_000])
    out["store_load_10k_peak_over_file"] = tracemalloc.get_traced_memory()[1] / os.path.getsize(stores[10_000])
    tracemalloc.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
