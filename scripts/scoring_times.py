"""In-process times of the `train` workload's scoring, with and without one-call evaluations and helper threads.

    python3 scripts/scoring_times.py --seeds 7,8 --reps 40

Builds the `train` workload's dev sets for each seed (200 STS pairs and
200 triplets, `bench/workloads.py`) and a fresh default embedder, then
times its scoring set, two `evaluate_similarity` calls and one
`triplet_accuracy` call (1,400 texts), four ways: each tower embedded
in its own `embed` call or every tower in one, each run serially or
with helper threads. The per-tower calls are made by an `embed` that
embeds each tower of its input separately, so both ways share the
evaluation code. It also times `embed` calls of growing size from the
same texts, serially and with helpers, and counts each call's slabs
and padded tokens. Serial means `_worker_count()` patched to 1. Every
variant and size is timed in turn, `--reps` times, rotating the order,
and the medians are reported. Sets one BLAS thread, as `bench/run.py`
does, so that helpers can start. Prints one JSON line.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import json  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

import semb.embedder  # noqa: E402
from semb import evaluation  # noqa: E402
from workloads import TrainWorkload, fresh_embedder  # noqa: E402

SIZES = (32, 48, 64, 128, 200, 400, 600)  # texts per call in the by-size table


def _per_tower(emb, towers: int):
    """An `embed` that embeds each of the `towers` equal parts of its input in its own call."""
    def embed(texts):
        n = len(texts) // towers
        return np.concatenate([emb.embed(texts[k * n : (k + 1) * n]) for k in range(towers)])
    return embed


def _slab_plan(emb, texts) -> tuple[int, int]:
    """(slabs, padded tokens) of `emb.embed(texts)`, read from the plan of one call."""
    plan, planned = semb.embedder._slabs, []
    semb.embedder._slabs = lambda *args: planned.extend(plan(*args)) or planned
    try:
        emb.embed(texts)
    finally:
        semb.embedder._slabs = plan
    return len(planned), sum(width * len(members) for width, members in planned)


def _timed(cases: dict, reps: int) -> dict:
    """Median seconds of each case, timed in turn `reps` times, the order rotated each time."""
    names = list(cases)
    times = {name: [] for name in names}
    for rep in range(reps):
        for name in names[rep % len(names) :] + names[: rep % len(names)]:
            workers, run = cases[name]
            semb.embedder._worker_count = workers
            t0 = time.perf_counter()
            run()
            times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(values) for name, values in times.items()}


def measure(seed: int, reps: int) -> dict:
    workload = TrainWorkload()
    with tempfile.TemporaryDirectory() as tmp:
        state = workload.setup(Path(tmp), seed)
        sets = workload._load(state)
    emb = fresh_embedder(state["vocab"], state["model_seed"])
    dev, triplets = sets["dev"], sets["dev_triplets"]
    threaded, serial = semb.embedder._worker_count, lambda: 1

    def scoring(embed_for):
        def run():
            evaluation.evaluate_similarity(embed_for(2), dev)
            evaluation.evaluate_similarity(embed_for(2), dev)
            evaluation.triplet_accuracy(embed_for(3), triplets)
        return run

    per_tower = scoring(lambda towers: _per_tower(emb, towers))
    one_call = scoring(lambda towers: emb.embed)
    scoring_s = _timed({"per_tower_serial": (serial, per_tower), "per_tower_helpers": (threaded, per_tower),
                        "one_call_serial": (serial, one_call), "one_call_helpers": (threaded, one_call)}, reps)
    base = scoring_s["per_tower_serial"]

    # the rows of the one-call embeds, against each tower's own call
    sts = [p.a for p in dev] + [p.b for p in dev]
    trip = [t.anchor for t in triplets] + [t.positive for t in triplets] + [t.negative for t in triplets]
    same_rows = all(emb.embed(texts).tobytes() == _per_tower(emb, towers)(texts).tobytes()
                    for texts, towers in ((sts, 2), (trip, 3)))

    texts = sts + trip
    by_size = []
    for n in SIZES:
        slabs, tokens = _slab_plan(emb, texts[:n])
        call = lambda n=n: emb.embed(texts[:n])  # noqa: E731
        s = _timed({"serial": (serial, call), "helpers": (threaded, call)}, reps)
        by_size.append({"texts": n, "slabs": slabs, "padded_tokens": tokens, "serial_ms": s["serial"] * 1e3,
                        "helpers_ms": s["helpers"] * 1e3, "speedup": s["serial"] / s["helpers"]})
    semb.embedder._worker_count = threaded
    return {
        "seed": seed,
        "workers": threaded(),
        "scoring_ms": {name: value * 1e3 for name, value in scoring_s.items()},
        "scoring_speedup_over_per_tower_serial": {name: base / value for name, value in scoring_s.items()},
        "one_call_rows_equal_per_tower_rows": same_rows,
        "embed_by_size": by_size,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="7,8", help="comma-separated train workload seeds")
    parser.add_argument("--reps", type=int, default=40)
    args = parser.parse_args(argv)
    results = [measure(int(seed), args.reps) for seed in args.seeds.split(",")]
    print(json.dumps({"blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "reps": args.reps, "seeds": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
