"""The three workloads: set-up, untimed warm-up, and one fixed pass of work.

A run repeats whole passes until its time is up, so every pass does the
same work and per-pass figures compare across runs and commits. Inputs
come from `semb.synth`, derived from the workload seed. The program is
driven through the public functions `semb.cli` calls, looked up on their
modules at call time so the traced run sees every call.

Each workload reports the same end-to-end metrics (see README.md for
what each means on each workload) plus per-workload details, such as
`train_steps_per_s.regression`.
"""

from __future__ import annotations

import filecmp
import gc
import itertools
import json
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from semb import data, embedder, evaluation, search, synth, trainer
from semb.encoder import Encoder, EncoderConfig, Vocab

from checks import StoreOracle, Tally, same_bits

perf = time.perf_counter

OBJECTIVES = ("regression", "classification", "triplet")
EMBED_BATCH = 32  # semb.cli's embedding batch; training uses TrainConfig's 16
TOP_K = 10


def sub_seed(seed: int, stream: int) -> int:
    """An independent 32-bit seed for one input stream of a workload."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def fresh_embedder(vocab: Vocab, seed: int) -> embedder.SentenceEmbedder:
    """The default encoder: dim 64, 2 layers, 4 heads, FFN 256, max_seq_len 64."""
    return embedder.SentenceEmbedder(vocab, Encoder(EncoderConfig(vocab.size), seed=seed))


class Recorder:
    """Samples by name, collected over the passes of one measurement."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(float(value))

    def extend(self, name: str, values) -> None:
        self.samples[name].extend(float(v) for v in values)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def percentile(self, name: str, q: float) -> float:
        return float(np.percentile(self.samples[name], q))


def _same_params(a: embedder.SentenceEmbedder, b: embedder.SentenceEmbedder) -> bool:
    pa, pb = a.encoder.params, b.encoder.params
    return pa.keys() == pb.keys() and all(same_bits(pa[k].data, pb[k].data) for k in pa)


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


_file_numbers = itertools.count()


def _fresh_path(tmp: Path, suffix: str) -> Path:
    """A path no file of this run has had: every timed save writes a new file.

    Writing over an existing file makes ext4 start writing the new
    contents to disk when the file is closed (its `auto_da_alloc` rule),
    so the save would wait on a shared disk and its time would follow
    the other tenants. A new file only fills the page cache. Callers
    delete the file once it is read back, outside the timings.
    """
    return tmp / f"save{next(_file_numbers)}{suffix}"


def _latency_metrics(rec: Recorder, name: str) -> dict:
    return {"op_ms.p75": rec.percentile(name, 75), "op_ms.p95": rec.percentile(name, 95)}


def _round_trip_metrics(rec: Recorder, load: str, save: str) -> dict:
    return {"load_s.p75": rec.percentile(load, 75), "save_s.p75": rec.percentile(save, 75)}


class TrainWorkload:
    """Fresh embedders trained STEPS steps with each objective, saved, reloaded and scored."""

    name = "train"
    STEPS = 100  # optimizer steps per objective; 1,600 examples at batch 16
    BATCH = 16
    N_DEV = 200  # held-out STS pairs and triplets
    N_PROBE = 32  # sentences embedded to compare a reloaded checkpoint
    # A checkpoint save and load every SAVE_EVERY steps, outside the step
    # timings, and one after training, which job_s counts. Spread over the
    # training run, they sample the file system at many moments rather
    # than in one burst, whose speed varies by a third from one to the next.
    SAVE_EVERY = 10
    # Quality floors. Untrained, Spearman sits near 0.3 and triplet
    # accuracy near 0.5. After 100 steps on seeds 0-39, regression reached
    # at least 0.68 and triplet accuracy at least 0.76 (seed 2; the next
    # lowest was 0.835); at 50 steps triplet accuracy was still near
    # chance on some seeds. A change that breaks learning falls below
    # these floors and fails the run.
    MIN_SPEARMAN = 0.5
    MIN_TRIPLET_ACCURACY = 0.7

    def setup(self, tmp: Path, seed: int) -> dict:
        n = self.STEPS * self.BATCH
        sts = synth.make_sts_pairs(n, sub_seed(seed, 1))
        nli = synth.make_nli_pairs(n, sub_seed(seed, 2))
        triplets = synth.make_triplets(n, sub_seed(seed, 3))
        dev = synth.make_sts_pairs(self.N_DEV, sub_seed(seed, 4))
        dev_triplets = synth.make_triplets(self.N_DEV, sub_seed(seed, 5))
        paths = {name: tmp / f"{name}.jsonl" for name in (*OBJECTIVES, "dev", "dev_triplets")}
        _write_jsonl(paths["regression"], ({"a": p.a, "b": p.b, "score": p.score} for p in sts))
        _write_jsonl(paths["classification"], ({"a": a, "b": b, "label": y} for a, b, y in nli))
        _write_jsonl(paths["triplet"], (vars(t) for t in triplets))
        _write_jsonl(paths["dev"], ({"a": p.a, "b": p.b, "score": p.score} for p in dev))
        _write_jsonl(paths["dev_triplets"], (vars(t) for t in dev_triplets))
        texts = [p.a for p in sts] + [p.b for p in sts] + [a for a, _, _ in nli] + [b for _, b, _ in nli]
        texts += [s for t in triplets for s in (t.anchor, t.positive, t.negative)]
        return {"tmp": tmp, "paths": paths, "vocab": Vocab.from_corpus(texts), "model_seed": sub_seed(seed, 6)}

    def prepare(self, state: dict) -> None:
        """Warm-up: two steps of each objective and one scoring call, untimed."""
        sets = self._load(state)
        for objective in OBJECTIVES:
            emb = fresh_embedder(state["vocab"], 0)
            trainer.train(emb, sets[objective][: 2 * self.BATCH], trainer.TrainConfig(objective=objective))
        evaluation.evaluate_similarity(emb.embed, sets["dev"][: self.N_PROBE])
        state["first_pass"] = None

    def _load(self, state: dict) -> dict:
        p = state["paths"]
        return {
            "regression": data.load_scored_pairs(p["regression"]),
            "classification": data.load_classification_pairs(p["classification"]),
            "triplet": data.load_triplets(p["triplet"]),
            "dev": data.load_scored_pairs(p["dev"]),
            "dev_triplets": data.load_triplets(p["dev_triplets"]),
        }

    def run_pass(self, state: dict, rec: Recorder, tally: Tally, tracer) -> None:
        t0 = perf()
        sets = self._load(state)
        job = perf() - t0
        scored_sentences = 0
        scoring_s = 0.0
        outcome = []  # losses and scores, which must repeat exactly on every pass
        for objective in OBJECTIVES:
            emb = fresh_embedder(state["vocab"], state["model_seed"])
            cfg = trainer.TrainConfig(objective=objective, batch_size=self.BATCH, seed=state["model_seed"])

            def round_trip(steps):
                path = _fresh_path(state["tmp"], ".semb")
                t0 = perf()
                emb.save(path, steps=steps)
                t1 = perf()
                loaded = embedder.SentenceEmbedder.load(path)
                t2 = perf()
                path.unlink()
                rec.add("checkpoint_save_s", t1 - t0)
                rec.add("checkpoint_load_s", t2 - t1)
                tally.check(f"{objective} checkpoint round trip",
                            None if _same_params(emb, loaded) else "reloaded weights differ from the saved ones")
                return loaded, t2 - t0

            marks = []  # per step: step end, end of the callback, whether it made a round trip

            def on_step(record):
                t = perf()
                trip = len(marks) % self.SAVE_EVERY == self.SAVE_EVERY - 1
                if trip:
                    round_trip(len(marks) + 1)
                marks.append((t, perf(), trip))

            gc.collect()
            t0 = perf()
            result = trainer.train(emb, sets[objective], cfg, on_step=on_step)
            train_s = perf() - t0 - sum(end - t for t, end, _ in marks)
            losses = [m["loss"] for m in result.metrics]
            for step, loss in enumerate(losses):
                tally.record(math.isfinite(loss), f"{objective} step {step}", f"loss {loss}")
            rec.add(f"train_steps_per_s.{objective}", len(losses) / train_s)
            # Step 0 also pays for tokenizing the set to batch it, and a step
            # after a round trip for the caches the file I/O cooled, so step
            # latency leaves both out: 90 of the 100 steps count.
            steps = zip(marks, marks[1:])
            rec.extend("step_ms", [(t - prev) * 1e3 for (_, prev, trip), (t, _, _) in steps if not trip])

            gc.collect()
            loaded, round_trip_s = round_trip(result.total_steps)
            job += train_s + round_trip_s
            probe = [p.a for p in sets["dev"][: self.N_PROBE]]
            same = same_bits(emb.embed(probe), loaded.embed(probe))
            tally.check(f"{objective} checkpoint reload", None if same else "reloaded model embeds differently")

            gc.collect()
            t0 = perf()
            if objective == "triplet":
                score = evaluation.triplet_accuracy(loaded.embed, sets["dev_triplets"])
                scored_sentences += 3 * len(sets["dev_triplets"])
            else:
                score = evaluation.evaluate_similarity(loaded.embed, sets["dev"])["spearman"]
                scored_sentences += 2 * len(sets["dev"])
            score_s = perf() - t0
            scoring_s += score_s
            job += score_s
            outcome.append((objective, losses, score))
            if objective == "regression":
                rec.add("dev_spearman", score)
                tally.check("regression dev Spearman", None if score >= self.MIN_SPEARMAN
                            else f"{score:.4f} below the floor {self.MIN_SPEARMAN}")
            elif objective == "classification":
                rec.add("dev_spearman.classification", score)
            else:
                rec.add("triplet_accuracy", score)
                tally.check("triplet accuracy", None if score >= self.MIN_TRIPLET_ACCURACY
                            else f"{score:.4f} below the floor {self.MIN_TRIPLET_ACCURACY}")
        rec.add("embed_sentences_per_s", scored_sentences / scoring_s if scoring_s else 0.0)
        rec.add("job_s", job)
        if state["first_pass"] is None:
            state["first_pass"] = outcome
        else:
            tally.check("training repeats bit for bit",
                        None if outcome == state["first_pass"] else "losses or scores differ from the first pass")

    def end_to_end(self, rec: Recorder) -> dict:
        return {
            "job_s": rec.median("job_s"),
            **_latency_metrics(rec, "step_ms"),
            "embed_sentences_per_s": rec.median("embed_sentences_per_s"),
            **_round_trip_metrics(rec, "checkpoint_load_s", "checkpoint_save_s"),
        }

    def details(self, rec: Recorder) -> dict:
        out = {f"train_steps_per_s.{o}": (rec.median(f"train_steps_per_s.{o}"), "1/s") for o in OBJECTIVES}
        out["dev_spearman"] = (rec.median("dev_spearman"), "rho")
        out["dev_spearman.classification"] = (rec.median("dev_spearman.classification"), "rho")
        out["triplet_accuracy"] = (rec.median("triplet_accuracy"), "fraction")
        out["checkpoint_load_s"] = (rec.median("checkpoint_load_s"), "s")
        out["checkpoint_save_s"] = (rec.median("checkpoint_save_s"), "s")
        return out


def _query_embedder(tmp: Path, seed: int) -> Path:
    """Save an untrained default model over the topic vocabulary; its speed does not depend on training."""
    path = tmp / "model.semb"
    fresh_embedder(Vocab(synth.vocabulary()), seed).save(path)
    return path


def _short_texts(n: int, seed: int) -> list[str]:
    """Topic-mixture sentences of 4-12 words."""
    return [t for p in synth.make_sts_pairs((n + 1) // 2, seed) for t in (p.a, p.b)][:n]


def _query_loop(emb, store, queries, rec: Recorder, tally: Tally, tracer, oracle, check_every: int,
                between=None, every: int = 0) -> float:
    """Closed loop, one client: embed one query, then top_k, as `semb search --query` does.

    Returns the seconds spent in the program. Checks against the oracle
    run outside the timed region. `between()` runs before every
    `every`-th query after the first, so that store round trips are
    sampled across the loop rather than at one moment: on a shared
    machine the speed of short operations drifts within seconds.
    """
    busy = 0.0
    embed_s = 0.0
    for i, text in enumerate(queries):
        if between is not None and i and i % every == 0:
            between()
        with tracer.span("bench.query"):
            t0 = perf()
            vector = emb.embed([text])[0]
            t1 = perf()
            hits = search.top_k(store, vector, TOP_K)
            t2 = perf()
        rec.add("query_ms", (t2 - t0) * 1e3)
        busy += t2 - t0
        embed_s += t1 - t0
        tally.check("top_k", oracle.check_top_k(vector, TOP_K, hits) if i % check_every == 0 else None)
    rec.add("query_embed_per_s", len(queries) / embed_s)
    return busy


class EmbedPairWorkload:
    """The paper's task: embed a 10k corpus with smart batching, then find its closest pair."""

    name = "embed-pair"
    N = 10_000
    LONG_EVERY = 8  # one sentence in eight is long
    LONG_WORDS = 60
    N_FIXED = 320  # sentences embedded in fixed order through SentenceEmbedder.embed
    N_QUERIES = 400  # per pass
    ROUND_TRIPS = 40  # store save + load per pass, spread over the queries
    # The side store: corpus rows plus exact copies and zero rows, which
    # the corpus store lacks (padding in different batches makes repeated
    # texts differ in the last bits), so the tie-break and zero-norm
    # rules of top_k are checked on every pass.
    N_SIDE = 256  # corpus rows in the side store
    N_TIES = 8  # of them copied under an id that sorts before the original
    N_ZERO = 4  # zero rows, under ids that sort first
    N_NEGATED = 2  # queries opposite a row, asking for every real row

    def setup(self, tmp: Path, seed: int) -> dict:
        n_long = self.N // self.LONG_EVERY
        short = _short_texts(self.N - n_long, sub_seed(seed, 1))
        skewed = synth.make_length_skewed_corpus(2 * n_long, sub_seed(seed, 2), long_words=self.LONG_WORDS)
        corpus = short + [s for s in skewed if s.count(" ") == self.LONG_WORDS - 1]
        np.random.default_rng(sub_seed(seed, 3)).shuffle(corpus)
        return {
            "tmp": tmp,
            "seed": seed,
            "sentences": [(f"s{i:05d}", text) for i, text in enumerate(corpus)],
            "model": _query_embedder(tmp, sub_seed(seed, 4)),
            "queries": _short_texts(self.N_QUERIES, sub_seed(seed, 5)),
        }

    def prepare(self, state: dict) -> None:
        """Load the model as `semb embed` does, then warm every path on a small slice, untimed."""
        emb = state["emb"] = embedder.SentenceEmbedder.load(state["model"])
        small = search.embed_corpus(emb, state["sentences"][:64], batch_size=EMBED_BATCH)
        search.most_similar_pair(small)
        search.top_k(small, emb.embed([state["queries"][0]])[0], TOP_K)
        emb.embed([text for _, text in state["sentences"][:EMBED_BATCH]], batch_size=EMBED_BATCH)

    def run_pass(self, state: dict, rec: Recorder, tally: Tally, tracer) -> None:
        emb = state["emb"]
        gc.collect()
        t0 = perf()
        store = search.embed_corpus(emb, state["sentences"], batch_size=EMBED_BATCH, smart=True, seed=state["seed"])
        embed_s = perf() - t0
        rec.add("embed_sentences_per_s", self.N / embed_s)

        def round_trip():
            path = _fresh_path(state["tmp"], ".semv")
            t0 = perf()
            store.save(path)
            t1 = perf()
            loaded = search.VectorStore.load(path)
            path.unlink()
            rec.add("store_save_s", t1 - t0)
            rec.add("store_load_s", perf() - t1)
            same = loaded.ids == store.ids and same_bits(loaded.matrix, store.matrix)
            tally.check("store round trip", None if same else "reloaded store differs from the saved one")
            return loaded

        # the scan and the queries read the store back from disk, as `semb search` does
        served = round_trip()
        gc.collect()
        t0 = perf()
        pair = search.most_similar_pair(served)
        scan_s = perf() - t0
        rec.add("pair_scan_s", scan_s)
        rec.add("closest_pair_s", embed_s + scan_s)
        oracle = StoreOracle(store.ids, store.matrix)
        tally.check("most_similar_pair", oracle.check_pair(pair, oracle.closest_pair()))

        gc.collect()
        every = math.ceil(self.N_QUERIES / self.ROUND_TRIPS)
        _query_loop(emb, served, state["queries"], rec, tally, tracer, oracle, 1, round_trip, every)
        self._check_side_store(served, tally)

        texts = [text for _, text in state["sentences"][: self.N_FIXED]]
        gc.collect()
        t0 = perf()
        fixed = emb.embed(texts, batch_size=EMBED_BATCH)
        rec.add("embed_fixed_sentences_per_s", self.N_FIXED / (perf() - t0))
        # batch composition may move float32 rounding, never more
        close = np.allclose(fixed, store.matrix[: self.N_FIXED], rtol=0.0, atol=1e-4)
        tally.check("embed_corpus row order", None if close else "smart-batched rows differ from fixed-order rows")

    def _check_side_store(self, served, tally: Tally) -> None:
        """Tied and negated queries against corpus rows plus exact copies and zero rows."""
        ids, matrix = served.ids[: self.N_SIDE], served.matrix[: self.N_SIDE]
        tied = np.arange(self.N_TIES) * (self.N_SIDE // self.N_TIES)
        side = search.VectorStore(served.dim)
        side.add_many([f"0zero{j}" for j in range(self.N_ZERO)], np.zeros((self.N_ZERO, served.dim), np.float32))
        side.add_many(ids, matrix)
        side.add_many([f"copy-{ids[i]}" for i in tied], matrix[tied])
        oracle = StoreOracle(side.ids, side.matrix)
        for i in tied:
            hits = search.top_k(side, matrix[i], TOP_K)
            tally.check("top_k on a tie", oracle.check_top_k(matrix[i], TOP_K, hits))
        n_real = self.N_SIDE + self.N_TIES
        for i in tied[: self.N_NEGATED]:
            hits = search.top_k(side, -matrix[i], n_real)
            tally.check("top_k above zero rows", oracle.check_top_k(-matrix[i], n_real, hits))

    def end_to_end(self, rec: Recorder) -> dict:
        return {
            "job_s": rec.median("closest_pair_s"),
            **_latency_metrics(rec, "query_ms"),
            "embed_sentences_per_s": rec.median("embed_sentences_per_s"),
            **_round_trip_metrics(rec, "store_load_s", "store_save_s"),
        }

    def details(self, rec: Recorder) -> dict:
        return {
            "embed_sentences_per_s": (rec.median("embed_sentences_per_s"), "1/s"),
            "embed_fixed_sentences_per_s": (rec.median("embed_fixed_sentences_per_s"), "1/s"),
            "pair_scan_s": (rec.median("pair_scan_s"), "s"),
            "closest_pair_s": (rec.median("closest_pair_s"), "s"),
            "query_ms.p50": (rec.percentile("query_ms", 50), "ms"),
            "query_ms.p95": (rec.percentile("query_ms", 95), "ms"),
            "store_load_s": (rec.median("store_load_s"), "s"),
            "store_save_s": (rec.median("store_save_s"), "s"),
        }


class Search200kWorkload:
    """Exact top-k over a 200,000 x 64 store: load it, answer queries, save it."""

    name = "search-200k"
    N = 200_000
    DIM = 64
    CLUSTERS = 256
    N_DUPLICATES = 1_000  # rows that are exact copies of another row
    N_ZERO = 8  # all-zero rows
    N_QUERIES = 100  # per pass; at least two passes make the 200 queries of a run
    N_TIE_QUERIES = 8  # vector queries equal to a duplicated row, so the top two tie
    CHECK_EVERY = 10
    ROUND_TRIPS = 6  # loads and saves per pass: the pass's own, and five among the queries

    def setup(self, tmp: Path, seed: int) -> dict:
        rng = np.random.default_rng(sub_seed(seed, 1))
        centers = rng.standard_normal((self.CLUSTERS, self.DIM), dtype=np.float32)
        matrix = centers[rng.integers(self.CLUSTERS, size=self.N)]
        matrix += np.float32(0.3) * rng.standard_normal((self.N, self.DIM), dtype=np.float32)
        special = rng.choice(self.N, size=2 * self.N_DUPLICATES + self.N_ZERO, replace=False)
        sources, copies = special[: self.N_DUPLICATES], special[self.N_DUPLICATES : 2 * self.N_DUPLICATES]
        matrix[copies] = matrix[sources]
        matrix[special[2 * self.N_DUPLICATES :]] = 0.0
        ids = [f"v{i:06d}" for i in range(self.N)]
        store = search.VectorStore(self.DIM)
        store.add_many(ids, matrix)
        path = tmp / "store.semv"
        store.save(path)
        return {
            "tmp": tmp,
            "path": path,
            "ids": ids,
            "matrix": matrix,
            "tie_rows": copies[: self.N_TIE_QUERIES],
            "model": _query_embedder(tmp, sub_seed(seed, 2)),
            "queries": _short_texts(self.N_QUERIES, sub_seed(seed, 3)),
        }

    def prepare(self, state: dict) -> None:
        """Load the model as `semb search` does and build the oracle, untimed."""
        emb = state["emb"] = embedder.SentenceEmbedder.load(state["model"])
        state["oracle"] = StoreOracle(state["ids"], state["matrix"])
        store = search.VectorStore.load(state["path"])
        search.top_k(store, emb.embed([state["queries"][0]])[0], TOP_K)

    def run_pass(self, state: dict, rec: Recorder, tally: Tally, tracer) -> None:
        t0 = perf()
        store = search.VectorStore.load(state["path"])
        load_s = perf() - t0

        def round_trip():
            gc.collect()
            out = _fresh_path(state["tmp"], ".semv")
            t0 = perf()
            again = search.VectorStore.load(state["path"])
            t1 = perf()
            again.save(out)
            rec.add("store_load_s", t1 - t0)
            rec.add("store_save_s", perf() - t1)
            self._check_round_trip(again, out, state, tally)

        every = math.ceil(self.N_QUERIES / self.ROUND_TRIPS)
        busy = _query_loop(state["emb"], store, state["queries"], rec, tally, tracer, state["oracle"],
                           self.CHECK_EVERY, round_trip, every)
        for row in state["tie_rows"]:
            hits = search.top_k(store, state["matrix"][row], TOP_K)
            tally.check("top_k on a tie", state["oracle"].check_top_k(state["matrix"][row], TOP_K, hits))
        out = _fresh_path(state["tmp"], ".semv")
        t0 = perf()
        store.save(out)
        save_s = perf() - t0
        rec.add("job_s", load_s + busy + save_s)
        rec.add("store_load_s", load_s)
        rec.add("store_save_s", save_s)
        self._check_round_trip(store, out, state, tally)

    @staticmethod
    def _check_round_trip(store, saved: Path, state: dict, tally: Tally) -> None:
        same = store.ids == state["ids"] and same_bits(store.matrix, state["matrix"])
        tally.check("store load", None if same else "loaded store differs from the one written")
        same_file = filecmp.cmp(saved, state["path"], shallow=False)
        saved.unlink()
        tally.check("store save", None if same_file else "saved file differs from the file loaded")

    def end_to_end(self, rec: Recorder) -> dict:
        return {
            "job_s": rec.median("job_s"),
            **_latency_metrics(rec, "query_ms"),
            "embed_sentences_per_s": rec.median("query_embed_per_s"),
            **_round_trip_metrics(rec, "store_load_s", "store_save_s"),
        }

    def details(self, rec: Recorder) -> dict:
        return {
            "query_ms.p50": (rec.percentile("query_ms", 50), "ms"),
            "query_ms.p95": (rec.percentile("query_ms", 95), "ms"),
            "store_load_s": (rec.median("store_load_s"), "s"),
            "store_save_s": (rec.median("store_save_s"), "s"),
            "query_embed_per_s": (rec.median("query_embed_per_s"), "1/s"),
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, EmbedPairWorkload, Search200kWorkload)}
