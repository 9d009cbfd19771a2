"""Release acceptance checks, one test per shipping gate.

Each test prints a single `[NN] description: PASS|FAIL` line (visible
under ``pytest -s``) and carries its tolerances inline. They exercise
the package the way a user would: real training runs on the bundled
synthetic corpora, the command-line ablation harness, timed batching
and search runs, and byte-level persistence checks.

This file is slower than the unit suite (roughly two minutes on a
laptop CPU). Run it alone with ``pytest tests/test_acceptance.py -s``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import statistics
import time

import numpy as np
import pytest

import semb.tensor as T
from semb import synth
from semb.binio import ChecksumError
from semb.checkpoint import load_checkpoint
from semb.cli import main as cli_main
from semb.data import TripletExample
from semb.embedder import SentenceEmbedder
from semb.encoder import Encoder, EncoderConfig, Vocab
from semb.evaluation import (
    evaluate_similarity,
    fractional_ranks,
    pearson,
    probe_accuracy,
    spearman,
    triplet_accuracy,
)
from semb.objectives import (
    COMBINE_MODES,
    ClassificationObjective,
    RegressionObjective,
    TripletObjective,
    combine,
    combined_width,
    cosine_rows,
)
from semb.search import VectorStore, bench_embedding, embed_corpus, most_similar_pair, top_k
from semb.tensor import Tensor, grad_check
from semb.trainer import TrainConfig, train

POOLINGS = ("mean", "max", "cls")


@contextlib.contextmanager
def _gate(number, description):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        print(f"[{number:02d}] {description}: {verdict}")


# ---------------------------------------------------------------------------
# 1. gradients


def _weighted_sum(t, w):
    """Scalar-valued probe with a non-uniform upstream gradient."""
    return T.tsum(T.mul(t, w))


def _away_from_zero(x, margin):
    return np.sign(x) * (margin + np.abs(x))


def _spread_rows(rng, shape, gap=0.05):
    """Values with a guaranteed per-row gap so max() has an isolated winner."""
    n = int(np.prod(shape[:-1]))
    rows = []
    for _ in range(n):
        row = np.cumsum(gap + rng.random(shape[-1]))
        rng.shuffle(row)
        rows.append(row)
    return np.array(rows).reshape(shape)


def _op_gradient_cases(rng):
    """One scalar-valued probe per differentiable op, at a random point.

    Inputs of kinked ops (abs_diff, relu, max) are kept a fixed margin
    away from the kink so central differences stay valid; div and sqrt
    denominators are bounded away from zero.
    """

    def t(shape):
        return Tensor(rng.normal(size=shape))

    cases = []

    w = Tensor(rng.normal(size=(3, 4)))
    cases.append(("add", lambda a, b, w=w: _weighted_sum(T.add(a, b), w), (t((3, 4)), t((3, 4)))))
    w = Tensor(rng.normal(size=(3, 4)))
    cases.append(("sub", lambda a, b, w=w: _weighted_sum(T.sub(a, b), w), (t((3, 4)), t((3, 4)))))
    w = Tensor(rng.normal(size=(3, 4)))
    cases.append(("mul", lambda a, b, w=w: _weighted_sum(T.mul(a, b), w), (t((3, 4)), t((3, 4)))))

    w = Tensor(rng.normal(size=(3, 4)))
    denom = Tensor(_away_from_zero(rng.normal(size=(3, 4)), 0.5))
    cases.append(("div", lambda a, b, w=w: _weighted_sum(T.div(a, b), w), (t((3, 4)), denom)))

    w = Tensor(rng.normal(size=(3, 4)))
    cases.append(("add_scalar", lambda a, w=w: _weighted_sum(T.add_scalar(a, 0.7), w), (t((3, 4)),)))
    w = Tensor(rng.normal(size=(3, 4)))
    cases.append(("mul_scalar", lambda a, w=w: _weighted_sum(T.mul_scalar(a, -1.3), w), (t((3, 4)),)))

    w = Tensor(rng.normal(size=(3, 4)))
    base = rng.normal(size=(3, 4))
    other = Tensor(base + _away_from_zero(rng.normal(size=(3, 4)), 0.5))
    cases.append(("abs_diff", lambda a, b, w=w: _weighted_sum(T.abs_diff(a, b), w), (Tensor(base.copy()), other)))

    w = Tensor(rng.normal(size=(3, 2)))
    cases.append(("matmul", lambda a, b, w=w: _weighted_sum(T.matmul(a, b), w), (t((3, 4)), t((4, 2)))))

    w = Tensor(rng.normal(size=(3, 4)))
    cases.append(("add_bias", lambda x, b, w=w: _weighted_sum(T.add_bias(x, b), w), (t((3, 4)), t((4,)))))

    ids = rng.integers(0, 6, size=(2, 3))
    w = Tensor(rng.normal(size=(2, 3, 4)))
    cases.append(("embedding", lambda tab, ids=ids, w=w: _weighted_sum(T.embedding(tab, ids), w), (t((6, 4)),)))

    w = Tensor(rng.normal(size=(3, 4)))
    cases.append(("reshape", lambda x, w=w: _weighted_sum(T.reshape(x, (3, 4)), w), (t((2, 6)),)))
    w = Tensor(rng.normal(size=(6, 2)))
    cases.append(("transpose", lambda x, w=w: _weighted_sum(T.transpose(x, (1, 0)), w), (t((2, 6)),)))

    w = Tensor(rng.normal(size=(2, 6)))
    cases.append(("concat", lambda a, b, w=w: _weighted_sum(T.concat([a, b], axis=1), w), (t((2, 3)), t((2, 3)))))

    w = Tensor(rng.normal(size=(3, 3)))
    cases.append(("slice_rows", lambda x, w=w: _weighted_sum(T.slice_rows(x, 1, 4), w), (t((5, 3)),)))
    w = Tensor(rng.normal(size=(3, 2)))
    cases.append(("select_index", lambda x, w=w: _weighted_sum(T.select_index(x, 1, 2), w), (t((3, 4, 2)),)))

    w = Tensor(rng.normal(size=(4,)))
    cases.append(("tsum_axis", lambda x, w=w: _weighted_sum(T.tsum(x, axis=0), w), (t((3, 4)),)))
    w = Tensor(rng.normal(size=(3, 4)))
    cases.append(("tsum_all", lambda x, w=w: T.tsum(T.mul(x, w)), (t((3, 4)),)))
    w = Tensor(rng.normal(size=(3,)))
    cases.append(("tmean_axis", lambda x, w=w: _weighted_sum(T.tmean(x, axis=1), w), (t((3, 4)),)))

    w = Tensor(rng.normal(size=(3,)))
    spread = Tensor(_spread_rows(rng, (3, 5)))
    cases.append(("max_over_axis", lambda x, w=w: _weighted_sum(T.max_over_axis(x, 1), w), (spread,)))

    w = Tensor(rng.normal(size=(2, 5)))
    cases.append(("softmax", lambda x, w=w: _weighted_sum(T.softmax(x), w), (t((2, 5)),)))

    # 2 heads of width 2; the second sequence's last key is padding
    fill = np.zeros((2, 1, 1, 3))
    fill[1, 0, 0, 2] = -1e9
    w = Tensor(rng.normal(size=(2, 3, 4)))
    cases.append(("attention", lambda qkv, fill=fill, w=w: _weighted_sum(T.attention(qkv, fill, 2), w), (t((2, 3, 12)),)))

    labels = rng.integers(0, 3, size=4)
    cases.append(("cross_entropy", lambda lg, labels=labels: T.tmean(T.cross_entropy(lg, labels)), (t((4, 3)),)))

    w = Tensor(rng.normal(size=(2, 6)))
    gain = Tensor(1.0 + 0.1 * rng.normal(size=(6,)))
    cases.append(
        ("layer_norm", lambda x, g, b, w=w: _weighted_sum(T.layer_norm(x, g, b), w), (t((2, 6)), gain, t((6,))))
    )

    w = Tensor(rng.normal(size=(3, 4)))
    cases.append(("gelu", lambda x, w=w: _weighted_sum(T.gelu(x), w), (t((3, 4)),)))
    w = Tensor(rng.normal(size=(3, 4)))
    off_kink = Tensor(_away_from_zero(rng.normal(size=(3, 4)), 0.3))
    cases.append(("relu", lambda x, w=w: _weighted_sum(T.relu(x), w), (off_kink,)))
    w = Tensor(rng.normal(size=(3, 4)))
    positive = Tensor(0.5 + np.abs(rng.normal(size=(3, 4))))
    cases.append(("sqrt", lambda x, w=w: _weighted_sum(T.sqrt(x), w), (positive,)))

    w = Tensor(rng.normal(size=(3, 4)))
    # a generator reseeded inside the probe keeps the mask identical
    # across the repeated evaluations grad_check performs
    cases.append(
        ("dropout", lambda x, w=w: _weighted_sum(T.dropout(x, 0.35, np.random.default_rng(9)), w), (t((3, 4)),))
    )

    return cases


def _composed_gradient_error(objective, pooling, point):
    """Max relative error of backprop through encoder + pooling + loss.

    Builds a small float64 one-layer model at a seeded random point,
    backprops one batch loss, then compares a sample of coordinates of
    every named parameter against central differences.
    """
    rng = np.random.default_rng((12, point))
    words = [f"w{i:02d}" for i in range(12)]
    vocab = Vocab(words)
    cfg = EncoderConfig(
        vocab_size=vocab.size, dim=8, n_layers=1, n_heads=2, ffn_dim=16, max_seq_len=12, dropout=0.0
    )
    encoder = Encoder(cfg, seed=point, dtype=np.float64)
    embedder = SentenceEmbedder(vocab, encoder, pooling=pooling)

    def sentence():
        count = int(rng.integers(3, 8))
        return " ".join(words[int(i)] for i in rng.integers(0, len(words), size=count))

    first = [sentence(), sentence()]
    second = [sentence(), sentence()]
    params = dict(encoder.params)

    if objective == "classification":
        head = ClassificationObjective(cfg.dim, 3, mode="u,v,abs", seed=point, dtype=np.float64)
        labels = rng.integers(0, 3, size=2)
        params.update(head.parameters())

        def loss_value():
            return head.loss(embedder.embed_tensor(first), embedder.embed_tensor(second), labels)

    elif objective == "regression":
        head = RegressionObjective()
        targets = rng.uniform(0.1, 0.9, size=2)

        def loss_value():
            return head.loss(embedder.embed_tensor(first), embedder.embed_tensor(second), targets)

    else:
        head = TripletObjective()
        third = [sentence(), sentence()]

        def loss_value():
            return head.loss(
                embedder.embed_tensor(first), embedder.embed_tensor(second), embedder.embed_tensor(third)
            )

    loss_value().backward()
    analytic = {name: p.grad.copy() for name, p in params.items()}

    eps = 1e-5
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
            saved = flat[i]
            flat[i] = saved + eps
            up = loss_value().item()
            flat[i] = saved - eps
            down = loss_value().item()
            flat[i] = saved
            numeric = (up - down) / (2.0 * eps)
            err = abs(float(analytic[name].reshape(-1)[i]) - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


def test_01_gradients_match_central_differences():
    with _gate(1, "analytic gradients match central differences (rel err < 1e-5)"):
        start = time.perf_counter()

        worst_op, worst_op_err = "", 0.0
        for point in range(10):
            rng = np.random.default_rng((11, point))
            for name, f, args in _op_gradient_cases(rng):
                err = grad_check(f, args, eps=1e-5)
                if err > worst_op_err:
                    worst_op, worst_op_err = name, err
        assert worst_op_err < 1e-5, f"op {worst_op}: gradient error {worst_op_err:.2e}"

        worst_where, worst_err = "", 0.0
        for objective in ("classification", "regression", "triplet"):
            for pooling in POOLINGS:
                for point in range(10):
                    err = _composed_gradient_error(objective, pooling, point)
                    if err > worst_err:
                        worst_where, worst_err = f"{objective}/{pooling}", err
        assert worst_err < 1e-5, f"{worst_where}: composite gradient error {worst_err:.2e}"

        assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 2. loss and similarity formulas


def test_02_formulas_reproduce_hand_examples():
    with _gate(2, "losses and cosine reproduce hand-worked values (1e-6)"):
        def t(rows):
            return Tensor(np.asarray(rows, dtype=np.float64))

        assert cosine_rows(t([[1, 2]]), t([[2, 1]])).item() == pytest.approx(0.8, abs=1e-6)
        assert cosine_rows(t([[1, 0]]), t([[0, 1]])).item() == pytest.approx(0.0, abs=1e-6)
        assert cosine_rows(t([[1, 2, 3]]), t([[1, 2, 3]])).item() == pytest.approx(1.0, abs=1e-6)

        stacked = combine(t([[1, 2]]), t([[3, 4]]), "u,v,abs")
        np.testing.assert_allclose(stacked.data, [[1, 2, 3, 4, 2, 2]], atol=1e-6)
        assert combined_width("u,v,abs,prod", 2) == 8

        reg = RegressionObjective()
        loss = reg.loss(t([[1, 0]]), t([[1, 1]]), np.array([2.5 / 5.0]))
        assert loss.item() == pytest.approx((1 / math.sqrt(2) - 0.5) ** 2, abs=1e-6)
        assert reg.loss(t([[3, 4]]), t([[3, 4]]), np.array([1.0])).item() == pytest.approx(0.0, abs=1e-6)

        # zero weights make every class equally likely: loss is ln k
        cls3 = ClassificationObjective(2, 3, mode="u,v,abs", dtype=np.float64)
        cls3.W.data[:] = 0.0
        loss = cls3.loss(t([[0.3, 0.4]]), t([[0.1, 0.9]]), np.array([1]))
        assert loss.item() == pytest.approx(math.log(3.0), abs=1e-6)

        # 1-d |u-v| feature of 1.0 against W = [[ln 3, 0]] gives logits
        # (ln 3, 0), so p(label 0) = 3/4 and the loss is ln(4/3)
        cls2 = ClassificationObjective(1, 2, mode="abs", dtype=np.float64)
        cls2.W.data[:] = np.array([[math.log(3.0), 0.0]])
        loss = cls2.loss(t([[2.0]]), t([[1.0]]), np.array([0]))
        assert loss.item() == pytest.approx(math.log(4.0 / 3.0), abs=1e-6)

        tri = TripletObjective()
        assert tri.margin == 1.0
        got = tri.loss(t([[0, 0]]), t([[0, 1]]), t([[1, 0]])).item()
        assert got == pytest.approx(1.0, abs=1e-6)
        # distances sqrt(2) and 2: the hinge value sqrt(2) - 1 only comes
        # out of the Euclidean metric (Manhattan would give 1.0)
        got = tri.loss(t([[0, 0]]), t([[1, 1]]), t([[2, 0]])).item()
        assert got == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-6)
        assert tri.loss(t([[0, 0]]), t([[0, 0]]), t([[0, 2]])).item() == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# 3. rank metrics and chance-level triplets


def test_03_rank_metrics_match_oracles_and_random_triplets_score_at_chance():
    with _gate(3, "rank metrics match oracles; random triplets land at chance"):
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 100:
            n = int(rng.integers(5, 60))
            x = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
            y = np.round(rng.normal(size=n), 1)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            direct = spearman(x, y)
            via_ranks = pearson(fractional_ranks(x), fractional_ranks(y))
            assert abs(direct - via_ranks) < 1e-12
            checked += 1

        x = rng.normal(size=40)
        y = rng.normal(size=40)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == base
        assert spearman(3.0 * x + 7.0, y) == base
        assert spearman(x**3, y) == base

        vectors = np.random.default_rng(34).normal(size=(30_000, 16)).astype(np.float32)

        def embed(texts):
            return vectors[[int(t) for t in texts]]

        triplets = [TripletExample(str(3 * i), str(3 * i + 1), str(3 * i + 2)) for i in range(10_000)]
        for metric in ("euclidean", "cosine_distance"):
            acc = triplet_accuracy(embed, triplets, metric)
            assert abs(acc - 0.5) <= 0.02, f"{metric}: {acc}"


# ---------------------------------------------------------------------------
# 4. regression fine-tuning lifts rank correlation


def test_04_regression_training_lifts_heldout_rank_correlation():
    with _gate(4, "fine-tuning lifts held-out Spearman by at least 0.25"):
        start = time.perf_counter()
        train_pairs = synth.make_sts_pairs(500, seed=0)
        dev_pairs = synth.make_sts_pairs(200, seed=1)
        vocab = Vocab(synth.vocabulary())
        encoder = Encoder(EncoderConfig(vocab_size=vocab.size), seed=0)
        embedder = SentenceEmbedder(vocab, encoder, pooling="mean")

        def dev_spearman():
            return evaluate_similarity(lambda ts: embedder.embed(ts), dev_pairs, "cosine")["spearman"]

        before = dev_spearman()
        train(embedder, train_pairs, TrainConfig(objective="regression", lr=1e-3, epochs=3, seed=0))
        after = dev_spearman()

        assert after - before >= 0.25, f"lift {after - before:.3f} (before {before:.3f}, after {after:.3f})"
        assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------------------
# 5. triplet training separates clusters


def test_05_one_epoch_of_triplet_training_separates_clusters():
    with _gate(5, "triplet training: chance before, >= 0.95 accuracy after"):
        train_triplets = synth.make_triplets(3000, seed=200)
        held_out = synth.make_triplets(2000, seed=201)
        vocab = Vocab(synth.cluster_vocabulary())
        encoder = Encoder(EncoderConfig(vocab_size=vocab.size), seed=0)
        embedder = SentenceEmbedder(vocab, encoder, pooling="mean")

        def accuracy():
            return triplet_accuracy(lambda ts: embedder.embed(ts), held_out, "euclidean")

        before = accuracy()
        assert abs(before - 0.5) <= 0.03, f"untrained accuracy {before:.4f}"
        train(embedder, train_triplets, TrainConfig(objective="triplet", lr=1e-3, epochs=1, seed=0))
        after = accuracy()
        assert after >= 0.95, f"trained accuracy {after:.4f}"


# ---------------------------------------------------------------------------
# 6. ablation harness


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def test_06_ablation_harness_fills_the_whole_grid(tmp_path):
    with _gate(6, "ablation harness completes all 24 cells with mean ± stdev"):
        nli_path = tmp_path / "nli.jsonl"
        _write_jsonl(nli_path, [{"a": a, "b": b, "label": lab} for a, b, lab in synth.make_nli_pairs(60, seed=40)])
        reg_path = tmp_path / "scored.jsonl"
        _write_jsonl(reg_path, [{"a": p.a, "b": p.b, "score": p.score} for p in synth.make_sts_pairs(60, seed=41)])
        dev_path = tmp_path / "dev.jsonl"
        _write_jsonl(dev_path, [{"a": p.a, "b": p.b, "score": p.score} for p in synth.make_sts_pairs(40, seed=42)])

        argv = [
            "ablate", "--quiet", "--name", "grid", "--runs-root", str(tmp_path / "runs"),
            "--seeds", "0,1,2", "--train.epochs", "1",
            "--encoder.dim", "16", "--encoder.n_layers", "1",
            "--encoder.n_heads", "2", "--encoder.ffn_dim", "32",
            "--data.train", str(nli_path), "--data.regression_train", str(reg_path),
            "--data.dev", str(dev_path),
        ]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(argv)
        assert code == 0
        cells = json.loads(buffer.getvalue())["cells"]

        classification = [c for c in cells if c["objective"] == "classification"]
        regression = [c for c in cells if c["objective"] == "regression"]
        assert len(classification) == 21 and len(regression) == 3

        shape = re.compile(r"^-?\d+\.\d{2} ± \d+\.\d{2}$")
        for cell in cells:
            assert "error" not in cell, cell
            assert shape.match(cell["formatted"]), cell["formatted"]

        seen = {(c["pooling"], c["mode"]) for c in classification}
        assert seen == {(p, m) for p in POOLINGS for m in COMBINE_MODES}
        assert {c["pooling"] for c in regression} == set(POOLINGS)
        assert all(c["mode"] is None for c in regression)


# ---------------------------------------------------------------------------
# 7. smart batching


def test_07_smart_batching_pads_less_and_runs_faster():
    with _gate(7, "length batching: strictly less padding, > 1.2x throughput"):
        corpus = synth.make_length_skewed_corpus(240, seed=70)
        vocab = Vocab.from_corpus(corpus)
        encoder = Encoder(EncoderConfig(vocab_size=vocab.size), seed=0)
        embedder = SentenceEmbedder(vocab, encoder)

        # a cold first call pays for allocation and caches, so it is not timed;
        # then three calls per mode, alternating, and the median of each
        embedder.embed(corpus, batch_size=16)
        runs = {True: [], False: []}
        for _ in range(3):
            for mode in runs:
                runs[mode].append(bench_embedding(embedder, corpus, batch_size=16, smart=mode, seed=0))
        smart, naive = runs[True][0], runs[False][0]

        assert smart["real_token_count"] == naive["real_token_count"]
        assert smart["padded_token_count"] < naive["padded_token_count"]
        speed = {mode: statistics.median(r["sentences_per_second"] for r in rows) for mode, rows in runs.items()}
        ratio = speed[True] / speed[False]
        assert ratio > 1.2, f"throughput ratio {ratio:.2f}"


# ---------------------------------------------------------------------------
# 8. exhaustive search cost


def test_08_pair_scan_cost_is_exact_and_top_k_matches_a_full_sort():
    with _gate(8, "pair scan does exactly n(n-1)/2 comparisons; top-k exact"):
        start = time.perf_counter()
        n, dim = 10_000, 64
        rng = np.random.default_rng(80)
        matrix = rng.normal(size=(n, dim)).astype(np.float32)
        store = VectorStore(dim)
        store.add_many([str(i) for i in range(n)], matrix)

        result = most_similar_pair(store)
        assert result.comparisons == n * (n - 1) // 2 == 49_995_000
        assert result.id_a != result.id_b

        query = rng.normal(size=dim).astype(np.float32)
        dots = matrix.astype(np.float64) @ query.astype(np.float64)
        scores = (dots / (store.norms * np.linalg.norm(query.astype(np.float64)))).astype(np.float32)
        ids = np.array(store.ids)
        full_sort = np.lexsort((ids, -scores))
        for k in (1, 5, 100):
            got = top_k(store, query, k)
            expected = [(str(ids[i]), float(scores[i])) for i in full_sort[:k]]
            assert got == expected

        assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 9. persistence


def test_09_persistence_roundtrips_bit_exact_and_flags_corruption(tmp_path):
    with _gate(9, "checkpoints and stores round-trip bit-exact; CRC catches flips"):
        pairs = synth.make_sts_pairs(30, seed=90)
        texts = [p.a for p in pairs] + [p.b for p in pairs]
        vocab = Vocab.from_corpus(texts)
        cfg = EncoderConfig(vocab_size=vocab.size, dim=16, n_layers=1, n_heads=2, ffn_dim=32)

        def build_and_train(seed):
            embedder = SentenceEmbedder(vocab, Encoder(cfg, seed=seed))
            train(embedder, pairs, TrainConfig(objective="regression", epochs=1, seed=seed))
            return embedder

        embedder = build_and_train(3)
        probe_texts = texts[:8]
        before = embedder.embed(probe_texts)
        checkpoint_path = tmp_path / "model.semb"
        embedder.save(checkpoint_path, objective={"name": "regression"}, steps=4)
        after = SentenceEmbedder.load(checkpoint_path).embed(probe_texts)
        assert np.array_equal(before, after)
        manifest, _ = load_checkpoint(checkpoint_path)
        assert manifest["steps"] == 4

        twin_path = tmp_path / "twin.semb"
        build_and_train(3).save(twin_path, objective={"name": "regression"}, steps=4)
        assert checkpoint_path.read_bytes() == twin_path.read_bytes()

        store = embed_corpus(embedder, [(str(i), t) for i, t in enumerate(texts)])
        store_path = tmp_path / "vectors.semv"
        store.save(store_path)
        restored = VectorStore.load(store_path)
        assert restored.ids == store.ids
        assert np.array_equal(restored.matrix, store.matrix)

        for path, load in ((checkpoint_path, load_checkpoint), (store_path, VectorStore.load)):
            raw = bytearray(path.read_bytes())
            raw[len(raw) - 12] ^= 0x01  # inside the data region, before the trailer
            bad = path.with_suffix(path.suffix + ".bad")
            bad.write_bytes(bytes(raw))
            with pytest.raises(ChecksumError):
                load(bad)


# ---------------------------------------------------------------------------
# 10. linear probe


def test_10_probe_separates_blobs_and_stays_at_chance_on_shuffled_labels():
    with _gate(10, "probe > 0.95 on separable blobs, 0.5 ± 0.05 when shuffled"):
        rng = np.random.default_rng(101)
        blob_a = rng.normal(loc=-1.5, size=(100, 8))
        blob_b = rng.normal(loc=1.5, size=(100, 8))
        features = np.vstack([blob_a, blob_b]).astype(np.float32)
        labels = np.array([0] * 100 + [1] * 100)

        separable = probe_accuracy(features, labels, k=10, seed=0)
        assert separable["k"] == 10 and len(separable["fold_accuracies"]) == 10
        assert separable["accuracy"] > 0.95

        shuffled = np.random.default_rng(7).permutation(labels)
        chance = probe_accuracy(features, shuffled, k=10, seed=0)
        assert abs(chance["accuracy"] - 0.5) <= 0.05, f"shuffled accuracy {chance['accuracy']:.3f}"
        assert probe_accuracy(features, shuffled, k=10, seed=0)["accuracy"] == chance["accuracy"]
