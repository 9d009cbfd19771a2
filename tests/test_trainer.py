import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semb import trainer
from semb.data import PairExample, ScoredPair, TripletExample
from semb.embedder import SentenceEmbedder
from semb.encoder import Encoder, EncoderConfig, Vocab
from semb.objectives import RegressionObjective
from semb.tensor import Tensor
from semb.trainer import (
    Adam,
    TrainConfig,
    TrainingDivergedError,
    clip_global_norm,
    format_mean_std,
    lr_at,
    multi_seed_run,
    naive_batches,
    normalize_targets,
    padded_token_count,
    smart_batches,
    train,
)

WORDS = ["red", "green", "blue", "fish", "bird", "stone", "river", "cloud"]


def tiny_embedder(seed=0, max_seq_len=12):
    vocab = Vocab(WORDS)
    cfg = EncoderConfig(vocab_size=vocab.size, dim=8, n_layers=1, n_heads=2, ffn_dim=12, max_seq_len=max_seq_len)
    return SentenceEmbedder(vocab, Encoder(cfg, seed=seed))


def pair_data():
    rng = np.random.default_rng(0)
    out = []
    for _ in range(12):
        a = " ".join(rng.choice(WORDS, size=rng.integers(1, 5)))
        b = " ".join(rng.choice(WORDS, size=rng.integers(1, 5)))
        out.append(PairExample(a=a, b=b, label=str(rng.integers(0, 2))))
    return out


# --- optimizer ----------------------------------------------------------------


def test_adam_first_step_hand_value():
    # theta=1, g=1, lr=0.1: both corrected moments are exactly 1, so the
    # update is lr/(1 + eps) and theta lands at ~0.9
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad[:] = 1.0
    Adam({"p": p}).step(lr=0.1)
    np.testing.assert_allclose(p.data, [0.9], atol=1e-8)


def test_adam_zero_gradient_from_fresh_state_is_identity():
    p = Tensor(np.array([[1.5, -2.0], [0.25, 3.0]]), requires_grad=True)
    before = p.data.copy()
    opt = Adam({"p": p})
    opt.step(lr=0.1)
    np.testing.assert_array_equal(p.data, before)


def test_adam_matches_textbook_reference_over_steps():
    rng = np.random.default_rng(8)
    p = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    opt = Adam({"p": p}, beta1=0.9, beta2=0.999, eps=1e-8)

    theta = p.data.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t in range(1, 6):
        g = rng.normal(size=theta.shape)
        p.zero_grad()
        p.grad[:] = g
        opt.step(lr=0.01)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        theta = theta - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_allclose(p.data, theta, atol=1e-12)


# --- schedule -----------------------------------------------------------------


def test_lr_schedule_midpoint_of_decay():
    # 100 steps, 10% warmup: step 55 sits halfway down the 90-step decay
    assert lr_at(55, 100, 2e-5, 0.1) == pytest.approx(1e-5)


def test_lr_schedule_warmup_ramp():
    assert lr_at(0, 100, 1.0, 0.1) == 0.0
    assert lr_at(5, 100, 1.0, 0.1) == pytest.approx(0.5)
    assert lr_at(9, 100, 1.0, 0.1) == pytest.approx(0.9)
    assert lr_at(10, 100, 1.0, 0.1) == pytest.approx(1.0)  # peak sits on the boundary


def test_lr_schedule_decays_to_zero():
    assert lr_at(99, 100, 1.0, 0.1) == pytest.approx(1.0 / 90.0)
    assert lr_at(100, 100, 1.0, 0.1) == 0.0


def test_lr_schedule_is_continuous_and_peaks_at_base():
    values = [lr_at(s, 40, 1.0, 0.25) for s in range(41)]
    assert max(values) == pytest.approx(1.0)
    jumps = np.abs(np.diff(values))
    assert jumps.max() <= 1.0 / 10.0 + 1e-12  # no step larger than the ramp slope


def test_lr_schedule_no_warmup_and_constant_mode():
    assert lr_at(0, 50, 1.0, 0.0) == pytest.approx(1.0)
    assert lr_at(25, 50, 1.0, 0.0) == pytest.approx(0.5)
    assert lr_at(40, 100, 1.0, 0.1, constant_after_warmup=True) == pytest.approx(1.0)
    assert lr_at(99, 100, 1.0, 0.1, constant_after_warmup=True) == pytest.approx(1.0)


def test_lr_schedule_rejects_bad_steps():
    with pytest.raises(ValueError):
        lr_at(101, 100, 1.0, 0.1)
    with pytest.raises(ValueError):
        lr_at(-1, 100, 1.0, 0.1)
    with pytest.raises(ValueError):
        lr_at(0, 0, 1.0, 0.1)


# --- gradientclipping --------------------------------------------------------


def test_clip_global_norm_scales_to_bound():
    a = Tensor(np.zeros(1), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    a.grad[:] = 3.0
    b.grad[:] = 4.0
    norm = clip_global_norm({"a": a, "b": b}, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(a.grad, [0.6])
    np.testing.assert_allclose(b.grad, [0.8])


def test_clip_global_norm_leaves_small_gradients_alone():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad[:] = [0.3, 0.4]
    norm = clip_global_norm({"a": a}, max_norm=1.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_allclose(a.grad, [0.3, 0.4])


def test_clip_zero_only_measures():
    a = Tensor(np.zeros(1), requires_grad=True)
    a.grad[:] = 100.0
    assert clip_global_norm({"a": a}, max_norm=0.0) == pytest.approx(100.0)
    np.testing.assert_allclose(a.grad, [100.0])


# --- batching -----------------------------------------------------------------


def test_smart_batches_group_similar_lengths():
    lengths = [60, 4, 61, 5, 62, 6, 63, 7]
    batches = smart_batches(lengths, 4, np.random.default_rng(0))
    contents = sorted(tuple(sorted(b)) for b in batches)
    assert contents == [(0, 2, 4, 6), (1, 3, 5, 7)]  # shorts together, longs together


def test_smart_batches_shuffle_order_not_contents():
    lengths = list(range(40))
    a = smart_batches(lengths, 8, np.random.default_rng(1))
    b = smart_batches(lengths, 8, np.random.default_rng(2))
    assert sorted(map(tuple, a)) == sorted(map(tuple, b))  # same batches
    assert a != b  # different order
    c = smart_batches(lengths, 8, np.random.default_rng(1))
    assert a == c  # seeded determinism


def test_smart_batches_partition_all_indices():
    lengths = [3, 1, 4, 1, 5, 9, 2, 6]
    batches = smart_batches(lengths, 3, np.random.default_rng(7))
    flat = sorted(i for b in batches for i in b)
    assert flat == list(range(8))


def test_padded_token_count_known_value():
    # batches [[0,1],[2]] over lengths [2,5,3]: 2*5 + 1*3 = 13
    assert padded_token_count([[0, 1], [2]], [2, 5, 3]) == 13


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=120),
    batch_size=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_smart_batching_never_pads_more_than_naive(lengths, batch_size, seed):
    smart = smart_batches(lengths, batch_size, np.random.default_rng(seed))
    naive = naive_batches(len(lengths), batch_size)
    assert padded_token_count(smart, lengths) <= padded_token_count(naive, lengths)
    assert sorted(i for b in smart for i in b) == list(range(len(lengths)))


def test_smart_batches_short_batch_placed_where_it_pads_least():
    # The input order already isolates the two long sentences, so chunking
    # the sorted lengths with the remainder at the end would cost 29 vs the
    # naive 25; the short batch has to land on the middle length instead.
    lengths = [1, 1, 9, 9, 5]
    smart = smart_batches(lengths, 2, np.random.default_rng(0))
    naive = naive_batches(5, 2)
    assert padded_token_count(naive, lengths) == 25
    assert padded_token_count(smart, lengths) == 25
    assert sorted(map(sorted, smart)) == [[0, 1], [2, 3], [4]]


# --- target normalization -----------------------------------------------------


def test_normalize_targets_unit_and_symmetric():
    np.testing.assert_allclose(normalize_targets([0.0, 2.5, 5.0], 5.0, "unit"), [0.0, 0.5, 1.0])
    np.testing.assert_allclose(normalize_targets([0.0, 2.5, 5.0], 5.0, "symmetric"), [-1.0, 0.0, 1.0])


# --- config validation --------------------------------------------------------


def test_train_config_rejects_bad_values():
    cases = [("objective", "mystery"), ("lr", 0.0), ("epochs", 0), ("batch_size", 0),
             ("seed", -1), ("warmup_frac", 1.5), ("grad_clip", -1.0), ("combine_mode", "v,u"),
             ("margin", -1.0), ("score_max", 0.0), ("target_scale", "squished")]
    for field_name, value in cases:
        # the CLI prefixes "train." to the message to name the dotted field
        with pytest.raises(ValueError, match=f"^{field_name} "):
            TrainConfig(**{field_name: value})


# --- the loop itself ----------------------------------------------------------


def test_train_classification_smoke_and_metrics_schema():
    emb = tiny_embedder(seed=1)
    cfg = TrainConfig(objective="classification", lr=1e-3, epochs=2, batch_size=4, seed=5)
    result = train(emb, pair_data(), cfg)
    assert result.total_steps == 2 * 3
    assert [m["step"] for m in result.metrics] == list(range(6))
    for m in result.metrics:
        assert set(m) == {"step", "lr", "loss"}
        assert math.isfinite(m["loss"])
        assert m["lr"] >= 0
    assert max(m["lr"] for m in result.metrics) == pytest.approx(1e-3)
    assert result.label_map == {"0": 0, "1": 1}
    assert result.final_loss == result.metrics[-1]["loss"]


def test_train_is_deterministic_under_seed():
    data = pair_data()
    cfg = TrainConfig(objective="classification", lr=1e-3, epochs=2, batch_size=4, seed=9)
    emb1 = tiny_embedder(seed=3)
    r1 = train(emb1, data, cfg)
    emb2 = tiny_embedder(seed=3)
    r2 = train(emb2, data, cfg)
    assert r1.metrics == r2.metrics
    for name, p in emb1.encoder.params.items():
        np.testing.assert_array_equal(p.data, emb2.encoder.params[name].data)
    emb3 = tiny_embedder(seed=3)
    r3 = train(emb3, data, TrainConfig(objective="classification", lr=1e-3, epochs=2, batch_size=4, seed=10))
    assert r1.metrics != r3.metrics


def test_train_updates_parameters():
    emb = tiny_embedder(seed=2)
    before = {k: p.data.copy() for k, p in emb.encoder.params.items()}
    train(emb, pair_data(), TrainConfig(objective="classification", epochs=1, batch_size=4))
    changed = sum(not np.array_equal(before[k], p.data) for k, p in emb.encoder.params.items())
    assert changed == len(before)


def test_train_regression_and_triplet_paths():
    emb = tiny_embedder(seed=4)
    scored = [
        ScoredPair(a="red fish", b="red fish", score=5.0),
        ScoredPair(a="red fish", b="stone river", score=0.5),
        ScoredPair(a="blue bird", b="green bird", score=3.0),
        ScoredPair(a="cloud", b="river cloud", score=4.0),
    ]
    r = train(emb, scored, TrainConfig(objective="regression", epochs=1, batch_size=2))
    assert len(r.metrics) == 2 and r.label_map is None

    triplets = [
        TripletExample(anchor="red fish", positive="green fish", negative="stone"),
        TripletExample(anchor="blue bird", positive="bird", negative="river stone"),
    ]
    r = train(emb, triplets, TrainConfig(objective="triplet", epochs=1, batch_size=2, margin=0.5))
    assert len(r.metrics) == 1


@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("smart_batching", [True, False])
def test_train_tokenizes_each_example_text_once(encode_calls, epochs, smart_batching):
    triplets = [
        TripletExample(anchor="red fish", positive="green fish", negative="stone"),
        TripletExample(anchor="blue bird", positive="bird", negative="river stone cloud"),
        TripletExample(anchor="cloud", positive="river cloud", negative="red"),
    ]
    cfg = TrainConfig(objective="triplet", epochs=epochs, batch_size=2, smart_batching=smart_batching)
    train(tiny_embedder(seed=4), triplets, cfg)
    assert sorted(encode_calls) == sorted(text for t in triplets for text in (t.anchor, t.positive, t.negative))


def test_train_lr_trace_follows_schedule():
    emb = tiny_embedder(seed=6)
    cfg = TrainConfig(objective="classification", lr=1e-3, epochs=5, batch_size=6, warmup_frac=0.2, seed=1)
    result = train(emb, pair_data(), cfg)  # 12 examples / 6 = 2 batches, 10 steps
    want = [lr_at(s, 10, 1e-3, 0.2) for s in range(10)]
    assert [m["lr"] for m in result.metrics] == pytest.approx(want)


def test_train_mismatched_example_type_rejected():
    emb = tiny_embedder()
    with pytest.raises(TypeError):
        train(emb, pair_data(), TrainConfig(objective="triplet"))
    with pytest.raises(ValueError):
        train(emb, [], TrainConfig(objective="triplet"))


def test_train_aborts_on_non_finite_loss_with_location():
    emb = tiny_embedder(seed=0)
    emb.encoder.params["tok_emb"].data[:] = np.nan
    with pytest.raises(TrainingDivergedError) as err:
        train(emb, pair_data(), TrainConfig(objective="classification", batch_size=4))
    message = str(err.value)
    assert "step 0" in message and "lr" in message


def test_train_stops_at_the_step_whose_gradient_is_non_finite(monkeypatch):
    planted = 2

    def nan_backward(x):
        # identity forward whose backward writes NaN into every upstream gradient
        out = Tensor(x.data.copy())
        out.requires_grad = True
        out._parents = (x,)

        def backward():
            x.grad += np.nan

        out._backward = backward
        return out

    class PoisonedRegression(RegressionObjective):
        calls = 0

        def loss(self, u, v, targets):
            self.calls += 1
            loss = super().loss(u, v, targets)
            return nan_backward(loss) if self.calls == planted + 1 else loss

    monkeypatch.setattr(trainer, "RegressionObjective", PoisonedRegression)
    emb = tiny_embedder(seed=5)
    scored = [ScoredPair(a=ex.a, b=ex.b, score=float(i % 6)) for i, ex in enumerate(pair_data())]
    last_good = {}

    def snapshot(record):
        last_good.update({name: p.data.copy() for name, p in emb.encoder.params.items()})

    with pytest.raises(TrainingDivergedError) as err:
        train(emb, scored, TrainConfig(objective="regression", batch_size=2), on_step=snapshot)
    assert f"gradient norm at step {planted} (" in str(err.value)
    for name, p in emb.encoder.params.items():
        np.testing.assert_array_equal(p.data, last_good[name], err_msg=name)


def test_on_step_callback_sees_every_record():
    emb = tiny_embedder(seed=7)
    seen = []
    result = train(
        emb,
        pair_data(),
        TrainConfig(objective="classification", epochs=1, batch_size=4),
        on_step=seen.append,
    )
    assert seen == result.metrics


# --- repeated-run formatting --------------------------------------------------


def test_format_mean_std_uses_sample_std():
    assert format_mean_std([80.0, 82.0]) == "81.00 ± 1.41"  # sqrt(2)
    assert format_mean_std([84.5, 84.9, 84.6]) == f"{84.666667:.2f} ± {np.std([84.5, 84.9, 84.6], ddof=1):.2f}"


def test_format_mean_std_single_value():
    assert format_mean_std([77.7]) == "77.70 ± 0.00"


def test_epoch_eval_records_interleave_with_steps():
    emb = tiny_embedder(seed=3)
    calls = []

    def fake_eval(embedder):
        calls.append(embedder)
        return {"dev_spearman": 0.5}

    result = train(
        emb,
        pair_data(),
        TrainConfig(objective="classification", epochs=2, batch_size=4),
        epoch_eval=fake_eval,
    )
    assert calls == [emb, emb]
    epoch_records = [m for m in result.metrics if "epoch" in m]
    step_records = [m for m in result.metrics if "step" in m]
    assert [m["epoch"] for m in epoch_records] == [0, 1]
    assert epoch_records[0]["dev_spearman"] == 0.5
    assert len(step_records) == result.total_steps
    # the final_loss summary comes from the last *step* record
    assert result.final_loss == step_records[-1]["loss"]
    # each epoch record follows its epoch's last step record
    assert result.metrics.index(epoch_records[0]) == result.total_steps // 2


def test_multi_seed_run_reports_per_seed_and_summary():
    out = multi_seed_run(lambda seed: 80.0 + 2.0 * (seed % 2), [0, 1, 2, 3])
    assert [r["value"] for r in out["per_seed"]] == [80.0, 82.0, 80.0, 82.0]
    assert out["mean"] == pytest.approx(81.0)
    assert out["std"] == pytest.approx(np.std([80, 82, 80, 82], ddof=1))
    assert out["formatted"] == "81.00 ± 1.15"


def test_multi_seed_run_repeated_seed_gives_zero_stdev():
    out = multi_seed_run(lambda seed: 42.5, [7, 7, 7])
    assert out["std"] == 0.0
    assert out["formatted"] == "42.50 ± 0.00"


def test_multi_seed_run_tolerates_individual_failures():
    def flaky(seed):
        if seed == 1:
            raise RuntimeError("boom")
        return float(seed)

    out = multi_seed_run(flaky, [0, 1, 2])
    assert out["per_seed"][1] == {"seed": 1, "error": "RuntimeError: boom"}
    assert out["mean"] == pytest.approx(1.0)

    with pytest.raises(ValueError):
        multi_seed_run(flaky, [5])
    with pytest.raises(RuntimeError):
        multi_seed_run(lambda s: 1 / 0, [0, 1])
