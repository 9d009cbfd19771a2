import numpy as np
import pytest
import scipy.stats

from semb.data import ScoredPair, TripletExample
from semb.evaluation import (
    ConstantInputError,
    DegenerateEvalError,
    SIMILARITY_METRICS,
    TRIPLET_METRICS,
    EvalConfig,
    evaluate_similarity,
    fractional_ranks,
    pair_scores,
    pearson,
    probe_accuracy,
    spearman,
    stratified_folds,
    triplet_accuracy,
)


# --- ranks and correlations (scipy as the independent reference) -------------


def test_fractional_ranks_simple():
    np.testing.assert_array_equal(fractional_ranks([10.0, 30.0, 20.0]), [1.0, 3.0, 2.0])


def test_fractional_ranks_average_ties():
    # two values tied for positions 2 and 3 both get 2.5
    np.testing.assert_array_equal(fractional_ranks([1.0, 5.0, 5.0, 9.0]), [1.0, 2.5, 2.5, 4.0])


def test_fractional_ranks_match_scipy_rankdata():
    rng = np.random.default_rng(0)
    for _ in range(20):
        # integer draws force plenty of ties
        x = rng.integers(0, 10, size=50).astype(float)
        np.testing.assert_allclose(fractional_ranks(x), scipy.stats.rankdata(x, method="average"), atol=1e-12)


def test_pearson_hand_value():
    # near-linear triple: r = 3 / sqrt(2 * 14/3)
    assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.9819805060619659, abs=1e-12)


def test_pearson_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(size=40)
        y = 0.5 * x + rng.normal(size=40)
        assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y).statistic, abs=1e-12)


def test_spearman_matches_scipy_including_ties():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.integers(0, 8, size=60).astype(float)
        y = x + rng.integers(0, 4, size=60)
        assert spearman(x, y) == pytest.approx(scipy.stats.spearmanr(x, y).statistic, abs=1e-12)


def test_spearman_perfect_monotone_is_one():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert spearman(x, np.exp(x)) == pytest.approx(1.0)
    assert spearman(x, -np.exp(x)) == pytest.approx(-1.0)


def test_constant_input_raises():
    with pytest.raises(ConstantInputError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConstantInputError):
        spearman([2.0, 2.0], [1.0, 5.0])
    with pytest.raises(ConstantInputError):
        pearson([1.0], [2.0])


# --- similarity metrics -------------------------------------------------------


def test_pair_scores_cosine_known_values():
    u = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    v = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    np.testing.assert_allclose(pair_scores(u, v, "cosine"), [0.0, 1.0, 0.8], atol=1e-12)


def test_pair_scores_cosine_refuses_zero_norm_rows():
    u = np.array([[1.0, 0.0], [0.0, 0.0]])
    v = np.array([[0.0, 1.0], [3.0, 4.0]])
    with pytest.raises(DegenerateEvalError) as err:
        pair_scores(u, v, "cosine")
    assert "row 1" in str(err.value)
    # the distance metrics have no such restriction
    np.testing.assert_allclose(pair_scores(u, v, "neg_euclidean"), [-np.sqrt(2.0), -5.0])


def test_pair_scores_distance_metrics():
    u = np.array([[0.0, 0.0]])
    v = np.array([[3.0, 4.0]])
    np.testing.assert_allclose(pair_scores(u, v, "neg_euclidean"), [-5.0])
    np.testing.assert_allclose(pair_scores(u, v, "neg_manhattan"), [-7.0])
    with pytest.raises(ValueError):
        pair_scores(u, v, "dot")


def test_evaluate_similarity_recovers_planted_order():
    # embeddings handed straight through: similarity is fully determined
    vectors = {
        "a0": [1.0, 0.0],
        "b0": [1.0, 0.05],
        "a1": [0.0, 1.0],
        "b1": [0.4, 1.0],
        "a2": [1.0, 1.0],
        "b2": [-1.0, 1.0],
        "a3": [1.0, -1.0],
        "b3": [-1.0, 1.0],
    }

    def embed(texts):
        return np.array([vectors[t] for t in texts])

    pairs = [
        ScoredPair("a0", "b0", 5.0),
        ScoredPair("a1", "b1", 4.0),
        ScoredPair("a2", "b2", 2.0),
        ScoredPair("a3", "b3", 0.0),
    ]
    report = evaluate_similarity(embed, pairs)
    assert report["spearman"] == pytest.approx(1.0)
    assert report["n"] == 4 and report["metric"] == "cosine"


def test_evaluate_similarity_invariant_to_rotation_and_scale():
    rng = np.random.default_rng(12)
    base = rng.normal(size=(40, 6))
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))  # orthogonal
    pairs = [ScoredPair(f"a{i}", f"b{i}", float(rng.uniform(0, 5))) for i in range(20)]

    def embed_with(transform):
        def embed(texts):
            rows = np.array([base[int(t[1:]) * 2 + (t[0] == "b")] for t in texts])
            return transform(rows)

        return embed

    plain = evaluate_similarity(embed_with(lambda r: r), pairs)
    rotated = evaluate_similarity(embed_with(lambda r: r @ q), pairs)
    scaled = evaluate_similarity(embed_with(lambda r: 7.5 * r), pairs)
    assert rotated["spearman"] == pytest.approx(plain["spearman"], abs=1e-12)
    assert rotated["pearson"] == pytest.approx(plain["pearson"], abs=1e-9)
    assert scaled["spearman"] == pytest.approx(plain["spearman"], abs=1e-12)
    assert scaled["pearson"] == pytest.approx(plain["pearson"], abs=1e-9)


def test_evaluate_similarity_requires_two_pairs():
    with pytest.raises(DegenerateEvalError):
        evaluate_similarity(lambda ts: np.ones((len(ts), 2)), [ScoredPair("a", "b", 1.0)])


def test_evaluate_similarity_constant_predictions_degenerate():
    pairs = [ScoredPair("a", "b", 1.0), ScoredPair("c", "d", 3.0)]
    with pytest.raises(ConstantInputError):
        evaluate_similarity(lambda ts: np.ones((len(ts), 4)), pairs)


# --- triplet accuracy ---------------------------------------------------------


def test_triplet_accuracy_counts_strict_wins():
    vectors = {"a": [0.0, 0.0], "p": [1.0, 0.0], "n": [3.0, 0.0], "q": [0.1, 0.0], "far": [9.0, 9.0]}

    def embed(texts):
        return np.array([vectors[t] for t in texts])

    trips = [
        TripletExample("a", "p", "n"),   # win: 1 < 3
        TripletExample("a", "far", "q"),  # loss
    ]
    assert triplet_accuracy(embed, trips) == 0.5


def test_triplet_tie_is_a_failure():
    vectors = {"a": [0.0, 0.0], "p": [1.0, 0.0], "n": [-1.0, 0.0]}

    def embed(texts):
        return np.array([vectors[t] for t in texts])

    assert triplet_accuracy(embed, [TripletExample("a", "p", "n")]) == 0.0


def test_triplet_accuracy_cosine_distance_metric():
    vectors = {"a": [1.0, 0.0], "p": [1.0, 0.1], "n": [0.0, 1.0]}

    def embed(texts):
        return np.array([vectors[t] for t in texts])

    assert triplet_accuracy(embed, [TripletExample("a", "p", "n")], metric="cosine_distance") == 1.0
    with pytest.raises(ValueError):
        triplet_accuracy(embed, [TripletExample("a", "p", "n")], metric="dot")
    with pytest.raises(DegenerateEvalError):
        triplet_accuracy(embed, [])


# --- one embed call per evaluation -------------------------------------------


class CountingEmbed:
    """A fake `embed`: each text's fixed float32 row, and the texts of every call."""

    def __init__(self, texts, dim=5, seed=0):
        rng = np.random.default_rng(seed)
        self.rows = {t: rng.normal(size=dim).astype(np.float32) for t in texts}
        self.calls = []

    def __call__(self, texts):
        self.calls.append(list(texts))
        return np.array([self.rows[t] for t in texts])


def scored_pairs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [ScoredPair(f"a{i}", f"b{i}", float(rng.uniform(0, 5))) for i in range(n)]


def triplets(n):
    return [TripletExample(f"x{i}", f"p{i}", f"n{i}") for i in range(n)]


@pytest.mark.parametrize("metric", SIMILARITY_METRICS)
def test_evaluate_similarity_embeds_both_towers_in_one_call(metric):
    pairs = scored_pairs(23, seed=4)
    embed = CountingEmbed([t for p in pairs for t in (p.a, p.b)], seed=5)
    report = evaluate_similarity(embed, pairs, metric=metric)
    assert embed.calls == [[p.a for p in pairs] + [p.b for p in pairs]]
    # the per-tower computation on the same fake
    predicted = pair_scores(embed([p.a for p in pairs]), embed([p.b for p in pairs]), metric)
    gold = [p.score for p in pairs]
    assert report == {"spearman": spearman(predicted, gold), "pearson": pearson(predicted, gold), "n": 23,
                      "metric": metric}


@pytest.mark.parametrize("metric", TRIPLET_METRICS)
def test_triplet_accuracy_embeds_all_three_towers_in_one_call(metric):
    trips = triplets(31)
    embed = CountingEmbed([t for x in trips for t in (x.anchor, x.positive, x.negative)], seed=6)
    accuracy = triplet_accuracy(embed, trips, metric=metric)
    assert embed.calls == [[t.anchor for t in trips] + [t.positive for t in trips] + [t.negative for t in trips]]
    a, p, n = (np.asarray(embed([getattr(t, f) for t in trips]), dtype=np.float64)
               for f in ("anchor", "positive", "negative"))
    if metric == "euclidean":
        wins = np.linalg.norm(a - p, axis=1) < np.linalg.norm(a - n, axis=1)
    else:
        wins = (1.0 - pair_scores(a, p)) < (1.0 - pair_scores(a, n))
    assert 0.0 < accuracy < 1.0
    assert accuracy == float(np.mean(wins))


# --- stratified folds ---------------------------------------------------------


def test_stratified_folds_partition_and_balance():
    labels = np.array([0] * 20 + [1] * 30)
    folds = stratified_folds(labels, k=5, seed=3)
    flat = np.sort(np.concatenate(folds))
    np.testing.assert_array_equal(flat, np.arange(50))
    for fold in folds:
        assert np.sum(labels[fold] == 0) == 4
        assert np.sum(labels[fold] == 1) == 6


def test_stratified_folds_seeded():
    labels = np.array([0, 1] * 25)
    a = stratified_folds(labels, 5, seed=1)
    b = stratified_folds(labels, 5, seed=1)
    c = stratified_folds(labels, 5, seed=2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


# --- linear probe -------------------------------------------------------------


def test_probe_separates_clean_blobs():
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(60, 5)) + np.array([4.0, 0, 0, 0, 0])
    x1 = rng.normal(size=(60, 5)) - np.array([4.0, 0, 0, 0, 0])
    features = np.vstack([x0, x1])
    labels = np.array(["a"] * 60 + ["b"] * 60)
    report = probe_accuracy(features, labels, k=10, seed=0)
    assert report["accuracy"] >= 0.97
    assert len(report["fold_accuracies"]) == 10


def test_probe_near_chance_on_shuffled_labels():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(200, 6))
    labels = rng.permutation(np.array([0, 1] * 100))
    report = probe_accuracy(features, labels, k=10, seed=0)
    assert 0.3 <= report["accuracy"] <= 0.7


def test_probe_cannot_solve_xor_linearly():
    # linearly inseparable by construction; a correct linear probe stays near chance
    rng = np.random.default_rng(6)
    signs = rng.choice([-1.0, 1.0], size=(400, 2))
    features = signs + rng.normal(scale=0.05, size=(400, 2))
    labels = (signs[:, 0] * signs[:, 1] > 0).astype(int)
    report = probe_accuracy(features, labels, k=10, seed=0)
    assert report["accuracy"] <= 0.65


def test_probe_three_classes():
    rng = np.random.default_rng(7)
    centers = np.array([[5.0, 0.0], [-5.0, 0.0], [0.0, 5.0]])
    features = np.vstack([rng.normal(size=(40, 2)) + c for c in centers])
    labels = np.repeat(["x", "y", "z"], 40)
    assert probe_accuracy(features, labels, k=10, seed=0)["accuracy"] >= 0.95


def test_probe_rejects_degenerate_inputs():
    rng = np.random.default_rng(8)
    features = rng.normal(size=(30, 3))
    with pytest.raises(DegenerateEvalError):
        probe_accuracy(features, np.zeros(30), k=10)  # one class
    with pytest.raises(DegenerateEvalError):
        probe_accuracy(features[:4], np.array([0, 1, 0, 1]), k=10)  # fewer examples than folds


def test_probe_skips_folds_missing_a_class_in_training():
    # a singleton class lands in exactly one fold; training data for that
    # fold has no example of it, so the fold is reported and skipped
    rng = np.random.default_rng(15)
    features = rng.normal(size=(31, 3))
    labels = np.array([0] * 15 + [1] * 15 + [2])
    features[labels == 1] += 6.0
    features[labels == 2] -= 6.0
    report = probe_accuracy(features, labels, k=5, seed=0)
    assert len(report["fold_accuracies"]) == 4
    assert len(report["warnings"]) == 1
    assert "absent from training split" in report["warnings"][0]


def test_probe_thin_class_spread_over_folds_still_scores_all():
    rng = np.random.default_rng(8)
    features = rng.normal(size=(30, 3))
    labels = np.array([0] * 25 + [1] * 5)
    features[labels == 1] += 5.0
    report = probe_accuracy(features, labels, k=10, seed=0)
    # five members span five distinct folds, so every training split sees class 1
    assert len(report["fold_accuracies"]) == 10
    assert report["warnings"] == []


def test_probe_deterministic_under_seed():
    rng = np.random.default_rng(9)
    features = rng.normal(size=(80, 4))
    labels = np.array([0, 1] * 40)
    a = probe_accuracy(features, labels, k=5, seed=2)
    b = probe_accuracy(features, labels, k=5, seed=2)
    assert a == b


# --- config ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value, said",
    [("folds", 2.5, "must be an integer"), ("probe_epochs", True, "must be an integer"),
     ("seed", "0", "must be an integer"), ("seed", 2**63, f"must be at most {2**63 - 1}, got {2**63}"),
     ("probe_lr", float("inf"), "must be a finite number"), ("probe_l2", None, "must be a finite number"),
     ("similarity", 1, "must be a string"), ("folds", 1, "must be at least 2, got 1")],
)
def test_eval_config_error_starts_with_the_field(field, value, said):
    # the CLI prefixes "eval." to the message to name the dotted field
    with pytest.raises(ValueError) as refused:
        EvalConfig(**{field: value})
    assert str(refused.value) == f"{field} {said}"
