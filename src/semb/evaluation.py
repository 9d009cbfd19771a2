"""Embedding quality measures: rank correlation, triplet accuracy, probes.

Everything here consumes plain numpy arrays or an `embed(texts)`
callable, so trained encoders and synthetic features evaluate through
the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import _softmax_rows

__all__ = [
    "DegenerateEvalError",
    "ConstantInputError",
    "fractional_ranks",
    "pearson",
    "spearman",
    "pair_scores",
    "SIMILARITY_METRICS",
    "TRIPLET_METRICS",
    "evaluate_similarity",
    "triplet_accuracy",
    "stratified_folds",
    "probe_accuracy",
    "EvalConfig",
]

SIMILARITY_METRICS = ("cosine", "neg_euclidean", "neg_manhattan")


class DegenerateEvalError(ValueError):
    """The evaluation input cannot produce a meaningful number."""


class ConstantInputError(DegenerateEvalError):
    """A correlation input has no variance."""


def fractional_ranks(x) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"pearson: need two equal-length 1-D arrays, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ConstantInputError(f"correlation needs at least 2 points, got {x.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt(np.sum(dx * dx) * np.sum(dy * dy))
    if denom == 0.0:
        raise ConstantInputError("correlation undefined: an input is constant")
    return float(np.sum(dx * dy) / denom)


def spearman(x, y) -> float:
    """Rank correlation: Pearson over fractional ranks."""
    return pearson(fractional_ranks(x), fractional_ranks(y))


def pair_scores(u: np.ndarray, v: np.ndarray, metric: str = "cosine") -> np.ndarray:
    """Row-wise similarity between two (n, dim) arrays.

    A zero-norm row has no direction, so cosine is refused for it; the
    distance metrics accept any rows.
    """
    if metric not in SIMILARITY_METRICS:
        raise ValueError(f"unknown similarity metric {metric!r}; expected one of {SIMILARITY_METRICS}")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if metric == "cosine":
        norms = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        if not np.all(norms > 0.0):
            row = int(np.argmin(norms > 0.0))
            raise DegenerateEvalError(f"cosine is undefined for the zero-norm embedding at row {row}")
        return np.sum(u * v, axis=1) / norms
    if metric == "neg_euclidean":
        return -np.linalg.norm(u - v, axis=1)
    return -np.sum(np.abs(u - v), axis=1)


def evaluate_similarity(embed, pairs, metric: str = "cosine") -> dict:
    """Spearman/Pearson of predicted similarity against gold scores.

    `embed` maps a list of texts to an array of vectors; `pairs` are
    ScoredPair records.
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise DegenerateEvalError(f"similarity evaluation needs at least 2 pairs, got {len(pairs)}")
    u = np.asarray(embed([p.a for p in pairs]))
    v = np.asarray(embed([p.b for p in pairs]))
    predicted = pair_scores(u, v, metric)
    gold = np.array([p.score for p in pairs], dtype=np.float64)
    return {
        "spearman": spearman(predicted, gold),
        "pearson": pearson(predicted, gold),
        "n": len(pairs),
        "metric": metric,
    }


TRIPLET_METRICS = ("euclidean", "cosine_distance")


def triplet_accuracy(embed, triplets, metric: str = "euclidean") -> float:
    """Fraction of triplets whose anchor sits strictly closer to the positive.

    Ties count as failures. `metric` is euclidean or cosine_distance
    (1 - cosine, so smaller still means more similar).
    """
    if metric not in TRIPLET_METRICS:
        raise ValueError(f"unknown triplet metric {metric!r}; expected one of {TRIPLET_METRICS}")
    triplets = list(triplets)
    if not triplets:
        raise DegenerateEvalError("triplet evaluation needs at least 1 triplet")
    a = np.asarray(embed([t.anchor for t in triplets]), dtype=np.float64)
    p = np.asarray(embed([t.positive for t in triplets]), dtype=np.float64)
    n = np.asarray(embed([t.negative for t in triplets]), dtype=np.float64)
    if metric == "euclidean":
        wins = np.linalg.norm(a - p, axis=1) < np.linalg.norm(a - n, axis=1)
    else:
        wins = (1.0 - pair_scores(a, p, "cosine")) < (1.0 - pair_scores(a, n, "cosine"))
    return float(np.mean(wins))


def stratified_folds(labels, k: int, seed: int) -> list[np.ndarray]:
    """Split indices into k folds, dealing each class round-robin after a seeded shuffle."""
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for value in np.unique(labels):
        members = np.flatnonzero(labels == value)
        members = members[rng.permutation(members.size)]
        for slot, index in enumerate(members):
            folds[slot % k].append(int(index))
    return [np.sort(np.array(fold, dtype=np.int64)) for fold in folds]


def _fit_logistic(x, y, n_classes, steps, lr, l2):
    # full-batch gradient descent on multinomial logistic regression;
    # zero init is fine, the problem is convex
    n, d = x.shape
    w = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    onehot = np.eye(n_classes)[y]
    for _ in range(steps):
        probs = _softmax_rows(x @ w + b)
        delta = (probs - onehot) / n
        w -= lr * (x.T @ delta + l2 * w)
        b -= lr * delta.sum(axis=0)
    return w, b


def probe_accuracy(features, labels, k: int = 10, seed: int = 0, steps: int = 300, lr: float = 0.5, l2: float = 1e-3) -> dict:
    """Cross-validated linear-probe accuracy of `features` for `labels`.

    Features are standardized per training fold; the probe is a
    multinomial logistic regression trained by full-batch gradient
    descent. Returns the mean accuracy and the per-fold values.

    A fold whose training split lacks some class (possible when a class
    has a single example) is skipped rather than scored, and the skip is
    reported in the result's "warnings".
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError(f"probe: features {x.shape} and labels {y.shape} do not line up")
    values, y_idx = np.unique(y, return_inverse=True)
    if values.size < 2:
        raise DegenerateEvalError("probe needs at least 2 classes")
    if x.shape[0] < k:
        raise DegenerateEvalError(f"probe with {k} folds needs at least {k} examples, got {x.shape[0]}")
    accuracies = []
    warnings = []
    for fold_no, fold in enumerate(stratified_folds(y_idx, k, seed)):
        test_mask = np.zeros(x.shape[0], dtype=bool)
        test_mask[fold] = True
        x_train, y_train = x[~test_mask], y_idx[~test_mask]
        x_test, y_test = x[test_mask], y_idx[test_mask]
        if x_test.shape[0] == 0:
            warnings.append(f"fold {fold_no} skipped: empty test split")
            continue
        absent = set(range(values.size)) - set(y_train)
        if absent:
            names = ", ".join(repr(values[i]) for i in sorted(absent))
            warnings.append(f"fold {fold_no} skipped: class {names} absent from training split")
            continue
        mu = x_train.mean(axis=0)
        sd = x_train.std(axis=0)
        sd = np.where(sd > 0.0, sd, 1.0)
        w, b = _fit_logistic((x_train - mu) / sd, y_train, values.size, steps, lr, l2)
        predictions = np.argmax((x_test - mu) / sd @ w + b, axis=1)
        accuracies.append(float(np.mean(predictions == y_test)))
    if not accuracies:
        raise DegenerateEvalError(f"probe: all {k} folds were skipped ({'; '.join(warnings)})")
    return {
        "accuracy": float(np.mean(accuracies)),
        "fold_accuracies": accuracies,
        "k": k,
        "warnings": warnings,
    }


@dataclass
class EvalConfig:
    """The metrics and linear-probe settings that evaluation runs with."""

    similarity: str = "cosine"
    triplet_metric: str = "euclidean"
    folds: int = 10
    seed: int = 0
    probe_lr: float = 0.5
    probe_epochs: int = 300
    probe_l2: float = 1e-3

    def __post_init__(self):
        if self.similarity not in SIMILARITY_METRICS:
            raise ValueError(f"similarity must be one of {', '.join(SIMILARITY_METRICS)}; got {self.similarity!r}")
        if self.triplet_metric not in TRIPLET_METRICS:
            raise ValueError(f"triplet_metric must be one of {', '.join(TRIPLET_METRICS)}; got {self.triplet_metric!r}")
        for name, least in (("folds", 2), ("seed", 0), ("probe_epochs", 1), ("probe_l2", 0.0)):
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not self.probe_lr > 0.0:
            raise ValueError(f"probe_lr must be above 0.0, got {self.probe_lr}")
