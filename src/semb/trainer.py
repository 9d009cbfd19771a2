"""Training loop: Adam, warmup/decay schedule, length-aware batching.

The three objectives share one loop. Pair or triplet members are padded
together into a single encoder batch (so tower weights are tied by
construction), pooled, split back into towers, and fed to the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import PairExample, ScoredPair, TripletExample, build_label_map
from .objectives import (
    COMBINE_MODES,
    ClassificationObjective,
    RegressionObjective,
    TripletObjective,
)
from .tensor import Tensor

__all__ = [
    "OBJECTIVES",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "Adam",
    "lr_at",
    "clip_global_norm",
    "smart_batches",
    "naive_batches",
    "padded_token_count",
    "normalize_targets",
    "example_texts",
    "train",
    "format_mean_std",
    "multi_seed_run",
]

OBJECTIVES = ("classification", "regression", "triplet")


class TrainingDivergedError(RuntimeError):
    """Loss or gradient norm went non-finite; message says where."""


@dataclass
class TrainConfig:
    """Training settings; each check's ValueError message starts with the field's name."""

    objective: str = "regression"
    lr: float = 1e-3
    epochs: int = 1
    batch_size: int = 16
    warmup_frac: float = 0.1
    constant_after_warmup: bool = False
    grad_clip: float = 1.0  # 0 disables clipping
    seed: int = 0
    combine_mode: str = "u,v,abs"
    margin: float = 1.0
    score_max: float = 5.0
    target_scale: str = "unit"  # unit -> [0, 1], symmetric -> [-1, 1]
    smart_batching: bool = True

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {', '.join(OBJECTIVES)}; got {self.objective!r}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ValueError(f"warmup_frac must be in [0, 1], got {self.warmup_frac}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.grad_clip < 0:
            raise ValueError(f"grad_clip must be non-negative, got {self.grad_clip}")
        if self.combine_mode not in COMBINE_MODES:
            raise ValueError(f"combine_mode must be one of {'; '.join(COMBINE_MODES)}; got {self.combine_mode!r}")
        if self.margin < 0:
            raise ValueError(f"margin must be non-negative, got {self.margin}")
        if self.score_max <= 0:
            raise ValueError(f"score_max must be positive, got {self.score_max}")
        if self.target_scale not in ("unit", "symmetric"):
            raise ValueError(f"target_scale must be 'unit' or 'symmetric', got {self.target_scale!r}")


@dataclass
class TrainResult:
    metrics: list  # one {"step", "lr", "loss"} dict per optimizer step
    total_steps: int
    label_map: dict | None = None
    final_loss: float = field(default=float("nan"))


class Adam:
    """Adam with bias correction; moments live beside the parameters."""

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self, lr: float):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= (lr / c1) * m / (np.sqrt(v / c2) + self.eps)


def lr_at(step: int, total_steps: int, base_lr: float, warmup_frac: float, constant_after_warmup: bool = False) -> float:
    """Learning rate for 0-based `step`: linear warmup, then linear decay to 0.

    Warmup spans round(warmup_frac * total_steps) steps; the rate rises
    from 0 at step 0 to base_lr at the warmup boundary, then falls
    linearly to 0 at total_steps. With the constant flag the post-warmup
    rate stays at base_lr instead of decaying.
    """
    if total_steps < 1:
        raise ValueError(f"total_steps must be at least 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = int(round(warmup_frac * total_steps))
    if step < warmup:
        return base_lr * step / warmup
    if constant_after_warmup or total_steps == warmup:
        return base_lr
    return base_lr * (total_steps - step) / (total_steps - warmup)


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most `max_norm`.

    Returns the pre-clip norm. `max_norm` of 0 only measures.
    """
    total = 0.0
    grads = [p.grad for p in params.values() if p.grad is not None]
    for g in grads:
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def smart_batches(lengths, batch_size: int, rng: np.random.Generator) -> list[list[int]]:
    """Batch indices by ascending length, then shuffle only the batch order.

    Examples of similar length land in the same batch, so per-batch
    padding (to the batch maximum) wastes little; shuffling whole
    batches keeps step order stochastic without mixing lengths again.

    When the corpus does not divide evenly, the one short batch is
    placed wherever along the sorted order it wastes the least padding.
    Chunking the sorted list with the remainder always at the end can
    otherwise lose to an unsorted corpus whose natural boundaries happen
    to isolate the long sentences.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    lengths = np.asarray(lengths)
    order = np.argsort(lengths, kind="stable")
    n = len(order)
    if n == 0:
        return []
    k = math.ceil(n / batch_size)
    ragged = n - (k - 1) * batch_size
    best_sizes = None
    best_cost = None
    for slot in range(k):
        sizes = [batch_size] * k
        sizes[slot] = ragged
        ends = np.cumsum(sizes)
        cost = int(np.sum(np.asarray(sizes) * lengths[order[ends - 1]]))
        if best_cost is None or cost <= best_cost:  # ties keep the latest slot
            best_cost = cost
            best_sizes = sizes
    chunks = []
    start = 0
    for size in best_sizes:
        chunks.append(order[start : start + size].tolist())
        start += size
    return [chunks[i] for i in rng.permutation(len(chunks))]


def naive_batches(count: int, batch_size: int) -> list[list[int]]:
    """Fixed-order chunks of the corpus; the baseline smart batching beats."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    return [list(range(i, min(i + batch_size, count))) for i in range(0, count, batch_size)]


def padded_token_count(batches, lengths) -> int:
    """Total token grid cells once each batch pads to its own longest member."""
    lengths = np.asarray(lengths)
    return int(sum(len(batch) * int(lengths[batch].max()) for batch in batches))


def normalize_targets(scores, score_max: float, target_scale: str) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    unit = scores / score_max
    if target_scale == "symmetric":
        return 2.0 * unit - 1.0
    return unit


def example_texts(example):
    """The texts of one training example, one per tower."""
    if isinstance(example, TripletExample):
        return (example.anchor, example.positive, example.negative)
    return (example.a, example.b)


def _check_examples(examples, objective):
    wanted = {
        "classification": PairExample,
        "regression": ScoredPair,
        "triplet": TripletExample,
    }[objective]
    for ex in examples:
        if not isinstance(ex, wanted):
            raise TypeError(
                f"objective {objective!r} expects {wanted.__name__} examples, got {type(ex).__name__}"
            )


def train(embedder, examples, cfg: TrainConfig, on_step=None, epoch_eval=None) -> TrainResult:
    """Run the full optimization; mutates the embedder's encoder in place.

    `on_step` (if given) sees each metrics record as it is produced.
    `epoch_eval` (if given) is called with the embedder after every
    epoch; its dict return lands in the metrics log as an
    {"epoch": ..., **result} record alongside the per-step ones.
    """
    examples = list(examples)
    if not examples:
        raise ValueError("no training examples")
    _check_examples(examples, cfg.objective)
    encoder = embedder.encoder

    label_map = None
    if cfg.objective == "classification":
        label_map = build_label_map(ex.label for ex in examples)
        objective = ClassificationObjective(
            embedder.dim, len(label_map), mode=cfg.combine_mode, seed=cfg.seed, dtype=encoder.dtype
        )
    elif cfg.objective == "regression":
        objective = RegressionObjective()
    else:
        objective = TripletObjective(margin=cfg.margin)

    params = {**encoder.params, **objective.parameters()}
    adam = Adam(params)

    # every text is tokenized once; the length plan and each step's forward reuse its ids
    rows = [embedder.token_ids(example_texts(ex)) for ex in examples]
    lengths = [max(len(ids) for ids in example_rows) for example_rows in rows]
    batches_per_epoch = math.ceil(len(examples) / cfg.batch_size)
    total_steps = cfg.epochs * batches_per_epoch

    if cfg.objective == "regression":
        targets_all = normalize_targets([ex.score for ex in examples], cfg.score_max, cfg.target_scale)

    metrics = []
    step = 0
    for epoch in range(cfg.epochs):
        if cfg.smart_batching:
            epoch_batches = smart_batches(lengths, cfg.batch_size, np.random.default_rng((cfg.seed, epoch)))
        else:
            epoch_batches = naive_batches(len(examples), cfg.batch_size)
        for batch_no, idx in enumerate(epoch_batches):
            batch = [examples[i] for i in idx]
            lr = lr_at(step, total_steps, cfg.lr, cfg.warmup_frac, cfg.constant_after_warmup)

            towers = len(rows[idx[0]])
            batch_rows = [rows[i][position] for position in range(towers) for i in idx]
            pooled = embedder.forward(*embedder.pad(batch_rows), train=True)
            b = len(batch)
            parts = [T.slice_rows(pooled, k * b, (k + 1) * b) for k in range(towers)]

            if cfg.objective == "classification":
                labels = np.array([label_map[ex.label] for ex in batch])
                loss = objective.loss(parts[0], parts[1], labels)
            elif cfg.objective == "regression":
                loss = objective.loss(parts[0], parts[1], targets_all[idx])
            else:
                loss = objective.loss(parts[0], parts[1], parts[2])

            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise TrainingDivergedError(
                    f"non-finite loss at step {step} (epoch {epoch}, batch {batch_no}, lr {lr:.3g})"
                )

            for p in params.values():
                p.zero_grad()
            loss.backward()
            # a NaN norm would skip the clip (NaN > max_norm is false) and Adam
            # would write it into every weight, so stop before the update
            grad_norm = clip_global_norm(params, cfg.grad_clip)
            if not math.isfinite(grad_norm):
                raise TrainingDivergedError(
                    f"non-finite gradient norm at step {step} (epoch {epoch}, batch {batch_no}, lr {lr:.3g})"
                )
            adam.step(lr)

            record = {"step": step, "lr": lr, "loss": loss_value}
            metrics.append(record)
            if on_step is not None:
                on_step(record)
            step += 1
        if epoch_eval is not None:
            record = {"epoch": epoch, **epoch_eval(embedder)}
            metrics.append(record)
            if on_step is not None:
                on_step(record)

    final_loss = next(m["loss"] for m in reversed(metrics) if "loss" in m)
    return TrainResult(
        metrics=metrics,
        total_steps=total_steps,
        label_map=label_map,
        final_loss=final_loss,
    )


def format_mean_std(values) -> str:
    """Render repeated-run results as mean ± sample standard deviation."""
    values = list(values)
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return f"{mean:.2f} ± {std:.2f}"


def multi_seed_run(run_one, seeds) -> dict:
    """Train/evaluate once per seed and summarize the metric across seeds.

    `run_one(seed)` returns a single float metric. A failing seed does
    not abort the sweep: its error is recorded per seed and the summary
    covers the seeds that finished. Needs at least two seeds (a single
    run has no spread to report); repeating a seed is allowed and, with
    a deterministic run_one, shows up as a zero stdev.
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ValueError(f"need at least 2 seeds, got {len(seeds)}")
    per_seed = []
    values = []
    for seed in seeds:
        try:
            value = float(run_one(seed))
        except Exception as exc:
            per_seed.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
        else:
            per_seed.append({"seed": seed, "value": value})
            values.append(value)
    if not values:
        failures = "; ".join(f"seed {r['seed']}: {r['error']}" for r in per_seed)
        raise RuntimeError(f"every seed failed ({failures})")
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return {
        "per_seed": per_seed,
        "mean": mean,
        "std": std,
        "formatted": format_mean_std(values),
    }
