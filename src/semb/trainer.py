"""Training loop: Adam, warmup/decay schedule, length-aware batching.

The three objectives share one loop. Pair or triplet members are padded
together into a single encoder batch (so tower weights are tied by
construction), pooled, split back into towers, and fed to the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import data
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
    "Objective",
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


class Objective(NamedTuple):
    """What one training objective needs from the rest of the program."""

    example: type  # the example type `train` accepts
    reader: Callable  # the `semb.data` reader of its training files
    recorded: tuple[str, ...]  # the TrainConfig fields its checkpoint manifest records


OBJECTIVES = {
    "classification": Objective(PairExample, data.load_classification_pairs, ("combine_mode",)),
    "regression": Objective(ScoredPair, data.load_scored_pairs, ("score_max", "target_scale")),
    "triplet": Objective(TripletExample, data.load_triplets, ("margin",)),
}


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
        data.check_fields(self)
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
    metrics: list  # one {"step", "lr", "loss", "grad_norm", "clipped"} dict per optimizer step
    total_steps: int
    label_map: dict | None = None
    final_loss: float = field(default=float("nan"))


_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and denominator guard


class Adam:
    """Adam with bias correction over one flat buffer of every parameter.

    At construction each parameter's `data` and current `grad` are
    copied, in order, into one contiguous array each (`data`, `grad`),
    and the parameter keeps reshaped views of them. A step is then one
    vectorized update, and zeroing or clipping every gradient is one
    pass over `grad`. All parameters must share one dtype.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = dict(params)
        self.t = 0
        tensors = list(self.params.values())
        dtypes = {p.data.dtype for p in tensors}
        if len(dtypes) != 1:
            raise TypeError(f"Adam: parameters must share one dtype, got {sorted(d.name for d in dtypes)}")
        total = sum(p.data.size for p in tensors)
        self.data = np.empty(total, dtypes.pop())
        self.grad = np.zeros_like(self.data)
        start = 0
        for p in tensors:
            stop = start + p.data.size
            self.data[start:stop] = p.data.reshape(-1)
            if p.grad is not None:
                self.grad[start:stop] = p.grad.reshape(-1)
            p.data = self.data[start:stop].reshape(p.data.shape)
            p.grad = self.grad[start:stop].reshape(p.data.shape)
            start = stop
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)

    def step(self, lr: float):
        self.t += 1
        c1 = 1.0 - _BETA1**self.t
        c2 = 1.0 - _BETA2**self.t
        g = self.grad
        self.m *= _BETA1
        self.m += (1.0 - _BETA1) * g
        self.v *= _BETA2
        self.v += (1.0 - _BETA2) * g * g
        self.data -= (lr / c1) * self.m / (np.sqrt(self.v / c2) + _ADAM_EPS)


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


def clip_global_norm(grads, max_norm: float) -> float:
    """Scale the gradient arrays `grads` in place so their joint L2 norm is at most `max_norm`.

    Returns the pre-clip norm. `max_norm` of 0 only measures.
    """
    norm = math.sqrt(sum(float(np.sum(np.square(g, dtype=np.float64))) for g in grads))
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
    to isolate the long sentences; one pass of prefix sums prices each slot.
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
    # batch i pads to sorted index (i + 1) * batch_size - 1 before the slot, i * batch_size + ragged - 1 from it on
    ordered = lengths[order].astype(np.int64)
    before = batch_size * ordered[batch_size - 1 :: batch_size][: k - 1]
    after = ordered[ragged - 1 :: batch_size]
    cost = np.concatenate(([0], np.cumsum(before))) + ragged * after + batch_size * (after.sum() - np.cumsum(after))
    slot = k - 1 - int(np.argmin(cost[::-1]))  # ties keep the latest slot
    cuts = np.arange(1, k) * batch_size
    cuts[slot:] -= batch_size - ragged
    chunks = np.split(order, cuts)
    return [chunks[i].tolist() for i in rng.permutation(k)]


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


def _head(embedder, examples, cfg: TrainConfig):
    """The objective's loss module, each example's target (None for triplets) and the label map."""
    if cfg.objective == "classification":
        label_map = build_label_map(ex.label for ex in examples)
        head = ClassificationObjective(
            embedder.dim, len(label_map), mode=cfg.combine_mode, seed=cfg.seed, dtype=embedder.encoder.dtype
        )
        return head, np.array([label_map[ex.label] for ex in examples]), label_map
    if cfg.objective == "regression":
        targets = normalize_targets([ex.score for ex in examples], cfg.score_max, cfg.target_scale)
        return RegressionObjective(), targets, None
    return TripletObjective(margin=cfg.margin), None, None


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
    wanted = OBJECTIVES[cfg.objective].example
    for ex in examples:
        if not isinstance(ex, wanted):
            raise TypeError(f"objective {cfg.objective!r} expects {wanted.__name__} examples, got {type(ex).__name__}")
    objective, targets, label_map = _head(embedder, examples, cfg)
    params = {**embedder.encoder.params, **objective.parameters()}
    adam = Adam(params)

    # every text is tokenized once; the length plan and each step's forward reuse its ids
    rows = [embedder.token_ids(example_texts(ex)) for ex in examples]
    lengths = [max(len(ids) for ids in example_rows) for example_rows in rows]
    batches_per_epoch = math.ceil(len(examples) / cfg.batch_size)
    total_steps = cfg.epochs * batches_per_epoch

    metrics = []
    step = 0
    for epoch in range(cfg.epochs):
        if cfg.smart_batching:
            epoch_batches = smart_batches(lengths, cfg.batch_size, np.random.default_rng((cfg.seed, epoch)))
        else:
            epoch_batches = naive_batches(len(examples), cfg.batch_size)
        for batch_no, idx in enumerate(epoch_batches):
            lr = lr_at(step, total_steps, cfg.lr, cfg.warmup_frac, cfg.constant_after_warmup)

            towers = len(rows[idx[0]])
            batch_rows = [rows[i][position] for position in range(towers) for i in idx]
            pooled = embedder.forward(*embedder.pad(batch_rows), train=True)
            b = len(idx)
            parts = [T.slice_rows(pooled, k * b, (k + 1) * b) for k in range(towers)]
            if targets is not None:
                parts.append(targets[idx])
            loss = objective.loss(*parts)

            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise TrainingDivergedError(
                    f"non-finite loss at step {step} (epoch {epoch}, batch {batch_no}, lr {lr:.3g})"
                )

            adam.grad.fill(0.0)
            loss.backward()
            # a NaN norm would skip the clip (NaN > max_norm is false) and Adam
            # would write it into every weight, so stop before the update
            grad_norm = clip_global_norm([adam.grad], cfg.grad_clip)
            if not math.isfinite(grad_norm):
                raise TrainingDivergedError(
                    f"non-finite gradient norm at step {step} (epoch {epoch}, batch {batch_no}, lr {lr:.3g})"
                )
            adam.step(lr)

            clipped = cfg.grad_clip > 0 and grad_norm > cfg.grad_clip
            record = {"step": step, "lr": lr, "loss": loss_value, "grad_norm": grad_norm, "clipped": clipped}
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
