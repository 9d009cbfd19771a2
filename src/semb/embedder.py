"""The user-facing bundle: vocabulary + encoder + pooling = text to vectors."""

from __future__ import annotations

import os
import threading

import numpy as np

from . import trainer
from .binio import FormatError
from .checkpoint import encoder_config, load_checkpoint, save_checkpoint
from .encoder import CLS_ID, PAD_ID, SEP_ID, Encoder, Vocab
from .pooling import POOLING_MODES, pool
from .tensor import Tensor, no_grad

__all__ = ["SentenceEmbedder"]

# a call starts one helper thread per this many jobs (batches or scan
# tiles), so short calls such as training-time scoring pay for no thread
_BATCHES_PER_HELPER = 32


def _worker_count() -> int:
    """Threads that can run jobs at once: usable cores per BLAS thread.

    NumPy's kernels release the GIL, so two batches' forward passes can
    run side by side. With no BLAS thread count in the environment,
    OpenBLAS already uses every core, so the answer is 1.
    """
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        blas = int(blas)
    except (TypeError, ValueError):
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(cores // blas, 1) if blas > 0 else 1


def _run_jobs(jobs, work) -> None:
    """Call `work(job)` for each job, taken in order, on this thread and on helpers.

    One helper per `_BATCHES_PER_HELPER` jobs, up to the idle cores; the
    first error from any thread is re-raised once all have stopped.
    """
    pending = iter(jobs)
    take = threading.Lock()
    errors = []

    def drain():
        try:
            while not errors:
                with take:
                    job = next(pending, None)
                if job is None:
                    return
                work(job)
        except BaseException as exc:  # re-raised in the caller once every thread has stopped
            errors.append(exc)

    helpers = [
        threading.Thread(target=drain, name="semb-embed", daemon=True)
        for _ in range(min(_worker_count() - 1, len(jobs) // _BATCHES_PER_HELPER))
    ]
    for thread in helpers:
        thread.start()
    drain()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]


class SentenceEmbedder:
    """Maps sentences to fixed-size vectors.

    `include_special` controls whether the cls/sep positions take part in
    mean and max pooling (they do by default; cls pooling always reads
    position 0).
    """

    def __init__(self, vocab: Vocab, encoder: Encoder, pooling: str = "mean", include_special: bool = True):
        if pooling not in POOLING_MODES:
            raise ValueError(f"unknown pooling mode {pooling!r}; expected one of {POOLING_MODES}")
        self.vocab = vocab
        self.encoder = encoder
        self.pooling = pooling
        self.include_special = include_special
        if vocab.size != encoder.config.vocab_size:
            raise ValueError(
                f"vocabulary has {vocab.size} ids but encoder expects {encoder.config.vocab_size}"
            )

    @property
    def dim(self) -> int:
        return self.encoder.config.dim

    def token_ids(self, texts) -> list[list[int]]:
        """Each text's ids from `Vocab.encode`, truncated to the encoder's max_seq_len."""
        max_len = self.encoder.config.max_seq_len
        return [self.vocab.encode(text, max_len) for text in texts]

    def pad(self, rows):
        """Pad id rows to the longest member; returns (ids, mask, pool_mask)."""
        width = max(len(row) for row in rows)
        ids = np.full((len(rows), width), PAD_ID, dtype=np.int64)
        mask = np.zeros((len(rows), width), dtype=self.encoder.dtype)
        for r, row in enumerate(rows):
            ids[r, : len(row)] = row
            mask[r, : len(row)] = 1.0
        if self.include_special:
            pool_mask = mask
        else:
            pool_mask = mask.copy()
            pool_mask[ids == CLS_ID] = 0.0
            pool_mask[ids == SEP_ID] = 0.0
            # a sentence with no interior tokens falls back to its markers
            empty = pool_mask.sum(axis=1) == 0
            pool_mask[empty] = mask[empty]
        return ids, mask, pool_mask

    def encode_batch(self, texts):
        """Pad a list of texts to the longest member; returns (ids, mask, pool_mask)."""
        return self.pad(self.token_ids(texts))

    def forward(self, ids, mask, pool_mask, train: bool = False) -> Tensor:
        """One differentiable forward pass over a padded batch: pooled (B, dim) vectors."""
        hidden = self.encoder.forward(ids, mask, train=train)
        return pool(hidden, pool_mask, self.pooling)

    def embed_tensor(self, texts, train: bool = False) -> Tensor:
        """One differentiable forward pass over `texts` (single padded batch)."""
        return self.forward(*self.encode_batch(texts), train=train)

    def embed(self, texts, batch_size: int = 32, smart: bool = True) -> np.ndarray:
        """Embed texts in evaluation mode; returns a float32 (len(texts), dim) array.

        Each text is tokenized once. With `smart`, texts of similar length
        share a batch, so each batch pads little; otherwise batches are
        fixed-order chunks. Either way row i is the vector of text i. The
        forward passes run under `no_grad`, so they build no graph and
        keep no gradient memory; each batch's rows have the bits
        `embed_tensor` gives for that batch.

        When the environment pins BLAS to fewer threads than there are
        usable cores (`OPENBLAS_NUM_THREADS`, else `OMP_NUM_THREADS`), a
        call of at least 32 batches also runs batches on helper threads,
        one per 32 batches up to the idle cores. Each batch is computed
        as it is serially, so rows keep their bits.
        """
        rows = self.token_ids(texts)
        # one batch pads to its longest row however it is planned, and a
        # one-text query should not pay for the plan
        if smart and len(rows) > batch_size:
            # eval batches are independent, so the rng (which only orders them) changes no row
            batches = trainer.smart_batches([len(row) for row in rows], batch_size, np.random.default_rng(0))
        else:
            batches = trainer.naive_batches(len(rows), batch_size)
        out = np.empty((len(rows), self.dim), dtype=np.float32)

        def run(batch):
            # grad mode is per thread, so every thread turns it off itself
            with no_grad():
                out[batch] = self.forward(*self.pad([rows[i] for i in batch])).data

        _run_jobs(batches, run)
        return out

    def save(self, path, objective: dict | None = None, steps: int = 0) -> None:
        save_checkpoint(
            path,
            config=self.encoder.config.to_dict(),
            pooling=self.pooling,
            include_special=self.include_special,
            vocab_tokens=self.vocab.tokens,
            params=self.encoder.params,
            objective=objective,
            steps=steps,
        )

    @classmethod
    def load(cls, path) -> "SentenceEmbedder":
        manifest, params = load_checkpoint(path)
        # the CRC covers only the tensor payload, so a manifest can parse and still be wrong
        try:
            encoder = Encoder(encoder_config(path, manifest))
            model = cls(Vocab(manifest["vocab"]), encoder, manifest["pooling"], manifest["include_special"])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: manifest rejected: {exc}") from None
        expected = set(encoder.params)
        loaded = set(params)
        if expected != loaded:
            missing = sorted(expected - loaded)
            extra = sorted(loaded - expected)
            raise FormatError(f"{path}: parameter set mismatch (missing {missing}, unexpected {extra})")
        for name, tensor_param in encoder.params.items():
            if params[name].shape != tensor_param.shape:
                raise FormatError(
                    f"{path}: parameter {name} has shape {params[name].shape}, expected {tensor_param.shape}"
                )
            tensor_param.data[...] = params[name]
        return model
