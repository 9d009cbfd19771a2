"""The user-facing bundle: vocabulary + encoder + pooling = text to vectors."""

from __future__ import annotations

import os
import threading

import numpy as np

from . import trainer
from .binio import FormatError
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import CLS_ID, PAD_ID, SEP_ID, Encoder, EncoderConfig, Vocab
from .pooling import POOLING_MODES, pool
from .tensor import Tensor, no_grad

__all__ = ["SentenceEmbedder"]

# a call starts one helper thread per this many batches of its plan (or
# scan tiles), so short calls such as training-time scoring pay for no thread
_BATCHES_PER_HELPER = 32

# an inference forward's widest activation, (tokens, max(ffn_dim, 3 * dim)),
# is kept near this size, so that it and the temporaries of the ops on it
# stay in a core's L2 cache (BENCH_embed_slabs.json records the sweep, run
# at the default dims only)
_SLAB_BYTES = 896 * 1024


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


def _run_jobs(jobs, work, count: int | None = None) -> None:
    """Call `work(job)` for each job, taken in order, on this thread and on helpers.

    One helper per `_BATCHES_PER_HELPER` of `count` (the number of jobs
    unless given), up to the idle cores; the first error from any thread
    is re-raised once all have stopped.
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
        for _ in range(min(_worker_count() - 1, (len(jobs) if count is None else count) // _BATCHES_PER_HELPER))
    ]
    for thread in helpers:
        thread.start()
    drain()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]


def _slabs(rows, batches, budget: int) -> list[tuple[int, list[int]]]:
    """(width, text indices) per forward: the batches' rows grouped by their
    batch's padded width, widest first, each group cut evenly into pieces of
    at most `budget` tokens (one row at least)."""
    groups = {}
    for batch in batches:
        groups.setdefault(max(len(rows[i]) for i in batch), []).extend(batch)
    slabs = []
    for width, members in sorted(groups.items(), reverse=True):
        n = len(members)
        pieces = -(-n // max(budget // width, 1))
        slabs += [(width, members[k * n // pieces : (k + 1) * n // pieces]) for k in range(pieces)]
    return slabs


def _first_names(names) -> str:
    """The sorted names as a list or, past five of them, their count and the first five."""
    names = sorted(names)
    return str(names) if len(names) <= 5 else f"{len(names)} names, the first 5 {names[:5]}"


def _check_parts(vocab: Vocab, config: EncoderConfig, pooling: str) -> None:
    if pooling not in POOLING_MODES:
        raise ValueError(f"unknown pooling mode {pooling!r}; expected one of {POOLING_MODES}")
    if vocab.size != config.vocab_size:
        raise ValueError(f"vocabulary has {vocab.size} ids but encoder expects {config.vocab_size}")


class SentenceEmbedder:
    """Maps sentences to fixed-size vectors.

    `include_special` controls whether the cls/sep positions take part in
    mean and max pooling (they do by default; cls pooling always reads
    position 0).
    """

    def __init__(self, vocab: Vocab, encoder: Encoder, pooling: str = "mean", include_special: bool = True):
        _check_parts(vocab, encoder.config, pooling)
        self.vocab = vocab
        self.encoder = encoder
        self.pooling = pooling
        self.include_special = include_special

    @property
    def dim(self) -> int:
        return self.encoder.config.dim

    def token_ids(self, texts) -> list[list[int]]:
        """Each text's ids from `Vocab.encode`, truncated to the encoder's max_seq_len."""
        max_len = self.encoder.config.max_seq_len
        return [self.vocab.encode(text, max_len) for text in texts]

    def pad(self, rows, width: int | None = None):
        """Pad id rows to `width` (the longest member by default); returns (ids, mask, pool_mask)."""
        if width is None:
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
        fixed-order chunks. Either way row i is the vector of text i.

        The batch plan only sets each text's padded width, its batch's
        longest row. The forward passes run over slabs: the rows of one
        padded width, merged across batches and cut at a token budget
        sized from the encoder's widths (896 tokens at the default dims),
        so that each pass stays in cache and short batches share one
        pass. Every encoder op works per token or per sequence, so each
        row keeps the bits `embed_tensor` gives it in its batch. The
        passes run under `no_grad`: they build no graph and keep no
        gradient memory.

        When the environment pins BLAS to fewer threads than there are
        usable cores (`OPENBLAS_NUM_THREADS`, else `OMP_NUM_THREADS`), a
        call of at least 32 batches also runs slabs on helper threads,
        one per 32 batches up to the idle cores. Each slab is computed
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

        def run(slab):
            width, members = slab
            # grad mode is per thread, so every thread turns it off itself
            with no_grad():
                out[members] = self.forward(*self.pad([rows[i] for i in members], width)).data

        c = self.encoder.config
        budget = _SLAB_BYTES // (max(c.ffn_dim, 3 * c.dim) * self.encoder.dtype.itemsize)
        _run_jobs(_slabs(rows, batches, budget), run, len(batches))
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
        return cls.from_checkpoint(path, *load_checkpoint(path))

    @classmethod
    def from_checkpoint(cls, path, manifest: dict, params: dict) -> "SentenceEmbedder":
        """The model `load_checkpoint(path)` read, checked against `Encoder.layout`; it takes `params` uncopied."""
        # the CRC covers only the tensor payload, so a manifest can parse and still be wrong
        try:
            config = EncoderConfig(**manifest["config"])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: manifest config rejected: {exc}") from None
        # every layer holds parameters, so a file with fewer cannot match, and its layout could be huge
        if config.n_layers > len(params):
            raise FormatError(f"{path}: manifest config claims {config.n_layers} layers but the file holds"
                              f" {len(params)} parameters")
        try:
            vocab = Vocab(manifest["vocab"])
            _check_parts(vocab, config, manifest["pooling"])
        except ValueError as exc:
            raise FormatError(f"{path}: manifest rejected: {exc}") from None
        layout = Encoder.layout(config)
        expected = {name for name, _, _ in layout}
        loaded = set(params)
        if expected != loaded:
            raise FormatError(f"{path}: parameter set mismatch (missing {_first_names(expected - loaded)},"
                              f" unexpected {_first_names(loaded - expected)})")
        for name, shape, _ in layout:
            if params[name].shape != shape:
                raise FormatError(f"{path}: parameter {name} has shape {params[name].shape}, expected {shape}")
        return cls(vocab, Encoder(config, params=params), manifest["pooling"], manifest["include_special"])
