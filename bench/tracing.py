"""Spans around the public functions of every `semb` module.

Each function is wrapped at the name its caller looks it up by: the
encoder calls ops as `T.<op>`, so `semb.tensor.<op>` is wrapped; the
embedder imports `pool` by name, so `semb.embedder.pool` is wrapped;
`embed_corpus` imports `smart_batches` by name, so
`semb.search.smart_batches` is wrapped beside `semb.trainer.smart_batches`.
Methods are wrapped on their class. Spans stay in memory as (name, start,
end, parent, request) and are written out when the run ends. Nothing in
`src/` is changed; `Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter, defaultdict

_NOT_OPS = {"Tensor", "ShapeError", "tensor", "grad_check"}

MODULES = (
    "tensor", "encoder", "pooling", "embedder", "objectives", "trainer",
    "checkpoint", "data", "evaluation", "search", "bench",
)


def replace(owner, attr: str, make) -> object:
    """Set owner.attr to make(original function), keeping a classmethod a classmethod.

    Returns the attribute as it was, for restoring it.
    """
    raw = inspect.getattr_static(owner, attr)
    is_classmethod = isinstance(raw, classmethod)
    fn = raw.__func__ if is_classmethod else raw
    wrapper = functools.wraps(fn)(make(fn))
    setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
    return raw


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close(self.index)
        return False


class NullTracer:
    """Stand-in used when tracing is off: its spans record nothing."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # one row per span: name id, start, end, parent index (-1 for a root), request (root index)
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        request = self.spans[self._stack[0]][4] if self._stack else index
        self.spans.append([nid, time.perf_counter(), 0.0, parent, request])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    # -- wrapping -----------------------------------------------------------

    def patch(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace owner.attr by a wrapper that records a span named `name`.

        `name` may be a callable of (args, kwargs) for names that depend on
        the arguments. `before(args, kwargs)` and `after(result, args,
        kwargs)` update counters outside the span.
        """
        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                index = self.open(name(args, kwargs) if callable(name) else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(index)
                if after is not None:
                    after(result, args, kwargs)
                return result

            return wrapper

        self._undo.append((owner, attr, replace(owner, attr, make)))

    def install(self) -> None:
        """Wrap the public functions of every semb module."""
        import semb.data
        import semb.embedder
        import semb.encoder
        import semb.evaluation
        import semb.objectives
        import semb.search
        import semb.tensor
        import semb.trainer

        T = semb.tensor

        def op_done(out, args, kwargs):
            self.counts["tensor.op_calls"] += 1
            grad = getattr(out, "grad", None)
            if grad is not None:
                self.counts["tensor.grad_bytes"] += grad.nbytes

        for op in T.__all__:
            if op not in _NOT_OPS:
                self.patch(T, op, "tensor.fwd." + op, after=op_done)
        self.patch(T.Tensor, "backward", "tensor.backward")

        def forward_name(args, kwargs):
            train = args[3] if len(args) > 3 else kwargs.get("train", False)
            return "encoder.forward." + ("train" if train else "eval")

        def count_tokens(args, kwargs):
            mask = args[2] if len(args) > 2 else kwargs["mask"]
            self.counts["encoder.tokens_real"] += int(mask.sum())
            self.counts["encoder.tokens_padded"] += int(mask.size)

        self.patch(semb.encoder.Encoder, "forward", forward_name, before=count_tokens)
        self.patch(
            semb.encoder.Vocab, "encode", "encoder.vocab_encode",
            before=lambda a, k: self.counts.update(("encoder.vocab_encode_calls",)),
        )
        self.patch(semb.embedder, "pool", "pooling.pool")

        E = semb.embedder.SentenceEmbedder
        for method in ("encode_batch", "embed_tensor", "embed"):
            self.patch(E, method, "embedder." + method)
        self.patch(E, "save", "checkpoint.save")
        self.patch(E, "load", "checkpoint.load")

        O = semb.objectives
        for cls, objective in (
            (O.RegressionObjective, "regression"),
            (O.ClassificationObjective, "classification"),
            (O.TripletObjective, "triplet"),
        ):
            self.patch(cls, "loss", "objectives.loss." + objective)

        tr = semb.trainer
        self.patch(tr, "train", "trainer.train")
        self.patch(tr.Adam, "step", "trainer.adam",
                   after=lambda r, a, k: self.counts.update(("trainer.steps",)))
        self.patch(tr, "clip_global_norm", "trainer.clip")
        for module in (tr, semb.search):
            self.patch(module, "smart_batches", "trainer.batching")
            self.patch(module, "naive_batches", "trainer.batching")

        for loader in ("load_scored_pairs", "load_classification_pairs", "load_triplets"):
            self.patch(semb.data, loader, "data.load")

        self.patch(semb.evaluation, "evaluate_similarity", "evaluation.similarity")
        self.patch(semb.evaluation, "triplet_accuracy", "evaluation.triplet")

        S = semb.search
        self.patch(S, "top_k", "search.top_k")
        self.patch(S, "embed_corpus", "search.embed_corpus")
        self.patch(S, "most_similar_pair", "search.pair_scan",
                   after=lambda r, a, k: self.counts.update({"search.pair_comparisons": r.comparisons}))
        self.patch(S.VectorStore, "load", "search.load")
        self.patch(S.VectorStore, "save", "search.save")
        self.patch(S.VectorStore, "add_many", "search.add_many")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- summaries ----------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name.

        A span's self time is its duration minus the time its child spans
        cover.
        """
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for nid, start, end, parent, _ in self.spans:
            duration = end - start
            name = self.names[nid]
            inclusive[name] += duration
            self_time[name] += duration
            if parent >= 0:
                self_time[self.names[self.spans[parent][0]]] -= duration
        return inclusive, self_time

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, request index."""
        with open(path, "w", encoding="utf-8") as fh:
            for nid, start, end, parent, request in self.spans:
                fh.write(json.dumps([self.names[nid], round(start, 7), round(end, 7), parent, request]))
                fh.write("\n")
