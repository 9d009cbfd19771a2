"""Dataset loading: JSONL readers for the three training objectives plus probes.

Every reader validates per line and reports failures with the 1-based
line number, so a bad record in a large file is findable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

__all__ = [
    "DataFormatError",
    "PairExample",
    "ScoredPair",
    "TripletExample",
    "LabeledText",
    "load_classification_pairs",
    "load_scored_pairs",
    "load_triplets",
    "load_labeled_texts",
    "build_label_map",
    "read_lines",
    "NLI_LABELS",
]

# fixed mapping for inference-style labels so checkpoints agree across datasets
NLI_LABELS = {"contradiction": 0, "entailment": 1, "neutral": 2}


class DataFormatError(ValueError):
    """A data file failed validation; message carries file and line number."""

    def __init__(self, path, line, problem):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}, line {line}: {problem}")


@dataclass(frozen=True)
class PairExample:
    a: str
    b: str
    label: str


@dataclass(frozen=True)
class ScoredPair:
    a: str
    b: str
    score: float


@dataclass(frozen=True)
class TripletExample:
    anchor: str
    positive: str
    negative: str


@dataclass(frozen=True)
class LabeledText:
    text: str
    label: str


# errors="surrogateescape" reads a byte b that is not UTF-8 as the character U+DC00 + b
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def read_lines(path):
    """Yield (line number, line) of a UTF-8 file; a byte that is not UTF-8 is a DataFormatError."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            bad = _NOT_UTF8.search(line)
            if bad:
                raise DataFormatError(path, lineno, f"byte {ord(bad.group()) - 0xDC00:#04x} is not UTF-8")
            yield lineno, line


def _iter_jsonl(path):
    for lineno, raw in read_lines(path):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DataFormatError(path, lineno, f"invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise DataFormatError(path, lineno, "expected a JSON object")
        yield lineno, obj


def _text_field(obj, key, path, lineno):
    if key not in obj:
        raise DataFormatError(path, lineno, f"missing field {key!r}")
    value = obj[key]
    if not isinstance(value, str):
        raise DataFormatError(path, lineno, f"field {key!r} must be a string")
    return value


def _label_field(obj, path, lineno):
    if "label" not in obj:
        raise DataFormatError(path, lineno, "missing field 'label'")
    value = obj["label"]
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise DataFormatError(path, lineno, "field 'label' must be a string or integer")
    return str(value)


def load_classification_pairs(path) -> list[PairExample]:
    """Read {"a", "b", "label"} records."""
    out = []
    for lineno, obj in _iter_jsonl(path):
        out.append(
            PairExample(
                a=_text_field(obj, "a", path, lineno),
                b=_text_field(obj, "b", path, lineno),
                label=_label_field(obj, path, lineno),
            )
        )
    return out


def load_scored_pairs(path) -> list[ScoredPair]:
    """Read {"a", "b", "score"} records; scores must be finite numbers."""
    out = []
    for lineno, obj in _iter_jsonl(path):
        a = _text_field(obj, "a", path, lineno)
        b = _text_field(obj, "b", path, lineno)
        if "score" not in obj:
            raise DataFormatError(path, lineno, "missing field 'score'")
        score = obj["score"]
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise DataFormatError(path, lineno, "field 'score' must be a number")
        score = float(score)
        if score != score or score in (float("inf"), float("-inf")):
            raise DataFormatError(path, lineno, "field 'score' must be finite")
        out.append(ScoredPair(a=a, b=b, score=score))
    return out


def load_triplets(path) -> list[TripletExample]:
    """Read {"anchor", "positive", "negative"} records."""
    out = []
    for lineno, obj in _iter_jsonl(path):
        out.append(
            TripletExample(
                anchor=_text_field(obj, "anchor", path, lineno),
                positive=_text_field(obj, "positive", path, lineno),
                negative=_text_field(obj, "negative", path, lineno),
            )
        )
    return out


def load_labeled_texts(path) -> list[LabeledText]:
    """Read {"text", "label"} records (probe / classification eval sets)."""
    out = []
    for lineno, obj in _iter_jsonl(path):
        out.append(
            LabeledText(
                text=_text_field(obj, "text", path, lineno),
                label=_label_field(obj, path, lineno),
            )
        )
    return out


def build_label_map(labels) -> dict[str, int]:
    """Map label strings to class indices.

    The NLI label set gets its conventional fixed order; anything else is
    sorted lexicographically so the mapping is reproducible without
    caring about file order.
    """
    distinct = sorted(set(labels))
    if set(distinct) == set(NLI_LABELS):
        return dict(NLI_LABELS)
    return {label: i for i, label in enumerate(distinct)}
