"""Dataset loading: JSONL readers for the three training objectives plus probes.

One reader serves every record type: each line is a JSON object whose
fields are checked in the record dataclass's order. `label` is a string
or integer (kept as a string), `score` a finite number (kept as a float;
an integer no float holds is not finite), any other field a string; a
bool is neither. A failure names the file and the 1-based line.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, fields

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
    "check_fields",
    "check_value",
]

# json.loads: a ValueError for bad syntax or too many digits, RecursionError for deep nesting
JSON_ERRORS = (ValueError, RecursionError)

# fixed mapping for inference-style labels so checkpoints agree across datasets
NLI_LABELS = {"contradiction": 0, "entailment": 1, "neutral": 2}

# sizes, counts and seeds all reach NumPy, which holds no larger integer
_INT_MAX = 2**63 - 1


def check_value(name: str, value, kind: str):
    """`value` checked as a config field annotated `kind` ("int", "float", "bool" or "str"); a float field's as a float.

    A bool is not an int, an int is at most 2**63 - 1 and a float is finite. A refusal is a
    ValueError whose message starts with `name`.
    """
    if kind == "float":
        # JSON's NaN and Infinity parse as floats, and an integer may be past float range
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"{name} must be a finite number")
        return float(value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer")
        if value > _INT_MAX:
            raise ValueError(f"{name} must be at most {_INT_MAX}, got {value}")
    elif kind == "bool":
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be a boolean")
    elif not isinstance(value, str):
        raise ValueError(f"{name} must be a string")
    return value


def check_fields(config) -> None:
    """Check each field of the config dataclass `config` against its annotation, in order, and keep it as checked."""
    for f in fields(config):  # under postponed annotations, f.type is the annotation's text
        setattr(config, f.name, check_value(f.name, getattr(config, f.name), f.type))


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
        except JSON_ERRORS as exc:
            raise DataFormatError(path, lineno, f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
        if not isinstance(obj, dict):
            raise DataFormatError(path, lineno, "expected a JSON object")
        yield lineno, obj


def _finite(value) -> float:
    # NaN, the infinities and an integer no float holds all fail the comparison
    if not abs(value) <= sys.float_info.max:
        raise ValueError("must be finite")
    return float(value)


# field name -> (the JSON types it may hold, as the message names them, conversion);
# a field not listed is text
_FIELD_RULES = {
    "label": ((str, int), "a string or integer", str),
    "score": ((int, float), "a number", _finite),
}
_TEXT_RULE = ((str,), "a string", str)


def _read_records(path, record):
    """One `record` per object line, its fields checked in declaration order."""
    rules = [(f.name, *_FIELD_RULES.get(f.name, _TEXT_RULE)) for f in fields(record)]
    out = []
    for lineno, obj in _iter_jsonl(path):
        values = []
        for name, types, kind, convert in rules:
            if name not in obj:
                raise DataFormatError(path, lineno, f"missing field {name!r}")
            value = obj[name]
            if isinstance(value, bool) or not isinstance(value, types):
                raise DataFormatError(path, lineno, f"field {name!r} must be {kind}")
            try:
                values.append(convert(value))
            except ValueError as exc:
                raise DataFormatError(path, lineno, f"field {name!r} {exc}") from None
        out.append(record(*values))
    return out


def load_classification_pairs(path) -> list[PairExample]:
    return _read_records(path, PairExample)


def load_scored_pairs(path) -> list[ScoredPair]:
    return _read_records(path, ScoredPair)


def load_triplets(path) -> list[TripletExample]:
    return _read_records(path, TripletExample)


def load_labeled_texts(path) -> list[LabeledText]:
    return _read_records(path, LabeledText)


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
