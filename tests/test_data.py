import json

import pytest

from semb.data import (
    DataFormatError,
    NLI_LABELS,
    build_label_map,
    load_classification_pairs,
    load_labeled_texts,
    load_scored_pairs,
    load_triplets,
)


def write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_classification_pairs_roundtrip(tmp_path):
    path = write(
        tmp_path,
        "cls.jsonl",
        [
            '{"a": "a cat", "b": "a dog", "label": "neutral"}',
            '{"a": "x", "b": "y", "label": 2}',
        ],
    )
    rows = load_classification_pairs(path)
    assert len(rows) == 2
    assert rows[0].a == "a cat" and rows[0].label == "neutral"
    assert rows[1].label == "2"  # integer labels become strings


def test_scored_pairs_roundtrip(tmp_path):
    path = write(tmp_path, "sts.jsonl", ['{"a": "x", "b": "y", "score": 3.5}'])
    rows = load_scored_pairs(path)
    assert rows[0].score == 3.5


def test_triplets_roundtrip(tmp_path):
    path = write(tmp_path, "tri.jsonl", ['{"anchor": "a", "positive": "p", "negative": "n"}'])
    rows = load_triplets(path)
    assert rows[0].positive == "p"


def test_labeled_texts_roundtrip(tmp_path):
    path = write(tmp_path, "probe.jsonl", ['{"text": "hi", "label": "pos"}'])
    assert load_labeled_texts(path)[0].text == "hi"


def test_blank_lines_are_skipped(tmp_path):
    path = write(tmp_path, "gaps.jsonl", ['{"a": "x", "b": "y", "score": 1}', "", '{"a": "p", "b": "q", "score": 2}'])
    assert len(load_scored_pairs(path)) == 2


def test_missing_field_reports_line_number(tmp_path):
    path = write(tmp_path, "bad.jsonl", ['{"a": "x", "b": "y", "score": 1}', '{"a": "x", "score": 2}'])
    with pytest.raises(DataFormatError) as err:
        load_scored_pairs(path)
    assert err.value.line == 2
    assert "line 2" in str(err.value)
    assert "'b'" in str(err.value)


def test_invalid_json_reports_line_number(tmp_path):
    path = write(tmp_path, "broken.jsonl", ['{"a": "x", "b": "y", "label": "e"}', "{not json"])
    with pytest.raises(DataFormatError) as err:
        load_classification_pairs(path)
    assert err.value.line == 2


def test_non_object_line_rejected(tmp_path):
    path = write(tmp_path, "arr.jsonl", ["[1, 2, 3]"])
    with pytest.raises(DataFormatError) as err:
        load_triplets(path)
    assert "object" in str(err.value)


@pytest.mark.parametrize("score", ['"high"', "true", "NaN", "Infinity"])
def test_bad_scores_rejected(tmp_path, score):
    path = write(tmp_path, "s.jsonl", [f'{{"a": "x", "b": "y", "score": {score}}}'])
    with pytest.raises(DataFormatError):
        load_scored_pairs(path)


def test_non_string_text_rejected(tmp_path):
    path = write(tmp_path, "t.jsonl", ['{"a": 5, "b": "y", "score": 1}'])
    with pytest.raises(DataFormatError):
        load_scored_pairs(path)


def test_label_map_uses_nli_convention():
    got = build_label_map(["neutral", "entailment", "contradiction", "entailment"])
    assert got == {"contradiction": 0, "entailment": 1, "neutral": 2}
    assert got == NLI_LABELS


def test_label_map_sorts_other_label_sets():
    assert build_label_map(["dog", "cat", "dog"]) == {"cat": 0, "dog": 1}
    assert build_label_map(["1", "0", "2"]) == {"0": 0, "1": 1, "2": 2}


# The reader's contract. A valid record per loader; each of its fields is
# tried missing and with values of the wrong type, on line 2 of the file.
_VALID = {
    load_classification_pairs: {"a": "x", "b": "y", "label": "entailment"},
    load_scored_pairs: {"a": "x", "b": "y", "score": 1.5},
    load_triplets: {"anchor": "a", "positive": "p", "negative": "n"},
    load_labeled_texts: {"text": "t", "label": "pos"},
}
# field -> (values it must refuse, the end of the message that refuses them)
_WRONG = {
    "label": ([True, False, 1.5, None, ["pos"], {}], "must be a string or integer"),
    "score": ([True, False, "1.5", None, [1.5], {}], "must be a number"),
}
_WRONG_TEXT = ([5, 1.5, True, None, ["x"], {}], "must be a string")


def _contract_cases():
    for loader, valid in _VALID.items():
        for field in valid:
            missing = {k: v for k, v in valid.items() if k != field}
            yield pytest.param(loader, missing, f"missing field {field!r}", id=f"{loader.__name__}-no-{field}")
            values, problem = _WRONG.get(field, _WRONG_TEXT)
            for value in values:
                yield pytest.param(loader, {**valid, field: value}, f"field {field!r} {problem}",
                                   id=f"{loader.__name__}-{field}={json.dumps(value)}")
        # fields are checked in declaration order: the first one reports
        first = next(iter(valid))
        yield pytest.param(loader, {}, f"missing field {first!r}", id=f"{loader.__name__}-empty")
        yield pytest.param(loader, {first: 0}, f"field {first!r} must be a string", id=f"{loader.__name__}-first-wrong")
    for constant in ("NaN", "Infinity", "-Infinity"):
        yield pytest.param(load_scored_pairs, {"a": "x", "b": "y", "score": float(constant)},
                           "field 'score' must be finite", id=f"score={constant}")


@pytest.mark.parametrize("loader, record, problem", _contract_cases())
def test_reader_contract_names_the_field_and_the_line(tmp_path, loader, record, problem):
    path = write(tmp_path, "d.jsonl", [json.dumps(_VALID[loader]), json.dumps(record)])
    with pytest.raises(DataFormatError) as err:
        loader(path)
    assert err.value.line == 2
    assert str(err.value) == f"{path}, line 2: {problem}"


def test_reader_keeps_integer_labels_as_strings_and_integer_scores_as_floats(tmp_path):
    cls = load_classification_pairs(write(tmp_path, "c.jsonl", ['{"a": "x", "b": "y", "label": -7}']))
    assert cls[0].label == "-7" and type(cls[0].label) is str
    probe = load_labeled_texts(write(tmp_path, "p.jsonl", ['{"text": "t", "label": 0}']))
    assert probe[0].label == "0" and type(probe[0].label) is str
    sts = load_scored_pairs(write(tmp_path, "s.jsonl", ['{"a": "x", "b": "y", "score": 4}']))
    assert sts[0].score == 4.0 and type(sts[0].score) is float


_HUGE = "1" + "0" * 400  # an integer no float can hold
_TOO_MANY_DIGITS = "7" * 5000  # past Python's limit for int parsing


@pytest.mark.parametrize(
    "loader, line",
    [
        (load_scored_pairs, f'{{"a": "x", "b": "y", "score": {_HUGE}}}'),
        (load_scored_pairs, f'{{"a": "x", "b": "y", "score": {_TOO_MANY_DIGITS}}}'),
        (load_labeled_texts, f'{{"text": "t", "label": {_TOO_MANY_DIGITS}}}'),
        (load_triplets, "[" * 100_000),
    ],
    ids=["score-outside-float-range", "score-too-many-digits", "label-too-many-digits", "nested-too-deep"],
)
def test_json_no_record_can_hold_is_a_format_error_on_its_line(tmp_path, loader, line):
    good = json.dumps(_VALID[loader])
    path = write(tmp_path, "d.jsonl", [good, line, good])
    with pytest.raises(DataFormatError) as err:
        loader(path)
    assert err.value.line == 2
    assert str(err.value).startswith(f"{path}, line 2: ")
