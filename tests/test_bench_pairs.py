"""`scripts/bench_pairs.py` summarizes each detail in its own direction."""

import importlib
from pathlib import Path

import pytest

SPEC = {"end_to_end": [{"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25}]}


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    return importlib.import_module("bench_pairs")


def runs(details_by_side, pairs=3):
    """Synthetic runs: job_s 1.0 on both sides, and each side's details on every pair."""
    return [{"pair": k, "seed": k + 1, "side": side, "correct": True, "failed": 0, "attempted": 10,
             "metrics": {"job_s": 1.0}, "details": details}
            for k in range(pairs) for side, details in details_by_side.items()]


@pytest.mark.parametrize("unit, parent, change, change_wins", [
    ("1/s", 100.0, 200.0, 3), ("rho", 0.7, 0.8, 3), ("fraction", 0.9, 0.8, 0),
    ("s", 2.0, 1.0, 3), ("ms", 1.0, 2.0, 0),
])
def test_a_detail_is_summarized_in_the_direction_of_its_unit(bench_pairs, unit, parent, change, change_wins):
    section = bench_pairs.workload_section(
        runs({"parent": {"d": {"value": parent, "unit": unit}}, "change": {"d": {"value": change, "unit": unit}}}),
        SPEC, ["d"])
    detail = section["metrics"]["d"]
    assert detail["unit"] == unit
    assert detail["better"] == bench_pairs.DETAIL_BETTER[unit]
    assert (detail["change_wins"], detail["parent_wins"]) == (change_wins, 3 - change_wins)
    assert "within_bound" not in detail


def test_a_detail_absent_from_a_workload_is_left_out_of_its_section(bench_pairs):
    side = {"d": {"value": 1.0, "unit": "s"}}
    section = bench_pairs.workload_section(runs({"parent": side, "change": side}), SPEC, ["d", "missing"])
    assert set(section["metrics"]) == {"job_s", "d"}


def test_a_detail_in_an_unknown_unit_is_refused(bench_pairs):
    side = {"d": {"value": 1.0, "unit": "count"}}
    with pytest.raises(ValueError, match="'count'"):
        bench_pairs.workload_section(runs({"parent": side, "change": side}), SPEC, ["d"])
