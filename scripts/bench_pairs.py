"""Alternating parent/change runs of the benchmark harness, summarized as one BENCH_<topic>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \
        --workloads train,embed-pair --seeds 1-10,1000020 --seconds 40 \
        --out BENCH_load.json --topic load --claim "train load_s.p75 falls"

Each checkout is a clean export of one revision with its own `bench/`.
Pair k runs `python3 bench/run.py --workload W --seed S --seconds T` in
both checkouts, one process at a time, for every workload in turn: the
parent goes first on even k and the change on odd k, so that drift of
the host's speed falls on both sides alike. Seeds at or above 1,000,000
are the harness's held-out seeds.

The output keeps the schema_version 1 layout of BENCH_pair_scan.json:
per workload and end-to-end metric, both sides' per-pair values, median
and quartiles (linear-interpolated percentiles 25 and 75), the pairs
each side won, whether the change's median is within the metric's bound
and whether the medians differ by more than the parent's quartile
distance. `--detail NAME` also summarizes a value from the harness's
details, ungated. An existing `--out` file keeps the workloads this run
does not touch, so workloads can be run with different seeds in turn.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent revision")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workloads", required=True, help="comma-separated harness workloads")
    parser.add_argument("--seeds", required=True, type=_seeds, help="e.g. 1-10,1000020; one pair per seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--detail", action="append", default=[], help="a details value to summarize too")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--topic", required=True)
    parser.add_argument("--claim", default="")
    return parser.parse_args(argv)


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One harness run; returns its (result, report) lines."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(parent: list[float], change: list[float], better: str, bound: float | None) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    p, c = summarize(parent), summarize(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    ties = sum(a == b for a, b in zip(parent, change))
    out = {"parent": p, "change": c, "median_change_pct": (c["median"] / p["median"] - 1.0) * 100.0,
           "change_wins": wins, "ties": ties, "parent_wins": len(parent) - wins - ties}
    if bound is not None:
        out["within_bound"] = sign * (c["median"] / p["median"] - 1.0) <= bound
    out["median_gap_exceeds_parent_iqr"] = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
    return out


def workload_section(runs: list[dict], spec: dict, details: list[str]) -> dict:
    pairs = sorted({r["pair"] for r in runs})
    side = {s: [next(r for r in runs if r["pair"] == k and r["side"] == s) for k in pairs] for s in SIDES}
    metrics = {}
    for m in spec["end_to_end"]:
        values = [[r["metrics"][m["name"]] for r in side[s]] for s in SIDES]
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                              **compare(*values, m["better"], m["bound"])}
    for name in details:
        values = [[r["details"][name] for r in side[s]] for s in SIDES]
        metrics[name] = {"better": "lower", "kind": "detail, not gated", **compare(*values, "lower", None)}
    return {
        "pairs": len(pairs),
        "seeds": [r["seed"] for r in side["parent"]],
        "failed_operations": {s: sum(r["failed"] for r in side[s]) for s in SIDES},
        "attempted_operations": {s: sum(r["attempted"] for r in side[s]) for s in SIDES},
        "all_correct": all(r["correct"] for r in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",")
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {"runs": []}
    doc["runs"] = [r for r in doc["runs"] if r["workload"] not in workloads]
    meta = {}
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for s in order:
                result, report = run_side(checkouts[s], workload, seed, args.seconds)
                meta.setdefault(s, report["meta"])
                doc["runs"].append({
                    "pair": k, "seed": seed, "workload": workload, "side": s, "first": order[0],
                    "correct": result["correct"], "failed": result["failed"], "attempted": result["attempted"],
                    "metrics": {n: m["value"] for n, m in result["metrics"].items()},
                    "details": {n: report["details"][n]["value"] for n in args.detail},
                })
                print(f"pair {k} seed {seed} {workload} {s}: "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), file=sys.stderr)
    doc.update({
        "schema_version": 1,
        "topic": args.topic,
        "claim": args.claim or doc.get("claim", ""),
        "machine": {key: meta["parent"][key] for key in ("nproc", "cpu_model", "python", "numpy", "blas")},
        "blas_threads": meta["parent"]["blas_threads"],
        "revisions": {s: meta[s]["git_revision"] for s in SIDES},
        "method": (
            "python3 bench/run.py --workload W --seed S --seconds T (T is each workload's seconds) in each checkout, one process at"
            " a time; pair k runs both sides on its seed for each workload in turn, the parent first on even k and"
            " the change first on odd k. Quartiles are linear-interpolated percentiles 25 and 75; a pair is a win"
            " when the change's value is better than the parent's on the same seed; median_gap_exceeds_parent_iqr"
            " compares the absolute gap of the medians with the parent's q3 - q1."
        ),
    })
    doc.setdefault("workloads", {})
    for workload in workloads:
        runs = [r for r in doc["runs"] if r["workload"] == workload]
        doc["workloads"][workload] = {"seconds": args.seconds, **workload_section(runs, spec, args.detail)}
    runs = doc.pop("runs")
    doc["runs"] = runs  # last, so the summary reads first
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
