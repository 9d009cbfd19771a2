"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from a traced half
of the run and compared against an untraced half for the overhead. The
line before it is a full report (run metadata, details, failed checks),
also written to .bench_out/. A table goes to stderr.

semb is imported from src/ beside this directory; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("train", "embed-pair", "search-200k")
SETUPS = 7  # set-ups per untraced run; setup_s is their median
MIN_PASSES = 2  # per untraced run, so that no median rests on one pass
HELDOUT_OFFSET = 1_000_000  # seeds at or above this are kept for confirming gain claims


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", default=None, help="plant a known fault (see plants.py) to test the checks")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_semb():
    """Import semb from ROOT/src, refusing any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import semb
    except ImportError as exc:
        return f"cannot import semb from {ROOT / 'src'}: {exc}"
    if not Path(semb.__file__).resolve().is_relative_to(ROOT / "src"):
        return f"semb was imported from {semb.__file__}, not from {ROOT / 'src'}"
    return None


def _git_revision() -> str:
    # the ceiling keeps git from reporting an enclosing repository's HEAD
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "git_revision": _git_revision(),
        "seed": seed,
        "heldout_seed": seed + HELDOUT_OFFSET,
    }


def _measure(workload, state, seconds, min_passes, tally, tracer, between=None):
    """Repeat whole passes while the next one is expected to end in time.

    `between(share)` runs before each pass, with the share of the window
    used so far, and once after the last with share 1; its time is not
    counted in the window.
    """
    from workloads import Recorder

    rec = Recorder()
    passes = 0
    last = 0.0
    measured = 0.0
    while passes < min_passes or measured + last <= seconds:
        if between is not None:
            between(measured / seconds)
        gc.collect()
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.pass"):
                workload.run_pass(state, rec, tally, tracer)
        except Exception as exc:  # a pass that crashes is one failed operation
            traceback.print_exc(file=sys.stderr)
            tally.crashed(f"{workload.name} pass", exc)
        last = time.perf_counter() - t0
        measured += last
        passes += 1
    if between is not None:
        between(1.0)
    return rec, passes, measured


def _per_layer(spec, tracer, passes, overhead_pct) -> dict:
    """Per-pass values of BENCHMARK.json's per-layer metrics.

    `<span>_ms` is inclusive time in the span named without `_ms`,
    `self_ms.<module>` is self time summed over a module's spans, and
    any other name is a counter the tracer kept.
    """
    from tracing import MODULES

    inclusive, self_time = tracer.totals()
    by_module = dict.fromkeys(MODULES, 0.0)
    for name, seconds in self_time.items():
        by_module[name.split(".", 1)[0]] += seconds
    values = {}
    for metric in spec:
        name = metric["name"]
        if name == "trace.overhead_pct":
            value = overhead_pct
        elif name == "trace.spans":
            value = len(tracer.spans) / passes
        elif name.startswith("self_ms."):
            value = by_module[name[len("self_ms."):]] * 1e3 / passes
        elif "_ms" in name:
            value = inclusive.get(name.replace("_ms", ""), 0.0) * 1e3 / passes
        else:
            value = tracer.counts.get(name, 0) / passes
        values[name] = value
    return values


def run_one(args, spec) -> tuple[dict, dict]:
    import plants
    from checks import Tally
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    tally = Tally()
    undo_plant = plants.plant(args.plant) if args.plant else (lambda: None)
    tmp = OUT_DIR / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = []

        def set_up():
            gc.collect()
            where = tmp / f"setup{len(setup_s)}"
            where.mkdir(parents=True)
            t0 = time.perf_counter()
            state = workload.setup(where, args.seed)
            setup_s.append(time.perf_counter() - t0)
            return state, where

        def more_setups(share):
            # The other set-ups are spread over the run, between passes: the
            # host's speed drifts over tens of seconds, and set-ups made in
            # one burst at the start would all sample the same moment.
            while len(setup_s) < 1 + math.ceil((SETUPS - 1) * min(share, 1.0)):
                _, where = set_up()
                # drop the files before they are written back to disk
                shutil.rmtree(where)

        state, _ = set_up()
        workload.prepare(state)

        if args.trace:
            half = args.seconds / 2
            plain, plain_passes, _ = _measure(workload, state, half, 1, tally, NullTracer())
            tracer = Tracer()
            tracer.install()
            try:
                rec, passes, measured = _measure(workload, state, half, 1, tally, tracer)
            finally:
                tracer.uninstall()
            traced_e2e = workload.end_to_end(rec)
            plain_e2e = workload.end_to_end(plain)
            overhead = {k: traced_e2e[k] / plain_e2e[k] - 1.0 for k in traced_e2e}
            metrics = _per_layer(spec["per_layer"], tracer, passes, overhead["job_s"] * 100.0)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            extra = {"tracing_overhead": overhead, "untraced_passes": plain_passes, "spans_file": str(spans_path)}
        else:
            rec, passes, measured = _measure(workload, state, args.seconds, MIN_PASSES, tally, NullTracer(),
                                             more_setups)
            metrics = workload.end_to_end(rec)
            extra = {}
    finally:
        undo_plant()
        shutil.rmtree(tmp, ignore_errors=True)

    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if not args.trace else "per_layer"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "plant": args.plant,
        "meta": run_metadata(args.seed),
        "passes": passes,
        "measured_s": measured,
        "setup_s": setup_s,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "failures": tally.failures,
        "details": {k: {"value": v, "unit": u} for k, (v, u) in workload.details(rec).items()},
        **extra,
    }
    return result, report


def _print_table(workload, result, report) -> None:
    err = sys.stderr
    print(f"== {workload}: {report['passes']} passes in {report['measured_s']:.1f} s, "
          f"{result['failed']}/{result['attempted']} operations failed", file=err)
    for title, rows in (("metrics", result["metrics"]), ("details", report["details"])):
        print(f"  {title}:", file=err)
        for name, m in rows.items():
            print(f"    {name:<36} {m['value']:>14.6g} {m['unit']}", file=err)


def run_all(args) -> int:
    """Run every workload, each in its own process, one after another."""
    status = 0
    combined = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.plant:
            cmd += ["--plant", args.plant]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        combined[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = max(status, proc.returncode)
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    # One BLAS thread: the matrices here are small, so a second thread
    # gains little and lets a busy neighbour on the machine move timings.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    problem = _import_semb()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    OUT_DIR.mkdir(exist_ok=True)
    result, report = run_one(args, spec)
    _print_table(args.workload, result, report)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-' + args.plant if args.plant else ''}.json"
    (OUT_DIR / name).write_text(json.dumps({"result": result, "report": report}, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
