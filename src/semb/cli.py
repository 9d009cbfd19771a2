"""Command-line entry points for training, evaluation, search, and benchmarks.

Every invocation prints exactly one JSON document to stdout; anything meant
for people (tables, progress) goes to stderr and `--quiet` silences it.
Commands that produce artifacts write them under `runs/<name>/`, starting
with `effective-config.json` (defaults merged with the config file and any
`--section.key value` overrides) so a run can be repeated from that file
alone.

Exit codes: 2 config error (message names the field), 3 data-format error
(message names file and line), 4 checkpoint/store dimension mismatch,
5 degenerate evaluation, 1 anything else.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import traceback
from dataclasses import fields
from pathlib import Path

import numpy as np

from semb.binio import DimensionMismatchError, FormatError
from semb.checkpoint import VERSION as CHECKPOINT_VERSION
from semb.checkpoint import load_checkpoint
from semb.data import (
    DataFormatError,
    build_label_map,
    load_classification_pairs,
    load_labeled_texts,
    load_scored_pairs,
    load_triplets,
)
from semb.embedder import SentenceEmbedder
from semb.encoder import Encoder, EncoderConfig, Vocab
from semb.evaluation import (
    DegenerateEvalError,
    SIMILARITY_METRICS,
    TRIPLET_METRICS,
    evaluate_similarity,
    probe_accuracy,
    triplet_accuracy,
)
from semb.objectives import COMBINE_MODES
from semb.pooling import POOLING_MODES
from semb.search import VectorStore, bench_embedding, embed_corpus, most_similar_pair, top_k
from semb.trainer import OBJECTIVES, TrainConfig, example_texts, multi_seed_run, train

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_DEGENERATE = 5


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


# The full config schema with its defaults. Validation walks this: any
# key not present here is rejected with its dotted path, and each value
# must match the default's type (paths are strings, null until set).
# The encoder and train sections are the dataclasses' own fields; the
# encoder section adds the embedder's pooling settings.
_EMBEDDER_FIELDS = {"pooling": "mean", "include_special": True}
_DEFAULTS = {
    "encoder": {
        **{f.name: f.default for f in fields(EncoderConfig) if f.name != "vocab_size"},
        **_EMBEDDER_FIELDS,
    },
    "train": {f.name: f.default for f in fields(TrainConfig)},
    "eval": {
        "similarity": "cosine",
        "triplet_metric": "euclidean",
        "folds": 10,
        "seed": 0,
        "probe_lr": 0.5,
        "probe_epochs": 300,
        "probe_l2": 1e-3,
    },
    "data": {
        "train": None,
        "regression_train": None,
        "dev": None,
        "eval": None,
        "corpus": None,
        "checkpoint": None,
        "init_checkpoint": None,
        "store": None,
        "vocab": None,
    },
}

# The fields no dataclass checks: dotted path -> its choices, or its least value.
_FIELD_RULES = {
    "encoder.pooling": POOLING_MODES,
    "eval.similarity": SIMILARITY_METRICS,
    "eval.triplet_metric": TRIPLET_METRICS,
    "eval.folds": 2,
    "eval.seed": 0,
}


def _check_field(path: str, value, default):
    if default is None:  # file path slots
        if value is not None and not isinstance(value, str):
            raise CliError(EXIT_CONFIG, f"config field {path} must be a string path or null")
    elif isinstance(default, bool):
        if not isinstance(value, bool):
            raise CliError(EXIT_CONFIG, f"config field {path} must be a boolean")
    elif isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise CliError(EXIT_CONFIG, f"config field {path} must be an integer")
    elif isinstance(default, float):
        # JSON's NaN and Infinity parse as floats but pass no range check
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
            raise CliError(EXIT_CONFIG, f"config field {path} must be a finite number")
    elif not isinstance(value, str):
        raise CliError(EXIT_CONFIG, f"config field {path} must be a string")


def _merge_section(cfg: dict, section: str, content) -> None:
    if section not in _DEFAULTS:
        raise CliError(EXIT_CONFIG, f"unknown config section {section!r}")
    if not isinstance(content, dict):
        raise CliError(EXIT_CONFIG, f"config section {section!r} must be an object")
    for key, value in content.items():
        if key not in _DEFAULTS[section]:
            raise CliError(EXIT_CONFIG, f"unknown config field {section}.{key}")
        _check_field(f"{section}.{key}", value, _DEFAULTS[section][key])
        if isinstance(_DEFAULTS[section][key], float) and value is not None:
            value = float(value)
        cfg[section][key] = value


def _parse_override_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare strings like "mean" or "u,v,abs"


def _apply_overrides(cfg: dict, leftovers: list[str]) -> None:
    i = 0
    while i < len(leftovers):
        token = leftovers[i]
        if not token.startswith("--") or "." not in token:
            raise CliError(EXIT_CONFIG, f"unrecognized argument {token!r}")
        dotted = token[2:]
        if "=" in dotted:
            dotted, raw = dotted.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(leftovers):
                raise CliError(EXIT_CONFIG, f"missing value for --{dotted}")
            raw = leftovers[i + 1]
            i += 2
        section, _, key = dotted.partition(".")
        _merge_section(cfg, section, {key: _parse_override_value(raw)})


def _load_config(args, leftovers: list[str]) -> dict:
    cfg = copy.deepcopy(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise CliError(EXIT_CONFIG, f"cannot read config {config_path}: {exc.strerror}")
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliError(EXIT_CONFIG, f"config {config_path} is not valid JSON: {exc.msg}")
        if not isinstance(loaded, dict):
            raise CliError(EXIT_CONFIG, f"config {config_path} must be a JSON object")
        for section, content in loaded.items():
            _merge_section(cfg, section, content)
    _apply_overrides(cfg, leftovers)
    # undotted conveniences from the subcommand surface
    for flag, (section, key) in _SHORTCUTS.items():
        value = getattr(args, flag, None)
        if value is not None:
            _merge_section(cfg, section, {key: value})
    _check_config(cfg)
    return cfg


def _check_config(cfg: dict) -> None:
    """Check every field of the merged config, whether or not the command uses it."""
    for section, build in (("encoder", lambda: _encoder_config(cfg, Vocab([]).size)),
                           ("train", lambda: TrainConfig(**cfg["train"]))):
        try:
            build()
        except ValueError as exc:  # the message starts with the field's name
            raise CliError(EXIT_CONFIG, f"config field {section}.{exc}")
    for path, rule in _FIELD_RULES.items():
        section, key = path.split(".")
        value = cfg[section][key]
        if isinstance(rule, tuple):
            _validate_choice(value, rule, path)
        elif value < rule:
            raise CliError(EXIT_CONFIG, f"config field {path} must be at least {rule}, got {value}")


_SHORTCUTS = {
    "objective": ("train", "objective"),
    "epochs": ("train", "epochs"),
    "seed": ("train", "seed"),
}


def _require(cfg: dict, section: str, key: str, why: str) -> str:
    value = cfg[section][key]
    if value is None:
        raise CliError(EXIT_CONFIG, f"config field {section}.{key} is required {why}")
    return value


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text, file=sys.stderr)


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _run_dir(args) -> Path:
    out = Path(args.runs_root) / args.name
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_corpus(path: str) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot read corpus {path}: {exc.strerror}")
    lines = text.splitlines()
    if not lines:
        raise CliError(EXIT_DATA, f"corpus {path} is empty")
    return lines


def _validate_choice(value: str, allowed, path: str) -> None:
    if value not in allowed:
        raise CliError(
            EXIT_CONFIG, f"config field {path} must be one of {', '.join(allowed)}; got {value!r}"
        )


def _encoder_config(cfg: dict, vocab_size: int) -> EncoderConfig:
    enc = {k: v for k, v in cfg["encoder"].items() if k not in _EMBEDDER_FIELDS}
    return EncoderConfig(vocab_size, **enc)


def _fresh_embedder(cfg: dict, texts, seed: int) -> SentenceEmbedder:
    vocab_path = cfg["data"]["vocab"]
    vocab = Vocab.from_file(vocab_path) if vocab_path else Vocab.from_corpus(texts)
    encoder = Encoder(_encoder_config(cfg, vocab.size), seed=seed)
    embedder_fields = {k: cfg["encoder"][k] for k in _EMBEDDER_FIELDS}
    return SentenceEmbedder(vocab, encoder, **embedder_fields)


def _load_embedder(path: str) -> SentenceEmbedder:
    if not Path(path).exists():
        raise CliError(EXIT_DATA, f"checkpoint {path} does not exist")
    return SentenceEmbedder.load(path)


def _objective_manifest(tcfg: TrainConfig, label_map) -> dict:
    if tcfg.objective == "classification":
        return {
            "objective": "classification",
            "combine_mode": tcfg.combine_mode,
            "label_map": label_map,
        }
    if tcfg.objective == "regression":
        return {
            "objective": "regression",
            "score_max": tcfg.score_max,
            "target_scale": tcfg.target_scale,
        }
    return {"objective": "triplet", "margin": tcfg.margin}


def _load_train_examples(path: str, objective: str):
    if objective == "classification":
        return load_classification_pairs(path)
    if objective == "regression":
        return load_scored_pairs(path)
    return load_triplets(path)


def cmd_train(args, cfg: dict) -> int:
    objective = cfg["train"]["objective"]
    train_path = _require(cfg, "data", "train", "to train on")
    examples = _load_train_examples(train_path, objective)

    init_path = cfg["data"]["init_checkpoint"]
    if init_path:
        embedder = _load_embedder(init_path)
    else:
        texts = [text for ex in examples for text in example_texts(ex)]
        embedder = _fresh_embedder(cfg, texts, cfg["train"]["seed"])

    dev_eval = None
    if cfg["data"]["dev"]:
        metric = cfg["eval"]["similarity"]
        if objective == "triplet":
            dev_triplets = load_triplets(cfg["data"]["dev"])
            tri_metric = cfg["eval"]["triplet_metric"]

            def dev_eval(model):
                acc = triplet_accuracy(model.embed, dev_triplets, metric=tri_metric)
                return {"triplet_accuracy": acc, "n": len(dev_triplets)}

        else:
            dev_pairs = load_scored_pairs(cfg["data"]["dev"])

            def dev_eval(model):
                return evaluate_similarity(model.embed, dev_pairs, metric=metric)

    run_dir = _run_dir(args)
    _write_json(run_dir / "effective-config.json", cfg)
    tcfg = TrainConfig(**cfg["train"])
    ckpt_path = run_dir / "checkpoint.semb"

    with open(run_dir / "metrics.jsonl", "w", encoding="utf-8") as metrics_file:

        def on_step(record):
            metrics_file.write(json.dumps(record, sort_keys=True) + "\n")

        result = train(embedder, examples, tcfg, on_step=on_step, epoch_eval=dev_eval)

    embedder.save(ckpt_path, objective=_objective_manifest(tcfg, result.label_map), steps=result.total_steps)

    dev_metrics = None
    for record in reversed(result.metrics):
        if "epoch" in record:
            dev_metrics = {k: v for k, v in record.items() if k != "epoch"}
            break
    report = {
        "objective": objective,
        "train_examples": len(examples),
        "epochs": tcfg.epochs,
        "steps": result.total_steps,
        "final_loss": result.final_loss,
        "checkpoint": str(ckpt_path),
        "run_dir": str(run_dir),
        "dev": dev_metrics,
    }
    _write_json(run_dir / "report.json", report)
    _say(args, f"trained {objective} for {tcfg.epochs} epoch(s), {result.total_steps} steps; "
               f"final loss {result.final_loss:.4f}")
    if dev_metrics:
        shown = ", ".join(f"{k} {v * 100:.2f}" for k, v in dev_metrics.items()
                          if isinstance(v, float))
        _say(args, f"dev: {shown}")
    _say(args, f"checkpoint: {ckpt_path}")
    _emit(report)
    return 0


def _split_flag(raw: str, sep: str) -> list[str]:
    return [part.strip() for part in raw.split(sep) if part.strip()]


def cmd_ablate(args, cfg: dict) -> int:
    poolings = _split_flag(args.poolings, ",")
    modes = _split_flag(args.modes, ";")
    try:
        seeds = [int(s) for s in _split_flag(args.seeds, ",")]
    except ValueError:
        raise CliError(EXIT_CONFIG, f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if len(seeds) < 2:
        raise CliError(EXIT_CONFIG, "--seeds needs at least 2 entries")
    for pooling in poolings:
        _validate_choice(pooling, POOLING_MODES, "--poolings")
    for mode in modes:
        _validate_choice(mode, COMBINE_MODES, "--modes")

    dev_path = _require(cfg, "data", "dev", "to score ablation cells")
    dev_pairs = load_scored_pairs(dev_path)
    metric = cfg["eval"]["similarity"]

    # each block of the grid runs only when its training file is set:
    # data.train feeds the pooling x combine-mode classification cells,
    # data.regression_train feeds one regression cell per pooling
    cls_examples = None
    if cfg["data"]["train"]:
        cls_examples = load_classification_pairs(cfg["data"]["train"])
    reg_examples = None
    if cfg["data"]["regression_train"]:
        reg_examples = load_scored_pairs(cfg["data"]["regression_train"])
    if cls_examples is None and reg_examples is None:
        raise CliError(EXIT_CONFIG, "ablate needs data.train or data.regression_train")

    cells = []
    if cls_examples is not None:
        for pooling in poolings:
            for mode in modes:
                cells.append(("classification", pooling, mode))
    if reg_examples is not None:
        for pooling in poolings:
            cells.append(("regression", pooling, None))

    def run_cell(cell):
        objective, pooling, mode = cell
        examples = cls_examples if objective == "classification" else reg_examples

        def run_one(seed):
            local = copy.deepcopy(cfg)
            local["encoder"]["pooling"] = pooling
            # a regression cell has no combine mode and keeps the configured one
            local["train"].update(objective=objective, seed=seed, combine_mode=mode or cfg["train"]["combine_mode"])
            texts = [text for ex in examples for text in example_texts(ex)]
            embedder = _fresh_embedder(local, texts, seed)
            train(embedder, examples, TrainConfig(**local["train"]))
            report = evaluate_similarity(embedder.embed, dev_pairs, metric=metric)
            return report["spearman"] * 100.0

        try:
            summary = multi_seed_run(run_one, seeds)
        except (ValueError, RuntimeError) as exc:
            return {"objective": objective, "pooling": pooling, "mode": mode, "error": str(exc)}
        return {"objective": objective, "pooling": pooling, "mode": mode, **summary}

    results = [run_cell(cell) for cell in cells]

    run_dir = _run_dir(args)
    _write_json(run_dir / "effective-config.json", cfg)
    report = {"seeds": seeds, "metric": metric, "cells": results}
    _write_json(run_dir / "report.json", report)

    _say(args, f"{'objective':<15} {'pooling':<8} {'mode':<14} spearman x100")
    for row in results:
        shown = row.get("formatted", f"failed: {row.get('error')}")
        _say(args, f"{row['objective']:<15} {row['pooling']:<8} {str(row['mode'] or '-'):<14} {shown}")
    _emit(report)
    return 0


def cmd_embed(args, cfg: dict) -> int:
    ckpt = _require(cfg, "data", "checkpoint", "to embed with")
    corpus_path = _require(cfg, "data", "corpus", "to embed")
    embedder = _load_embedder(ckpt)
    sentences = _read_corpus(corpus_path)
    store = embed_corpus(
        embedder,
        [(str(i), text) for i, text in enumerate(sentences)],
        batch_size=cfg["train"]["batch_size"],
        smart=cfg["train"]["smart_batching"],
    )
    run_dir = _run_dir(args)
    _write_json(run_dir / "effective-config.json", cfg)
    out_path = Path(args.out) if args.out else run_dir / "vectors.semv"
    store.save(out_path)
    report = {"count": len(store.ids), "dim": store.dim, "store": str(out_path)}
    _say(args, f"embedded {report['count']} sentences at dim {report['dim']} -> {out_path}")
    _emit(report)
    return 0


def _sniff_task(path: str) -> str:
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot read eval file {path}: {exc.strerror}")
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(path, lineno, f"invalid JSON ({exc.msg})")
            if not isinstance(obj, dict):
                raise DataFormatError(path, lineno, "expected a JSON object")
            if "score" in obj:
                return "sts"
            if "anchor" in obj:
                return "triplet"
            if "text" in obj and "label" in obj:
                return "probe"
            raise DataFormatError(
                path, lineno, "cannot infer task: expected a score, anchor, or text+label field"
            )
    raise CliError(EXIT_DATA, f"eval file {path} is empty")


def cmd_eval(args, cfg: dict) -> int:
    ckpt = _require(cfg, "data", "checkpoint", "to evaluate")
    eval_path = _require(cfg, "data", "eval", "to evaluate on")
    task = args.task or _sniff_task(eval_path)
    embedder = _load_embedder(ckpt)

    if task == "sts":
        pairs = load_scored_pairs(eval_path)
        metric = cfg["eval"]["similarity"]
        report = dict(evaluate_similarity(embedder.embed, pairs, metric=metric))
        table = [("spearman", report["spearman"]), ("pearson", report["pearson"])]
    elif task == "triplet":
        triplets = load_triplets(eval_path)
        metric = cfg["eval"]["triplet_metric"]
        acc = triplet_accuracy(embedder.embed, triplets, metric=metric)
        report = {"triplet_accuracy": acc, "n": len(triplets), "metric": metric}
        table = [("triplet_accuracy", acc)]
    else:
        records = load_labeled_texts(eval_path)
        label_map = build_label_map([r.label for r in records])
        features = embedder.embed([r.text for r in records])
        labels = [label_map[r.label] for r in records]
        probe = probe_accuracy(
            features,
            labels,
            k=cfg["eval"]["folds"],
            seed=cfg["eval"]["seed"],
            steps=cfg["eval"]["probe_epochs"],
            lr=cfg["eval"]["probe_lr"],
            l2=cfg["eval"]["probe_l2"],
        )
        report = {**probe, "n": len(records), "n_classes": len(label_map)}
        table = [("probe_accuracy", probe["accuracy"])]
        for warning in probe["warnings"]:
            _say(args, f"warning: {warning}")

    report["task"] = task
    run_dir = _run_dir(args)
    _write_json(run_dir / "effective-config.json", cfg)
    _write_json(run_dir / "report.json", report)
    for name, value in table:
        _say(args, f"{name:<18} {value * 100:.2f}")
    _emit(report)
    return 0


def cmd_search(args, cfg: dict) -> int:
    store_path = args.store or cfg["data"]["store"]
    if not store_path:
        raise CliError(EXIT_CONFIG, "config field data.store (or --store) is required to search")
    if not Path(store_path).exists():
        raise CliError(EXIT_DATA, f"store {store_path} does not exist")
    store = VectorStore.load(store_path)

    if args.pair:
        if len(store.ids) < 2:
            raise CliError(EXIT_DEGENERATE, "most-similar-pair needs at least 2 vectors")
        result = most_similar_pair(store)
        report = {
            "id_a": result.id_a,
            "id_b": result.id_b,
            "score": result.score,
            "comparisons": result.comparisons,
        }
        _say(args, f"most similar: {result.id_a} / {result.id_b} (cosine {result.score:.4f})")
        _emit(report)
        return 0

    if args.query is None:
        raise CliError(EXIT_CONFIG, "search needs --query TEXT or --pair")
    ckpt = _require(cfg, "data", "checkpoint", "to embed the query")
    embedder = _load_embedder(ckpt)
    if embedder.dim != store.dim:
        raise DimensionMismatchError(
            f"checkpoint produces dim {embedder.dim} but store {store_path} holds dim {store.dim}"
        )
    query_vec = embedder.embed([args.query])[0]
    try:
        hits = top_k(store, query_vec, args.k)
    except ValueError as exc:
        raise CliError(EXIT_DEGENERATE, str(exc))
    report = {
        "query": args.query,
        "k": args.k,
        "hits": [{"id": id_, "score": score} for id_, score in hits],
    }
    for id_, score in hits:
        _say(args, f"{id_:<12} {score:.4f}")
    _emit(report)
    return 0


def cmd_bench(args, cfg: dict) -> int:
    corpus_path = _require(cfg, "data", "corpus", "to benchmark on")
    sentences = _read_corpus(corpus_path)
    if cfg["data"]["checkpoint"]:
        embedder = _load_embedder(cfg["data"]["checkpoint"])
    else:
        embedder = _fresh_embedder(cfg, sentences, cfg["train"]["seed"])

    batch_size = cfg["train"]["batch_size"]
    seed = cfg["train"]["seed"]
    if args.paired:
        smart = bench_embedding(embedder, sentences, batch_size=batch_size, smart=True, seed=seed)
        naive = bench_embedding(embedder, sentences, batch_size=batch_size, smart=False, seed=seed)
        report = {
            "smart": smart,
            "naive": naive,
            "throughput_ratio": smart["sentences_per_second"] / naive["sentences_per_second"],
            "padded_token_ratio": naive["padded_token_count"] / smart["padded_token_count"],
        }
        _say(args, f"smart: {smart['sentences_per_second']:.1f} sent/s, "
                   f"{smart['padded_token_count']} padded tokens")
        _say(args, f"naive: {naive['sentences_per_second']:.1f} sent/s, "
                   f"{naive['padded_token_count']} padded tokens")
        _say(args, f"throughput ratio {report['throughput_ratio']:.2f}")
    else:
        smart = cfg["train"]["smart_batching"] if args.mode is None else args.mode == "smart"
        report = bench_embedding(embedder, sentences, batch_size=batch_size, smart=smart, seed=seed)
        _say(args, f"{report['mode']}: {report['sentences_per_second']:.1f} sent/s")

    run_dir = _run_dir(args)
    _write_json(run_dir / "effective-config.json", cfg)
    _write_json(run_dir / "report.json", report)
    _emit(report)
    return 0


def cmd_inspect(args, cfg: dict) -> int:
    path = args.checkpoint
    if not Path(path).exists():
        raise CliError(EXIT_DATA, f"checkpoint {path} does not exist")
    manifest, params = load_checkpoint(path)
    entries = [
        {"name": name, "shape": list(array.shape)} for name, array in params.items()
    ]
    report = {
        "path": str(path),
        "format_version": CHECKPOINT_VERSION,
        "encoder": manifest["config"],
        "pooling": manifest["pooling"],
        "include_special": manifest["include_special"],
        "vocab_size": len(manifest["vocab"]) + 4,
        "objective": manifest["objective"],
        "steps": manifest["steps"],
        "parameters": entries,
        "total_parameters": sum(int(np.prod(e["shape"])) for e in entries),
    }
    width = max(len(e["name"]) for e in entries)
    for entry in entries:
        _say(args, f"{entry['name']:<{width}}  {tuple(entry['shape'])}")
    _say(args, f"total parameters: {report['total_parameters']}")
    _emit(report)
    return 0


def _add_common(sub, with_config: bool = True):
    sub.add_argument("--quiet", action="store_true", help="suppress human output on stderr")
    if with_config:
        sub.add_argument("--config", help="JSON config file; flags like --train.lr override it")
        sub.add_argument("--name", default=None, help="run name under the runs root")
        sub.add_argument("--runs-root", default="runs", help="directory that holds run outputs")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semb", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command")

    p = commands.add_parser("train", help="train an embedder and save a checkpoint")
    _add_common(p)
    p.add_argument("--objective", choices=OBJECTIVES, help="shortcut for --train.objective")
    p.add_argument("--epochs", type=int, help="shortcut for --train.epochs")
    p.add_argument("--seed", type=int, help="shortcut for --train.seed")

    p = commands.add_parser("ablate", help="pooling x combine-mode grid with seed spread")
    _add_common(p)
    p.add_argument("--poolings", default=",".join(POOLING_MODES),
                   help="comma-separated pooling modes")
    p.add_argument("--modes", default=";".join(COMBINE_MODES),
                   help="semicolon-separated combine modes (mode names contain commas)")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated training seeds")

    p = commands.add_parser("embed", help="embed a corpus file into a vector store")
    _add_common(p)
    p.add_argument("--out", help="store path (default <run>/vectors.semv)")

    p = commands.add_parser("eval", help="score a checkpoint on an eval file")
    _add_common(p)
    p.add_argument("--task", choices=("sts", "triplet", "probe"),
                   help="eval task; inferred from the file's fields when omitted")

    p = commands.add_parser("search", help="query a vector store")
    _add_common(p)
    p.add_argument("--store", help="vector store path (or set data.store)")
    p.add_argument("--query", help="sentence to search for")
    p.add_argument("-k", type=int, default=5, help="number of hits")
    p.add_argument("--pair", action="store_true", help="report the most similar pair instead")

    p = commands.add_parser("bench", help="throughput and padding benchmark")
    _add_common(p)
    p.add_argument("--paired", action="store_true", help="run smart and naive and report the ratio")
    p.add_argument("--mode", choices=("smart", "naive"),
                   help="batching to time; train.smart_batching decides when omitted")

    p = commands.add_parser("inspect", help="dump checkpoint metadata")
    p.add_argument("checkpoint", help="checkpoint file to inspect")
    _add_common(p, with_config=False)

    return parser


_COMMANDS = {
    "train": cmd_train,
    "ablate": cmd_ablate,
    "embed": cmd_embed,
    "eval": cmd_eval,
    "search": cmd_search,
    "bench": cmd_bench,
    "inspect": cmd_inspect,
}


def _fail(args, exit_code: int, message: str) -> int:
    _emit({"error": {"exit_code": exit_code, "message": message}})
    if args is None or not args.quiet:
        print(f"error: {message}", file=sys.stderr)
    return exit_code


def main(argv=None) -> int:
    parser = _build_parser()
    args, leftovers = parser.parse_known_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    if args.command != "inspect" and getattr(args, "name", None) is None:
        args.name = args.command
    try:
        if args.command == "inspect":
            if leftovers:
                raise CliError(EXIT_CONFIG, f"unrecognized arguments: {' '.join(leftovers)}")
            cfg = None
        else:
            cfg = _load_config(args, leftovers)
        return _COMMANDS[args.command](args, cfg)
    except CliError as exc:
        return _fail(args, exc.exit_code, str(exc))
    except DataFormatError as exc:
        return _fail(args, EXIT_DATA, str(exc))
    except DimensionMismatchError as exc:
        return _fail(args, EXIT_CHECKPOINT, str(exc))
    except FormatError as exc:
        return _fail(args, EXIT_DATA, str(exc))
    except DegenerateEvalError as exc:
        return _fail(args, EXIT_DEGENERATE, str(exc))
    except Exception as exc:  # keep the stdout JSON contract even on crashes
        traceback.print_exc()
        return _fail(args, 1, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
