"""Command-line entry points for training, evaluation, search, and benchmarks.

Every invocation prints exactly one JSON document to stdout, from `main`
alone: a command's report, `{"help": ...}` for `--help`, or `{"error": ...}`.
Anything meant for people (tables, progress, help) goes to stderr and
`--quiet` silences what commands say there. Each config field is an argparse
option `--section.key VALUE`, listed by `semb <command> --help`; its value is
read as JSON, or else kept as a string, and the last flag on the line wins.
Commands that produce artifacts write them under `runs/<name>/`, starting
with `effective-config.json` (defaults merged with the config file and then
the flags) so a run can be repeated from that file alone.

Exit codes: 2 config or usage error (message names the field or flag), 3 a file that
cannot be opened or a data-format error (message names the file, and the
line where there is one), 4 checkpoint/store dimension mismatch,
5 degenerate evaluation, 1 anything else.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import sys
import traceback
from dataclasses import fields
from pathlib import Path

import numpy as np

from semb.binio import DimensionMismatchError, FormatError, write_atomic
from semb.checkpoint import VERSION as CHECKPOINT_VERSION
from semb.checkpoint import load_checkpoint
from semb.data import (
    JSON_ERRORS,
    DataFormatError,
    _iter_jsonl,
    build_label_map,
    check_value,
    load_labeled_texts,
    load_scored_pairs,
    load_triplets,
    read_lines,
)
from semb.embedder import SentenceEmbedder
from semb.encoder import Encoder, EncoderConfig, Vocab
from semb.evaluation import DegenerateEvalError, EvalConfig, evaluate_similarity, probe_accuracy, triplet_accuracy
from semb.objectives import COMBINE_MODES
from semb.pooling import POOLING_MODES
from semb.search import VectorStore, bench_embedding, embed_corpus, most_similar_pair, top_k
from semb.trainer import OBJECTIVES, TrainConfig, example_texts, multi_seed_run, train

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_DEGENERATE = 5


# what `open` raises for a path that is missing, unreadable or not a file
_UNOPENABLE = (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError)


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


# The full config schema with its defaults: any key not present here is
# rejected with its dotted path. The encoder, train and eval sections are
# the dataclasses' own fields, which check their own values; the encoder
# section adds the embedder's pooling settings, name -> (annotation,
# default), checked by the same rules. Paths are strings, null until set.
_EMBEDDER_FIELDS = {"pooling": ("str", "mean"), "include_special": ("bool", True)}
_DEFAULTS = {
    "encoder": {
        **{f.name: f.default for f in fields(EncoderConfig) if f.name != "vocab_size"},
        **{key: default for key, (_, default) in _EMBEDDER_FIELDS.items()},
    },
    "train": {f.name: f.default for f in fields(TrainConfig)},
    "eval": {f.name: f.default for f in fields(EvalConfig)},
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

def _merge_section(cfg: dict, section: str, content) -> None:
    if section not in _DEFAULTS:
        raise CliError(EXIT_CONFIG, f"unknown config section {section!r}")
    if not isinstance(content, dict):
        raise CliError(EXIT_CONFIG, f"config section {section!r} must be an object")
    for key, value in content.items():
        if key not in _DEFAULTS[section]:
            raise CliError(EXIT_CONFIG, f"unknown config field {section}.{key}")
        if section == "data" and value is not None and not isinstance(value, str):  # file path slots
            raise CliError(EXIT_CONFIG, f"config field {section}.{key} must be a string path or null")
        cfg[section][key] = value


def _parse_override_value(raw: str):
    try:
        return json.loads(raw)
    except JSON_ERRORS:
        return raw  # bare strings like "mean" or "u,v,abs"; the field's type check rejects the rest


def _load_config(args) -> dict:
    cfg = copy.deepcopy(_DEFAULTS)
    config_path = args.config
    if config_path:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise CliError(EXIT_CONFIG, f"cannot read config {config_path}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise CliError(EXIT_CONFIG, f"config {config_path} is not UTF-8: byte {exc.object[exc.start]:#04x}"
                                        f" at offset {exc.start}")
        try:
            loaded = json.loads(text)
        except JSON_ERRORS as exc:
            raise CliError(EXIT_CONFIG, f"config {config_path} is not valid JSON: {getattr(exc, 'msg', exc)}")
        if not isinstance(loaded, dict):
            raise CliError(EXIT_CONFIG, f"config {config_path} must be a JSON object")
        for section, content in loaded.items():
            _merge_section(cfg, section, content)
    # the flags, dotted and shortcut alike, store under their field's dotted path
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot:
            _merge_section(cfg, section, {key: value})
    _check_config(cfg)
    return cfg


def _check_config(cfg: dict) -> None:
    """Check every field of the merged config, whether or not the command uses it, and store each value as checked."""
    for section, build in (("encoder", lambda: vars(_encoder_config(cfg, Vocab([]).size))),
                           ("encoder", lambda: {key: check_value(key, cfg["encoder"][key], kind)
                                                for key, (kind, _) in _EMBEDDER_FIELDS.items()}),
                           ("train", lambda: vars(TrainConfig(**cfg["train"]))),
                           ("eval", lambda: vars(EvalConfig(**cfg["eval"])))):
        try:
            values = build()
        except ValueError as exc:  # the message starts with the field's name
            raise CliError(EXIT_CONFIG, f"config field {section}.{exc}")
        cfg[section].update((k, v) for k, v in values.items() if k in cfg[section])
    _validate_choice(cfg["encoder"]["pooling"], POOLING_MODES, "encoder.pooling")


def _require(cfg: dict, section: str, key: str, why: str) -> str:
    value = cfg[section][key]
    if value is None:
        raise CliError(EXIT_CONFIG, f"config field {section}.{key} is required {why}")
    return value


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text, file=sys.stderr)


def _emit(obj) -> None:
    # strict JSON, serialized whole first: a NaN raises before anything is printed
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _json_score(score: float) -> float | None:
    """A score as strict JSON can hold it: a dead row's -inf, the only one that is not finite, becomes null."""
    return score if np.isfinite(score) else None


def _write_json(path: Path, obj) -> None:
    write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8"))


def _run_dir(args, cfg: dict) -> Path:
    """Create the run's directory and write the config it ran with."""
    out = Path(args.runs_root) / args.name
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "effective-config.json", cfg)
    return out


def _finish(run_dir: Path, report: dict) -> dict:
    """Write the run's report.json; `main` prints the same document."""
    _write_json(run_dir / "report.json", report)
    return report


def _read_corpus(path: str) -> list[str]:
    # a corpus line also ends at U+2028 and the other breaks str.splitlines knows
    lines = [line for _, raw in read_lines(path) for line in raw.splitlines()]
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


def _vocab(cfg: dict, texts) -> Vocab:
    """The vocabulary file data.vocab names, or else one built from `texts`."""
    path = cfg["data"]["vocab"]
    return Vocab.from_file(path) if path else Vocab.from_corpus(texts)


def _fresh_embedder(cfg: dict, vocab: Vocab, seed: int) -> SentenceEmbedder:
    encoder = Encoder(_encoder_config(cfg, vocab.size), seed=seed)
    embedder_fields = {k: cfg["encoder"][k] for k in _EMBEDDER_FIELDS}
    return SentenceEmbedder(vocab, encoder, **embedder_fields)


def _load_or_fresh(cfg: dict, key: str, texts) -> SentenceEmbedder:
    """The checkpoint data.<key> names, or else a fresh embedder over a vocabulary of `texts`."""
    path = cfg["data"][key]
    if path:
        return SentenceEmbedder.load(path)
    return _fresh_embedder(cfg, _vocab(cfg, texts), cfg["train"]["seed"])


def _scorer(task: str, path: str, cfg: dict):
    """Read an sts, triplet or probe file once; returns a function from embedder to report."""
    settings = cfg["eval"]
    if task == "sts":
        pairs = load_scored_pairs(path)
        return lambda model: evaluate_similarity(model.embed, pairs, metric=settings["similarity"])
    if task == "triplet":
        triplets = load_triplets(path)
        metric = settings["triplet_metric"]
        return lambda model: {
            "triplet_accuracy": triplet_accuracy(model.embed, triplets, metric=metric),
            "n": len(triplets),
            "metric": metric,
        }
    records = load_labeled_texts(path)
    label_map = build_label_map([r.label for r in records])
    labels = [label_map[r.label] for r in records]

    def probe(model):
        features = model.embed([r.text for r in records])
        result = probe_accuracy(features, labels, k=settings["folds"], seed=settings["seed"],
                                steps=settings["probe_epochs"], lr=settings["probe_lr"], l2=settings["probe_l2"])
        return {**result, "n": len(records), "n_classes": len(label_map)}

    return probe


def cmd_train(args, cfg: dict) -> dict:
    objective = cfg["train"]["objective"]
    train_path = _require(cfg, "data", "train", "to train on")
    examples = OBJECTIVES[objective].reader(train_path)
    embedder = _load_or_fresh(cfg, "init_checkpoint", (text for ex in examples for text in example_texts(ex)))

    dev_path = cfg["data"]["dev"]
    dev_eval = _scorer("triplet" if objective == "triplet" else "sts", dev_path, cfg) if dev_path else None
    run_dir = _run_dir(args, cfg)
    tcfg = TrainConfig(**cfg["train"])
    ckpt_path = run_dir / "checkpoint.semb"

    with open(run_dir / "metrics.jsonl", "w", encoding="utf-8") as metrics_file:

        def on_step(record):
            metrics_file.write(json.dumps(record, sort_keys=True) + "\n")

        result = train(embedder, examples, tcfg, on_step=on_step, epoch_eval=dev_eval)

    manifest = {"objective": objective, **{key: getattr(tcfg, key) for key in OBJECTIVES[objective].recorded}}
    if result.label_map is not None:
        manifest["label_map"] = result.label_map
    embedder.save(ckpt_path, objective=manifest, steps=result.total_steps)

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
    _say(args, f"trained {objective} for {tcfg.epochs} epoch(s), {result.total_steps} steps; "
               f"final loss {result.final_loss:.4f}")
    if dev_metrics:
        shown = ", ".join(f"{k} {v * 100:.2f}" for k, v in dev_metrics.items()
                          if isinstance(v, float))
        _say(args, f"dev: {shown}")
    _say(args, f"checkpoint: {ckpt_path}")
    return _finish(run_dir, report)


def _split_flag(raw: str, sep: str) -> list[str]:
    return [part.strip() for part in raw.split(sep) if part.strip()]


def cmd_ablate(args, cfg: dict) -> dict:
    poolings = _split_flag(args.poolings, ",")
    modes = _split_flag(args.modes, ";")
    try:
        seeds = [int(s) for s in _split_flag(args.seeds, ",")]
    except ValueError:
        raise CliError(EXIT_CONFIG, f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if len(seeds) < 2:
        raise CliError(EXIT_CONFIG, "--seeds needs at least 2 entries")
    for flag, values, allowed in (("--poolings", poolings, POOLING_MODES), ("--modes", modes, COMBINE_MODES)):
        if not values:
            raise CliError(EXIT_CONFIG, f"{flag} needs at least 1 entry")
        for value in values:
            _validate_choice(value, allowed, flag)

    score = _scorer("sts", _require(cfg, "data", "dev", "to score ablation cells"), cfg)

    # each block of the grid runs only when its training file is set:
    # data.train feeds the pooling x combine-mode classification cells,
    # data.regression_train feeds one regression cell per pooling
    training = {}  # objective -> (examples, vocab), both shared by every cell and seed
    for objective, key in (("classification", "train"), ("regression", "regression_train")):
        if cfg["data"][key]:
            examples = OBJECTIVES[objective].reader(cfg["data"][key])
            training[objective] = examples, _vocab(cfg, [text for ex in examples for text in example_texts(ex)])
    if not training:
        raise CliError(EXIT_CONFIG, "ablate needs data.train or data.regression_train")

    cells = []
    if "classification" in training:
        for pooling in poolings:
            for mode in modes:
                cells.append(("classification", pooling, mode))
    if "regression" in training:
        for pooling in poolings:
            cells.append(("regression", pooling, None))

    def run_cell(cell):
        objective, pooling, mode = cell
        examples, vocab = training[objective]

        def run_one(seed):
            local = copy.deepcopy(cfg)
            local["encoder"]["pooling"] = pooling
            # a regression cell has no combine mode and keeps the configured one
            local["train"].update(objective=objective, seed=seed, combine_mode=mode or cfg["train"]["combine_mode"])
            embedder = _fresh_embedder(local, vocab, seed)
            train(embedder, examples, TrainConfig(**local["train"]))
            return score(embedder)["spearman"] * 100.0

        try:
            summary = multi_seed_run(run_one, seeds)
        except (ValueError, RuntimeError) as exc:
            return {"objective": objective, "pooling": pooling, "mode": mode, "error": str(exc)}
        return {"objective": objective, "pooling": pooling, "mode": mode, **summary}

    results = [run_cell(cell) for cell in cells]

    run_dir = _run_dir(args, cfg)
    report = {"seeds": seeds, "metric": cfg["eval"]["similarity"], "cells": results}

    _say(args, f"{'objective':<15} {'pooling':<8} {'mode':<14} spearman x100")
    for row in results:
        shown = row.get("formatted", f"failed: {row.get('error')}")
        _say(args, f"{row['objective']:<15} {row['pooling']:<8} {str(row['mode'] or '-'):<14} {shown}")
    return _finish(run_dir, report)


def cmd_embed(args, cfg: dict) -> dict:
    ckpt = _require(cfg, "data", "checkpoint", "to embed with")
    corpus_path = _require(cfg, "data", "corpus", "to embed")
    embedder = SentenceEmbedder.load(ckpt)
    sentences = _read_corpus(corpus_path)
    store = embed_corpus(
        embedder,
        [(str(i), text) for i, text in enumerate(sentences)],
        batch_size=cfg["train"]["batch_size"],
        smart=cfg["train"]["smart_batching"],
    )
    run_dir = _run_dir(args, cfg)
    out_path = Path(args.out) if args.out else run_dir / "vectors.semv"
    store.save(out_path)
    report = {"count": len(store.ids), "dim": store.dim, "store": str(out_path)}
    _say(args, f"embedded {report['count']} sentences at dim {report['dim']} -> {out_path}")
    return _finish(run_dir, report)


def _sniff_task(path: str) -> str:
    for lineno, obj in _iter_jsonl(path):
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


def cmd_eval(args, cfg: dict) -> dict:
    ckpt = _require(cfg, "data", "checkpoint", "to evaluate")
    eval_path = _require(cfg, "data", "eval", "to evaluate on")
    task = args.task or _sniff_task(eval_path)
    embedder = SentenceEmbedder.load(ckpt)
    report = {**_scorer(task, eval_path, cfg)(embedder), "task": task}
    run_dir = _run_dir(args, cfg)
    for warning in report.get("warnings", []):
        _say(args, f"warning: {warning}")
    for name, value in report.items():
        if isinstance(value, float):
            _say(args, f"{name:<18} {value * 100:.2f}")
    return _finish(run_dir, report)


def cmd_search(args, cfg: dict) -> dict:
    store_path = _require(cfg, "data", "store", "to search")
    store = VectorStore.load(store_path)

    if args.pair:
        if len(store.ids) < 2:
            raise CliError(EXIT_DEGENERATE, "most-similar-pair needs at least 2 vectors")
        result = most_similar_pair(store)
        report = {
            "id_a": result.id_a,
            "id_b": result.id_b,
            "score": _json_score(result.score),
            "comparisons": result.comparisons,
        }
        _say(args, f"most similar: {result.id_a} / {result.id_b} (cosine {result.score:.4f})")
        return report

    if args.query is None:
        raise CliError(EXIT_CONFIG, "search needs --query TEXT or --pair")
    ckpt = _require(cfg, "data", "checkpoint", "to embed the query")
    embedder = SentenceEmbedder.load(ckpt)
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
        "hits": [{"id": id_, "score": _json_score(score)} for id_, score in hits],
    }
    for id_, score in hits:
        _say(args, f"{id_:<12} {score:.4f}")
    return report


def cmd_bench(args, cfg: dict) -> dict:
    corpus_path = _require(cfg, "data", "corpus", "to benchmark on")
    sentences = _read_corpus(corpus_path)
    embedder = _load_or_fresh(cfg, "checkpoint", sentences)

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
        report = bench_embedding(embedder, sentences, batch_size=batch_size,
                                 smart=cfg["train"]["smart_batching"], seed=seed)
        _say(args, f"{report['mode']}: {report['sentences_per_second']:.1f} sent/s")

    return _finish(_run_dir(args, cfg), report)


def cmd_inspect(args, cfg: dict) -> dict:
    path = args.checkpoint
    manifest, params = load_checkpoint(path)
    SentenceEmbedder.from_checkpoint(path, manifest, params)  # inspect reads only what load accepts
    entries = [
        {"name": name, "shape": list(array.shape)} for name, array in params.items()
    ]
    report = {
        "path": str(path),
        "format_version": CHECKPOINT_VERSION,
        "encoder": manifest["config"],
        "pooling": manifest["pooling"],
        "include_special": manifest["include_special"],
        "vocab_size": manifest["config"].get("vocab_size"),
        "objective": manifest["objective"],
        "steps": manifest["steps"],
        "parameters": entries,
        "total_parameters": sum(int(np.prod(e["shape"])) for e in entries),
    }
    width = max((len(e["name"]) for e in entries), default=0)
    for entry in entries:
        _say(args, f"{entry['name']:<{width}}  {tuple(entry['shape'])}")
    _say(args, f"total parameters: {report['total_parameters']}")
    return report


def _add_command(commands, name: str, run, summary: str, with_config: bool = True):
    """Add subcommand `name`, run as `run(args, cfg)`; a config brings the run flags and one flag per field."""
    sub = commands.add_parser(name, help=summary)
    sub.set_defaults(run=run)
    sub.add_argument("--quiet", action="store_true", help="suppress human output on stderr")
    if with_config:
        sub.add_argument("--config", help="JSON config file; the flags below override it")
        sub.add_argument("--name", default=name, help="run name under the runs root (default: the command)")
        sub.add_argument("--runs-root", default="runs", help="directory that holds run outputs")
        for section, content in _DEFAULTS.items():
            for key, default in content.items():
                sub.add_argument(f"--{section}.{key}", type=_parse_override_value, default=argparse.SUPPRESS,
                                 metavar="VALUE", help=f"config field (default {json.dumps(default)})")
    return sub


class _Help(Exception):
    """`--help` was given; the exception carries the help text for `main` to print."""


class _ArgumentParser(argparse.ArgumentParser):
    """Help and usage errors go through `main`, so stdout still holds one JSON document."""

    def __init__(self, **kwargs):
        # an abbreviation such as --data.regression must not quietly mean --data.regression_train
        super().__init__(allow_abbrev=False, **kwargs)

    def print_help(self, file=None):
        raise _Help(self.format_help())

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(EXIT_CONFIG, f"{self.prog}: {message}")


class _CommandParser(_ArgumentParser):
    """A subcommand refuses its own leftover arguments, so the usage line shown is the command's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _count(text: str) -> int:
    """An argparse type: an int of at least 1, so a bad -k is a usage error before any file opens."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache  # a process may call `main` many times, and each parse leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="semb", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = _add_command(commands, "train", cmd_train, "train an embedder and save a checkpoint")
    # the shortcuts store under their field's dotted path, so the last flag given wins
    p.add_argument("--objective", dest="train.objective", choices=OBJECTIVES, default=argparse.SUPPRESS,
                   help="shortcut for --train.objective")
    p.add_argument("--epochs", dest="train.epochs", metavar="EPOCHS", type=int, default=argparse.SUPPRESS,
                   help="shortcut for --train.epochs")
    p.add_argument("--seed", dest="train.seed", metavar="SEED", type=int, default=argparse.SUPPRESS,
                   help="shortcut for --train.seed")

    p = _add_command(commands, "ablate", cmd_ablate, "pooling x combine-mode grid with seed spread")
    p.add_argument("--poolings", default=",".join(POOLING_MODES),
                   help="comma-separated pooling modes")
    p.add_argument("--modes", default=";".join(COMBINE_MODES),
                   help="semicolon-separated combine modes (mode names contain commas)")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated training seeds")

    p = _add_command(commands, "embed", cmd_embed, "embed a corpus file into a vector store")
    p.add_argument("--out", help="store path (default <run>/vectors.semv)")

    p = _add_command(commands, "eval", cmd_eval, "score a checkpoint on an eval file")
    p.add_argument("--task", choices=("sts", "triplet", "probe"),
                   help="eval task; inferred from the file's fields when omitted")

    p = _add_command(commands, "search", cmd_search, "query a vector store")
    p.add_argument("--store", dest="data.store", metavar="PATH", default=argparse.SUPPRESS,
                   help="shortcut for --data.store")
    p.add_argument("--query", help="sentence to search for")
    p.add_argument("-k", type=_count, default=5, help="number of hits (at least 1)")
    p.add_argument("--pair", action="store_true", help="report the most similar pair instead")

    p = _add_command(commands, "bench", cmd_bench, "throughput and padding benchmark")
    p.add_argument("--paired", action="store_true", help="run smart and naive and report the ratio")

    p = _add_command(commands, "inspect", cmd_inspect, "dump checkpoint metadata", with_config=False)
    p.add_argument("checkpoint", help="checkpoint file to inspect")

    return parser


def _fail(args, exit_code: int, message: str) -> int:
    _emit({"error": {"exit_code": exit_code, "message": message}})
    if args is None or not args.quiet:
        print(f"error: {message}", file=sys.stderr)
    return exit_code


def main(argv=None) -> int:
    args = None  # until the arguments parse
    try:
        args = _build_parser().parse_args(argv)
        cfg = None if args.command == "inspect" else _load_config(args)
        _emit(args.run(args, cfg))
        return 0
    except _Help as exc:
        print(exc, end="", file=sys.stderr)
        _emit({"help": str(exc)})
        return 0
    except CliError as exc:
        return _fail(args, exc.exit_code, str(exc))
    except DimensionMismatchError as exc:
        return _fail(args, EXIT_CHECKPOINT, str(exc))
    except (DataFormatError, FormatError) as exc:
        return _fail(args, EXIT_DATA, str(exc))
    except DegenerateEvalError as exc:
        return _fail(args, EXIT_DEGENERATE, str(exc))
    except _UNOPENABLE as exc:  # every input file that is missing or unreadable, and any run file
        return _fail(args, EXIT_DATA, f"cannot open {exc.filename}: {exc.strerror}")
    except Exception as exc:  # keep the stdout JSON contract even on crashes
        traceback.print_exc()
        return _fail(args, 1, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
