import contextlib
import io
import json
import filecmp
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semb import cli, synth
from semb.checkpoint import load_checkpoint, save_checkpoint
from semb.cli import main
from semb.embedder import SentenceEmbedder
from semb.search import VectorStore

TINY = [
    "--encoder.dim", "16", "--encoder.n_layers", "1",
    "--encoder.n_heads", "2", "--encoder.ffn_dim", "32",
]


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def sts_records(n, seed):
    return [
        {"a": p.a, "b": p.b, "score": p.score} for p in synth.make_sts_pairs(n, seed=seed)
    ]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    write_jsonl(root / "train.jsonl", sts_records(40, seed=0))
    write_jsonl(root / "dev.jsonl", sts_records(20, seed=1))
    write_jsonl(
        root / "nli.jsonl",
        [{"a": a, "b": b, "label": lab} for a, b, lab in synth.make_nli_pairs(30, seed=2)],
    )
    write_jsonl(
        root / "tri.jsonl",
        [
            {"anchor": t.anchor, "positive": t.positive, "negative": t.negative}
            for t in synth.make_triplets(25, seed=3)
        ],
    )
    write_jsonl(
        root / "probe.jsonl",
        [{"text": a, "label": lab} for a, b, lab in synth.make_nli_pairs(40, seed=4)],
    )
    corpus = []
    for pair in synth.make_sts_pairs(60, seed=5):
        if pair.a not in corpus:
            corpus.append(pair.a)
    (root / "corpus.txt").write_text("\n".join(corpus[:30]) + "\n", encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def trained_run(workspace):
    code = main(
        ["train", "--data.train", str(workspace / "train.jsonl"),
         "--data.dev", str(workspace / "dev.jsonl"),
         "--runs-root", str(workspace / "runs"), "--name", "base", "--quiet"] + TINY
    )
    assert code == 0
    return workspace / "runs" / "base"


def strict_json(text):
    """json.loads that refuses NaN and Infinity, as strict JSON parsers do."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_cli(capsys, argv):
    """Run one command; its stdout must be one strict JSON document, whatever the exit code."""
    code = main(argv)
    out, err = capsys.readouterr()
    strict_json(out)
    return code, out, err


def test_train_writes_run_artifacts(workspace, trained_run):
    for name in ("effective-config.json", "checkpoint.semb", "metrics.jsonl", "report.json"):
        assert (trained_run / name).exists()
    records = [json.loads(line) for line in (trained_run / "metrics.jsonl").read_text().splitlines()]
    step_records = [r for r in records if "step" in r]
    epoch_records = [r for r in records if "epoch" in r]
    assert {"step", "lr", "loss"} <= set(step_records[0])
    assert len(epoch_records) == 1  # one epoch, dev set attached
    assert "spearman" in epoch_records[0]


def test_train_stdout_is_json_and_quiet_silences_stderr(workspace, capsys):
    code, out, err = run_cli(
        capsys,
        ["train", "--data.train", str(workspace / "train.jsonl"),
         "--runs-root", str(workspace / "runs"), "--name", "quiet", "--quiet"] + TINY,
    )
    assert code == 0
    report = json.loads(out)
    assert report["objective"] == "regression"
    assert err == ""


def test_unknown_config_field_exits_2_with_field_path(workspace, capsys):
    code, out, _ = run_cli(
        capsys,
        ["train", "--train.lrr", "5", "--data.train", str(workspace / "train.jsonl"), "--quiet"],
    )
    assert code == 2
    assert "train.lrr" in json.loads(out)["error"]["message"]


def test_wrong_field_type_exits_2(workspace, capsys):
    code, out, _ = run_cli(
        capsys,
        ["train", "--train.epochs", "three", "--data.train", str(workspace / "train.jsonl"),
         "--quiet"],
    )
    assert code == 2
    assert "train.epochs" in json.loads(out)["error"]["message"]


def command_argv(command, workspace, trained_run):
    """A working invocation of `command` on the workspace files."""
    ckpt = str(trained_run / "checkpoint.semb")
    corpus = str(workspace / "corpus.txt")
    return {
        "train": ["train", "--data.train", str(workspace / "train.jsonl")] + TINY,
        "eval": ["eval", "--data.checkpoint", ckpt, "--data.eval", str(workspace / "probe.jsonl")],
        "embed": ["embed", "--data.checkpoint", ckpt, "--data.corpus", corpus],
        "bench": ["bench", "--data.corpus", corpus] + TINY,
    }[command]


@pytest.mark.parametrize(
    "command, flags, field",
    [
        ("train", ["--encoder.n_heads", "0"], "encoder.n_heads"),
        ("train", ["--encoder.n_heads", "3"], "encoder.n_heads"),
        ("train", ["--encoder.dim", "0"], "encoder.dim"),
        ("train", ["--encoder.dim", "-4"], "encoder.dim"),
        ("train", ["--encoder.max_seq_len", "1"], "encoder.max_seq_len"),
        ("train", ["--encoder.ffn_dim", "0"], "encoder.ffn_dim"),
        ("train", ["--encoder.n_layers", "-1"], "encoder.n_layers"),
        ("train", ["--seed", "-1"], "train.seed"),
        ("train", ["--train.seed", "-1"], "train.seed"),
        ("train", ["--train.lr", "NaN"], "train.lr"),
        ("train", ["--train.margin", "Infinity"], "train.margin"),
        ("eval", ["--eval.folds", "1"], "eval.folds"),
        ("eval", ["--eval.seed", "-1"], "eval.seed"),
        # fields the command does not use are checked all the same
        ("embed", ["--train.objective", "bogus"], "train.objective"),
        ("embed", ["--encoder.pooling", "bogus"], "encoder.pooling"),
        ("embed", ["--train.batch_size", "0"], "train.batch_size"),
        ("embed", ["--train.batch_size", "-3", "--train.smart_batching", "false"], "train.batch_size"),
        ("bench", ["--train.batch_size", "0"], "train.batch_size"),
        ("bench", ["--train.batch_size", "-3"], "train.batch_size"),
        ("eval", ["--eval.probe_epochs", "0"], "eval.probe_epochs"),
        ("eval", ["--eval.probe_lr", "0"], "eval.probe_lr"),
        ("eval", ["--eval.probe_lr", "-0.5"], "eval.probe_lr"),
        ("eval", ["--eval.probe_l2", "-0.001"], "eval.probe_l2"),
    ],
)
def test_out_of_range_config_value_exits_2_naming_the_field(
    workspace, trained_run, capsys, command, flags, field
):
    argv = command_argv(command, workspace, trained_run) + flags
    code, out, _ = run_cli(
        capsys, argv + ["--runs-root", str(workspace / "runs"), "--name", "bad", "--quiet"]
    )
    assert code == 2
    assert field in json.loads(out)["error"]["message"]


@pytest.mark.parametrize(
    "field",
    ["encoder.dim", "encoder.n_layers", "encoder.n_heads", "encoder.ffn_dim", "encoder.max_seq_len",
     "train.epochs", "train.batch_size", "train.seed", "eval.folds", "eval.seed", "eval.probe_epochs"],
)
def test_integer_past_numpy_range_exits_2_naming_the_field(workspace, capsys, field):
    code, out, _ = run_cli(
        capsys,
        ["train", "--data.train", str(workspace / "train.jsonl"), f"--{field}", str(10**29),
         "--runs-root", str(workspace / "runs"), "--name", "huge", "--quiet"],
    )
    assert code == 2
    message = json.loads(out)["error"]["message"]
    assert field in message and "at most" in message


@pytest.mark.parametrize("field", ["encoder.dim", "encoder.ffn_dim", "encoder.max_seq_len"])
def test_encoder_size_past_numpy_array_limit_exits_2_naming_the_field(workspace, capsys, field):
    # 2**62 is a valid int64, but a 64 x 2**62 float64 weight has more bytes than NumPy can index
    code, out, _ = run_cli(
        capsys,
        ["train", "--data.train", str(workspace / "train.jsonl"), f"--{field}", str(2**62),
         "--runs-root", str(workspace / "runs"), "--name", "too-big", "--quiet"],
    )
    assert code == 2
    message = json.loads(out)["error"]["message"]
    assert message.startswith(f"config field {field} is too large")


@pytest.mark.parametrize(
    "change",
    [{"n_heads": 3}, {"colour": "red"}, {"vocab_size": None}],
    ids=["n_heads-does-not-divide-dim", "unknown-key", "missing-vocab-size"],
)
def test_corrupt_manifest_config_exits_3_naming_the_file(
    workspace, trained_run, capsys, tmp_path, change
):
    manifest, params = load_checkpoint(trained_run / "checkpoint.semb")
    config = {**manifest["config"], **change}
    config = {k: v for k, v in config.items() if v is not None}
    bad = tmp_path / "bad-config.semb"
    save_checkpoint(bad, config, manifest["pooling"], manifest["include_special"],
                    manifest["vocab"], params)
    code, out, _ = run_cli(
        capsys,
        ["embed", "--data.checkpoint", str(bad), "--data.corpus", str(workspace / "corpus.txt"),
         "--runs-root", str(workspace / "runs"), "--name", "badcfg", "--quiet"],
    )
    assert code == 3
    assert str(bad) in json.loads(out)["error"]["message"]


def _set_first_param(field, value):
    def change(manifest):
        manifest["params"][0][field] = value

    return change


@pytest.mark.parametrize(
    "change",
    [
        _set_first_param("offset", "x"),
        _set_first_param("offset", 0.0),
        lambda manifest: manifest.update(params=5),
        _set_first_param("shape", 5),
        _set_first_param("shape", [-1, 16]),
        _set_first_param("shape", [True, 16]),
        _set_first_param("name", ["tok_emb"]),
        lambda manifest: manifest.update(steps=-1),
        lambda manifest: manifest.update(steps="40"),
        lambda manifest: manifest.update(config=5),
        lambda manifest: manifest.update(include_special="no"),
        lambda manifest: manifest.update(include_special=0),
        lambda manifest: manifest.update(vocab=[7, 8]),
        lambda manifest: manifest.update(vocab="ab"),
        lambda manifest: manifest.update(pooling=3),
        lambda manifest: manifest.update(config={"dim": -3, "vocab_size": "many"}),
        lambda manifest: manifest.update(objective=5),
    ],
    ids=[
        "offset-string", "offset-float", "params-not-a-list", "shape-not-a-list", "negative-dimension",
        "boolean-dimension", "name-not-a-string", "negative-steps", "steps-string",
        "config-not-an-object", "include-special-string", "include-special-integer", "vocab-of-integers",
        "vocab-string", "pooling-not-a-string", "config-encoder-refuses", "objective-not-an-object",
    ],
)
def test_malformed_manifest_exits_3_naming_the_file(trained_run, capsys, tmp_path, change):
    blob = (trained_run / "checkpoint.semb").read_bytes()
    (length,) = struct.unpack("<I", blob[8:12])  # after the magic and the version
    manifest = json.loads(blob[12 : 12 + length])
    change(manifest)
    text = json.dumps(manifest).encode("utf-8")
    bad = tmp_path / "bad-manifest.semb"
    bad.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + length :])
    code, out, _ = run_cli(capsys, ["inspect", str(bad), "--quiet"])
    assert code == 3
    assert str(bad) in json.loads(out)["error"]["message"]


_HUGE = "1" + "0" * 400  # an integer no float can hold
_TOO_MANY_DIGITS = "7" * 5000  # past Python's limit for int parsing


@pytest.mark.parametrize(
    "manifest",
    ["[" * 100_000, '{"steps": ' + _TOO_MANY_DIGITS + "}"],
    ids=["nested-too-deep", "too-many-digits"],
)
def test_manifest_json_python_cannot_parse_exits_3_naming_the_file(trained_run, capsys, tmp_path, manifest):
    blob = (trained_run / "checkpoint.semb").read_bytes()
    (length,) = struct.unpack("<I", blob[8:12])
    text = manifest.encode("utf-8")
    bad = tmp_path / "deep-manifest.semb"
    bad.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + length :])
    code, out, _ = run_cli(capsys, ["inspect", str(bad), "--quiet"])
    assert code == 3
    assert str(bad) in json.loads(out)["error"]["message"]


@pytest.mark.parametrize(
    "config, flags, said",
    [
        ('{"train": {"lr": ' + _HUGE + "}}", [], "train.lr"),
        ('{"train": {"epochs": ' + _TOO_MANY_DIGITS + "}}", [], "cfg.json"),
        ("[" * 100_000, [], "cfg.json"),
        (None, ["--train.lr", _HUGE], "train.lr"),
        (None, ["--train.epochs", _TOO_MANY_DIGITS], "train.epochs"),
    ],
    ids=["file-float-outside-range", "file-too-many-digits", "file-nested-too-deep",
         "flag-float-outside-range", "flag-too-many-digits"],
)
def test_config_json_no_field_can_hold_exits_2(capsys, tmp_path, config, flags, said):
    if config is not None:
        (tmp_path / "cfg.json").write_text(config, encoding="utf-8")
        flags = ["--config", str(tmp_path / "cfg.json")] + flags
    code, out, _ = run_cli(capsys, ["train", "--data.train", str(tmp_path / "missing.jsonl"), "--quiet"] + flags)
    assert code == 2
    assert said in json.loads(out)["error"]["message"]


def test_default_train_effective_config_is_pinned(workspace, capsys):
    code, _, _ = run_cli(
        capsys,
        ["train", "--data.train", str(workspace / "train.jsonl"),
         "--runs-root", str(workspace / "runs"), "--name", "defaults", "--quiet"],
    )
    assert code == 0
    effective = json.loads(
        (workspace / "runs" / "defaults" / "effective-config.json").read_text()
    )
    assert effective == {
        "encoder": {
            "dim": 64, "n_layers": 2, "n_heads": 4, "ffn_dim": 256, "max_seq_len": 64,
            "dropout": 0.0, "pooling": "mean", "include_special": True,
        },
        "train": {
            "objective": "regression", "lr": 0.001, "epochs": 1, "batch_size": 16,
            "warmup_frac": 0.1, "constant_after_warmup": False, "grad_clip": 1.0, "seed": 0,
            "combine_mode": "u,v,abs", "margin": 1.0, "score_max": 5.0,
            "target_scale": "unit", "smart_batching": True,
        },
        "eval": {
            "similarity": "cosine", "triplet_metric": "euclidean", "folds": 10, "seed": 0,
            "probe_lr": 0.5, "probe_epochs": 300, "probe_l2": 0.001,
        },
        "data": {
            "train": str(workspace / "train.jsonl"), "regression_train": None, "dev": None,
            "eval": None, "corpus": None, "checkpoint": None, "init_checkpoint": None,
            "store": None, "vocab": None,
        },
    }
    # floats stay floats: the file is byte-identical whatever builds the defaults
    assert isinstance(effective["encoder"]["dropout"], float)
    assert isinstance(effective["train"]["grad_clip"], float)


def test_missing_train_file_config_exits_2(capsys):
    code, out, _ = run_cli(capsys, ["train", "--quiet"])
    assert code == 2
    assert "data.train" in json.loads(out)["error"]["message"]


def test_malformed_jsonl_line_17_exits_3(workspace, capsys, tmp_path):
    good = (workspace / "train.jsonl").read_text().splitlines()[:16]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(good) + "\nnot json\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["train", "--data.train", str(bad), "--quiet"] + TINY)
    assert code == 3
    assert "line 17" in json.loads(out)["error"]["message"]


def test_same_seed_is_byte_identical(workspace, capsys):
    argv = ["train", "--data.train", str(workspace / "train.jsonl"), "--seed", "7",
            "--runs-root", str(workspace / "runs"), "--quiet"] + TINY
    assert main(argv + ["--name", "det1"]) == 0
    assert main(argv + ["--name", "det2"]) == 0
    capsys.readouterr()
    assert filecmp.cmp(
        workspace / "runs" / "det1" / "checkpoint.semb",
        workspace / "runs" / "det2" / "checkpoint.semb",
        shallow=False,
    )


def test_triplet_shortcut_flags_produce_checkpoint(workspace, capsys):
    code, out, _ = run_cli(
        capsys,
        ["train", "--objective", "triplet", "--epochs", "1",
         "--data.train", str(workspace / "tri.jsonl"),
         "--runs-root", str(workspace / "runs"), "--name", "tri", "--quiet"] + TINY,
    )
    assert code == 0
    report = json.loads(out)
    assert report["objective"] == "triplet"
    assert Path(report["checkpoint"]).exists()


def test_continuation_reuses_checkpoint_vocab(workspace, trained_run, capsys):
    code, out, _ = run_cli(
        capsys,
        ["train", "--data.train", str(workspace / "train.jsonl"),
         "--data.init_checkpoint", str(trained_run / "checkpoint.semb"),
         "--runs-root", str(workspace / "runs"), "--name", "cont", "--quiet"],
    )
    assert code == 0
    first = json.loads(main_inspect(capsys, trained_run / "checkpoint.semb"))
    second = json.loads(
        main_inspect(capsys, workspace / "runs" / "cont" / "checkpoint.semb")
    )
    assert second["vocab_size"] == first["vocab_size"]
    assert second["encoder"] == first["encoder"]


def main_inspect(capsys, path):
    code, out, _ = run_cli(capsys, ["inspect", str(path), "--quiet"])
    assert code == 0
    return out


def test_embed_then_search_top_hit_is_self(workspace, trained_run, capsys):
    code, out, _ = run_cli(
        capsys,
        ["embed", "--data.checkpoint", str(trained_run / "checkpoint.semb"),
         "--data.corpus", str(workspace / "corpus.txt"),
         "--runs-root", str(workspace / "runs"), "--name", "emb", "--quiet"],
    )
    assert code == 0
    store = json.loads(out)["store"]
    sentences = (workspace / "corpus.txt").read_text().splitlines()
    for idx in (0, 7, 19):
        code, out, _ = run_cli(
            capsys,
            ["search", "--store", store,
             "--data.checkpoint", str(trained_run / "checkpoint.semb"),
             "--query", sentences[idx], "-k", "1", "--quiet"],
        )
        assert code == 0
        hit = json.loads(out)["hits"][0]
        assert hit["id"] == str(idx)
        assert hit["score"] == pytest.approx(1.0, abs=1e-5)


def test_search_most_similar_pair(workspace, trained_run, capsys):
    store = workspace / "runs" / "emb" / "vectors.semv"
    code, out, _ = run_cli(capsys, ["search", "--store", str(store), "--pair", "--quiet"])
    assert code == 0
    report = json.loads(out)
    assert report["comparisons"] == 30 * 29 // 2
    assert report["id_a"] != report["id_b"]


def test_zero_row_scores_print_as_null(trained_run, capsys, tmp_path):
    ckpt = str(trained_run / "checkpoint.semb")
    store = VectorStore(16)  # the TINY encoder's dim
    store.add("real", np.ones(16))
    store.add("zero", np.zeros(16))
    path = str(tmp_path / "zero.semv")
    store.save(path)
    code, out, _ = run_cli(
        capsys, ["search", "--store", path, "--data.checkpoint", ckpt, "--query", "rain", "-k", "2", "--quiet"]
    )
    assert code == 0
    hits = json.loads(out)["hits"]
    assert [hit["id"] for hit in hits] == ["real", "zero"]
    assert hits[1]["score"] is None
    code, out, _ = run_cli(capsys, ["search", "--store", path, "--pair", "--quiet"])
    assert code == 0
    assert json.loads(out)["score"] is None


def test_an_inf_row_hides_no_pair_from_search_pair(capsys, tmp_path):
    store = VectorStore(2)
    store.add_many(["bad", "a", "b"], np.array([[np.inf, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    store.save(tmp_path / "inf.semv")
    code, out, _ = run_cli(capsys, ["search", "--store", str(tmp_path / "inf.semv"), "--pair", "--quiet"])
    assert code == 0
    report = strict_json(out)
    assert (report["id_a"], report["id_b"], report["score"]) == ("a", "b", 1.0)


@pytest.mark.parametrize("count, id_block", [(2, b"a\na"), (2, b"a\n")], ids=["duplicate-id", "empty-id"])
def test_search_store_with_bad_ids_exits_3_naming_the_file(capsys, tmp_path, count, id_block):
    body = b"SEMV" + struct.pack("<IIQI", 1, 2, count, len(id_block)) + id_block
    body += np.ones(count * 2, dtype="<f4").tobytes()
    path = tmp_path / "bad.semv"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    code, out, _ = run_cli(capsys, ["search", "--store", str(path), "--pair", "--quiet"])
    assert code == 3
    assert str(path) in json.loads(out)["error"]["message"]


def test_search_dim_mismatch_exits_4(workspace, capsys):
    argv = ["train", "--data.train", str(workspace / "train.jsonl"),
            "--runs-root", str(workspace / "runs"), "--name", "dim8", "--quiet",
            "--encoder.dim", "8", "--encoder.n_heads", "2",
            "--encoder.n_layers", "1", "--encoder.ffn_dim", "16"]
    assert main(argv) == 0
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys,
        ["search", "--store", str(workspace / "runs" / "emb" / "vectors.semv"),
         "--data.checkpoint", str(workspace / "runs" / "dim8" / "checkpoint.semb"),
         "--query", "rain", "--quiet"],
    )
    assert code == 4
    assert "dim" in json.loads(out)["error"]["message"]


def test_degenerate_two_pair_eval_exits_5(workspace, trained_run, capsys, tmp_path):
    two = tmp_path / "two.jsonl"
    write_jsonl(two, [{"a": "x", "b": "y", "score": 1.0}, {"a": "p", "b": "q", "score": 1.0}])
    code, out, _ = run_cli(
        capsys,
        ["eval", "--data.checkpoint", str(trained_run / "checkpoint.semb"),
         "--data.eval", str(two),
         "--runs-root", str(workspace / "runs"), "--name", "degen", "--quiet"],
    )
    assert code == 5
    assert json.loads(out)["error"]["exit_code"] == 5


def test_eval_infers_task_from_fields(workspace, trained_run, capsys):
    cases = {"dev.jsonl": "sts", "tri.jsonl": "triplet", "probe.jsonl": "probe"}
    for filename, expected in cases.items():
        code, out, _ = run_cli(
            capsys,
            ["eval", "--data.checkpoint", str(trained_run / "checkpoint.semb"),
             "--data.eval", str(workspace / filename),
             "--runs-root", str(workspace / "runs"), "--name", f"ev-{expected}", "--quiet"],
        )
        assert code == 0
        assert json.loads(out)["task"] == expected


def test_bench_paired_reports_both_modes_and_ratio(workspace, capsys, tmp_path):
    skewed = tmp_path / "skewed.txt"
    skewed.write_text(
        "\n".join(synth.make_length_skewed_corpus(40, seed=0)) + "\n", encoding="utf-8"
    )
    code, out, _ = run_cli(
        capsys,
        ["bench", "--data.corpus", str(skewed), "--paired",
         "--runs-root", str(workspace / "runs"), "--name", "bench", "--quiet"] + TINY,
    )
    assert code == 0
    report = json.loads(out)
    assert report["smart"]["mode"] == "cpu_smart"
    assert report["naive"]["mode"] == "cpu_naive"
    assert report["smart"]["padded_token_count"] < report["naive"]["padded_token_count"]
    assert report["throughput_ratio"] > 0
    assert report["smart"]["real_token_count"] == report["naive"]["real_token_count"]


@pytest.mark.parametrize(
    "flags, mode",
    [([], "cpu_smart"), (["--train.smart_batching", "false"], "cpu_naive")],
)
def test_bench_mode_follows_smart_batching_unless_given(workspace, capsys, flags, mode):
    code, out, _ = run_cli(
        capsys,
        ["bench", "--data.corpus", str(workspace / "corpus.txt"),
         "--runs-root", str(workspace / "runs"), "--name", "bench-mode", "--quiet"] + flags + TINY,
    )
    assert code == 0
    assert json.loads(out)["mode"] == mode


def test_inspect_dumps_manifest(workspace, trained_run, capsys):
    out = main_inspect(capsys, trained_run / "checkpoint.semb")
    report = json.loads(out)
    assert report["format_version"] == 1
    assert report["pooling"] == "mean"
    assert report["objective"]["objective"] == "regression"
    names = [p["name"] for p in report["parameters"]]
    assert "tok_emb" in names
    assert report["total_parameters"] > 0


def test_inspect_lists_no_parameters_for_a_checkpoint_without_any(capsys, tmp_path):
    path = tmp_path / "empty.semb"
    save_checkpoint(path, {"vocab_size": 4}, "mean", False, [], params={})
    code, out, err = run_cli(capsys, ["inspect", str(path), "--quiet"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["parameters"] == []
    assert report["total_parameters"] == 0


def test_search_with_a_zero_norm_query_exits_5(trained_run, capsys, tmp_path):
    # an all-zero encoder embeds every text to the zero vector
    embedder = SentenceEmbedder.load(trained_run / "checkpoint.semb")
    for param in embedder.encoder.params.values():
        param.data[...] = 0.0
    ckpt = tmp_path / "zero.semb"
    embedder.save(ckpt)
    store = VectorStore(embedder.dim)
    store.add("real", np.ones(embedder.dim))
    store.save(tmp_path / "one.semv")
    code, out, _ = run_cli(
        capsys, ["search", "--store", str(tmp_path / "one.semv"), "--data.checkpoint", str(ckpt),
                 "--query", "rain", "-k", "1", "--quiet"]
    )
    assert code == 5
    assert "zero-norm" in json.loads(out)["error"]["message"]


def test_search_with_a_nan_query_exits_5(trained_run, capsys, tmp_path):
    # a NaN token table embeds every text to a NaN vector
    embedder = SentenceEmbedder.load(trained_run / "checkpoint.semb")
    embedder.encoder.params["tok_emb"].data[...] = np.nan
    ckpt = tmp_path / "nan.semb"
    embedder.save(ckpt)
    store = VectorStore(embedder.dim)
    store.add_many(["real", "other"], np.eye(2, embedder.dim))
    store.save(tmp_path / "two.semv")
    code, out, _ = run_cli(
        capsys, ["search", "--store", str(tmp_path / "two.semv"), "--data.checkpoint", str(ckpt),
                 "--query", "rain", "-k", "2", "--quiet"]
    )
    assert code == 5
    assert "non-finite query" in strict_json(out)["error"]["message"]


def test_ablate_repeated_seed_gives_zero_std(workspace, capsys):
    code, out, _ = run_cli(
        capsys,
        ["ablate", "--data.train", str(workspace / "nli.jsonl"),
         "--data.dev", str(workspace / "dev.jsonl"),
         "--poolings", "mean", "--modes", "u,v,abs", "--seeds", "3,3",
         "--runs-root", str(workspace / "runs"), "--name", "abl1", "--quiet"] + TINY,
    )
    assert code == 0
    cells = json.loads(out)["cells"]
    assert len(cells) == 1
    assert cells[0]["std"] == 0.0


@pytest.mark.parametrize("flag, value", [("--poolings", ","), ("--modes", ";"), ("--modes", " ; ")])
def test_ablate_with_an_empty_list_exits_2_before_reading_data(capsys, tmp_path, flag, value):
    code, out, _ = run_cli(
        capsys,
        ["ablate", "--data.train", str(tmp_path / "missing.jsonl"), "--data.dev", str(tmp_path / "missing.jsonl"),
         flag, value, "--runs-root", str(tmp_path / "runs"), "--quiet"],
    )
    assert code == 2
    assert flag in json.loads(out)["error"]["message"]
    assert not (tmp_path / "runs").exists()


def test_ablate_emits_table_when_a_cell_fails(workspace, capsys, monkeypatch):
    import semb.cli as cli

    real_train = cli.train

    def sabotaged(embedder, examples, tcfg, **kwargs):
        if tcfg.combine_mode == "abs":
            raise RuntimeError("forced failure")
        return real_train(embedder, examples, tcfg, **kwargs)

    monkeypatch.setattr(cli, "train", sabotaged)
    code, out, err = run_cli(
        capsys,
        ["ablate", "--data.train", str(workspace / "nli.jsonl"),
         "--data.dev", str(workspace / "dev.jsonl"),
         "--poolings", "mean", "--modes", "u,v,abs;abs", "--seeds", "0,1",
         "--runs-root", str(workspace / "runs"), "--name", "ablfail"] + TINY,
    )
    assert code == 0
    cells = json.loads(out)["cells"]
    assert len(cells) == 2
    good = next(c for c in cells if c["mode"] == "u,v,abs")
    failed = next(c for c in cells if c["mode"] == "abs")
    assert "formatted" in good
    assert "forced failure" in failed["error"]
    assert "failed" in err  # the human table still renders the failed row


def test_ablate_regression_rows_appear_with_regression_train(workspace, capsys):
    code, out, _ = run_cli(
        capsys,
        ["ablate", "--data.train", str(workspace / "nli.jsonl"),
         "--data.regression_train", str(workspace / "train.jsonl"),
         "--data.dev", str(workspace / "dev.jsonl"),
         "--poolings", "mean,max", "--modes", "abs", "--seeds", "0,1",
         "--runs-root", str(workspace / "runs"), "--name", "ablreg", "--quiet"] + TINY,
    )
    assert code == 0
    cells = json.loads(out)["cells"]
    assert [c["objective"] for c in cells] == [
        "classification", "classification", "regression", "regression"
    ]
    assert all(c["mode"] is None for c in cells if c["objective"] == "regression")


def test_dotted_override_lands_in_effective_config(workspace, capsys):
    code, _, _ = run_cli(
        capsys,
        ["train", "--data.train", str(workspace / "train.jsonl"), "--train.lr", "1e-3",
         "--train.warmup_frac", "0.2",
         "--runs-root", str(workspace / "runs"), "--name", "ovr", "--quiet"] + TINY,
    )
    assert code == 0
    effective = json.loads(
        (workspace / "runs" / "ovr" / "effective-config.json").read_text()
    )
    assert effective["train"]["lr"] == 1e-3
    assert effective["train"]["warmup_frac"] == 0.2
    assert effective["encoder"]["dim"] == 16


def test_config_file_merges_under_overrides(workspace, capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"lr": 0.002, "epochs": 2}}), encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        ["train", "--config", str(cfg), "--data.train", str(workspace / "train.jsonl"),
         "--train.epochs", "1",
         "--runs-root", str(workspace / "runs"), "--name", "cfg", "--quiet"] + TINY,
    )
    assert code == 0
    effective = json.loads(
        (workspace / "runs" / "cfg" / "effective-config.json").read_text()
    )
    assert effective["train"]["lr"] == 0.002  # from the file
    assert effective["train"]["epochs"] == 1  # flag wins over the file


def test_unknown_config_section_in_file_exits_2(workspace, capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nope": {}}), encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        ["train", "--config", str(cfg), "--data.train", str(workspace / "train.jsonl"),
         "--quiet"],
    )
    assert code == 2
    assert "nope" in json.loads(out)["error"]["message"]


def test_error_output_is_json_on_stdout(capsys):
    code, out, err = run_cli(capsys, ["eval", "--data.checkpoint", "missing.semb",
                                      "--data.eval", "missing.jsonl"])
    assert code in (2, 3)
    payload = json.loads(out)
    assert payload["error"]["exit_code"] == code
    assert "error" in err


@pytest.mark.parametrize(
    "argv, said",
    [(["train", "--epochs", "x"], "invalid int value"), ([], "required: command"),
     # refused before the (missing) store is opened
     (["search", "--store", "missing.semv", "--query", "rain", "-k", "0"], "argument -k: must be at least 1"),
     (["search", "--store", "missing.semv", "--query", "rain", "-k", "-3"], "argument -k: must be at least 1"),
     (["search", "--store", "missing.semv", "--query", "rain", "-k", "x"], "argument -k: invalid int value")],
    ids=["bad-int", "no-command", "k-zero", "k-negative", "k-not-int"],
)
def test_usage_error_prints_one_json_document_and_exits_2(capsys, argv, said):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert json.loads(out)["error"]["exit_code"] == 2
    assert said in json.loads(out)["error"]["message"]
    assert err.startswith("usage: semb")


@pytest.mark.parametrize("command", [None, "train", "ablate", "embed", "eval", "search", "bench", "inspect"])
def test_help_is_one_json_document_and_the_text_on_stderr(capsys, command):
    code, out, err = run_cli(capsys, ([command] if command else []) + ["--help"])
    assert code == 0
    assert strict_json(out) == {"help": err}
    assert err.startswith("usage: semb")
    if command not in (None, "inspect"):
        assert all(f"--{section}.{key}" in err for section, content in cli._DEFAULTS.items() for key in content)


# a valid value other than the default, for the fields where the generic rule below gives none
_OTHER_VALUES = {
    "encoder.dim": 128, "encoder.n_heads": 2, "encoder.dropout": 0.1, "encoder.pooling": "max",
    "train.objective": "triplet", "train.combine_mode": "u,v", "train.target_scale": "symmetric",
    "eval.similarity": "neg_manhattan", "eval.triplet_metric": "cosine_distance",
}


@pytest.mark.parametrize("section, key", [(section, key) for section, content in cli._DEFAULTS.items() for key in content])
def test_every_config_field_has_a_dotted_flag_that_reaches_the_effective_config(
    workspace, trained_run, capsys, tmp_path, section, key
):
    default = cli._DEFAULTS[section][key]
    path = f"{section}.{key}"
    if path in _OTHER_VALUES:
        value = _OTHER_VALUES[path]
    elif default is None:
        value = str(tmp_path / path)
    elif isinstance(default, bool):
        value = not default
    elif isinstance(default, int):
        value = default + 1
    else:
        value = default / 2
    assert value != default
    # embed reads these two; the flag under test comes last and names a copy
    (tmp_path / "data.checkpoint").write_bytes((trained_run / "checkpoint.semb").read_bytes())
    (tmp_path / "data.corpus").write_bytes((workspace / "corpus.txt").read_bytes())
    code, _, _ = run_cli(
        capsys,
        ["embed", "--data.checkpoint", str(trained_run / "checkpoint.semb"),
         "--data.corpus", str(workspace / "corpus.txt"), "--runs-root", str(tmp_path / "runs"), "--quiet",
         f"--{path}", value if isinstance(value, str) else json.dumps(value)],
    )
    assert code == 0
    assert strict_json((tmp_path / "runs" / "embed" / "effective-config.json").read_text())[section][key] == value


def test_an_abbreviated_dotted_flag_exits_2_naming_it_and_writes_no_run(workspace, capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        ["train", "--data.train", str(workspace / "train.jsonl"), "--data.regression", "x",
         "--runs-root", str(tmp_path / "runs"), "--quiet"] + TINY,
    )
    assert code == 2
    assert "--data.regression" in strict_json(out)["error"]["message"]
    assert err.startswith("usage: semb")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv", [["train"], ["embed"], ["search"], ["inspect", "model.semb"]])
def test_an_unknown_flag_prints_the_commands_usage_line(capsys, argv):
    command = argv[0]
    code, out, err = run_cli(capsys, argv + ["--data.regression", "x"])
    assert code == 2
    assert strict_json(out)["error"]["message"] == f"semb {command}: unrecognized arguments: --data.regression x"
    assert err.startswith(f"usage: semb {command} ")


@pytest.mark.parametrize(
    "flags, epochs",
    [(["--train.epochs", "2", "--train.epochs", "1"], 1), (["--epochs", "1", "--train.epochs", "2"], 2),
     (["--train.epochs", "2", "--epochs", "1"], 1)],
    ids=["dotted-twice", "shortcut-then-dotted", "dotted-then-shortcut"],
)
def test_the_last_flag_for_a_field_wins(workspace, capsys, tmp_path, flags, epochs):
    code, out, _ = run_cli(
        capsys,
        ["train", "--data.train", str(workspace / "train.jsonl"), "--runs-root", str(tmp_path), "--quiet"]
        + TINY + flags,
    )
    assert code == 0
    assert strict_json(out)["epochs"] == epochs
    assert strict_json((tmp_path / "train" / "effective-config.json").read_text())["train"]["epochs"] == epochs


@pytest.mark.parametrize("last", ["shortcut", "dotted"])
def test_the_last_of_store_and_data_store_wins(capsys, tmp_path, last):
    store = VectorStore(2)
    store.add_many(["a", "b"], np.eye(2))
    store.save(tmp_path / "good.semv")
    missing = str(tmp_path / "missing.semv")
    flags = ["--store", str(tmp_path / "good.semv"), "--data.store", missing]
    if last == "shortcut":
        flags = flags[2:] + flags[:2]
    code, out, _ = run_cli(capsys, ["search", "--pair", "--quiet"] + flags)
    if last == "shortcut":
        assert code == 0 and strict_json(out)["comparisons"] == 1
    else:
        assert code == 3 and missing in strict_json(out)["error"]["message"]


def test_a_dotted_flag_takes_its_value_after_an_equals_sign(workspace, trained_run, capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        command_argv("embed", workspace, trained_run) + ["--train.lr=3e-4", "--runs-root", str(tmp_path), "--quiet"],
    )
    assert code == 0
    assert strict_json((tmp_path / "embed" / "effective-config.json").read_text())["train"]["lr"] == 3e-4


def test_inspect_refuses_a_config_flag(trained_run, capsys):
    code, out, _ = run_cli(capsys, ["inspect", str(trained_run / "checkpoint.semb"), "--train.lr", "3", "--quiet"])
    assert code == 2
    assert "--train.lr" in strict_json(out)["error"]["message"]


# each data field, read by a command that needs it, beside the files that command also needs
_READERS = {
    "train": ("train", ["train"]),
    "dev": ("train", ["train", "dev"]),
    "init_checkpoint": ("train", ["train", "init_checkpoint"]),
    "vocab": ("train", ["train", "vocab"]),
    "regression_train": ("ablate", ["regression_train", "dev"]),
    "eval": ("eval", ["checkpoint", "eval"]),
    "corpus": ("embed", ["checkpoint", "corpus"]),
    "checkpoint": ("embed", ["checkpoint", "corpus"]),
    "store": ("search", ["store"]),
}


@pytest.mark.parametrize("field", sorted(_READERS))
def test_missing_input_file_exits_3_naming_the_file(workspace, trained_run, capsys, tmp_path, field):
    command, fields = _READERS[field]
    present = {
        "train": workspace / "train.jsonl",
        "dev": workspace / "dev.jsonl",
        "checkpoint": trained_run / "checkpoint.semb",
        "corpus": workspace / "corpus.txt",
    }
    missing = str(tmp_path / f"no-{field}")
    argv = [command, "--runs-root", str(tmp_path / "runs"), "--quiet"] + TINY
    for name in fields:
        argv += [f"--data.{name}", missing if name == field else str(present[name])]
    if command == "search":
        argv.append("--pair")
    code, out, _ = run_cli(capsys, argv)
    assert code == 3
    assert missing in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("command", ["train", "ablate", "embed", "eval", "bench"])
def test_every_run_writes_its_config_and_a_report_equal_to_stdout(
    workspace, trained_run, capsys, tmp_path, command
):
    ckpt = str(trained_run / "checkpoint.semb")
    corpus = str(workspace / "corpus.txt")
    argv = {
        "train": ["--data.train", str(workspace / "train.jsonl")] + TINY,
        "ablate": ["--data.train", str(workspace / "nli.jsonl"), "--data.dev", str(workspace / "dev.jsonl"),
                   "--poolings", "mean", "--modes", "abs", "--seeds", "0,1"] + TINY,
        "embed": ["--data.checkpoint", ckpt, "--data.corpus", corpus],
        "eval": ["--data.checkpoint", ckpt, "--data.eval", str(workspace / "dev.jsonl")],
        "bench": ["--data.corpus", corpus] + TINY,
    }[command]
    code, out, _ = run_cli(capsys, [command, "--runs-root", str(tmp_path), "--name", "run", "--quiet"] + argv)
    assert code == 0
    run_dir = tmp_path / "run"
    assert strict_json((run_dir / "report.json").read_text()) == strict_json(out)
    effective = strict_json((run_dir / "effective-config.json").read_text())
    given = {flag[len("--data."):]: value for flag, value in zip(argv, argv[1:]) if flag.startswith("--data.")}
    assert {key: effective["data"][key] for key in given} == given
    assert set(effective) == {"encoder", "train", "eval", "data"}


@pytest.mark.parametrize("objective, train_file, dev_file",
                         [("regression", "train.jsonl", "dev.jsonl"), ("triplet", "tri.jsonl", "tri.jsonl")])
def test_train_dev_record_equals_the_eval_report_on_the_same_file(
    workspace, capsys, tmp_path, objective, train_file, dev_file
):
    dev = str(workspace / dev_file)
    code, out, _ = run_cli(
        capsys,
        ["train", "--objective", objective, "--data.train", str(workspace / train_file), "--data.dev", dev,
         "--runs-root", str(tmp_path), "--name", "train", "--quiet"] + TINY,
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        ["eval", "--data.checkpoint", json.loads(out)["checkpoint"], "--data.eval", dev,
         "--runs-root", str(tmp_path), "--name", "eval", "--quiet"],
    )
    assert code == 0
    records = [json.loads(line) for line in (tmp_path / "train" / "metrics.jsonl").read_text().splitlines()]
    dev_record = next(r for r in reversed(records) if "epoch" in r)
    del dev_record["epoch"]
    report = json.loads(out)
    del report["task"]
    assert dev_record == report


@pytest.mark.parametrize("objective, train_file, keys", [
    ("classification", "nli.jsonl", ["objective", "combine_mode", "label_map"]),
    ("regression", "train.jsonl", ["objective", "score_max", "target_scale"]),
    ("triplet", "tri.jsonl", ["objective", "margin"]),
])
def test_checkpoint_manifest_records_the_objectives_fields_in_order(
    workspace, capsys, tmp_path, objective, train_file, keys
):
    code, _, _ = run_cli(
        capsys,
        ["train", "--objective", objective, "--data.train", str(workspace / train_file),
         "--runs-root", str(tmp_path), "--name", "run", "--quiet"] + TINY,
    )
    assert code == 0
    manifest, _ = load_checkpoint(tmp_path / "run" / "checkpoint.semb")
    assert list(manifest["objective"]) == keys  # the manifest JSON keeps this order on disk


# each input, read by a command that needs it, and the exit code a byte that is not UTF-8 in it gives
_UTF8_READERS = {
    "train": ("train", ["--data.train", "{bad}"], 3),
    "vocab": ("train", ["--data.train", "{train}", "--data.vocab", "{bad}"], 3),
    "eval": ("eval", ["--data.checkpoint", "{checkpoint}", "--data.eval", "{bad}"], 3),
    "corpus": ("bench", ["--data.corpus", "{bad}"], 3),
    "config": ("train", ["--data.train", "{train}", "--config", "{bad}"], 2),
}


@pytest.mark.parametrize("field", sorted(_UTF8_READERS))
def test_input_that_is_not_utf8_exits_naming_the_file(workspace, trained_run, capsys, tmp_path, field):
    command, template, exit_code = _UTF8_READERS[field]
    good = {
        "train": '{"a": "red fish", "b": "blue fish", "score": 3}\n',
        "vocab": "red\nfish\n",
        "eval": '{"a": "red fish", "b": "blue fish", "score": 3}\n',
        "corpus": "red fish\n",
        "config": '{"train": {"epochs": 1}}\n',
    }[field].encode("utf-8")
    bad = tmp_path / f"bad-{field}"
    bad.write_bytes(good + b"caf\xe9 \xff\n")  # Latin-1, not UTF-8
    paths = {"bad": bad, "train": workspace / "train.jsonl", "checkpoint": trained_run / "checkpoint.semb"}
    argv = [command, "--runs-root", str(tmp_path / "runs"), "--quiet"] + TINY
    argv += [arg.format(**paths) for arg in template]
    code, out, _ = run_cli(capsys, argv)
    assert code == exit_code
    assert str(bad) in json.loads(out)["error"]["message"]


def _fail_replace(src, dst):
    raise OSError(28, "No space left on device")


def _save_store(path):
    store = VectorStore(2)
    store.add("x", np.ones(2))
    store.save(path)


@pytest.mark.parametrize("artifact", ["checkpoint", "store", "json"])
def test_a_failed_save_leaves_the_old_file_and_no_temp_file(trained_run, tmp_path, monkeypatch, artifact):
    target = tmp_path / f"out.{artifact}"
    old = b"the last good file"
    target.write_bytes(old)
    save = {
        "checkpoint": lambda: SentenceEmbedder.load(trained_run / "checkpoint.semb").save(target),
        "store": lambda: _save_store(target),
        "json": lambda: cli._write_json(target, {"report": 1}),
    }[artifact]
    monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError) as err:
        save()
    assert err.value.filename == str(target)
    assert target.read_bytes() == old
    assert os.listdir(tmp_path) == [target.name]


# the smallest model the CLI trains: its checkpoint is about 2 KB, two thirds of it manifest
TINIEST = [
    "--encoder.dim", "4", "--encoder.n_layers", "1", "--encoder.n_heads", "1",
    "--encoder.ffn_dim", "4", "--encoder.max_seq_len", "4",
]


@pytest.fixture(scope="module")
def tiny_artifacts(tmp_path_factory):
    """A checkpoint and a two-row store, both written by the CLI."""
    root = tmp_path_factory.mktemp("tiny")
    write_jsonl(root / "pairs.jsonl", [{"a": "a", "b": "b", "score": 1.0}])
    (root / "corpus.txt").write_text("a\nb\n", encoding="utf-8")
    common = ["--runs-root", str(root / "runs"), "--name", "tiny", "--quiet"]
    assert main(["train", "--data.train", str(root / "pairs.jsonl")] + TINIEST + common) == 0
    ckpt = root / "runs" / "tiny" / "checkpoint.semb"
    assert main(["embed", "--data.checkpoint", str(ckpt), "--data.corpus", str(root / "corpus.txt")] + common) == 0
    return root, {"semb": ckpt.read_bytes(), "semv": (root / "runs" / "tiny" / "vectors.semv").read_bytes()}


def exit_code_on(root, kind, blob):
    """The exit code of a command that loads `blob` as a checkpoint (embed) or a store (search)."""
    path = root / f"damaged.{kind}"
    path.write_bytes(blob)
    if kind == "semb":
        argv = ["embed", "--data.checkpoint", str(path), "--data.corpus", str(root / "corpus.txt"),
                "--runs-root", str(root / "runs"), "--name", "damaged"]
    else:
        argv = ["search", "--store", str(path), "--pair"]
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv + ["--quiet"])


def flip(blob, bit):
    damaged = bytearray(blob)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


@pytest.mark.parametrize("kind", ["semb", "semv"])
def test_every_truncation_of_an_artifact_exits_3(tiny_artifacts, kind):
    root, blobs = tiny_artifacts
    blob = blobs[kind]
    assert exit_code_on(root, kind, blob) == 0
    codes = {size: exit_code_on(root, kind, blob[:size]) for size in range(len(blob))}
    assert {size: code for size, code in codes.items() if code != 3} == {}


def test_every_bit_flip_of_a_store_exits_3(tiny_artifacts):
    root, blobs = tiny_artifacts
    blob = blobs["semv"]  # its CRC covers everything before it
    codes = {bit: exit_code_on(root, "semv", flip(blob, bit)) for bit in range(8 * len(blob))}
    assert {bit: code for bit, code in codes.items() if code != 3} == {}


def test_every_bit_flip_of_the_checkpoint_manifest_values_exits_3_or_loads(tiny_artifacts):
    # the CRC covers the tensor payload only, so a flipped manifest bit can
    # leave a checkpoint that loads; it must never crash with exit 1
    root, blobs = tiny_artifacts
    blob = blobs["semb"]
    start = blob.index(b'"pooling"')
    end = blob.index(b'"objective"')  # pooling, include_special and the vocabulary
    codes = {bit: exit_code_on(root, "semb", flip(blob, bit)) for bit in range(8 * start, 8 * end)}
    assert {bit: code for bit, code in codes.items() if code not in (0, 3)} == {}


@settings(max_examples=200, deadline=None)
@given(position=st.floats(0.0, 1.0, exclude_max=True))
def test_a_bit_flip_anywhere_in_a_checkpoint_exits_3_or_loads(tiny_artifacts, position):
    root, blobs = tiny_artifacts
    blob = blobs["semb"]
    assert exit_code_on(root, "semb", flip(blob, int(position * 8 * len(blob)))) in (0, 3)
