import json
import filecmp
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from semb import synth
from semb.checkpoint import load_checkpoint, save_checkpoint
from semb.cli import main
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
    [([], "cpu_smart"), (["--train.smart_batching", "false"], "cpu_naive"),
     (["--train.smart_batching", "false", "--mode", "smart"], "cpu_smart")],
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
    [(["train", "--epochs", "x"], "invalid int value"), ([], "required: command")],
    ids=["bad-int", "no-command"],
)
def test_usage_error_prints_one_json_document_and_exits_2(capsys, argv, said):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert json.loads(out)["error"]["exit_code"] == 2
    assert said in json.loads(out)["error"]["message"]
    assert err.startswith("usage: semb")


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
