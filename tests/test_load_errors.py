"""Golden refusals of a damaged `.semb` and `.semv`: every truncation, one appended byte, every payload byte flipped.

`load_errors.json` beside this file pins the exception type and message
of each load, with the file's path written as `<path>`. It was written
by the loaders that read the whole file into memory before parsing it,
so a loader that reads differently must still refuse each damaged file
in the same words. Rewrite it only for a change meant to alter a message:

    PYTHONPATH=src python3 tests/test_load_errors.py

which first prints every case whose refusal changes, grouped by old and
new refusal, with counts.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from semb.embedder import SentenceEmbedder
from semb.encoder import Encoder, EncoderConfig, Vocab
from semb.search import VectorStore

GOLDEN = Path(__file__).with_name("load_errors.json")
SUFFIXES = (".semb", ".semv")


def small_files(tmp_path) -> dict[str, bytes]:
    """A one-word, layerless checkpoint and a three-row store, byte for byte the same on every run."""
    vocab = Vocab(["a"])
    cfg = EncoderConfig(vocab_size=vocab.size, dim=2, n_layers=0, n_heads=1, ffn_dim=1, max_seq_len=2)
    SentenceEmbedder(vocab, Encoder(cfg, seed=3)).save(tmp_path / "small.semb")
    store = VectorStore(2)
    store.add_many(["a", "é", "bc"], np.arange(6, dtype=np.float32).reshape(3, 2) - 2.5)
    store.save(tmp_path / "small.semv")
    return {suffix: (tmp_path / f"small{suffix}").read_bytes() for suffix in SUFFIXES}


def payload_span(suffix: str, raw: bytes) -> range:
    """Offsets of the float32 payload: after the header (and id block or manifest), before the CRC trailer."""
    if suffix == ".semv":  # magic, version, dim, count, then the id block's length
        start = 24 + int.from_bytes(raw[20:24], "little")
    else:  # magic, version, then the manifest's length
        start = 12 + int.from_bytes(raw[8:12], "little")
    return range(start, len(raw) - 4)


def damaged(suffix: str, raw: bytes):
    """(case name, file bytes) for each damaged copy of `raw`."""
    for cut in range(len(raw)):
        yield f"truncate {cut}", raw[:cut]
    yield "append 1", raw + b"\x00"
    for at in payload_span(suffix, raw):
        flipped = bytearray(raw)
        flipped[at] ^= 0xFF
        yield f"flip {at}", bytes(flipped)


def refusal(suffix: str, path: Path) -> list[str]:
    """[exception type, message with the path as `<path>`] of one load, or ["ok", ""] if it loads."""
    load = SentenceEmbedder.load if suffix == ".semb" else VectorStore.load
    try:
        load(path)
    except Exception as exc:  # noqa: BLE001 -- the table records whatever the loader raises
        return [type(exc).__name__, str(exc).replace(str(path), "<path>")]
    return ["ok", ""]


def table(tmp_path) -> dict:
    out = {}
    for suffix, raw in small_files(tmp_path).items():
        path = tmp_path / f"damaged{suffix}"
        cases = {}
        for name, data in damaged(suffix, raw):
            path.write_bytes(data)
            cases[name] = refusal(suffix, path)
        out[suffix] = {"sha256": hashlib.sha256(raw).hexdigest(), "cases": cases}
    return out


ABSENT = ["absent", ""]  # the refusal of a case one table lacks


def changes(old: dict, new: dict) -> dict:
    """(suffix, old refusal, new refusal) -> the names of the cases whose refusal differs between two tables."""
    groups = {}
    for suffix in SUFFIXES:
        before, after = (t.get(suffix, {}).get("cases", {}) for t in (old, new))
        for name in {**after, **before}:
            was, now = before.get(name, ABSENT), after.get(name, ABSENT)
            if was != now:
                groups.setdefault((suffix, tuple(was), tuple(now)), []).append(name)
    return groups


def describe(groups: dict) -> str:
    """One paragraph per group: its count, old -> new refusal, then the case names."""
    return "\n".join(
        f"{suffix}, {len(names)} case(s): {' '.join(was)} -> {' '.join(now)}\n    {', '.join(names)}"
        for (suffix, was, now), names in groups.items()
    )


def test_every_damaged_file_is_refused_as_the_golden_table_says(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = table(tmp_path)
    for suffix in SUFFIXES:
        assert got[suffix]["sha256"] == golden[suffix]["sha256"], f"the small {suffix} file changed"
    differ = changes(golden, got)
    assert differ == {}, "refusals differ from the golden table:\n" + describe(differ)
    assert all(list(got[suffix]["cases"]) == list(golden[suffix]["cases"]) for suffix in SUFFIXES)
    assert all(kind != "ok" for suffix in SUFFIXES for kind, _ in golden[suffix]["cases"].values())


@pytest.mark.parametrize("suffix", SUFFIXES)
def test_the_golden_table_covers_every_cut_and_every_payload_byte(suffix):
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))[suffix]["cases"]
    cuts = [name for name in cases if name.startswith("truncate ")]
    flips = [name for name in cases if name.startswith("flip ")]
    assert len(cases) == len(cuts) + 1 + len(flips)
    assert cuts == [f"truncate {cut}" for cut in range(len(cuts))]
    assert len(flips) == 4 * (6 if suffix == ".semv" else 18)  # three 2-d rows; a 5 x 2 and 2 x 2 table, 2 + 2 norm


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = table(Path(tmp))
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    print(describe(changes(old, golden)) or "no refusal changed")
    lines = ["{"]
    for s, suffix in enumerate(SUFFIXES):
        lines.append(f'  "{suffix}": {{"sha256": "{golden[suffix]["sha256"]}", "cases": {{')
        items = list(golden[suffix]["cases"].items())
        for i, (name, result) in enumerate(items):
            lines.append(f"    {json.dumps(name)}: {json.dumps(result, ensure_ascii=False)}" + ("," if i < len(items) - 1 else ""))
        lines.append("  }}" + ("," if s < len(SUFFIXES) - 1 else ""))
    lines.append("}")
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
