"""Model checkpoint format: a single self-describing binary file.

Layout (all little-endian):

    magic   b"SEMB"
    u32     format version (currently 1)
    u32     manifest length, then that many bytes of UTF-8 JSON
    f32[]   one raw array per manifest "params" entry, in order
    u32     CRC-32 of the raw array payload

The manifest carries the encoder config, pooling choice, vocabulary
tokens, objective metadata, the training-step count, and per parameter
its name, shape, and byte offset into the payload, so a checkpoint can
be loaded (or a single tensor seeked to) with no side files.
"""

from __future__ import annotations

import json
import math
import zlib

import numpy as np

from .binio import ByteReader, FormatError, pack_block, pack_u32, write_atomic
from .data import JSON_ERRORS
from .encoder import EncoderConfig

__all__ = ["MAGIC", "VERSION", "save_checkpoint", "load_checkpoint", "encoder_config"]

MAGIC = b"SEMB"
VERSION = 1


def save_checkpoint(
    path,
    config: dict,
    pooling: str,
    include_special: bool,
    vocab_tokens,
    params,
    objective: dict | None = None,
    steps: int = 0,
) -> None:
    """Write config, vocabulary, and parameter arrays to `path`.

    `params` maps name -> array-like; storage is float32 regardless of
    the in-memory dtype. `objective` is free-form metadata about how the
    model was trained (it does not affect loading). A save that fails
    leaves the file already at `path` untouched.
    """
    arrays = []
    entries = []
    offset = 0
    for name, value in params.items():
        arr = np.ascontiguousarray(getattr(value, "data", value), dtype="<f4")
        arrays.append(arr)
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes

    manifest = {
        "config": dict(config),
        "pooling": pooling,
        "include_special": bool(include_special),
        "vocab": list(vocab_tokens),
        "objective": dict(objective) if objective else None,
        "steps": int(steps),
        "params": entries,
    }
    payload = b"".join(arr.tobytes() for arr in arrays)
    write_atomic(
        path,
        MAGIC,
        pack_u32(VERSION),
        pack_block(json.dumps(manifest, ensure_ascii=False).encode("utf-8")),
        payload,
        pack_u32(zlib.crc32(payload) & 0xFFFFFFFF),
    )


def _is_int(value) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def load_checkpoint(path):
    """Read a checkpoint; returns (manifest, params) with float32 arrays.

    Raises FormatError / VersionError / TruncatedError / ChecksumError
    depending on what is wrong with the file.
    """
    with open(path, "rb") as fh:
        reader = ByteReader(fh.read(), what=str(path))
    reader.expect_magic(MAGIC)
    reader.expect_version(VERSION)
    try:
        manifest = json.loads(reader.block().decode("utf-8"))
    except JSON_ERRORS as exc:  # UnicodeDecodeError is a ValueError too
        raise FormatError(f"{path}: manifest is not valid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    for key in ("config", "pooling", "include_special", "vocab", "objective", "steps", "params"):
        if key not in manifest:
            raise FormatError(f"{path}: manifest missing key {key!r}")
    if not isinstance(manifest["config"], dict):
        raise FormatError(f"{path}: manifest config is not a JSON object")
    if not isinstance(manifest["pooling"], str):
        raise FormatError(f"{path}: manifest pooling {manifest['pooling']!r} is not a string")
    if not isinstance(manifest["include_special"], bool):
        raise FormatError(f"{path}: manifest include_special {manifest['include_special']!r} is not a boolean")
    if not isinstance(manifest["vocab"], list) or not all(isinstance(token, str) for token in manifest["vocab"]):
        raise FormatError(f"{path}: manifest vocab is not a list of strings")
    if manifest["objective"] is not None and not isinstance(manifest["objective"], dict):
        raise FormatError(f"{path}: manifest objective {manifest['objective']!r} is not a JSON object or null")
    if not _is_int(manifest["steps"]) or manifest["steps"] < 0:
        raise FormatError(f"{path}: manifest steps {manifest['steps']!r} is not a non-negative integer")
    if not isinstance(manifest["params"], list):
        raise FormatError(f"{path}: manifest params is not a list")

    payload_start = reader.pos
    params = {}
    for entry in manifest["params"]:
        if (
            not isinstance(entry, dict)
            or not {"name", "shape", "offset"} <= set(entry)
            or not isinstance(entry["name"], str)
            or not isinstance(entry["shape"], list)
            or not all(_is_int(s) and s >= 0 for s in entry["shape"])
            or not _is_int(entry["offset"])
        ):
            raise FormatError(f"{path}: malformed parameter entry {entry!r}")
        actual_offset = reader.pos - payload_start
        if entry["offset"] != actual_offset:
            raise FormatError(
                f"{path}: parameter {entry['name']!r} declares offset {entry['offset']}"
                f" but its data starts at {actual_offset}"
            )
        shape = tuple(entry["shape"])
        params[entry["name"]] = reader.f32_array(math.prod(shape)).reshape(shape)
    reader.verify_crc_trailer(start=payload_start)
    return manifest, params


def encoder_config(path, manifest: dict) -> EncoderConfig:
    """The manifest's encoder config; one that `EncoderConfig` refuses is a FormatError naming the file."""
    try:
        return EncoderConfig.from_dict(manifest["config"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: manifest config rejected: {exc}") from None
