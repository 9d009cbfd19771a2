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

__all__ = ["MAGIC", "VERSION", "save_checkpoint", "load_checkpoint"]

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


def load_checkpoint(path):
    """Read a checkpoint; returns (manifest, params) with float32 arrays.

    Raises FormatError / VersionError / TruncatedError / ChecksumError
    depending on what is wrong with the file, NaN or inf weights included.
    """
    with open(path, "rb") as fh:
        reader = ByteReader(fh, what=str(path))
        reader.expect_magic(MAGIC)
        reader.expect_version(VERSION)
        block = reader.block()  # outside the try: a short block is a TruncatedError, not bad JSON
        try:
            manifest = json.loads(block.decode("utf-8"))
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
        if not isinstance(manifest["vocab"], list) or not set(map(type, manifest["vocab"])) <= {str}:
            raise FormatError(f"{path}: manifest vocab is not a list of strings")
        if manifest["objective"] is not None and not isinstance(manifest["objective"], dict):
            raise FormatError(f"{path}: manifest objective {manifest['objective']!r} is not a JSON object or null")
        if type(manifest["steps"]) is not int or manifest["steps"] < 0:
            raise FormatError(f"{path}: manifest steps {manifest['steps']!r} is not a non-negative integer")
        if not isinstance(manifest["params"], list):
            raise FormatError(f"{path}: manifest params is not a list")

        payload_start = reader.pos
        reader.crc = 0  # the checksum covers the tensor payload alone
        params = {}
        for entry in manifest["params"]:
            if (
                not isinstance(entry, dict)
                or not {"name", "shape", "offset"} <= set(entry)
                or not isinstance(entry["name"], str)
                or not isinstance(entry["shape"], list)
                or not all(type(s) is int and s >= 0 for s in entry["shape"])
                or type(entry["offset"]) is not int
            ):
                raise FormatError(f"{path}: malformed parameter entry {entry!r}")
            actual_offset = reader.pos - payload_start
            if entry["offset"] != actual_offset:
                raise FormatError(
                    f"{path}: parameter {entry['name']!r} declares offset {entry['offset']}"
                    f" but its data starts at {actual_offset}"
                )
            shape = tuple(entry["shape"])
            array = reader.f32_array(math.prod(shape)).reshape(shape)
            if not np.isfinite(array).all():
                raise FormatError(f"{path}: parameter {entry['name']!r} holds a value that is not finite")
            params[entry["name"]] = array
        reader.verify_crc_trailer()
        return manifest, params
