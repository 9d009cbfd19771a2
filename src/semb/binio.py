"""Byte-level helpers shared by the checkpoint and vector-store formats.

Both formats are little-endian throughout: a 4-byte magic, a u32
version, format-specific metadata, raw float32 payload, and a trailing
CRC-32 (checkpoints checksum the tensor payload; stores checksum the
whole body). Each failure mode gets its own exception type so callers
can report bad files precisely.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib

import numpy as np

__all__ = [
    "FormatError",
    "VersionError",
    "TruncatedError",
    "ChecksumError",
    "DimensionMismatchError",
    "ByteReader",
    "pack_u32",
    "pack_u64",
    "pack_block",
    "write_atomic",
]


class FormatError(ValueError):
    """The file is not the expected format (magic, structure, or metadata)."""


class VersionError(FormatError):
    """The file declares a format version this code does not read."""


class TruncatedError(FormatError):
    """The file ends before the declared content does."""


class ChecksumError(FormatError):
    """Stored CRC-32 does not match the file's content."""


class DimensionMismatchError(ValueError):
    """Two artifacts disagree on embedding width."""


def pack_u32(value: int) -> bytes:
    return struct.pack("<I", value)


def pack_u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def pack_block(payload: bytes) -> bytes:
    """Length-prefixed byte block: u32 length, then the bytes."""
    return pack_u32(len(payload)) + payload


def write_atomic(path, *chunks: bytes) -> None:
    """Replace the file at `path` by `chunks` through a temp file beside it, whole or not at all.

    No fsync: a crash of the process leaves the old file, a crash of the machine may not.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError):  # name the file the caller asked for, not the temp file
            exc.filename, exc.filename2 = path, None
        raise


class ByteReader:
    """Sequential reader of one open file; a read past its end is a TruncatedError, even once the file shrinks.

    `crc` is the CRC-32 of the bytes read since it was last set to 0."""

    def __init__(self, fh, what: str):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0
        self.crc = 0
        self.what = what

    def take(self, n: int, into=None):
        """The next `n` bytes, or the array `into()` makes, filled with them; nothing is allocated past the file's end."""
        if self.pos + n <= self.size:
            data = self.fh.read(n) if into is None else into()
            got = len(data) if into is None else self.fh.readinto(data)
            if got == n:  # fewer: the file shrank under the reader
                self.crc = zlib.crc32(data, self.crc)
                self.pos += n
                return data
        raise TruncatedError(f"{self.what}: expected {n} more bytes at offset {self.pos}")

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def block(self) -> bytes:
        return self.take(self.u32())

    def f32_array(self, count: int) -> np.ndarray:
        """The next `count` floats, read once into a fresh aligned, writable array."""
        return self.take(count * 4, lambda: np.empty(count, dtype="<f4"))

    def expect_magic(self, magic: bytes):
        got = self.take(len(magic)) if self.size >= len(magic) else b""
        if got != magic:
            raise FormatError(f"{self.what}: bad magic {got!r}, expected {magic!r}")

    def expect_version(self, supported: int):
        version = self.u32()
        if version != supported:
            raise VersionError(f"{self.what}: version {version} not supported (reader handles {supported})")

    def verify_crc_trailer(self):
        """Check the final u32 against `crc`; it must end the file."""
        if self.pos + 4 > self.size:
            raise TruncatedError(f"{self.what}: missing checksum trailer")
        if self.pos + 4 != self.size:
            raise FormatError(f"{self.what}: {self.size - self.pos - 4} unexpected trailing bytes")
        actual, stored = self.crc, self.u32()
        if stored != actual:
            raise ChecksumError(f"{self.what}: checksum mismatch (stored {stored:#010x}, computed {actual:#010x})")
