"""Flat binary container for named arrays plus a JSON metadata record.

Used for parameter checkpoints and ingested clip archives. The layout
is fixed-endian and timestamp-free, so writing the same content twice
produces byte-identical files and float64 values round-trip bit-exactly.

Layout (all integers little-endian):
    magic   4 bytes  b"FGCN"
    version u32      1
    meta    u64 length + UTF-8 JSON (sorted keys)
    count   u64
    record  u16 name length + UTF-8 name
            u8  dtype code (0 = float64, 1 = int64)
            u8  ndim, at most 32 (numpy 1.x's limit)
            u64 per dimension
            raw little-endian array data, row-major
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"FGCN"
VERSION = 1

_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<i8")}
_CODES = {np.dtype(np.float64): 0, np.dtype(np.int64): 1}
MAX_NDIM = 32


class CheckpointError(ValueError):
    """Raised for unreadable or inconsistent container files."""


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray],
                meta: dict | None = None) -> None:
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<Q", len(meta_bytes)))
    chunks.append(meta_bytes)
    chunks.append(struct.pack("<Q", len(arrays)))
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = arr.copy(order="C")  # np.ascontiguousarray would promote 0-d to 1-d
        if arr.dtype not in _CODES:
            raise CheckpointError(f"record '{name}': unsupported dtype {arr.dtype}")
        if arr.ndim > MAX_NDIM:
            raise CheckpointError(f"record '{name}': {arr.ndim} dimensions, at most {MAX_NDIM}")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<BB", _CODES[arr.dtype], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read back (arrays in original order, metadata dict).

    Any malformed content raises :class:`CheckpointError` naming the
    path and the byte offset where the bad field starts.
    """
    buf = Path(path).read_bytes()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(buf):
            raise CheckpointError(f"{path}: truncated at byte {pos}")
        chunk = buf[pos:pos + n]
        pos += n
        return chunk

    def text(n: int, what: str) -> str:
        start = pos
        try:
            return take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: {what} at byte {start} is not UTF-8") from exc

    if take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a fallgcn container")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported container version {version}")
    (meta_len,) = struct.unpack("<Q", take(8))
    meta_at = pos
    meta = {}
    if meta_len:
        try:
            meta = json.loads(text(meta_len, "metadata"))
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"{path}: metadata at byte {meta_at} is not JSON: {exc}"
            ) from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata at byte {meta_at} is not a JSON object")
    (count,) = struct.unpack("<Q", take(8))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = text(name_len, "record name")
        code, ndim = struct.unpack("<BB", take(2))
        if code not in _DTYPES:
            raise CheckpointError(f"{path}: record '{name}' has unknown dtype code {code}")
        shape_at = pos
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        n_bytes = math.prod(shape) * _DTYPES[code].itemsize  # Python ints: no wrap
        if n_bytes > len(buf) - pos:
            raise CheckpointError(
                f"{path}: truncated at byte {pos}: record '{name}' of shape {shape} "
                f"needs {n_bytes} bytes, {len(buf) - pos} left"
            )
        # numpy also refuses an empty shape whose other dimensions overflow
        size = math.prod(d for d in shape if d) * _DTYPES[code].itemsize
        if ndim > MAX_NDIM or size > np.iinfo(np.intp).max:
            raise CheckpointError(
                f"{path}: record '{name}' at byte {shape_at} has a shape numpy cannot "
                f"build: {ndim} dimensions (at most {MAX_NDIM}), {shape}"
            )
        data = np.frombuffer(take(n_bytes), dtype=_DTYPES[code]).reshape(shape)
        arrays[name] = data.astype(data.dtype.newbyteorder("="), copy=True)
    if pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - pos} trailing bytes")
    return arrays, meta
