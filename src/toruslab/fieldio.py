"""Serialization: flat binary fields, CSV tables, deterministic JSON.

Binary layout is a fixed 32-byte little-endian header (magic ``TLAB``,
version u32, dims u32, size u32, length f64, 8 bytes reserved) followed
by the row-major float64 samples. All JSON written here has sorted keys
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .spectral import Field, TorusGrid

MAGIC = b"TLAB"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIId8x")

assert _HEADER.size == 32


def write_field(field: Field, path: str | Path) -> Path:
    """Write a field to its binary file format."""
    path = Path(path)
    grid = field.grid
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, grid.dims, grid.size, grid.length)
    samples = np.ascontiguousarray(field.samples, dtype="<f8")
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(samples.tobytes())
    return path


def read_field(path: str | Path) -> Field:
    """Read a field back; validates the header and sample payload."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, dims, size, length = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    grid = TorusGrid(dims=dims, size=size, length=length)
    expected = _HEADER.size + 8 * grid.point_count
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(raw)}")
    samples = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).astype(np.float64)
    return Field(grid, samples.reshape(grid.shape))


def write_json(payload: Any, path: str | Path) -> Path:
    """Dump JSON with sorted keys and a trailing newline (reproducible).

    NaN and infinities are refused with ValueError, before the file is
    opened: they are not JSON, and a report must not carry them.
    """
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))
    return path


def sha256_hex(array: np.ndarray) -> str:
    """Content hash of an array's row-major little-endian float64 bytes."""
    data = np.ascontiguousarray(array, dtype="<f8")
    return hashlib.sha256(data.tobytes()).hexdigest()
