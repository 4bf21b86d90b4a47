"""Binary field format, CSV tables, reproducible JSON."""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import pytest

from toruslab.fieldio import (
    FORMAT_VERSION,
    MAGIC,
    read_field,
    sha256_hex,
    write_csv,
    write_field,
    write_json,
)
from toruslab.spectral import Field, TorusGrid


def sample_field(dims: int = 2, size: int = 8, length: float = 1.0, seed: int = 0) -> Field:
    grid = TorusGrid(dims=dims, size=size, length=length)
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape))


class TestBinaryFormat:
    @pytest.mark.parametrize("dims,size", [(1, 16), (2, 8), (3, 4)])
    def test_round_trip_bit_exact(self, tmp_path, dims, size):
        f = sample_field(dims, size, length=0.75, seed=dims)
        path = write_field(f, tmp_path / "f.bin")
        back = read_field(path)
        assert back.grid == f.grid
        assert np.array_equal(back.samples, f.samples)

    def test_header_layout(self, tmp_path):
        grid = TorusGrid(dims=1, size=4, length=2.0)
        f = Field(grid, np.array([1.0, 2.0, 3.0, 4.0]))
        raw = write_field(f, tmp_path / "f.bin").read_bytes()
        assert len(raw) == 32 + 4 * 8
        magic, version, dims, size, length = struct.unpack_from("<4sIIId8x", raw)
        assert magic == MAGIC == b"TLAB"
        assert version == FORMAT_VERSION == 1
        assert (dims, size, length) == (1, 4, 2.0)
        assert raw[32:] == np.array([1.0, 2.0, 3.0, 4.0]).astype("<f8").tobytes()

    def test_bad_magic(self, tmp_path):
        path = write_field(sample_field(), tmp_path / "f.bin")
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            read_field(path)

    def test_bad_version(self, tmp_path):
        path = write_field(sample_field(), tmp_path / "f.bin")
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4, 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_field(path)

    def test_truncated(self, tmp_path):
        path = write_field(sample_field(), tmp_path / "f.bin")
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="bytes"):
            read_field(path)


class TestCsvAndJson:
    def test_csv_round_trip_precision(self, tmp_path):
        f = sample_field(dims=1, size=8, seed=3)
        path = write_csv(tmp_path / "f.csv", ["i", "value"],
                         [[i, float(v)] for i, v in enumerate(f.samples)])
        rows = path.read_text().strip().splitlines()[1:]
        values = np.array([float(r.split(",")[-1]) for r in rows])
        assert np.array_equal(values, f.samples)

    def test_json_deterministic(self, tmp_path):
        payload = {"b": [1, 2, 3], "a": {"z": 1.5, "y": None}}
        p1 = write_json(payload, tmp_path / "one.json")
        p2 = write_json(payload, tmp_path / "two.json")
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == payload
        assert p1.read_text().index('"a"') < p1.read_text().index('"b"')

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_refuses_non_finite(self, tmp_path, bad):
        with pytest.raises(ValueError):
            write_json({"a": [1.0, bad]}, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()

    def test_write_csv(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["name", "value"], [["x", 1], ["y", 2.5]])
        assert path.read_text().strip().splitlines() == ["name,value", "x,1", "y,2.5"]

    def test_sha256_stable_and_sensitive(self):
        a = np.arange(8, dtype=float)
        assert sha256_hex(a) == sha256_hex(a.copy())
        b = a.copy()
        b[0] += 1e-15
        assert sha256_hex(a) != sha256_hex(b)
