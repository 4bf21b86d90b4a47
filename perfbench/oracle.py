"""Reference outputs of each workload, and the comparison against them.

A reference file holds every output file of one workload run at one
seed, keyed by file name: JSON files parsed, CSV files as rows of cells.
The references were captured from the seed commit of the benchmark.

Comparison ignores the ``out`` path and any ``created`` stamp. Numbers
match when |got - want| <= ATOL + RTOL * |want|: that passes the roundoff
of a changed FFT layout (about 1e-13 relative on these outputs, and the
Picard iteration stops at a 1e-10 residual) and fails a changed band,
ratio or verdict. Strings, booleans, nulls, keys and list lengths must
match exactly.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-12
IGNORED_KEYS = frozenset({"out", "created"})


def read_outputs(directory: Path) -> dict:
    """Every file of an output directory, parsed."""
    files = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".json":
            files[path.name] = json.loads(path.read_text())
        elif path.suffix == ".csv":
            with open(path, newline="") as fh:
                files[path.name] = list(csv.reader(fh))
        else:
            raise ValueError(f"unexpected output file {path.name}")
    return files


def write_reference(outputs: dict, path: Path) -> None:
    """One line per output file, so a changed reference diffs by file."""
    lines = [json.dumps({name: outputs[name]}, sort_keys=True,
                        separators=(",", ":"))
             for name in sorted(outputs)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def read_reference(path: Path) -> dict:
    outputs = {}
    for line in path.read_text().splitlines():
        outputs.update(json.loads(line))
    return outputs


def _number(value):
    """A float for JSON numbers and numeric CSV cells, else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def compare(got, want, where: str = "") -> list[str]:
    """Mismatches between two parsed outputs, as readable strings."""
    g, w = _number(got), _number(want)
    if g is not None and w is not None:
        if g == w or (math.isnan(g) and math.isnan(w)):
            return []
        if abs(g - w) <= ATOL + RTOL * abs(w):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        keys_g = set(got) - IGNORED_KEYS
        keys_w = set(want) - IGNORED_KEYS
        if keys_g != keys_w:
            return [f"{where}: keys differ {sorted(keys_g ^ keys_w)}"]
        out = []
        for key in sorted(keys_w):
            out += compare(got[key], want[key], f"{where}/{key}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        out = []
        for i, (a, b) in enumerate(zip(got, want)):
            out += compare(a, b, f"{where}[{i}]")
        return out
    if type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def check(directory: Path, reference: Path) -> list[str]:
    """Mismatches of an output directory against a reference file."""
    return compare(read_outputs(directory), read_reference(reference))
