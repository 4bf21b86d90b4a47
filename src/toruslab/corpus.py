"""Seeded generators of band-limited test functions.

Coefficient draws are made in a canonical mode order that depends only on
the spec, never on the grid, so the same spec realizes the same continuum
function at every resolution. That makes refinement comparisons (N vs 2N)
measure discretization drift and nothing else.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fieldio import sha256_hex, write_json
from .spectral import Field, SpectralField, TorusGrid, inverse_transform

KINDS = ("trig_poly", "frac_noise", "bump", "single_mode", "step_like")


@dataclass(frozen=True)
class CorpusSpec:
    seed: int
    kind: str
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown corpus kind {self.kind!r}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in u64")

    @classmethod
    def make(cls, kind: str, seed: int = 0, **params: float) -> "CorpusSpec":
        items = tuple(sorted((str(k), float(v)) for k, v in params.items()))
        return cls(seed=seed, kind=kind, params=items)

    def param(self, name: str, default: float | None = None) -> float:
        for key, value in self.params:
            if key == name:
                return value
        if default is None:
            raise ValueError(f"spec {self.kind} missing parameter {name!r}")
        return default

    def label(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.kind}(seed={self.seed},{inner})"


def _check_band_limit(max_freq: float, grid: TorusGrid) -> int:
    max_freq = int(max_freq)
    if max_freq < 1:
        raise ValueError("max_freq must be at least 1")
    if max_freq >= grid.size // 2:
        raise ValueError(
            f"max_freq {max_freq} aliases on an N={grid.size} grid (needs < N/2)"
        )
    return max_freq


def _canonical_modes(dims: int, max_freq: int) -> list[tuple[int, ...]]:
    """One representative per conjugate pair, |k|_2 <= max_freq, lex order."""
    side = np.arange(-max_freq, max_freq + 1)
    # the "ij" lattice with ascending sides is already in lex order
    k = np.stack(np.meshgrid(*[side] * dims, indexing="ij"), axis=-1).reshape(-1, dims)
    # k, not its conjugate partner -k, when its first nonzero entry is
    # positive; the zero mode has none
    first = k[np.arange(len(k)), np.argmax(k != 0, axis=1)]
    keep = (first > 0) & (np.sum(k * k, axis=1) <= max_freq**2)
    return [tuple(row) for row in k[keep].tolist()]


def _place_coefficients(
    grid: TorusGrid, modes: Sequence[tuple[int, ...]], coeffs: np.ndarray
) -> Field:
    array = np.zeros(grid.shape, dtype=complex)
    n = grid.size
    for k, c in zip(modes, coeffs):
        idx = tuple(kj % n for kj in k)
        conj_idx = tuple(-kj % n for kj in k)
        array[idx] = c
        array[conj_idx] = np.conj(c)
    return inverse_transform(SpectralField(grid, array))


def _gaussian_coeff_draws(seed: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(2 * count)
    return (draws[0::2] + 1j * draws[1::2]) / 2.0


def generate(spec: CorpusSpec, grid: TorusGrid) -> Field:
    """Realize the spec on the grid; deterministic, mean-zero."""
    amplitude = spec.param("amplitude", 1.0)
    if spec.kind == "single_mode":
        k = int(spec.param("k"))
        _check_band_limit(k, grid)
        x = grid.coordinates()[0]
        samples = amplitude * np.cos(2.0 * np.pi * k * x / grid.length)
        return Field(grid, samples, mean_zero=True)

    if spec.kind == "step_like":
        # Square wave truncated at the band limit: the partial Fourier sum
        # of sign(sin), which is the band-limited smoothing.
        k0 = int(spec.param("k0", 1.0))
        max_freq = _check_band_limit(spec.param("max_freq", 63.0), grid)
        if k0 < 1:
            raise ValueError("k0 must be at least 1")
        x = grid.coordinates()[0]
        samples = np.zeros(grid.shape)
        m = 1
        while m * k0 <= max_freq:
            samples += (4.0 / (np.pi * m)) * np.sin(2.0 * np.pi * m * k0 * x / grid.length)
            m += 2
        if m == 1:
            raise ValueError("band limit excludes even the fundamental mode")
        return Field(grid, amplitude * samples, mean_zero=True)

    if spec.kind == "bump":
        width = spec.param("width", 0.1) * grid.length
        if width <= 0:
            raise ValueError("bump width must be positive")
        center = grid.length / 2.0
        coords = grid.coordinates()
        dist_sq = np.zeros(grid.shape)
        for c in coords:
            # Three periodic images keep the bump smooth across the seam.
            d = np.minimum.reduce(
                [np.abs(c - center + m * grid.length) for m in (-1, 0, 1)]
            )
            dist_sq = dist_sq + d**2
        samples = amplitude * np.exp(-dist_sq / width**2)
        samples = samples - samples.mean()
        return Field(grid, samples, mean_zero=True)

    if spec.kind == "frac_noise":
        s = spec.param("s")
        max_freq = _check_band_limit(spec.param("max_freq", 63.0), grid)
        modes = _canonical_modes(grid.dims, max_freq)
        draws = _gaussian_coeff_draws(spec.seed, len(modes))
        norms = np.array([np.sqrt(sum(kj**2 for kj in k)) for k in modes])
        # Envelope applied after the draws: the same seed yields the same
        # draws for every s, which is what makes regularity monotone in s.
        coeffs = amplitude * draws * norms ** (-s)
        return _place_coefficients(grid, modes, coeffs)

    if spec.kind == "trig_poly":
        max_freq = _check_band_limit(spec.param("max_freq", 8.0), grid)
        terms = int(spec.param("terms", 10.0))
        if terms < 1:
            raise ValueError("terms must be at least 1")
        modes = _canonical_modes(grid.dims, max_freq)
        rng = np.random.default_rng(spec.seed)
        chosen = rng.choice(len(modes), size=min(terms, len(modes)), replace=False)
        draws = rng.standard_normal(2 * chosen.size)
        coeffs = amplitude * (draws[0::2] + 1j * draws[1::2]) / 2.0
        return _place_coefficients(grid, [modes[i] for i in chosen], coeffs)

    raise ValueError(f"unknown corpus kind {spec.kind!r}")


def default_corpus_specs(seed: int = 0) -> list[CorpusSpec]:
    """The 20-function battery used by the theorem checks.

    Spans the regularity window: fractional noises of increasing decay,
    sparse trig polynomials, pure modes, and band-limited square waves.
    """
    specs: list[CorpusSpec] = []
    for i, s in enumerate(np.linspace(0.25, 1.75, 8)):
        specs.append(
            CorpusSpec.make("frac_noise", seed=seed + i, s=float(s), max_freq=63)
        )
    for i, max_freq in enumerate([4, 8, 16, 24, 32, 48]):
        specs.append(
            CorpusSpec.make(
                "trig_poly", seed=seed + 100 + i, max_freq=max_freq, terms=10
            )
        )
    for k in (1, 4, 16):
        specs.append(CorpusSpec.make("single_mode", seed=seed, k=k))
    for k0 in (1, 2, 3):
        specs.append(CorpusSpec.make("step_like", seed=seed, k0=k0, max_freq=63))
    return specs


def spec_to_payload(spec: CorpusSpec) -> dict:
    return {"seed": spec.seed, "kind": spec.kind, "params": dict(spec.params)}


def spec_from_payload(payload: Mapping) -> CorpusSpec:
    return CorpusSpec.make(
        payload["kind"], seed=int(payload["seed"]), **payload.get("params", {})
    )


def write_corpus_manifest(
    specs: Iterable[CorpusSpec], grid: TorusGrid, path: str | Path
) -> Path:
    """Manifest with specs and content hashes of their realizations."""
    entries = []
    for spec in specs:
        field = generate(spec, grid)
        entries.append(
            {"spec": spec_to_payload(spec), "sha256": sha256_hex(field.samples)}
        )
    payload = {
        "grid": {"dims": grid.dims, "size": grid.size, "length": grid.length},
        "functions": entries,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return write_json(payload, path)


def specs_from_manifest(path: str | Path) -> list[CorpusSpec]:
    import json

    payload = json.loads(Path(path).read_text())
    return [spec_from_payload(entry["spec"]) for entry in payload["functions"]]
