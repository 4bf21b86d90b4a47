"""Corpus generation: determinism, band limits, grid independence."""

from __future__ import annotations

import numpy as np
import pytest

from toruslab.corpus import (
    _canonical_modes,
    CorpusSpec,
    default_corpus_specs,
    generate,
    spec_from_payload,
    spec_to_payload,
    specs_from_manifest,
    write_corpus_manifest,
)
from toruslab.spectral import TorusGrid


def canonical_modes_loop(dims: int, max_freq: int) -> list[tuple[int, ...]]:
    """The lattice walk the vectorised ``_canonical_modes`` replaced: every
    point of the cube, one representative per conjugate pair, then sorted."""
    ranges = [range(-max_freq, max_freq + 1)] * dims
    reps = []
    for k in np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, dims):
        if not np.any(k):
            continue
        if float(np.dot(k, k)) > max_freq**2:
            continue
        nonzero = k[k != 0]
        if nonzero[0] < 0:
            continue  # conjugate partner is the representative
        reps.append(tuple(int(v) for v in k))
    reps.sort()
    return reps


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("max_freq", range(1, 7))
def test_canonical_modes_match_the_lattice_walk(dims, max_freq):
    got = _canonical_modes(dims, max_freq)
    assert got == canonical_modes_loop(dims, max_freq)
    assert all(type(v) is int for k in got for v in k)


class TestSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CorpusSpec.make("white_noise", seed=1)

    def test_params_canonicalized(self):
        a = CorpusSpec.make("frac_noise", seed=1, s=0.5, max_freq=8)
        b = CorpusSpec.make("frac_noise", seed=1, max_freq=8, s=0.5)
        assert a == b

    def test_payload_round_trip(self):
        spec = CorpusSpec.make("trig_poly", seed=7, max_freq=12, terms=5)
        assert spec_from_payload(spec_to_payload(spec)) == spec


class TestGenerate:
    def test_single_mode_exact(self):
        grid = TorusGrid(1, 64)
        f = generate(CorpusSpec.make("single_mode", k=3), grid)
        x = grid.coordinates()[0]
        assert np.max(np.abs(f.samples - np.cos(2 * np.pi * 3 * x))) <= 1e-14

    def test_deterministic(self):
        grid = TorusGrid(1, 128)
        spec = CorpusSpec.make("frac_noise", seed=42, s=0.5, max_freq=63)
        a = generate(spec, grid)
        b = generate(spec, grid)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_output(self):
        grid = TorusGrid(1, 128)
        a = generate(CorpusSpec.make("frac_noise", seed=1, s=0.5, max_freq=31), grid)
        b = generate(CorpusSpec.make("frac_noise", seed=2, s=0.5, max_freq=31), grid)
        assert not np.allclose(a.samples, b.samples)

    @pytest.mark.parametrize(
        "spec",
        [
            CorpusSpec.make("frac_noise", seed=3, s=0.75, max_freq=30),
            CorpusSpec.make("trig_poly", seed=4, max_freq=12, terms=6),
            CorpusSpec.make("step_like", k0=2, max_freq=30),
            CorpusSpec.make("bump", width=0.15),
            CorpusSpec.make("single_mode", k=5),
        ],
    )
    def test_mean_zero(self, spec):
        grid = TorusGrid(1, 128)
        f = generate(spec, grid)
        assert f.mean_zero
        assert abs(f.mean()) <= 1e-12 * max(f.max_abs(), 1e-300)

    @pytest.mark.parametrize(
        "spec",
        [
            CorpusSpec.make("frac_noise", seed=5, s=0.5, max_freq=20),
            CorpusSpec.make("trig_poly", seed=6, max_freq=10, terms=8),
            CorpusSpec.make("step_like", k0=1, max_freq=21),
            CorpusSpec.make("single_mode", k=4),
        ],
    )
    def test_grid_independent(self, spec):
        # The same continuum function realized at N and 2N agrees at the
        # shared lattice points.
        coarse = generate(spec, TorusGrid(1, 64))
        fine = generate(spec, TorusGrid(1, 128))
        err = np.max(np.abs(fine.samples[::2] - coarse.samples))
        assert err <= 1e-12 * max(coarse.max_abs(), 1e-300)

    def test_grid_independent_2d(self):
        spec = CorpusSpec.make("frac_noise", seed=8, s=1.0, max_freq=7)
        coarse = generate(spec, TorusGrid(2, 16))
        fine = generate(spec, TorusGrid(2, 32))
        err = np.max(np.abs(fine.samples[::2, ::2] - coarse.samples))
        assert err <= 1e-12 * coarse.max_abs()

    def test_aliasing_rejected(self):
        grid = TorusGrid(1, 64)
        with pytest.raises(ValueError, match="alias"):
            generate(CorpusSpec.make("frac_noise", seed=1, s=0.5, max_freq=32), grid)
        with pytest.raises(ValueError, match="alias"):
            generate(CorpusSpec.make("single_mode", k=40), grid)

    def test_flat_spectrum_noise(self):
        grid = TorusGrid(1, 128)
        f = generate(CorpusSpec.make("frac_noise", seed=9, s=0.0, max_freq=63), grid)
        assert abs(f.mean()) <= 1e-12 * f.max_abs()

    def test_amplitude_scales_linearly(self):
        grid = TorusGrid(1, 64)
        base = CorpusSpec.make("frac_noise", seed=10, s=0.5, max_freq=20, amplitude=1)
        doubled = CorpusSpec.make(
            "frac_noise", seed=10, s=0.5, max_freq=20, amplitude=2
        )
        a = generate(base, grid)
        b = generate(doubled, grid)
        assert np.max(np.abs(b.samples - 2 * a.samples)) <= 1e-12 * a.max_abs()

    def test_step_like_has_odd_harmonics(self):
        from toruslab.spectral import forward_transform

        grid = TorusGrid(1, 128)
        f = generate(CorpusSpec.make("step_like", k0=2, max_freq=20), grid)
        coeff = forward_transform(f).coefficients
        assert abs(coeff[2]) > 0.1  # fundamental at k0=2
        assert abs(coeff[4]) <= 1e-14  # even harmonic absent
        assert abs(coeff[6]) > 0.01  # third harmonic present
        assert np.max(np.abs(coeff[21:64])) <= 1e-14  # band-limited


class TestDefaultCorpus:
    def test_composition(self):
        specs = default_corpus_specs(seed=0)
        assert len(specs) == 20
        kinds = [s.kind for s in specs]
        assert kinds.count("frac_noise") == 8
        assert kinds.count("trig_poly") == 6
        assert kinds.count("single_mode") == 3
        assert kinds.count("step_like") == 3

    def test_all_realizable_at_256(self):
        grid = TorusGrid(1, 256)
        for spec in default_corpus_specs(seed=0):
            f = generate(spec, grid)
            assert f.mean_zero and np.isfinite(f.max_abs())

    def test_distinct(self):
        grid = TorusGrid(1, 256)
        realized = [generate(s, grid).samples for s in default_corpus_specs(seed=0)]
        for i in range(len(realized)):
            for j in range(i + 1, len(realized)):
                assert not np.array_equal(realized[i], realized[j])


class TestManifest:
    def test_round_trip_and_hashes(self, tmp_path):
        import json

        grid = TorusGrid(1, 64)
        specs = [
            CorpusSpec.make("single_mode", k=2),
            CorpusSpec.make("frac_noise", seed=3, s=0.5, max_freq=20),
        ]
        path = write_corpus_manifest(specs, grid, tmp_path / "corpus.json")
        assert specs_from_manifest(path) == specs
        payload = json.loads(path.read_text())
        assert len(payload["functions"]) == 2
        from toruslab.fieldio import sha256_hex

        f = generate(specs[0], grid)
        assert payload["functions"][0]["sha256"] == sha256_hex(f.samples)
