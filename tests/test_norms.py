"""Norm functionals against independent oracles.

Oracle strategy:
  - exhaustive box families on tiny grids are checked against direct
    quadruple-loop sums (no FFT, no shared code paths);
  - single-mode extensions have closed-form gradients, so box values reduce
    to lattice ball sums times incomplete-gamma time integrals (scipy);
  - Bloch/Besov sups of single modes have exact values independent of the
    frequency, which pins the weights and the sup search.
"""

import dataclasses
import math
import threading
import time
import tracemalloc
from collections.abc import Sequence
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc

import toruslab.extensions as extensions_module
import toruslab.norms as norms_module
from toruslab.corpus import CorpusSpec, generate
from toruslab.extensions import CHUNK_POINTS, Extension, TimeMesh
from toruslab.norms import (
    BoxFamily,
    NORMS,
    NormResult,
    TimeSeries,
    XSpaceResult,
    besov_norm,
    bloch_cb_norm,
    bloch_hb_norm,
    default_mesh,
    frac_campanato_norm,
    inverse_space_norm,
    trace_pass,
    x_space_norm,
    _ball_correlate,
    _ball_mask,
    _ball_spectra,
    _RunningSums,
    _sup_over_family,
)
from toruslab.spectral import (
    Field,
    TorusGrid,
    forward_transform,
    inverse_transform,
)
from transform_oracles import (
    HALF_SPECTRUM_RTOL,
    assert_half_close,
    ball_correlate,
    extension_values,
    gradient_square,
    inverse_rows,
    lift_extension,
    nyquist_field,
    zero_time_square,
)


def count_passes(monkeypatch) -> list:
    """The extension of every gradient pass that has work to do, in call
    order, from here on."""
    passes, real = [], Extension.gradient_pass

    def counted(ext, walks=(), peaks=()):
        peaks = list(peaks)
        if walks or any(full not in ext.peaks for full in peaks):
            passes.append(ext)
        return real(ext, walks, peaks)

    monkeypatch.setattr(Extension, "gradient_pass", counted)
    return passes


def count_streams(monkeypatch) -> list:
    """(trace, times) of every gradient-square stream, in call order, from
    here on."""
    streams, real = [], extensions_module.gradient_square_rows

    def counted(trace, kind, times, fulls=(True,)):
        streams.append((trace, times))
        return real(trace, kind, times, fulls)

    monkeypatch.setattr(extensions_module, "gradient_square_rows", counted)
    return streams


def lower_gamma_integral(w: float, a: float, upper: float) -> float:
    """integral_0^upper t^w e^{-a t} dt for w > -1, a > 0."""
    return gamma_fn(1.0 + w) / a ** (1.0 + w) * gammainc(1.0 + w, a * upper)


def min_image(d: int, n: int) -> int:
    return min(d % n, n - d % n)


def random_field(grid: TorusGrid, seed: int) -> Field:
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape)
    return Field(grid, vals - vals.mean())


def lattice_ball_sum_1d(vals: np.ndarray, j: int) -> np.ndarray:
    """out[c] = sum of vals over open-ball offsets at radius 2^-j (L=1)."""
    n = vals.size
    radius = 2.0**-j
    out = np.zeros(n)
    for c in range(n):
        for d in range(n):
            if min_image(d, n) / n < radius:
                out[c] += vals[(c + d) % n]
    return out


# --- exhaustive families vs direct sums ---

class TestBruteForce:
    def brute_campanato(self, f: Field, alpha: float, boxes: BoxFamily) -> float:
        grid = f.grid
        g = f.remove_mean().samples
        n = grid.size
        best = 0.0
        centers = list(np.ndindex(*grid.shape))
        for j, radius in zip(boxes.j_values, boxes.radii):
            for c in centers[:: 1 if boxes.stride == 1 else boxes.stride]:
                pts = []
                for d in np.ndindex(*grid.shape):
                    dist_sq = sum(
                        (min_image(di, n) * grid.spacing) ** 2 for di in d
                    )
                    if dist_sq < radius**2:
                        pts.append(g[tuple((ci + di) % n for ci, di in zip(c, d))])
                pts = np.array(pts)
                integral = np.sum((pts - pts.mean()) ** 2) * grid.cell_volume
                best = max(best, radius ** -(grid.dims + 2 * alpha) * integral)
        return math.sqrt(best)

    def brute_pair(self, f: Field, alpha: float, boxes: BoxFamily) -> float:
        grid = f.grid
        g = f.remove_mean().samples
        n = grid.size
        best = 0.0
        for j, radius in zip(boxes.j_values, boxes.radii):
            for c in np.ndindex(*grid.shape):
                pts = []
                for d in np.ndindex(*grid.shape):
                    dist_sq = sum(
                        (min_image(di, n) * grid.spacing) ** 2 for di in d
                    )
                    if dist_sq < radius**2:
                        pts.append(g[tuple((ci + di) % n for ci, di in zip(c, d))])
                pts = np.array(pts)
                pair = np.sum((pts[:, None] - pts[None, :]) ** 2) * grid.cell_volume**2
                best = max(best, radius ** (-2 * (alpha + grid.dims)) * pair)
        return math.sqrt(best)

    def brute_q(self, f: Field, beta: float, boxes: BoxFamily) -> float:
        grid = f.grid
        g = f.remove_mean().samples
        n = grid.size
        best = 0.0
        for j, radius in zip(boxes.j_values, boxes.radii):
            offsets = []
            for d in np.ndindex(*grid.shape):
                dist_sq = sum((min_image(di, n) * grid.spacing) ** 2 for di in d)
                if dist_sq < radius**2:
                    offsets.append(d)
            for c in np.ndindex(*boxes.center_view(g).shape):
                c = tuple(ci * boxes.stride for ci in c)
                total = 0.0
                vals = [
                    g[tuple((ci + di) % n for ci, di in zip(c, d))] for d in offsets
                ]
                for a_i, da in enumerate(offsets):
                    for b_i, db in enumerate(offsets):
                        if a_i == b_i:
                            continue
                        dist_sq = sum(
                            (min_image(xa - xb, n) * grid.spacing) ** 2
                            for xa, xb in zip(da, db)
                        )
                        total += (vals[a_i] - vals[b_i]) ** 2 * dist_sq ** (
                            -(grid.dims + 2 * beta) / 2.0
                        )
                total *= grid.cell_volume**2
                best = max(best, radius ** (2 * beta - grid.dims) * total)
        return math.sqrt(best)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_campanato_matches_direct_sum_1d(self, alpha):
        grid = TorusGrid(dims=1, size=16, length=1.0)
        f = random_field(grid, seed=11)
        boxes = BoxFamily.default(grid)
        got = NORMS["campanato"].result(f, alpha, boxes).value
        want = self.brute_campanato(f, alpha, boxes)
        assert got == pytest.approx(want, rel=1e-10)

    def test_campanato_matches_direct_sum_2d(self):
        grid = TorusGrid(dims=2, size=8, length=1.0)
        f = random_field(grid, seed=12)
        boxes = BoxFamily.default(grid)
        got = NORMS["campanato"].result(f, 0.25, boxes).value
        want = self.brute_campanato(f, 0.25, boxes)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("alpha", [-0.25, 0.5])
    def test_pair_matches_direct_sum_1d(self, alpha):
        grid = TorusGrid(dims=1, size=16, length=1.0)
        f = random_field(grid, seed=13)
        boxes = BoxFamily.default(grid)
        got = NORMS["campanato_pair"].result(f, alpha, boxes).value
        want = self.brute_pair(f, alpha, boxes)
        assert got == pytest.approx(want, rel=1e-10)

    def test_pair_matches_direct_sum_2d(self):
        grid = TorusGrid(dims=2, size=8, length=1.0)
        f = random_field(grid, seed=14)
        boxes = BoxFamily.default(grid)
        got = NORMS["campanato_pair"].result(f, -0.5, boxes).value
        want = self.brute_pair(f, -0.5, boxes)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("beta", [0.25, 0.75])
    def test_q_matches_direct_sum_1d(self, beta):
        grid = TorusGrid(dims=1, size=16, length=1.0)
        f = random_field(grid, seed=15)
        boxes = BoxFamily.default(grid)
        got = NORMS["q"].result(f, beta, boxes).value
        want = self.brute_q(f, beta, boxes)
        assert got == pytest.approx(want, rel=1e-10)

    def test_q_matches_direct_sum_2d(self):
        grid = TorusGrid(dims=2, size=8, length=1.0)
        f = random_field(grid, seed=16)
        boxes = BoxFamily.default(grid)
        got = NORMS["q"].result(f, 0.5, boxes).value
        want = self.brute_q(f, 0.5, boxes)
        assert got == pytest.approx(want, rel=1e-10)

    def test_q_matches_direct_sum_3d(self):
        # N=4, radius 1/2: a 27-point ball whose pair offsets wrap the torus
        grid = TorusGrid(dims=3, size=4, length=1.0)
        f = random_field(grid, seed=17)
        boxes = BoxFamily.default(grid)
        got = NORMS["q"].result(f, 0.5, boxes).value
        want = self.brute_q(f, 0.5, boxes)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("dims,size", [(1, 32), (2, 16)])
    def test_q_matches_direct_sum_strided(self, dims, size):
        grid = TorusGrid(dims=dims, size=size, length=1.0)
        f = random_field(grid, seed=18)
        boxes = dataclasses.replace(BoxFamily.default(grid), stride=2)
        got = NORMS["q"].result(f, 0.25, boxes)
        want = self.brute_q(f, 0.25, boxes)
        assert got.value == pytest.approx(want, rel=1e-10)
        assert all(c % 2 == 0 for c in got.arg_center)


def q_per_center_1d(f: Field, beta: float, boxes: BoxFamily) -> np.ndarray:
    """q's squared box value at every (radius, strided center) of a 1-D
    family, from dense ball-pair weights: shape (radii, centers)."""
    grid = f.grid
    n, h = grid.size, grid.spacing
    g = f.remove_mean().samples
    centers = np.arange(0, n, boxes.stride)
    out = []
    for radius in boxes.radii:
        offsets = np.array([d for d in range(-n // 2, n // 2) if abs(d) * h < radius])
        gap = np.abs(offsets[:, None] - offsets[None, :])
        gap = np.minimum(gap, n - gap) * h
        with np.errstate(divide="ignore"):
            w = np.where(gap > 0, gap, np.inf) ** -(1 + 2 * beta)
        v = g[(centers[:, None] + offsets[None, :]) % n]
        pairs = 2 * ((v * v) @ w.sum(axis=1) - np.einsum("ca,ab,cb->c", v, w, v))
        out.append(pairs * grid.cell_volume**2 * radius ** (2 * beta - 1))
    return np.array(out)


class TestSupTies:
    def test_tied_centers_report_the_first_in_lattice_order(self):
        # cos(8 pi x) has four periods and mirror symmetry, so q's maximizing
        # centers are a symmetric set that ties up to roundoff. Shifted and
        # mirrored copies of the field hold the same set, and each must name
        # its first center; the parent picked by last-bit noise.
        grid = TorusGrid(dims=1, size=256)
        boxes = BoxFamily.default(grid)
        f = generate(CorpusSpec.make("single_mode", seed=0, k=4), grid)
        vals = q_per_center_1d(f, 0.25, boxes)
        best = vals.max()
        near = vals >= best * (1 - 1e-12)
        assert vals[~near].max() < best * (1 - 1e-9)  # a clean tie set
        radius_i, center_i = min(zip(*np.nonzero(near)), key=lambda rc: (rc[1], rc[0]))
        want = ((int(center_i) * boxes.stride,), boxes.radii[radius_i])
        copies = [f.samples, np.roll(f.samples, 64), np.roll(f.samples[::-1], 1)]
        for samples in copies:
            got = NORMS["q"].result(Field(grid, samples), 0.25, boxes)
            assert (got.arg_center, got.arg_radius) == want
            assert got.value == pytest.approx(math.sqrt(best), rel=1e-12)

    def test_exact_tie_in_a_crafted_stack(self):
        # the max 4.0 at two radii of center (5, 30) and at one radius each
        # of the later centers (5, 31) and (6, 2); an earlier center and
        # radius sit just outside the 1e-12 tie window
        grid = TorusGrid(dims=2, size=64)
        boxes = BoxFamily.default(grid)
        values = np.zeros((len(boxes.radii),) + boxes.center_view(np.zeros(grid.shape)).shape)
        for radius_i, center in [(2, (5, 30)), (1, (5, 30)), (0, (6, 2)), (3, (5, 31))]:
            values[(radius_i,) + center] = 4.0
        values[0, 0, 5] = 4.0 * (1 - 1e-9)
        got = _sup_over_family(boxes, boxes.radii, values, 0.5)
        assert got.value == 2.0 and got.mean_removed == 0.5
        assert got.arg_center == (5 * boxes.stride, 30 * boxes.stride)
        assert got.arg_radius == boxes.radii[1]
        assert got.per_box_table == tuple(
            (radius, math.sqrt(float(row.max()))) for radius, row in zip(boxes.radii, values))


# --- structural properties of the trace norms ---

class TestTraceNormProperties:
    def setup_method(self):
        self.grid = TorusGrid(dims=1, size=64, length=1.0)
        self.f = random_field(self.grid, seed=21)
        self.boxes = BoxFamily.default(self.grid)

    def test_homogeneity(self):
        base = NORMS["campanato"].result(self.f, 0.25, self.boxes)
        scaled = NORMS["campanato"].result(self.f.scaled(3.5), 0.25, self.boxes)
        assert scaled.value == pytest.approx(3.5 * base.value, rel=1e-12)
        assert scaled.arg_center == base.arg_center
        assert scaled.arg_radius == base.arg_radius

    def test_constant_field_has_zero_norm(self):
        const = Field(self.grid, np.full(self.grid.shape, 2.7))
        res = NORMS["campanato"].result(const, 0.25, self.boxes)
        assert res.value == 0.0
        assert res.mean_removed == pytest.approx(2.7)

    def test_mean_recorded(self):
        shifted = Field(self.grid, self.f.samples + 1.25)
        res = NORMS["campanato"].result(shifted, 0.1, self.boxes)
        assert res.mean_removed == pytest.approx(1.25, abs=1e-12)
        base = NORMS["campanato"].result(self.f, 0.1, self.boxes)
        assert res.value == pytest.approx(base.value, rel=1e-12)

    def test_pair_is_scaled_campanato_per_radius(self):
        # sum_{y,z in B} |f(y)-f(z)|^2 = 2 |B| int_B |f - f_B|^2 exactly.
        alpha = 0.3
        camp = NORMS["campanato"].result(self.f, alpha, self.boxes)
        pair = NORMS["campanato_pair"].result(self.f, alpha, self.boxes)
        for (r, cv), (_, pv) in zip(camp.per_box_table, pair.per_box_table):
            j = round(math.log2(self.grid.length / r))
            count = sum(
                1 for d in range(self.grid.size)
                if min_image(d, self.grid.size) * self.grid.spacing < r
            )
            measure = count * self.grid.cell_volume
            assert pv == pytest.approx(
                math.sqrt(2.0 * measure * r ** -self.grid.dims) * cv, rel=1e-9
            ), f"radius exponent {j}"

    def test_enlarging_family_never_decreases(self):
        small = BoxFamily(grid=self.grid, stride=4, j_values=(2, 3))
        large = BoxFamily(grid=self.grid, stride=2, j_values=(1, 2, 3, 4))
        for op in ("campanato", "campanato_pair"):
            a = NORMS[op].value(self.f, 0.25, small)
            b = NORMS[op].value(self.f, 0.25, large)
            assert b >= a - 1e-14

    def test_stride_refinement_is_small(self):
        coarse = BoxFamily(grid=self.grid, stride=2, j_values=(1, 2, 3, 4, 5))
        fine = BoxFamily(grid=self.grid, stride=1, j_values=(1, 2, 3, 4, 5))
        for op in ("campanato", "q"):
            a = NORMS[op].value(self.f, 0.25, coarse)
            b = NORMS[op].value(self.f, 0.25, fine)
            assert b >= a - 1e-14
            assert (b - a) / b <= 0.05

    def test_frac_campanato_matches_lifted_amplitude(self):
        x = self.grid.coordinates()[0]
        cosine = Field(self.grid, np.cos(2 * np.pi * x))
        for alpha in (-0.5, 0.25, 0.5):
            lifted_amp = (2 * np.pi) ** -alpha
            direct = NORMS["campanato"].result(cosine, alpha, self.boxes).value
            via_lift = frac_campanato_norm(cosine, alpha, self.boxes).value
            assert via_lift == pytest.approx(lifted_amp * direct, rel=1e-10)

    def test_alpha_domain_validated(self):
        with pytest.raises(ValueError):
            NORMS["campanato"].result(self.f, 1.0, self.boxes)
        with pytest.raises(ValueError):
            NORMS["q"].result(self.f, 0.0, self.boxes)
        with pytest.raises(ValueError):
            NORMS["q"].result(self.f, 1.0, self.boxes)

    def test_grid_mismatch_rejected(self):
        other = BoxFamily.default(TorusGrid(dims=1, size=32, length=1.0))
        with pytest.raises(ValueError):
            NORMS["campanato"].result(self.f, 0.25, other)

    def test_per_box_table_radii(self):
        res = NORMS["campanato"].result(self.f, 0.25, self.boxes)
        assert tuple(r for r, _ in res.per_box_table) == self.boxes.radii
        assert res.arg_radius in self.boxes.radii
        assert res.value == pytest.approx(max(v for _, v in res.per_box_table))

    def test_payload_round_trip_fields(self):
        payload = NORMS["campanato"].result(self.f, 0.25, self.boxes).to_payload()
        assert set(payload) == {
            "value", "arg_center", "arg_radius", "mean_removed", "per_box"
        }


class TestQMemoryGuard:
    """The q norm holds a few center blocks and grid fields, never a pair matrix."""

    def test_2d_n128_evaluates_in_chunk_memory(self):
        # A dense pair matrix for the radius-1/2 ball would take 1.3 GB here.
        # 1024 strided centers in blocks of CHUNK_POINTS / N^2 = 8; a block's
        # live arrays are at most five chunk-sized floats (the gathered
        # windows and their masked copy, the complex half spectrum, and its
        # squared modulus or the transform's intermediate). Beside them: the
        # six kernel ball sums (complex), the six per-radius outputs, the
        # wrapped field ((2N-1)^2 floats) and four grid fields (the field,
        # the kernel, its half spectrum and rho).
        grid = TorusGrid(dims=2, size=128, length=1.0)
        f = random_field(grid, seed=5)
        boxes = BoxFamily.default(grid)
        want = NORMS["q"].result(f, 0.5, boxes)  # fills the ball caches
        tracemalloc.start()
        try:
            got = NORMS["q"].result(f, 0.5, boxes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want and math.isfinite(got.value) and got.value > 0
        radii = len(boxes.j_values)
        field = 8 * grid.point_count
        wrapped = 8 * (2 * grid.size - 1) ** 2
        assert peak < 5 * 8 * CHUNK_POINTS + 3 * radii * field + wrapped + 4 * field

    @pytest.mark.parametrize("dims,size", [(1, 512), (2, 64)])
    def test_largest_grids_under_the_cap_evaluate(self, dims, size):
        grid = TorusGrid(dims=dims, size=size, length=1.0)
        res = NORMS["q"].result(random_field(grid, seed=6), 0.5, BoxFamily.default(grid))
        assert math.isfinite(res.value) and res.value > 0


class TestBoxFamily:
    def test_default_shape(self):
        grid = TorusGrid(dims=1, size=256, length=1.0)
        fam = BoxFamily.default(grid)
        assert fam.stride == 8
        assert fam.j_values == tuple(range(1, 8))
        assert fam.radii[0] == pytest.approx(0.5)

    def test_center_view_of_a_stack_views_each_grid_array(self):
        grid = TorusGrid(dims=2, size=16, length=1.0)
        fam = BoxFamily(grid=grid, stride=4, j_values=(1, 2))
        stack = np.arange(3 * 16 * 16, dtype=float).reshape(3, 16, 16)
        view = fam.center_view(stack)
        assert view.shape == (3, 4, 4)
        for one, arr in zip(view, stack):
            assert np.array_equal(one, fam.center_view(arr))
            assert np.array_equal(one, arr[::4, ::4])

    def test_rejects_uncovered_stride(self):
        grid = TorusGrid(dims=1, size=64, length=1.0)
        with pytest.raises(ValueError):
            BoxFamily(grid=grid, stride=40, j_values=(1,))

    def test_rejects_bad_radius_exponents(self):
        grid = TorusGrid(dims=1, size=64, length=1.0)
        with pytest.raises(ValueError):
            BoxFamily(grid=grid, stride=1, j_values=(0,))
        with pytest.raises(ValueError):
            BoxFamily(grid=grid, stride=1, j_values=(6,))
        with pytest.raises(ValueError):
            BoxFamily(grid=grid, stride=1, j_values=())


# --- Carleson-box norms of single modes against closed forms ---

class TestCarlesonSingleMode:
    """u0 = cos(2 pi x) on [0,1): the Poisson extension has
    |grad u|^2 = (2 pi)^2 e^{-4 pi t} (x-independent), the heat extension
    has |grad_x u|^2 = (2 pi)^2 e^{-8 pi^2 t} sin^2(2 pi x)."""

    N = 64

    def setup_method(self):
        self.grid = TorusGrid(dims=1, size=self.N, length=1.0)
        x = self.grid.coordinates()[0]
        self.cosine = Field(self.grid, np.cos(2 * np.pi * x))
        self.sin_sq = np.sin(2 * np.pi * x) ** 2
        self.cos_sq = np.cos(2 * np.pi * x) ** 2
        self.boxes = BoxFamily(
            grid=self.grid, stride=1, j_values=tuple(range(1, 6))
        )
        self.poisson = Extension(self.cosine, "poisson", default_mesh(self.grid, "poisson"))
        self.heat = Extension(self.cosine, "heat", default_mesh(self.grid, "heat"))

    def poisson_box_oracle(self, alpha: float, weight: float) -> float:
        best = 0.0
        for j in self.boxes.j_values:
            r = 2.0**-j
            measure = 2 * r - 1.0 / self.N  # open lattice ball
            t_int = lower_gamma_integral(weight, 4 * np.pi, r)
            best = max(
                best, r ** -(1 + 2 * alpha) * measure * (2 * np.pi) ** 2 * t_int
            )
        return math.sqrt(best)

    def heat_box_oracle(self, alpha: float, weight: float,
                        spatial: np.ndarray, amp: float, rate: float,
                        height_exp: int) -> float:
        best = 0.0
        dx = self.grid.cell_volume
        for j in self.boxes.j_values:
            r = 2.0**-j
            upper = r**height_exp
            ball = lattice_ball_sum_1d(spatial, j) * dx
            t_int = lower_gamma_integral(weight, rate, upper)
            best = max(best, r ** -(1 + 2 * alpha) * amp * t_int * np.max(ball))
        return math.sqrt(best)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_h_alpha2(self, alpha):
        got = NORMS["h"].result(self.poisson, alpha, self.boxes).value
        want = self.poisson_box_oracle(alpha, weight=1.0)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.3])
    def test_scaled_h(self, alpha):
        got = NORMS["scaled_h"].result(self.poisson, alpha, self.boxes).value
        want = self.poisson_box_oracle(alpha, weight=1.0 + 2 * alpha)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("alpha", [-0.5, 0.25, 0.5])
    def test_star(self, alpha):
        got = NORMS["star"].result(self.poisson, alpha, self.boxes).value
        want = (2 * np.pi) ** -alpha * self.poisson_box_oracle(alpha, weight=1.0)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_t_alpha2(self, alpha):
        got = NORMS["t"].result(self.heat, alpha, self.boxes).value
        want = self.heat_box_oracle(
            alpha, weight=0.0, spatial=self.sin_sq,
            amp=(2 * np.pi) ** 2, rate=8 * np.pi**2, height_exp=2,
        )
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("alpha", [-0.75, 0.0, 0.5])
    def test_scaled_t(self, alpha):
        got = NORMS["scaled_t"].result(self.heat, alpha, self.boxes).value
        want = self.heat_box_oracle(
            alpha, weight=alpha, spatial=self.sin_sq,
            amp=(2 * np.pi) ** 2, rate=8 * np.pi**2, height_exp=2,
        )
        assert got == pytest.approx(want, rel=1e-6)

    def dagger_oracle(self, alpha: float, height_exp: int) -> float:
        # lifted caloric field: (2 pi)^-alpha e^{-4 pi^2 t} cos(2 pi x);
        # |grad_{x,t}|^2 = (2 pi)^{-2a} e^{-8 pi^2 t}
        #                  [(2 pi)^2 sin^2 + (4 pi^2)^2 cos^2]
        amp = (2 * np.pi) ** (-2 * alpha)
        spatial = (2 * np.pi) ** 2 * self.sin_sq + (4 * np.pi**2) ** 2 * self.cos_sq
        best = 0.0
        dx = self.grid.cell_volume
        for j in self.boxes.j_values:
            r = 2.0**-j
            ball = lattice_ball_sum_1d(spatial, j) * dx
            t_int = lower_gamma_integral(1.0, 8 * np.pi**2, r**height_exp)
            best = max(best, r ** -(1 + 2 * alpha) * amp * t_int * np.max(ball))
        return math.sqrt(best)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_dagger_linear_height(self, alpha):
        got = NORMS["dagger_linear"].result(self.heat, alpha, self.boxes).value
        assert got == pytest.approx(self.dagger_oracle(alpha, 1), rel=1e-6)

    @pytest.mark.parametrize("alpha", [-0.5, 0.5])
    def test_dagger_parabolic_height(self, alpha):
        got = NORMS["dagger_parabolic"].result(self.heat, alpha, self.boxes).value
        assert got == pytest.approx(self.dagger_oracle(alpha, 2), rel=1e-6)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NORMS["h"].result(self.heat, 0.25, self.boxes)
        with pytest.raises(ValueError):
            NORMS["t"].result(self.poisson, 0.25, self.boxes)
        with pytest.raises(ValueError):
            bloch_cb_norm(self.poisson)
        with pytest.raises(ValueError):
            bloch_hb_norm(self.heat)

    def test_scaled_h_weight_monotone_in_alpha(self):
        # t^{1+2a} <= r^{2(a-b)} t^{1+2b} on each height-r box for b < a,
        # so after the r^-(2a+n) scaling every box value is monotone.
        f = random_field(self.grid, seed=31)
        ext = Extension(f, "poisson", default_mesh(self.grid, "poisson"))
        values = [
            NORMS["scaled_h"].result(ext, alpha, self.boxes).value
            for alpha in (-0.6, -0.2, 0.2, 0.6)
        ]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi * (1 + 1e-12)

    def test_homogeneity_of_box_norms(self):
        f = random_field(self.grid, seed=32)
        ext1 = Extension(f, "heat", default_mesh(self.grid, "heat"))
        ext2 = Extension(f.scaled(2.5), "heat", default_mesh(self.grid, "heat"))
        a = NORMS["t"].result(ext1, 0.25, self.boxes)
        b = NORMS["t"].result(ext2, 0.25, self.boxes)
        assert b.value == pytest.approx(2.5 * a.value, rel=1e-12)
        assert (b.arg_center, b.arg_radius) == (a.arg_center, a.arg_radius)


# --- sup-type norms ---

class TestSupNorms:
    @pytest.mark.parametrize("k", [1, 4])
    def test_bloch_hb_single_mode(self, k):
        # sup_t t * 2 pi k e^{-2 pi k t} = 1/e for every frequency.
        grid = TorusGrid(dims=1, size=64, length=1.0)
        x = grid.coordinates()[0]
        f = Field(grid, np.cos(2 * np.pi * k * x))
        ext = Extension(f, "poisson", default_mesh(grid, "poisson"))
        assert bloch_hb_norm(ext) == pytest.approx(1.0 / math.e, rel=1e-2)

    @pytest.mark.parametrize("k", [1, 4])
    def test_bloch_cb_single_mode(self, k):
        # sup_t sqrt(t) * 2 pi k e^{-4 pi^2 k^2 t} = 1/sqrt(2e).
        grid = TorusGrid(dims=1, size=64, length=1.0)
        x = grid.coordinates()[0]
        f = Field(grid, np.cos(2 * np.pi * k * x))
        ext = Extension(f, "heat", default_mesh(grid, "heat"))
        assert bloch_cb_norm(ext) == pytest.approx(
            1.0 / math.sqrt(2 * math.e), rel=1e-2
        )

    @pytest.mark.parametrize("k", [1, 3])
    def test_besov_single_mode(self, k):
        # sup_t sqrt(t) e^{-4 pi^2 k^2 t} = 1/(2 pi k sqrt(2e)).
        grid = TorusGrid(dims=1, size=64, length=1.0)
        x = grid.coordinates()[0]
        f = Field(grid, np.cos(2 * np.pi * k * x))
        want = 1.0 / (2 * np.pi * k * math.sqrt(2 * math.e))
        assert besov_norm(f) == pytest.approx(want, rel=1e-3)

    def test_besov_constant_is_zero(self):
        grid = TorusGrid(dims=1, size=32, length=1.0)
        f = Field(grid, np.full(grid.shape, 4.0))
        assert besov_norm(f) == 0.0

    def test_besov_homogeneous(self):
        grid = TorusGrid(dims=1, size=32, length=1.0)
        f = random_field(grid, seed=41)
        a = besov_norm(f)
        b = besov_norm(Field(grid, 3.0 * f.samples))
        assert b == pytest.approx(3.0 * a, rel=1e-12)


# --- inverse-space norm ---

class TestInverseSpace:
    N = 64

    def setup_method(self):
        self.grid = TorusGrid(dims=1, size=self.N, length=1.0)
        x = self.grid.coordinates()[0]
        self.cosine = Field(self.grid, np.cos(2 * np.pi * x))
        self.cos_sq = np.cos(2 * np.pi * x) ** 2
        self.boxes = BoxFamily(
            grid=self.grid, stride=1, j_values=tuple(range(1, 6))
        )

    def oracle(self, alpha: float, horizon: float) -> float:
        best = 0.0
        dx = self.grid.cell_volume
        for j in self.boxes.j_values:
            r = 2.0**-j
            if not r * r < horizon:
                continue
            ball = lattice_ball_sum_1d(self.cos_sq, j) * dx
            t_int = lower_gamma_integral(alpha, 8 * np.pi**2, r * r)
            best = max(best, r ** -(1 + 2 * alpha) * t_int * np.max(ball))
        return math.sqrt(best)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_single_mode(self, alpha):
        res = inverse_space_norm(self.cosine, alpha, horizon=1.0, boxes=self.boxes)
        assert res.value == pytest.approx(self.oracle(alpha, 1.0), rel=1e-6)

    def test_horizon_filters_radii(self):
        res = inverse_space_norm(
            self.cosine, 0.0, horizon=0.05, boxes=self.boxes
        )
        # radii with r^2 >= 0.05 (j = 1) must be excluded: 0.25 >= 0.05.
        assert res.value == pytest.approx(self.oracle(0.0, 0.05), rel=1e-6)
        assert all(r * r < 0.05 for r, _ in res.per_box_table)

    def test_no_eligible_radius_gives_zero(self):
        res = inverse_space_norm(
            self.cosine, 0.0, horizon=1e-6, boxes=self.boxes
        )
        assert res.value == 0.0
        assert res.arg_radius is None

    def test_mean_removed_and_recorded(self):
        shifted = Field(self.grid, self.cosine.samples + 2.0)
        res = inverse_space_norm(shifted, 0.25, horizon=1.0, boxes=self.boxes)
        base = inverse_space_norm(self.cosine, 0.25, horizon=1.0, boxes=self.boxes)
        assert res.mean_removed == pytest.approx(2.0, abs=1e-12)
        assert res.value == pytest.approx(base.value, rel=1e-10)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            inverse_space_norm(self.cosine, 0.25, horizon=0.0, boxes=self.boxes)


# --- X-space norm over sampled time series ---

class TestXSpace:
    N = 64

    def setup_method(self):
        self.grid = TorusGrid(dims=1, size=self.N, length=1.0)
        x = self.grid.coordinates()[0]
        self.cos_vals = np.cos(2 * np.pi * x)
        self.cos_sq = self.cos_vals**2
        self.boxes = BoxFamily(
            grid=self.grid, stride=1, j_values=tuple(range(1, 6))
        )
        self.times = np.geomspace(1e-8, 0.2, 800)
        decay = np.exp(-4 * np.pi**2 * self.times)
        self.series = TimeSeries(
            grid=self.grid,
            times=self.times,
            values=decay[:, None] * self.cos_vals[None, :],
        )

    def oracle(self, alpha: float, horizon: float) -> XSpaceResult:
        # sup part: max sqrt(t) e^{-4 pi^2 t}, at t = 1/(8 pi^2) < horizon.
        t_star = 1.0 / (8 * np.pi**2)
        sup_part = math.sqrt(t_star) * math.exp(-0.5)
        dx = self.grid.cell_volume
        best = 0.0
        for j in self.boxes.j_values:
            r = 2.0**-j
            if not r * r < horizon:
                continue
            ball = lattice_ball_sum_1d(self.cos_sq, j) * dx
            t_int = lower_gamma_integral(alpha, 8 * np.pi**2, r * r)
            best = max(best, r ** -(1 + 2 * alpha) * t_int * np.max(ball))
        carleson = math.sqrt(best)
        return XSpaceResult(
            value=sup_part + carleson, sup_part=sup_part,
            carleson_part=carleson, alpha=alpha, horizon=horizon,
        )

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_single_mode(self, alpha):
        got = x_space_norm(self.series, alpha, horizon=0.2, boxes=self.boxes)
        want = self.oracle(alpha, 0.2)
        assert got.sup_part == pytest.approx(want.sup_part, rel=1e-4)
        assert got.carleson_part == pytest.approx(want.carleson_part, rel=1e-4)
        assert got.value == pytest.approx(want.value, rel=1e-4)

    def test_value_is_sum_of_parts(self):
        got = x_space_norm(self.series, 0.25, horizon=0.2, boxes=self.boxes)
        assert got.value == pytest.approx(got.sup_part + got.carleson_part)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(grid=self.grid, times=np.array([0.2, 0.1]),
                       values=np.zeros((2, self.N)))
        with pytest.raises(ValueError):
            TimeSeries(grid=self.grid, times=np.array([0.0, 0.1]),
                       values=np.zeros((2, self.N)))
        with pytest.raises(ValueError):
            TimeSeries(grid=self.grid, times=np.array([0.1]),
                       values=np.zeros((2, self.N)))

    def test_horizon_below_samples_rejected(self):
        with pytest.raises(ValueError):
            x_space_norm(self.series, 0.25, horizon=1e-9, boxes=self.boxes)

    class CountedNodes(Sequence):
        """A series' nodes that record each index read."""

        def __init__(self, values):
            self.values, self.reads = values, []

        def __len__(self):
            return len(self.values)

        def __getitem__(self, i):
            self.reads.append(i)
            return self.values[i]

    # nodes at 0.001, 0.002, ...: the tallest box's r^2 = 1/64 lies between
    # node 14 (t = 0.015) and node 15 (t = 0.016)
    @pytest.mark.parametrize("horizon,k", [
        (0.05, 49),  # the sup reads the nodes below the horizon
        (0.0158, 16),  # the sup stops at node 14; the tallest box's straddle reads node 15
    ], ids=["sup", "straddle"])
    def test_reads_each_node_once_up_to_the_last_needed(self, horizon, k):
        boxes = BoxFamily(self.grid, stride=1, j_values=(3, 4, 5))
        times = 0.001 * np.arange(1, 101)
        values = np.random.default_rng(3).standard_normal((times.size, self.N))
        nodes = self.CountedNodes(values)
        got = x_space_norm(TimeSeries(self.grid, times, nodes), 0.25, horizon, boxes)
        assert nodes.reads == list(range(k))
        assert got == x_space_norm(TimeSeries(self.grid, times, values), 0.25, horizon, boxes)

    def test_from_stack(self):
        f = Field(self.grid, self.cos_vals)
        ext = Extension(f, "heat", default_mesh(self.grid, "heat"))
        series = TimeSeries(ext.grid, ext.mesh.nodes, extension_values(ext))
        assert series.times.size == ext.mesh.node_count
        got = x_space_norm(series, 0.0, horizon=1.0, boxes=self.boxes)
        assert got.value > 0


# --- batched transforms against their unbatched loops ---

def t_loop_besov(f: Field, t_grid: np.ndarray, full: bool = False) -> float:
    """besov_norm one t at a time, on the half spectrum or, with ``full``,
    on the full one."""
    grid = f.grid
    coeff = forward_transform(f.remove_mean()).coefficients
    rate = (2.0 * np.pi / grid.length) ** 2 * grid.mode_square
    axes = tuple(range(grid.dims))
    best = 0.0
    for t in t_grid:
        u = inverse_rows(coeff * np.exp(-rate * float(t)), axes, full)
        best = max(best, math.sqrt(t) * float(np.max(np.abs(u))))
    return best


def panel_loop_inverse_space(f: Field, alpha: float, horizon: float,
                             boxes: BoxFamily, full: bool = False) -> NormResult:
    """inverse_space_norm one panel and one radius at a time, on the half
    spectrum or, with ``full``, on the full one."""
    grid = f.grid
    mesh = default_mesh(grid, "heat")
    g = f.remove_mean()
    fhat = forward_transform(g).coefficients
    rate = (2.0 * np.pi / grid.length) ** 2 * grid.mode_square
    eligible = [(j, r) for j, r in zip(boxes.j_values, boxes.radii) if r * r < horizon]
    cuts = {j: mesh.aligned_cut(r * r) for j, r in eligible}
    t = mesh.nodes
    node_factor = mesh.weights * t**alpha
    acc = g.samples**2 * mesh.floor ** (1.0 + alpha) / (1.0 + alpha)
    snapshots = {j: acc for j, cut in cuts.items() if cut == 0}  # height at the floor
    axes = tuple(range(1, grid.dims + 1))
    n = mesh.nodes_per_panel
    for sl in (slice(p * n, (p + 1) * n) for p in range(mesh.panels)):
        t_chunk = t[sl].reshape((-1,) + (1,) * grid.dims)
        coeff = np.exp(-rate[np.newaxis] * t_chunk) * fhat[np.newaxis]
        u = inverse_rows(coeff, axes, full)
        acc = acc + np.einsum("m...,m->...", u * u, node_factor[sl])
        for j, cut in cuts.items():
            if cut == sl.stop and j not in snapshots:
                snapshots[j] = acc.copy()
    per_radius = []
    for j, radius in eligible:
        ball = ball_correlate(snapshots[j], grid, j, full)
        vals_sq = np.maximum(ball, 0.0) * grid.cell_volume * radius ** (-(2 * alpha + grid.dims))
        per_radius.append((radius, boxes.center_view(vals_sq)))
    return _sup_over_family(boxes, [r for r, _ in per_radius],
                            np.stack([v for _, v in per_radius]), f.mean())


def radius_loop_carleson(ext, boxes: BoxFamily, weight_exp: float, scale_exp: float,
                         full_grad: bool, parabolic: bool) -> NormResult:
    """Carleson box norm one radius at a time: time integral, ball sum,
    scale, then the sup over the family."""
    grid, mesh = ext.grid, ext.mesh
    node_factor = mesh.weights * mesh.nodes**weight_exp
    prefix = np.cumsum(gradient_square(ext, full=full_grad)
                       * node_factor.reshape((-1,) + (1,) * grid.dims), axis=0)
    floor_term = (zero_time_square(ext, full=full_grad)
                  * mesh.floor ** (1.0 + weight_exp) / (1.0 + weight_exp))
    per_radius = []
    for j, radius in zip(boxes.j_values, boxes.radii):
        cut = mesh.aligned_cut(radius**2 if parabolic else radius)
        ball = ball_correlate(floor_term + (prefix[cut - 1] if cut > 0 else 0.0), grid, j)
        vals_sq = np.maximum(ball, 0.0) * grid.cell_volume * radius ** (-scale_exp)
        per_radius.append((radius, boxes.center_view(vals_sq)))
    return _sup_over_family(boxes, [r for r, _ in per_radius],
                            np.stack([v for _, v in per_radius]), 0.0)


def dagger_lift(ext, alpha: float, parabolic: bool):
    """The heat extension a dagger norm measures, on the mesh of the box
    height: at alpha=0 the given extension's own trace, with no
    inverse-forward round trip, else the lifted trace."""
    mesh = ext.mesh if parabolic else TimeMesh(
        top=ext.grid.length / 2.0, panels=ext.mesh.panels,
        nodes_per_panel=ext.mesh.nodes_per_panel)
    if alpha != 0.0:
        return lift_extension(ext, alpha, mesh)
    return SimpleNamespace(grid=ext.grid, kind=ext.kind, mesh=mesh, trace=ext.trace)


def _clipped_time_integral(
    times: np.ndarray, h: np.ndarray, upper: float
) -> np.ndarray:
    """Trapezoid of h(t) dt over stored nodes clipped to [times[0], upper]."""
    if upper <= times[0]:
        return np.zeros(h.shape[1:])
    k = int(np.searchsorted(times, upper, side="right"))
    segs = np.diff(times[:k])
    total = np.einsum(
        "m...,m->...", (h[: k - 1] + h[1:k]), segs / 2.0
    ) if k >= 2 else np.zeros(h.shape[1:])
    if k < times.size and upper > times[k - 1]:
        theta = (upper - times[k - 1]) / (times[k] - times[k - 1])
        h_up = h[k - 1] * (1 - theta) + h[k] * theta
        total = total + (upper - times[k - 1]) * (h[k - 1] + h_up) / 2.0
    return total


def radius_loop_x_carleson(series: TimeSeries, alpha: float, horizon: float,
                           boxes: BoxFamily) -> float:
    """Carleson part of x_space_norm one eligible radius at a time."""
    grid, times = series.grid, series.times
    h = series.values**2 * (times**alpha).reshape((-1,) + (1,) * grid.dims)
    best_sq = 0.0
    for j, radius in zip(boxes.j_values, boxes.radii):
        upper = radius**2
        if not upper < horizon:
            continue
        lead = series.values[0] ** 2 * min(times[0], upper) ** (1.0 + alpha) / (1.0 + alpha)
        ball = ball_correlate(lead + _clipped_time_integral(times, h, upper), grid, j)
        vals_sq = np.maximum(ball, 0.0) * grid.cell_volume * radius ** (-(2 * alpha + grid.dims))
        best_sq = max(best_sq, float(np.max(boxes.center_view(vals_sq))))
    return math.sqrt(best_sq)


# (weight exponent, full gradient, parabolic height) of each Carleson norm
CARLESON_SHAPES = {
    "h": lambda a: (1.0, True, False),
    "scaled_h": lambda a: (1.0 + 2 * a, True, False),
    "star": lambda a: (1.0, True, False),
    "t": lambda a: (0.0, False, True),
    "scaled_t": lambda a: (a, False, True),
    "dagger_linear": lambda a: (1.0, True, False),
    "dagger_parabolic": lambda a: (1.0, True, True),
}


class TestRegistry:
    """Each registry entry evaluates its norm itself; an entry whose norm
    has a public function gives what that function gives, bit for bit, and
    every entry's value is its result's."""

    PUBLIC = {
        "frac_campanato": frac_campanato_norm,
        "besov": lambda f, a, boxes: besov_norm(f),
        "inverse": lambda f, a, boxes: inverse_space_norm(f, a, math.inf, boxes),
        "bloch_hb": lambda ext, a, boxes: bloch_hb_norm(ext),
        "bloch_cb": lambda ext, a, boxes: bloch_cb_norm(ext),
    }

    @pytest.mark.parametrize("dims,size", [(1, 64), (2, 32)])
    def test_entries_equal_public_functions(self, dims, size):
        grid = TorusGrid(dims, size, length=2 * math.pi)
        boxes = dataclasses.replace(BoxFamily.default(grid), stride=2)
        f = random_field(grid, seed=size)
        assert set(self.PUBLIC) < set(NORMS)
        for name, norm in NORMS.items():
            for level in ((0.25, 0.75) if name == "q" else (-0.25, 0.25)):
                # each call on an argument of its own, so no walk is shared
                want = norm.result(norm.argument(f, boxes), level, boxes)
                if name in self.PUBLIC:
                    assert self.PUBLIC[name](norm.argument(f, boxes), level, boxes) == want
                value = want.value if isinstance(want, NormResult) else want
                assert norm.value(norm.argument(f, boxes), level, boxes) == value


class TestTracePass:
    """One trace pass serves every level of the swept trace norms."""

    LEVELS = {"campanato": (-0.5, 0.0, 0.25), "campanato_pair": (-0.25, 0.5),
              "q": (0.25, 0.5, 0.75), "inverse": (-0.5, 0.0, 0.25)}

    @pytest.mark.parametrize("dims,size", [(1, 64), (2, 32)])
    def test_levels_of_one_pass_equal_lone_calls(self, dims, size, monkeypatch):
        # the levels share the ball sums, the q windows' spectra and the
        # heat stream, and each gives the result its own call gives, bit
        # for bit; a repeated pair is swept once
        grid = TorusGrid(dims, size, length=2 * math.pi)
        boxes = dataclasses.replace(BoxFamily.default(grid), stride=2)
        f = random_field(grid, seed=size)
        pairs = [(op, a) for op, levels in self.LEVELS.items() for a in levels]
        sweeps = []
        for name in ("_campanato_levels", "_q_levels", "_inverse_levels"):
            real = getattr(norms_module, name)

            def counted(f, levels, *args, _real=real, _name=name, **kwargs):
                sweeps.append((_name, tuple(levels)))
                return _real(f, levels, *args, **kwargs)

            monkeypatch.setattr(norms_module, name, counted)
        results = trace_pass(f, pairs + pairs[:2], boxes)
        assert sorted(sweeps) == sorted([
            ("_campanato_levels", self.LEVELS["campanato"]),
            ("_campanato_levels", self.LEVELS["campanato_pair"]),
            ("_q_levels", self.LEVELS["q"]), ("_inverse_levels", self.LEVELS["inverse"])])
        assert sorted(results) == sorted(pairs)
        assert all(isinstance(r, NormResult) for r in results.values())
        for op, alpha in pairs:
            want = NORMS[op].result(f, alpha, boxes)
            assert results[op, alpha] == want
            if op == "inverse":
                assert inverse_space_norm(f, alpha, math.inf, boxes) == want
        # the lone calls, one level each
        assert len(sweeps) == 4 + len(pairs) + len(self.LEVELS["inverse"])

    def test_levels_are_checked_before_any_work(self, monkeypatch):
        grid = TorusGrid(1, 64)
        boxes = BoxFamily.default(grid)
        calls = []
        for name in ("_ball_correlate", "extension_rows"):
            monkeypatch.setattr(norms_module, name, lambda *a, **k: calls.append(a))
        for op, bad in (("campanato", 1.0), ("q", 0.0), ("inverse", -1.0)):
            with pytest.raises(ValueError, match="must lie in"):
                trace_pass(random_field(grid, seed=1), [(op, 0.5), (op, bad)], boxes)
        assert not calls


class TestBoxTails:
    """The shared box tail against one-radius-at-a-time loops, bit for bit,
    in 2-D and 3-D. The period 2 pi keeps the cell volume off powers
    of two, so the order of the scale factors shows in the last bit."""

    GRIDS = [(2, 32), (3, 16)]
    LENGTH = 2 * math.pi

    @pytest.mark.parametrize("dims,size", GRIDS)
    @pytest.mark.parametrize("name", sorted(CARLESON_SHAPES))
    def test_carleson_family_matches_radius_loop(self, dims, size, name):
        grid = TorusGrid(dims, size, length=self.LENGTH)
        boxes = dataclasses.replace(BoxFamily.default(grid), stride=2)
        norm = NORMS[name]
        ext = norm.argument(random_field(grid, seed=size), boxes)
        for alpha in (0.0, -0.5, 0.25):
            if name == "star":
                measured = ext if alpha == 0.0 else lift_extension(ext, alpha)
            elif name.startswith("dagger"):
                measured = dagger_lift(ext, alpha, name.endswith("parabolic"))
            else:
                measured = ext
            weight_exp, full_grad, parabolic = CARLESON_SHAPES[name](alpha)
            want = radius_loop_carleson(measured, boxes, weight_exp, 2 * alpha + dims,
                                        full_grad, parabolic)
            assert norm.result(ext, alpha, boxes, math.inf) == want

    def test_dagger_parabolic_at_alpha0_measures_the_given_stack(self):
        # an extension remade from the inverse-transformed trace differs from
        # the given one only by an inverse-forward round trip
        grid = TorusGrid(1, 256)
        boxes = BoxFamily.default(grid)
        ext = NORMS["t"].argument(random_field(grid, seed=4), boxes)
        rebuilt = Extension(inverse_transform(ext.trace), "heat", ext.mesh)
        got = NORMS["dagger_parabolic"].result(ext, 0.0, boxes)
        want = radius_loop_carleson(rebuilt, boxes, 1.0, 1.0, True, True)
        assert got.value == pytest.approx(want.value, rel=1e-14)
        assert (got.arg_center, got.arg_radius) == (want.arg_center, want.arg_radius)

    @pytest.mark.parametrize("dims,size", GRIDS)
    def test_x_space_carleson_matches_radius_loop(self, dims, size):
        grid = TorusGrid(dims, size, length=self.LENGTH)
        boxes = dataclasses.replace(BoxFamily.default(grid), stride=2)
        rng = np.random.default_rng(dims)
        times = np.geomspace(1e-3, 5.0, 40)
        values = rng.standard_normal((times.size,) + grid.shape)
        series = TimeSeries(grid, times, values * np.exp(-times).reshape((-1,) + (1,) * dims))
        # horizon 3 leaves out the radius-pi box and clips the others between samples
        for alpha in (-0.5, 0.0, 0.25):
            got = x_space_norm(series, alpha, 3.0, boxes)
            assert got.carleson_part == radius_loop_x_carleson(series, alpha, 3.0, boxes)

    # below the horizon 3: r^2 = 2.47 and 0.617, and 0.154 on the 2-D grid
    @pytest.mark.parametrize("dims,size", GRIDS)
    @pytest.mark.parametrize("times", [
        np.geomspace(0.7, 5.0, 40),  # first sample above the smallest r^2
        np.geomspace(1e-3, 2.0, 40),  # ends below r^2 = 2.47: no clipped tail
        np.array([0.5]),  # one sample
    ], ids=["late_start", "early_end", "one_sample"])
    def test_x_space_trapezoid_edges_match_radius_loop(self, dims, size, times):
        grid = TorusGrid(dims, size, length=self.LENGTH)
        values = np.random.default_rng(size).standard_normal((times.size,) + grid.shape)
        series = TimeSeries(grid, times, values)
        # one radius per family, so that no box hides behind a larger one
        for j in BoxFamily.default(grid).j_values:
            boxes = BoxFamily(grid, stride=2, j_values=(j,))
            for alpha in (-0.5, 0.0, 0.25):
                got = x_space_norm(series, alpha, 3.0, boxes)
                assert got.carleson_part == radius_loop_x_carleson(series, alpha, 3.0, boxes)


class TestBatchedTransforms:
    @pytest.mark.parametrize("dims,size", [(1, 256), (2, 32), (3, 16)])
    def test_ball_correlate_matches_radius_loop(self, dims, size):
        grid = TorusGrid(dims, size)
        js = tuple(range(1, int(math.log2(size))))
        f = random_field(grid, seed=dims).samples
        got = _ball_correlate(f, grid, js)
        assert got.shape == (len(js),) + grid.shape
        stacked = np.stack([f * (i + 1) for i in range(len(js))])
        got_stacked = _ball_correlate(stacked, grid, js)
        # owned arrays: no view keeps the complex transform alive
        assert got.flags.owndata and got_stacked.flags.owndata
        for i, j in enumerate(js):
            assert np.array_equal(got[i], ball_correlate(f, grid, j))
            assert np.array_equal(got_stacked[i], ball_correlate(stacked[i], grid, j))

    def test_ball_correlate_matches_offset_sum(self):
        grid = TorusGrid(2, 8)
        js = (1, 2)
        f = random_field(grid, seed=3).samples
        got = _ball_correlate(f, grid, js)
        for i, j in enumerate(js):
            offsets = np.argwhere(_ball_mask(grid, j))
            want = np.zeros(grid.shape)
            for c in np.ndindex(*grid.shape):
                want[c] = sum(f[(c[0] + d0) % 8, (c[1] + d1) % 8] for d0, d1 in offsets)
            assert np.max(np.abs(got[i] - want)) <= 1e-12

    @pytest.mark.parametrize("dims,size", [(1, 256), (1, 512), (2, 32)])
    def test_besov_matches_t_loop(self, dims, size):
        grid = TorusGrid(dims, size)
        f = random_field(grid, seed=size)
        scale = grid.length**2
        t_grid = np.geomspace(1e-9 * scale, scale, 700)
        assert besov_norm(f) == t_loop_besov(f, t_grid)

    @pytest.mark.parametrize("dims,size", [(1, 256), (2, 64), (3, 16)])
    @pytest.mark.parametrize("horizon", [math.inf, 0.02])
    def test_inverse_space_matches_panel_loop(self, dims, size, horizon):
        # 2-D N=64 and 3-D N=16 chunks hold four panels each
        grid = TorusGrid(dims, size)
        f = Field(grid, random_field(grid, seed=7).samples + 0.5)
        boxes = BoxFamily.default(grid)
        for alpha in (-0.5, 0.25):
            got = inverse_space_norm(f, alpha, horizon, boxes)
            want = panel_loop_inverse_space(f, alpha, horizon, boxes)
            assert got == want

    def test_inverse_space_box_on_the_mesh_floor(self):
        # the default heat mesh, 20 panels under top 1/4, has its floor at
        # 2^-22, the height of the j=11 box at N=4096
        grid = TorusGrid(1, 4096)
        mesh = default_mesh(grid, "heat")
        boxes = BoxFamily.default(grid)
        assert boxes.j_values[-1] == 11 and mesh.aligned_cut(boxes.radii[-1] ** 2) == 0
        f = random_field(grid, seed=5)
        for alpha in (-0.5, 0.25):
            got = inverse_space_norm(f, alpha, math.inf, boxes)
            assert got == panel_loop_inverse_space(f, alpha, math.inf, boxes)
            floor_term = f.remove_mean().samples ** 2 * mesh.floor ** (1 + alpha) / (1 + alpha)
            ball = ball_correlate(floor_term, grid, 11)
            want = math.sqrt(np.max(boxes.center_view(ball)) * grid.cell_volume
                             * boxes.radii[-1] ** -(2 * alpha + 1))
            assert got.per_box_table[-1][1] == pytest.approx(want, rel=1e-12)


class TestHalfSpectrum:
    """The norms' half-spectrum transforms against the full-spectrum path,
    to HALF_SPECTRUM_RTOL of each array's peak, on fields with energy on
    every Nyquist plane."""

    GRIDS = [(1, 256), (2, 64), (3, 16)]

    @pytest.mark.parametrize("dims,size", GRIDS)
    def test_ball_correlate(self, dims, size):
        grid = TorusGrid(dims, size)
        js = BoxFamily.default(grid).j_values
        f = nyquist_field(grid, seed=size).samples
        got = _ball_correlate(f, grid, js)
        for i, j in enumerate(js):
            assert_half_close(got[i], ball_correlate(f, grid, j, full=True))

    @pytest.mark.parametrize("dims,size", GRIDS)
    def test_besov(self, dims, size):
        grid = TorusGrid(dims, size)
        f = nyquist_field(grid, seed=size)
        t_grid = np.geomspace(1e-9 * grid.length**2, grid.length**2, 700)
        want = t_loop_besov(f, t_grid, full=True)
        assert besov_norm(f) == pytest.approx(want, rel=HALF_SPECTRUM_RTOL)

    @pytest.mark.parametrize("dims,size", GRIDS)
    def test_inverse_space(self, dims, size):
        grid = TorusGrid(dims, size)
        f = nyquist_field(grid, seed=size)
        boxes = BoxFamily.default(grid)
        for alpha in (-0.5, 0.25):
            got = inverse_space_norm(f, alpha, math.inf, boxes)
            want = panel_loop_inverse_space(f, alpha, math.inf, boxes, full=True)
            assert got.value == pytest.approx(want.value, rel=HALF_SPECTRUM_RTOL)
            assert [r for r, _ in got.per_box_table] == [r for r, _ in want.per_box_table]
            assert [v for _, v in got.per_box_table] == pytest.approx(
                [v for _, v in want.per_box_table], rel=HALF_SPECTRUM_RTOL)


class TestRunningSums:
    """The one walk every box norm sums its time axis with."""

    @staticmethod
    def blocks(rows, sizes):
        """Owned blocks of consecutive rows, of the given sizes."""
        starts = np.cumsum([0] + sizes[:-1]).tolist()
        return [rows[start : start + size].copy() for start, size in zip(starts, sizes)]

    @staticmethod
    def sums(blocks, counts):
        """The walk's sums, each block added in order while the walk
        wants more terms, as the norms push them."""
        walk = _RunningSums(counts)
        for block in blocks:
            if walk.pushed >= walk.stop:
                break
            walk.add(block)
        return walk.sums()

    def test_counts_with_zero_repeats_and_any_order(self):
        # (1 + 1e16) - 1e16 is 0 left to right and 1 in any other order;
        # the carry 1 meets 1e16 at the head of the second block
        values = np.array([[1.0], [1e16], [-1e16], [2.0], [3.0], [4.0]])
        got = self.sums(self.blocks(values, [1, 2, 1, 1, 1]), [3, 0, 5, 3, 1])
        assert got == [[0.0], 0.0, [5.0], [0.0], [1.0]]

    def test_draws_nothing_for_zero_counts(self):
        # a walk that wants no term is never pushed one
        for counts in ([0, 0], []):
            walk = _RunningSums(counts)
            assert walk.stop == 0
            assert walk.sums() == [0.0] * len(counts)

    def test_arrays_match_cumsum_bits(self):
        rows = np.random.default_rng(0).standard_normal((40, 64)) ** 3
        prefix = np.cumsum(rows, axis=0)
        loop, acc = {}, 0.0
        for c, row in enumerate(rows, 1):
            acc = acc + row
            loop[c] = acc
        counts = [33, 7, 0, 1, 12, 33]
        # one-row blocks, a lone row before full chunks, full chunks, and a
        # partial last chunk
        for sizes in ([1] * 40, [1, 16, 16, 7], [16, 16, 8], [40]):
            got = self.sums(self.blocks(rows, sizes), counts)
            for c, total in zip(counts, got):
                if c:
                    assert np.array_equal(total, prefix[c - 1])
                    assert np.array_equal(total, loop[c])
                else:
                    assert total == 0.0

    def test_runs_sum_left_to_right_not_pairwise(self):
        # columns of 1e16, 1, -1e16, 1, ... (each column shifted by a row):
        # a pairwise sum of 16 such terms differs from the left-to-right one
        pattern = np.array([1e16, 1.0, -1e16, 1.0])
        rows = np.stack([np.roll(pattern, -k)[np.arange(48) % 4] for k in range(3)], axis=1)
        loop, acc = {0: 0.0}, 0.0
        for c, row in enumerate(rows, 1):
            acc = acc + row
            loop[c] = acc

        def pairwise(terms):
            half = len(terms) // 2
            return terms[0] if half == 0 else pairwise(terms[:half]) + pairwise(terms[half:])

        assert [pairwise(rows[:16, k].tolist()) for k in range(3)] != loop[16].tolist()
        # wanted counts inside blocks and on their ends, across three blocks
        counts = [5, 16, 21, 32, 0, 43, 48, 16]
        walk = _RunningSums(counts)
        for start in (0, 16, 32):
            block = rows[start : start + 16].copy()
            walk.add(block)
            block[...] = np.nan  # the walk kept no view of it
        for c, total in zip(counts, walk.sums()):
            assert np.array_equal(total, loop[c])

    def test_kept_sums_are_copies(self):
        rows = np.random.default_rng(1).standard_normal((10, 8))
        blocks = [rows[:4].copy(), rows[4:].copy()]
        got = self.sums(blocks, [2, 10, 4])
        want = np.cumsum(rows, axis=0)[[1, 9, 3]]
        for block in blocks:
            block[...] = np.nan
        del blocks
        for total, row in zip(got, want):
            assert total.base is None and np.array_equal(total, row)

    def test_carleson_walk_keeps_one_node_array(self):
        # 3-D N=16, 160 nodes: the gradient square of every node is one
        # (nodes, N^3) float array, 5.2 MB, which the pass makes one row
        # chunk at a time. The walk adds node-sized arrays only: the running
        # sum, one term, the floor term and the three kept sums, and the box
        # tail works on three-radius stacks. 8 complex grid fields (0.5 MB)
        # bound those; a prefix array, or the weighted product it sums, would
        # add another 5.2 MB. The walk runs on an extension that has not kept
        # its time integrals yet.
        grid = TorusGrid(3, 16)
        boxes = BoxFamily.default(grid)
        f = random_field(grid, seed=3)
        ext = NORMS["scaled_t"].argument(f, boxes)
        # on a second extension, which fills the ball caches
        want = NORMS["scaled_t"].result(NORMS["scaled_t"].argument(f, boxes), -0.5, boxes)
        tracemalloc.start()
        try:
            got = NORMS["scaled_t"].result(ext, -0.5, boxes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        gradient_square = ext.mesh.node_count * grid.point_count * 8
        assert peak < gradient_square + 8 * grid.point_count * 16

    def test_full_gradient_walk_keeps_one_node_array(self):
        # As above for h: d_t u is squared into |grad_x u|^2 by row chunks,
        # one float chunk (8 * CHUNK_POINTS) at a time; squaring d_t u whole
        # would add a second node array.
        grid = TorusGrid(3, 16)
        boxes = BoxFamily.default(grid)
        f = random_field(grid, seed=3)
        ext = NORMS["h"].argument(f, boxes)
        # on a second extension, which fills the ball caches
        want = NORMS["h"].result(NORMS["h"].argument(f, boxes), 0.25, boxes)
        tracemalloc.start()
        try:
            got = NORMS["h"].result(ext, 0.25, boxes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        gradient_square = ext.mesh.node_count * grid.point_count * 8
        assert peak < gradient_square + 8 * CHUNK_POINTS + 8 * grid.point_count * 16

    @pytest.mark.parametrize("name", ["h", "t"])
    def test_base_norm_holds_no_node_array(self, name):
        # 2-D N=64, 160 nodes of 4096 points, 32 nodes a chunk: an extension
        # stack of u, d_t u and each d_j u would be four (nodes, N^2) float
        # arrays, 21 MB. From the field, the norm holds the trace's half
        # spectrum, a few chunks (the coefficients and one transform's
        # passes, complex; the squares and the weighted block, real) and the
        # walk state: the carry, the floor row and term, the kept sums and
        # the box tail's radius stacks, a few grid fields per radius.
        grid = TorusGrid(2, 64)
        boxes = BoxFamily.default(grid)
        norm = NORMS[name]
        f = random_field(grid, seed=7)
        want = norm.result(norm.argument(f, boxes), 0.25, boxes, math.inf)  # fills the ball caches
        tracemalloc.start()
        try:
            got = norm.result(norm.argument(f, boxes), 0.25, boxes, math.inf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        half = (grid.size // 2 + 1) / grid.size  # the half spectrum's share of the modes
        chunks = 4 * 16 * CHUNK_POINTS * half + 3 * 8 * CHUNK_POINTS
        walk_state = (4 * len(boxes.radii) + 8) * 16 * grid.point_count
        assert peak < chunks + walk_state

    @pytest.mark.parametrize("name", ["star", "dagger_linear"])
    def test_lifted_norm_builds_no_stack(self, name):
        # 3-D N=16, 160 nodes: the lift's stack alone would be five
        # (nodes, N^3) float arrays. Streamed, the lift holds one chunk's
        # coefficients, its gradient square and one transform pass, under
        # one (nodes, N^3) float array, 5.2 MB.
        grid = TorusGrid(3, 16)
        boxes = BoxFamily.default(grid)
        norm = NORMS[name]
        ext = norm.argument(random_field(grid, seed=3), boxes)
        want = norm.result(ext, 0.25, boxes, math.inf)  # fills the ball caches
        tracemalloc.start()
        try:
            got = norm.result(ext, 0.25, boxes, math.inf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < ext.mesh.node_count * grid.point_count * 8

    def test_levels_share_one_walk_per_stack(self, monkeypatch):
        # h's time integrals do not depend on the level: three levels on one
        # extension walk once, in one pass, and give what three fresh
        # extensions give
        grid = TorusGrid(2, 32)
        boxes = BoxFamily.default(grid)
        f = random_field(grid, seed=5)
        levels = (-0.5, 0.0, 0.25)
        want = [NORMS["h"].result(NORMS["h"].argument(f, boxes), a, boxes) for a in levels]
        walks = []

        class CountedWalk(norms_module._BoxWalk):
            def __init__(self, mesh, key):
                walks.append(key)
                super().__init__(mesh, key)

        monkeypatch.setattr(norms_module, "_BoxWalk", CountedWalk)
        passes = count_passes(monkeypatch)
        ext = NORMS["h"].argument(f, boxes)
        assert [NORMS["h"].result(ext, a, boxes) for a in levels] == want
        assert len(walks) == len(passes) == 1
        # scaled_h at alpha=0 has h's weight t, so it reads the same integrals
        assert NORMS["scaled_h"].result(ext, 0.0, boxes) == want[1]
        assert len(walks) == len(passes) == 1
        NORMS["scaled_h"].result(ext, 0.25, boxes)
        assert len(walks) == len(passes) == 2

    def test_one_pass_serves_many_walks_and_peaks(self, monkeypatch):
        # a pass for several walks, a lifted one and a linear-height one among
        # them, and both peaks streams once per lift, over t = 0 and the
        # union of the meshes it reads (the heat mesh's top 1/4 and the
        # linear mesh's 1/2 share 19 of their 20 panels), and gives each key
        # what a pass of its own gives, bit for bit
        grid = TorusGrid(2, 32)
        boxes = BoxFamily.default(grid)
        f = random_field(grid, seed=8)
        walks = [NORMS[op].walk(a) for op in ("t", "scaled_t") for a in (-0.5, 0.25)]
        walks += [NORMS["dagger_parabolic"].walk(0.0), NORMS["dagger_parabolic"].walk(0.25),
                  NORMS["dagger_linear"].walk(0.0)]
        keys = [walk + (boxes,) for walk in walks]
        ext = NORMS["t"].argument(f, boxes)
        linear = dataclasses.replace(ext.mesh, top=grid.length / 2.0)
        passes, streams = count_passes(monkeypatch), count_streams(monkeypatch)
        norms_module.gradient_pass(ext, keys, (True, False))
        assert len(passes) == 1
        assert [(trace is ext.trace, times.size, times[0], times[-1])
                for trace, times in streams] == [
            (True, 1 + 168, 0.0, linear.nodes[-1]), (False, 1 + 160, 0.0, ext.mesh.nodes[-1])]
        assert np.array_equal(streams[0][1], np.unique(np.r_[0.0, ext.mesh.nodes, linear.nodes]))
        for key in keys:
            alone = NORMS["t"].argument(f, boxes)
            norms_module.gradient_pass(alone, [key])
            assert all(np.array_equal(a, b) for a, b in
                       zip(ext.box_integrals[key], alone.box_integrals[key], strict=True))
        assert bloch_cb_norm(ext) == bloch_cb_norm(NORMS["t"].argument(f, boxes))
        dagger = NORMS["dagger_parabolic"]
        assert dagger.result(ext, 0.0, boxes) == dagger.result(
            NORMS["t"].argument(f, boxes), 0.0, boxes)
        assert len(passes) == 1 + len(keys) + 1 + 1
        assert len(streams) == 2 + len(keys) + 1 + 1

    @pytest.mark.parametrize("length,union", [(1.0, 168), (2.0, 160), (3.0, 320)])
    @pytest.mark.parametrize("dims,size", [(1, 256), (2, 64)])
    def test_union_stream_matches_one_pass_per_mesh(self, dims, size, length, union,
                                                    monkeypatch):
        # both dagger heights at one level, on one heat extension, are one
        # stream over t = 0 and the union of the linear mesh (top L/2) and
        # the parabolic one (top (L/2)^2): they share 19 panels at L = 1, are
        # equal at L = 2 and share no node at L = 3, where their nodes
        # interleave. On 2-D N=64 the union spans several 32-row chunks.
        # Each norm is the one a pass of its own gives, bit for bit.
        grid = TorusGrid(dims, size, length)
        boxes = BoxFamily.default(grid)
        f = random_field(grid, seed=4)
        heights = ("linear", "parabolic")
        for alpha in (0.25, 0.0):
            alone = []
            for height in heights:
                ext = NORMS["t"].argument(f, boxes)
                alone.append(NORMS[f"dagger_{height}"].result(ext, alpha, boxes))
            ext = NORMS["t"].argument(f, boxes)
            streams = count_streams(monkeypatch)
            norms_module.gradient_pass(
                ext, [NORMS[f"dagger_{height}"].walk(alpha) + (boxes,) for height in heights])
            assert [times.size for _, times in streams] == [1 + union]
            together = [NORMS[f"dagger_{height}"].result(ext, alpha, boxes) for height in heights]
            assert len(streams) == 1
            for got, want in zip(together, alone, strict=True):
                assert (got.value, got.per_box_table, got.arg_center) == (
                    want.value, want.per_box_table, want.arg_center)
            monkeypatch.undo()

    def test_peaks_only_pass_draws_no_zero_time_row(self, monkeypatch):
        # bloch_cb reads node peaks alone: the pass's stream starts at the
        # first node, and no 1-row transform of t = 0 follows it
        grid = TorusGrid(2, 64)
        ext = NORMS["bloch_cb"].argument(random_field(grid, seed=2), BoxFamily.default(grid))
        drawn = []
        real = extensions_module._inverse_rows

        def counted(coeff, grid, symbol=None):
            drawn.append(coeff.shape[0])
            return real(coeff, grid, symbol)

        monkeypatch.setattr(extensions_module, "_inverse_rows", counted)
        bloch_cb_norm(ext)
        # 2 d_x transforms per 32-node chunk of the 160 nodes
        assert drawn == [32] * 10

    @pytest.mark.parametrize("name", ["star", "dagger_linear", "dagger_parabolic"])
    def test_lift_streams_on_the_given_extension_and_is_not_kept(self, name, monkeypatch):
        # a lift a != 0 is one stream of a pass of the extension the norm is
        # given; its walk has no other reader, so it is not kept, while the
        # zero lift's walk is
        grid = TorusGrid(1, 64)
        boxes = BoxFamily.default(grid)
        norm = NORMS[name]
        ext = norm.argument(random_field(grid, seed=9), boxes)
        passes = count_passes(monkeypatch)
        norm.result(ext, 0.25, boxes, math.inf)
        assert passes == [ext]
        assert ext.box_integrals == {}
        norm.result(ext, 0.0, boxes, math.inf)
        assert list(ext.box_integrals) == [norm.walk(0.0) + (boxes,)]
        assert norm.walk(0.0)[0] == 0.0

    def test_inverse_space_stops_at_the_largest_cut(self, monkeypatch):
        # horizon 0.02 keeps only r = 1/8, whose cut is 128 of the 160 nodes;
        # 3-D N=16 chunks hold 32 nodes, so the fifth chunk is never drawn
        grid = TorusGrid(3, 16)
        boxes = BoxFamily.default(grid)
        f = random_field(grid, seed=2)
        want = panel_loop_inverse_space(f, 0.25, 0.02, boxes)
        rows = []
        real = extensions_module._inverse_rows

        def counted(coeff, grid, symbol=None):
            rows.append(coeff.shape[0])
            return real(coeff, grid, symbol)

        monkeypatch.setattr(extensions_module, "_inverse_rows", counted)
        assert inverse_space_norm(f, 0.25, 0.02, boxes) == want
        assert sum(rows) == 128 and default_mesh(grid, "heat").node_count == 160


def test_concurrent_ball_misses_compute_once(monkeypatch):
    # a grid no other test uses, so every thread misses the same (grid, j)
    grid = TorusGrid(dims=1, size=64, length=3.0)
    calls = []
    real_rfftn = np.fft.rfftn
    start = threading.Barrier(4)

    def slow_rfftn(*args, **kwargs):
        calls.append(threading.get_ident())
        time.sleep(0.05)  # hold the miss open while the other threads arrive
        return real_rfftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", slow_rfftn)
    results = []

    def lookup():
        start.wait(timeout=10)
        results.append(_ball_spectra(grid, (2,)))

    threads = [threading.Thread(target=lookup) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert len(calls) == 1
    assert len(results) == 4 and all(r is results[0] for r in results)


# --- corpus regularity ordering ---

class TestCorpusRegularity:
    def test_campanato_decreases_with_smoothness(self):
        grid = TorusGrid(dims=1, size=64, length=1.0)
        boxes = BoxFamily.default(grid)
        values = []
        for s in (0.0, 0.5, 1.0, 1.5):
            spec = CorpusSpec.make("frac_noise", seed=7, s=s, max_freq=20)
            f = generate(spec, grid)
            l2 = math.sqrt(np.sum(f.samples**2) * grid.cell_volume)
            values.append(NORMS["campanato"].result(f, 0.25, boxes).value / l2)
        assert values == sorted(values, reverse=True)
