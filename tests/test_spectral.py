"""Spectral core: transforms, multiplier symbols, operator identities.

Expected values are closed forms derived by hand from the multiplier
symbols; none are copied from downstream code paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab.spectral import (
    Field,
    SpectralField,
    TorusGrid,
    extension_rate,
    forward_transform,
    frac_laplacian_power,
    inverse_transform,
    leray_project,
)

from transform_oracles import heat_semigroup, poisson_semigroup, riesz_transform

TWO_PI = 2.0 * np.pi


def grid1d(n: int = 64, length: float = 1.0) -> TorusGrid:
    return TorusGrid(dims=1, size=n, length=length)


def cos_mode(grid: TorusGrid, k: int, amplitude: float = 1.0, phase: float = 0.0) -> Field:
    x = grid.coordinates()[0]
    return Field(grid, amplitude * np.cos(TWO_PI * k * x / grid.length + phase))


def random_field(grid: TorusGrid, seed: int = 0) -> Field:
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape))


class TestGridAndField:
    def test_grid_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            TorusGrid(dims=4, size=16)

    @pytest.mark.parametrize("n", [6, 10, 17, 2])
    def test_grid_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            TorusGrid(dims=1, size=n)

    def test_mode_range(self):
        g = grid1d(8)
        k = np.sort(g.modes[0])
        assert k.min() == -4 and k.max() == 3  # [-N/2, N/2)

    def test_mean_zero_flag_enforced(self):
        g = grid1d(8)
        with pytest.raises(ValueError):
            Field(g, np.ones(8), mean_zero=True)

    def test_non_finite_rejected(self):
        g = grid1d(8)
        bad = np.zeros(8)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(g, bad)

    def test_remove_mean(self):
        f = random_field(grid1d(32), seed=5)
        g = f.remove_mean()
        assert g.mean_zero
        assert abs(g.mean()) <= 1e-14 * max(g.max_abs(), 1.0)


class TestTransforms:
    def test_constant_maps_to_zero_mode(self):
        g = grid1d(16)
        fhat = forward_transform(Field(g, np.full(g.shape, 3.5)))
        assert abs(fhat.coefficients[0] - 3.5) <= 1e-14
        assert np.max(np.abs(fhat.coefficients[1:])) <= 1e-14

    def test_cosine_coefficients(self):
        # cos(2 pi x) on N=8 has coefficients 1/2 at k = +-1.
        g = grid1d(8)
        fhat = forward_transform(cos_mode(g, 1))
        c = fhat.coefficients
        assert abs(c[1] - 0.5) <= 1e-14
        assert abs(c[-1] - 0.5) <= 1e-14
        mask = np.ones(8, dtype=bool)
        mask[[1, -1]] = False
        assert np.max(np.abs(c[mask])) <= 1e-14

    @pytest.mark.parametrize("dims,size", [(1, 64), (2, 32), (3, 16)])
    def test_round_trip(self, dims, size):
        grid = TorusGrid(dims=dims, size=size)
        f = random_field(grid, seed=dims)
        back = inverse_transform(forward_transform(f))
        err = np.max(np.abs(back.samples - f.samples))
        assert err <= 1e-12 * f.max_abs()

    def test_hermitian_symmetry(self):
        fhat = forward_transform(random_field(TorusGrid(2, 16), seed=9))
        c = fhat.coefficients
        neg = (-np.arange(16)) % 16
        defect = np.max(np.abs(c[np.ix_(neg, neg)] - np.conj(c)))  # c(-k) vs conj c(k)
        assert defect <= 1e-13 * fhat.max_abs()

    def test_inverse_rejects_non_hermitian(self):
        g = grid1d(8)
        coeff = np.zeros(8, dtype=complex)
        coeff[1] = 1.0  # no conjugate partner
        with pytest.raises(ValueError):
            inverse_transform(SpectralField(g, coeff))


class TestSemigroups:
    def test_poisson_eigenfunction(self):
        # exp(-t sqrt(-Lap)) cos(2 pi k x) = exp(-2 pi k t) cos(2 pi k x)
        g = grid1d(64)
        t = 0.37
        for k in (1, 3, 7):
            out = inverse_transform(poisson_semigroup(forward_transform(cos_mode(g, k)), t))
            expected = np.exp(-TWO_PI * k * t) * cos_mode(g, k).samples
            assert np.max(np.abs(out.samples - expected)) <= 1e-12

    def test_heat_eigenfunction(self):
        g = grid1d(64)
        t = 0.01
        for k in (1, 2, 5):
            out = inverse_transform(heat_semigroup(forward_transform(cos_mode(g, k)), t))
            expected = np.exp(-4.0 * np.pi**2 * k**2 * t) * cos_mode(g, k).samples
            assert np.max(np.abs(out.samples - expected)) <= 1e-12

    def test_period_scaling_of_symbols(self):
        # On [0, L) the mode-k Poisson decay rate is 2 pi k / L.
        g = TorusGrid(1, 32, length=2.0)
        t = 0.25
        out = inverse_transform(poisson_semigroup(forward_transform(cos_mode(g, 1)), t))
        expected = np.exp(-TWO_PI * 1 * t / 2.0) * cos_mode(g, 1).samples
        assert np.max(np.abs(out.samples - expected)) <= 1e-12

    def test_constants_preserved(self):
        g = grid1d(16)
        fhat = forward_transform(Field(g, np.full(g.shape, 2.0)))
        for op in (lambda h: poisson_semigroup(h, 1.3), lambda h: heat_semigroup(h, 1.3)):
            out = inverse_transform(op(fhat))
            assert np.max(np.abs(out.samples - 2.0)) <= 1e-13

    @given(
        t=st.floats(0.0, 2.0, allow_nan=False),
        s=st.floats(0.0, 2.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_semigroup_law(self, t, s):
        g = grid1d(32)
        fhat = forward_transform(random_field(g, seed=3))
        for op in (poisson_semigroup, heat_semigroup):
            once = op(fhat, t + s)
            twice = op(op(fhat, t), s)
            err = np.max(np.abs(once.coefficients - twice.coefficients))
            assert err <= 1e-12 * max(fhat.max_abs(), 1.0)

    def test_negative_time_rejected(self):
        fhat = forward_transform(random_field(grid1d(16)))
        with pytest.raises(ValueError):
            poisson_semigroup(fhat, -0.1)
        with pytest.raises(ValueError):
            heat_semigroup(fhat, -0.1)


class TestFractionalPower:
    def test_single_mode_closed_form(self):
        # (-Lap)^(-alpha/2) cos(2 pi x) = (2 pi)^(-alpha) cos(2 pi x) on L=1.
        g = grid1d(64)
        f = cos_mode(g, 1)
        for alpha in (0.25, 0.5, 0.9):
            out = inverse_transform(frac_laplacian_power(forward_transform(f), -alpha))
            expected = TWO_PI ** (-alpha) * f.samples
            assert np.max(np.abs(out.samples - expected)) <= 1e-12

    def test_zero_power_is_identity_on_mean_zero(self):
        g = grid1d(32)
        f = random_field(g, seed=11).remove_mean()
        out = inverse_transform(frac_laplacian_power(forward_transform(f), 0.0))
        assert np.max(np.abs(out.samples - f.samples)) <= 1e-12 * f.max_abs()

    @pytest.mark.parametrize("s", [0.3, -0.3, 0.75])
    def test_power_inverse_pair(self, s):
        g = grid1d(32)
        f = random_field(g, seed=2).remove_mean()
        fhat = forward_transform(f)
        out = inverse_transform(frac_laplacian_power(frac_laplacian_power(fhat, s), -s))
        assert np.max(np.abs(out.samples - f.samples)) <= 1e-12 * f.max_abs()

    def test_domain_errors(self):
        fhat = forward_transform(random_field(grid1d(16)).remove_mean())
        for s in (-1.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                frac_laplacian_power(fhat, s)

    def test_negative_power_requires_mean_zero(self):
        g = grid1d(16)
        fhat = forward_transform(Field(g, np.ones(16)))
        with pytest.raises(ValueError):
            frac_laplacian_power(fhat, -0.5)


class TestRieszAndLeray:
    def test_riesz_of_sine(self):
        # Symbol i k/|k| applied by hand: sin has c_{+-1} = -+ i/2, so
        # R sin(2 pi x) = +cos(2 pi x).
        g = grid1d(64)
        x = g.coordinates()[0]
        f = Field(g, np.sin(TWO_PI * x))
        out = inverse_transform(riesz_transform(forward_transform(f), 0))
        expected = np.cos(TWO_PI * x)
        assert np.max(np.abs(out.samples - expected)) <= 1e-12

    def test_riesz_squares_sum_to_minus_identity(self):
        # Identity holds on mean-zero fields with no Nyquist content (odd
        # symbols are zeroed on the self-conjugate k_j = -N/2 plane).
        grid = TorusGrid(2, 32)
        f = random_field(grid, seed=7).remove_mean()
        coeff = forward_transform(f).coefficients.copy()
        for j in range(grid.dims):
            coeff[grid.modes[j] == -grid.size // 2] = 0.0
        f = inverse_transform(SpectralField(grid, coeff))
        fhat = forward_transform(f)
        acc = np.zeros(grid.shape, dtype=complex)
        for j in range(grid.dims):
            acc += riesz_transform(riesz_transform(fhat, j), j).coefficients
        assert np.max(np.abs(acc + fhat.coefficients)) <= 1e-12 * max(fhat.max_abs(), 1.0)

    def test_riesz_kills_constants(self):
        g = grid1d(16)
        fhat = forward_transform(Field(g, np.full(16, 4.0)))
        out = riesz_transform(fhat, 0)
        assert out.max_abs() <= 1e-14

    def test_riesz_axis_out_of_range(self):
        fhat = forward_transform(random_field(grid1d(16)))
        with pytest.raises(ValueError):
            riesz_transform(fhat, 1)

    def test_leray_annihilates_gradients(self):
        grid = TorusGrid(3, 16)
        phi = forward_transform(random_field(grid, seed=13).remove_mean())
        factor = 2j * np.pi / grid.length
        grad = [
            SpectralField(grid, factor * grid.derivative_modes[j] * phi.coefficients)
            for j in range(3)
        ]
        out = leray_project(grad)
        peak = max(g.max_abs() for g in grad)
        for comp in out:
            assert comp.max_abs() <= 1e-12 * peak

    def test_leray_idempotent_and_divergence_free(self):
        grid = TorusGrid(3, 16)
        comps = [forward_transform(random_field(grid, seed=20 + j)) for j in range(3)]
        once = leray_project(comps)
        twice = leray_project(once)
        peak = max(c.max_abs() for c in comps)
        for a, b in zip(once, twice):
            assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-12 * peak
        div = sum(grid.derivative_modes[j] * once[j].coefficients for j in range(3))
        assert np.max(np.abs(div)) <= 1e-12 * peak

    def test_leray_output_stays_real(self):
        # Random fields populate the Nyquist plane; the projection must not
        # push it out of Hermitian symmetry.
        grid = TorusGrid(3, 16)
        comps = [forward_transform(random_field(grid, seed=30 + j)) for j in range(3)]
        for comp in leray_project(comps):
            inverse_transform(comp)  # raises if symmetry broke

    def test_leray_preserves_shear(self):
        # v = (sin(2 pi y), 0, 0): the only modes are k = (0, +-1, 0) with
        # velocity along axis 0, so k.v = 0 mode by mode.
        grid = TorusGrid(3, 16)
        y = grid.coordinates()[1]
        comps = [
            forward_transform(Field(grid, np.sin(TWO_PI * y))),
            forward_transform(Field(grid, np.zeros(grid.shape))),
            forward_transform(Field(grid, np.zeros(grid.shape))),
        ]
        out = leray_project(comps)
        for a, b in zip(comps, out):
            assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-12

    def test_leray_grid_mismatch(self):
        a = forward_transform(random_field(grid1d(16)))
        b = forward_transform(random_field(grid1d(32)))
        with pytest.raises(ValueError):
            leray_project([a, b])


def spatial_gradient(fhat: SpectralField) -> tuple[Field, ...]:
    """Spectral gradient from the Nyquist-zeroed symbol i 2 pi k_j / L."""
    grid = fhat.grid
    return tuple(
        inverse_transform(SpectralField(
            grid, fhat.coefficients * (2j * np.pi / grid.length) * grid.derivative_modes[j]))
        for j in range(grid.dims)
    )


def extension_time_derivative(fhat: SpectralField, t: float, kind: str) -> SpectralField:
    """d/dt exp(-rate t) fhat = -rate exp(-rate t) fhat, per mode."""
    rate = extension_rate(fhat.grid, kind)
    return SpectralField(fhat.grid, -rate * np.exp(-rate * t) * fhat.coefficients)


class TestDerivatives:
    """The derivative symbols the extension stacks apply, on closed forms."""

    def test_gradient_of_cosine(self):
        g = grid1d(64)
        x = g.coordinates()[0]
        (out,) = spatial_gradient(forward_transform(cos_mode(g, 1)))
        expected = -TWO_PI * np.sin(TWO_PI * x)
        assert np.max(np.abs(out.samples - expected)) <= 1e-11

    def test_gradient_of_constant(self):
        g = TorusGrid(2, 16)
        outs = spatial_gradient(forward_transform(Field(g, np.full(g.shape, 1.7))))
        for out in outs:
            assert out.max_abs() <= 1e-13

    def test_time_derivative_closed_form(self):
        # d/dt of the Poisson extension of cos(2 pi x) is
        # -2 pi exp(-2 pi t) cos(2 pi x).
        g = grid1d(64)
        t = 0.21
        fhat = forward_transform(cos_mode(g, 1))
        out = inverse_transform(extension_time_derivative(fhat, t, "poisson"))
        expected = -TWO_PI * np.exp(-TWO_PI * t) * cos_mode(g, 1).samples
        assert np.max(np.abs(out.samples - expected)) <= 1e-12

    @pytest.mark.parametrize("kind", ["poisson", "heat"])
    def test_time_derivative_matches_central_difference(self, kind):
        # Band-limited data on a 2 pi torus keeps the O(h^2) truncation of
        # the difference oracle itself below the 1e-6 comparison threshold.
        g = grid1d(64, length=2.0 * np.pi)
        x = g.coordinates()[0]
        f = Field(g, np.cos(x) + 0.5 * np.sin(2 * x) - 0.25 * np.cos(3 * x + 0.4))
        fhat = forward_transform(f)
        t, h = 0.3, 1e-4
        semigroup = poisson_semigroup if kind == "poisson" else heat_semigroup
        plus = inverse_transform(semigroup(fhat, t + h)).samples
        minus = inverse_transform(semigroup(fhat, t - h)).samples
        fd = (plus - minus) / (2 * h)
        exact = inverse_transform(extension_time_derivative(fhat, t, kind)).samples
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(fd - exact)) <= 1e-6 * scale

    def test_time_derivative_domain(self):
        fhat = forward_transform(random_field(grid1d(16)))
        with pytest.raises(ValueError):
            poisson_semigroup(fhat, -0.1)
        with pytest.raises(ValueError):
            extension_rate(fhat.grid, "parabolic")

    def test_laplacian_eigenvalue(self):
        # the heat rate is the symbol of -Laplacian
        g = grid1d(64)
        fhat = forward_transform(cos_mode(g, 3))
        out = inverse_transform(
            SpectralField(g, -extension_rate(g, "heat") * fhat.coefficients))
        expected = -((TWO_PI * 3) ** 2) * cos_mode(g, 3).samples
        assert np.max(np.abs(out.samples - expected)) <= 1e-9
