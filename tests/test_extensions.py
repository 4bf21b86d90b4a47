"""Extensions: mesh quadrature, node rows and gradient squares, one
gradient pass, subordination lift.

The subordination lift and the modulus-of-continuity check live here as
oracles: the first against the spectral lift the norms use, the second
against the gradient bound the harness reports.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import toruslab.extensions as extensions_module
from toruslab.extensions import (
    CHUNK_POINTS,
    Extension,
    TimeMesh,
    _inverse_rows,
    _semigroup,
    extension_rows,
    gradient_bound_ratio,
    gradient_square_rows,
    row_chunks,
)
from toruslab.spectral import (
    Field,
    SpectralField,
    TorusGrid,
    extension_rate,
    forward_transform,
    heat_semigroup,
    inverse_transform,
    poisson_semigroup,
)
from transform_oracles import (
    assert_half_close,
    extension_values,
    gradient_square,
    inverse_rows,
    lift_extension,
    nyquist_field,
    zero_time_square,
)

TWO_PI = 2.0 * np.pi


def sup_abs(ext: Extension) -> float:
    return float(np.max(np.abs(extension_values(ext))))


def laplacian(fhat: SpectralField) -> SpectralField:
    """Spectral Laplacian, symbol -(2 pi |k| / L)^2."""
    grid = fhat.grid
    return SpectralField(
        grid, fhat.coefficients * (-((2.0 * np.pi / grid.length) ** 2) * grid.mode_square))


def spatial_gradient(fhat: SpectralField) -> tuple[Field, ...]:
    """Spectral gradient, symbol i 2 pi k_j / L with the Nyquist plane zeroed."""
    grid = fhat.grid
    return tuple(
        inverse_transform(SpectralField(
            grid, fhat.coefficients * (2j * np.pi / grid.length) * grid.derivative_modes[j]))
        for j in range(grid.dims)
    )


def frac_lift_subordination(
    ext: Extension, alpha: float, s_cut: float | None = None
) -> tuple[Extension, float]:
    """Lift a Poisson extension to the extension of (-Lap)^(-alpha/2) u, and
    a bound on the neglected tail.

    Computes Gamma(alpha)^-1 * integral_0^s_cut u(x, t+s) s^(alpha-1) ds.
    Per mode the integral factorizes into a multiplier on the trace, so the
    lifted extension is made exactly from the lifted trace. The neglected
    s > s_cut tail is bounded analytically.
    """
    if ext.kind != "poisson":
        raise ValueError("subordination lift is defined for poisson extensions only")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    grid = ext.grid
    if s_cut is None:
        s_cut = 3.0 * grid.length
    if s_cut <= 0:
        raise ValueError("s_cut must be positive")

    s_mesh = TimeMesh(top=s_cut, panels=32, nodes_per_panel=8)
    mu = extension_rate(grid, "poisson")
    gamma = math.gamma(alpha)
    mult = np.zeros(grid.shape)
    for s, w in zip(s_mesh.nodes, s_mesh.weights):
        mult += (w * s ** (alpha - 1.0)) * np.exp(-mu * s)
    # Below the s-floor, exp(-mu s) ~ 1 to within mu*floor <= 1e-5.
    mult += s_mesh.floor**alpha / alpha
    mult /= gamma

    lifted = ext.trace.coefficients * mult
    lifted[grid.origin] = 0.0

    # integral_{s_cut}^inf e^{-mu s} s^(alpha-1) ds <= s_cut^(alpha-1) e^{-mu s_cut}/mu.
    abs_coeff = np.where(mu > 0, np.abs(ext.trace.coefficients), 0.0)
    mu_min = 2.0 * np.pi / grid.length
    tail = float(np.sum(abs_coeff * np.exp(-mu * s_cut)))
    tail_bound = tail * s_cut ** (alpha - 1.0) / (gamma * mu_min)

    lifted_field = inverse_transform(SpectralField(grid, lifted))
    return Extension(lifted_field, "poisson", ext.mesh), tail_bound


@dataclass(frozen=True)
class ModulusReport:
    alpha: float
    gradient_constant: float
    near_ratio: float  # |x-x0| <= t vs t^(alpha-1)|x-x0|
    far_ratio: float  # |x-x0| > t vs the alpha-dependent bound
    pairs_checked: int

    @property
    def max_ratio(self) -> float:
        return max(self.near_ratio, self.far_ratio)


def modulus_bound_check(
    ext: Extension, alpha: float, centers_stride: int | None = None
) -> ModulusReport:
    """Ratio of |u(x,t)-u(x0,t)| to its gradient-implied bound, sampled.

    The bound constant is the extension's own sup of t^(1-alpha)|grad u|, so a
    ratio of order one confirms the modulus estimate with the constant the
    gradient bound supplies. The far-field alpha = 0 case is sampled at
    separations >= 2t to keep the logarithm bounded away from zero.
    """
    if not (-1.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (-1, 1), got {alpha}")
    grid = ext.grid
    grad_mag = np.sqrt(gradient_square(ext, full=True))
    per_node = grad_mag.reshape(ext.mesh.node_count, -1).max(axis=1)
    t_nodes = ext.mesh.nodes
    values = extension_values(ext)
    const = float(np.max(t_nodes ** (1.0 - alpha) * per_node))
    if const <= 0:
        return ModulusReport(alpha, 0.0, 0.0, 0.0, 0)

    if centers_stride is None:
        centers_stride = max(1, grid.size // 16)
    prefactor = max(1.0, 1.0 / abs(alpha)) if alpha != 0.0 else 1.0

    # Pairs differ along the first axis only; trailing coordinates ride
    # along, so every slice contributes independent samples.
    axis0 = grid.axis_coordinates
    near_ratio = 0.0
    far_ratio = 0.0
    pairs = 0
    for i0 in range(0, grid.size, centers_stride):
        diff0 = np.abs(axis0 - axis0[i0])
        dist = np.minimum(diff0, grid.length - diff0)  # torus distance
        dist = dist.reshape((-1,) + (1,) * (grid.dims - 1))
        d = np.broadcast_to(dist, grid.shape)
        center = np.take(values, i0, axis=1)[:, np.newaxis]
        diff = np.abs(values - center.reshape(
            (ext.mesh.node_count, 1) + grid.shape[1:]
        ))
        for ni, t in enumerate(t_nodes):
            u_diff = diff[ni]
            near = (d <= t) & (d > 0)
            if np.any(near):
                bound = const * t ** (alpha - 1.0) * d[near]
                near_ratio = max(near_ratio, float(np.max(u_diff[near] / bound)))
                pairs += int(near.sum())
            if alpha == 0.0:
                far = d >= 2.0 * t
                bound_far = np.log(np.where(far, d / t, np.e))
            elif alpha > 0:
                far = d > t
                bound_far = np.where(far, d, 1.0) ** alpha * prefactor
            else:
                far = d > t
                bound_far = np.full(d.shape, prefactor * t**alpha)
            if np.any(far):
                ratios = u_diff[far] / (const * bound_far[far])
                far_ratio = max(far_ratio, float(np.max(ratios)))
                pairs += int(far.sum())
    return ModulusReport(alpha, const, near_ratio, far_ratio, pairs)


def cos_field(grid: TorusGrid, k: int = 1) -> Field:
    x = grid.coordinates()[0]
    return Field(grid, np.cos(TWO_PI * k * x / grid.length), mean_zero=True)


def noise_field(grid: TorusGrid, seed: int = 0) -> Field:
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape)).remove_mean()


class TestTimeMesh:
    def test_nodes_ordered_and_in_range(self):
        mesh = TimeMesh(top=0.5)
        t = mesh.nodes
        assert np.all(np.diff(t) > 0)
        assert t[0] > mesh.floor and t[-1] < mesh.top
        assert mesh.floor == 0.5 * 2.0**-20

    def test_panel_weight_sums(self):
        mesh = TimeMesh(top=1.0, panels=20, nodes_per_panel=8)
        n = mesh.nodes_per_panel
        for p, m in enumerate(range(mesh.panels - 1, -1, -1)):
            sl = slice(p * n, (p + 1) * n)
            length = 1.0 * 2.0 ** (-m) / 2.0
            assert abs(mesh.weights[sl].sum() - length) <= 1e-14

    def test_quadrature_exact_for_cubic(self):
        # 8-point Gauss is exact for degree <= 15 on each panel.
        mesh = TimeMesh(top=2.0, panels=12)
        approx = float(np.sum(mesh.weights * mesh.nodes**3))
        exact = (mesh.top**4 - mesh.floor**4) / 4.0
        assert abs(approx - exact) <= 1e-13 * exact

    def test_aligned_cut(self):
        mesh = TimeMesh(top=0.5, panels=10, nodes_per_panel=4)
        assert mesh.aligned_cut(0.5) == 40
        assert mesh.aligned_cut(0.25) == 36
        assert mesh.aligned_cut(0.5 * 2.0**-10) == 0
        sl = slice(0, mesh.aligned_cut(0.125))
        assert np.all(mesh.nodes[sl] < 0.125)
        assert np.all(mesh.nodes[mesh.aligned_cut(0.125) :] > 0.125)

    def test_misaligned_cut_rejected(self):
        mesh = TimeMesh(top=0.5, panels=10)
        with pytest.raises(ValueError):
            mesh.aligned_cut(0.3)
        with pytest.raises(ValueError):
            mesh.aligned_cut(0.7)

    def test_cut_below_floor_names_the_floor(self):
        # dyadic, but two panels below the 2^-10 floor: the error says so
        mesh = TimeMesh(top=0.25, panels=8)
        assert mesh.aligned_cut(2.0**-10) == 0
        with pytest.raises(ValueError) as err:
            mesh.aligned_cut(2.0**-12)
        message = str(err.value)
        assert "below the mesh floor" in message
        assert f"{2.0**-12:.6g}" in message and f"{mesh.floor:.6g}" in message
        assert "8 panels" in message
        assert "dyadic" not in message

    def test_equal_meshes_share_their_nodes(self):
        # the nodes are computed once per (top, panels, nodes_per_panel)
        mesh = TimeMesh(top=0.5)
        assert TimeMesh(top=0.5).nodes is mesh.nodes
        assert TimeMesh(top=0.5).weights is mesh.weights
        assert TimeMesh(top=0.25).nodes is not mesh.nodes
        assert not mesh.nodes.flags.writeable and not mesh.weights.flags.writeable

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            TimeMesh(top=-1.0)
        with pytest.raises(ValueError):
            TimeMesh(top=1.0, panels=0)


class TestBuildStack:
    """An extension's node rows (``extension_rows``) and gradient squares
    (``gradient_square_rows``) against closed forms, the extensions of the
    trace's derivatives, finite differences and the semigroup's equation."""

    def test_poisson_eigenfunction_values(self):
        grid = TorusGrid(1, 64)
        mesh = TimeMesh(top=0.5, panels=10, nodes_per_panel=4)
        values = extension_values(Extension(cos_field(grid), "poisson", mesh))
        base = cos_field(grid).samples
        for i, t in enumerate(mesh.nodes):
            expected = np.exp(-TWO_PI * t) * base
            assert np.max(np.abs(values[i] - expected)) <= 1e-12

    def test_heat_grad_t_symbol(self):
        # for u0 = cos(2 pi x), d_t u = -w2 u and d_x u = -2 pi e^{-w2 t}
        # sin(2 pi x), w2 = (2 pi)^2: the full square adds w2^2 u^2 to the
        # spatial one
        grid = TorusGrid(1, 64)
        mesh = TimeMesh(top=0.25, panels=8, nodes_per_panel=4)
        ext = Extension(cos_field(grid), "heat", mesh)
        x = grid.coordinates()[0]
        w2 = 4.0 * np.pi**2
        full = gradient_square(ext, full=True)
        for i, t in enumerate(mesh.nodes):
            expected = np.exp(-2.0 * w2 * t) * (
                w2 * np.sin(TWO_PI * x) ** 2 + w2**2 * np.cos(TWO_PI * x) ** 2)
            assert np.max(np.abs(full[i] - expected)) <= 1e-12 * w2**2

    def test_zero_field(self):
        grid = TorusGrid(1, 32)
        ext = Extension(Field(grid, np.zeros(32), mean_zero=True), "poisson",
                        TimeMesh(top=0.5, panels=6, nodes_per_panel=4))
        assert sup_abs(ext) == 0.0
        assert np.all(gradient_square(ext, full=False) == 0)
        assert np.all(gradient_square(ext, full=True) == 0)

    def test_requires_mean_zero(self):
        grid = TorusGrid(1, 32)
        with pytest.raises(ValueError, match="mean"):
            Extension(Field(grid, np.ones(32) + 0.1), "poisson", TimeMesh(top=0.5))

    def test_bad_kind(self):
        grid = TorusGrid(1, 32)
        with pytest.raises(ValueError, match="kind"):
            Extension(noise_field(grid), "parabolic", TimeMesh(top=0.5))

    @pytest.mark.parametrize("kind", ["poisson", "heat"])
    def test_semigroup_decay_over_nodes(self, kind):
        grid = TorusGrid(1, 64)
        values = extension_values(Extension(noise_field(grid, seed=1), kind,
                                            TimeMesh(top=0.5, panels=10, nodes_per_panel=4)))
        first = np.max(np.abs(values[0]))
        last = np.max(np.abs(values[-1]))
        assert last < first

    @pytest.mark.parametrize("kind", ["poisson", "heat"])
    def test_grad_x_commutes_with_extension(self, kind):
        # |grad_x u|^2 is the sum over j of the squared extensions of d_j f
        grid = TorusGrid(2, 32)
        f = noise_field(grid, seed=2)
        mesh = TimeMesh(top=0.5, panels=6, nodes_per_panel=4)
        got = gradient_square(Extension(f, kind, mesh), full=False)
        want = sum(extension_values(Extension(df.remove_mean(), kind, mesh)) ** 2
                   for df in spatial_gradient(forward_transform(f)))
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(want))

    @pytest.mark.parametrize("kind", ["poisson", "heat"])
    def test_grad_t_matches_central_difference(self, kind):
        # 2 pi torus with modes <= 3 keeps the FD oracle's own O(h^2)
        # truncation below the comparison threshold. In 1-D the full square
        # is (d_x u)^2, from the extension of f', plus (d_t u)^2.
        grid = TorusGrid(1, 64, length=2.0 * np.pi)
        x = grid.coordinates()[0]
        f = Field(grid, np.cos(x) - 0.5 * np.sin(3 * x)).remove_mean()
        mesh = TimeMesh(top=1.0, panels=4, nodes_per_panel=4)
        full = gradient_square(Extension(f, kind, mesh), full=True)
        (df,) = spatial_gradient(forward_transform(f))
        d_x = extension_values(Extension(df.remove_mean(), kind, mesh))
        semigroup = poisson_semigroup if kind == "poisson" else heat_semigroup
        fhat = forward_transform(f)
        h = 1e-4
        scale = np.max(full)
        for i in range(0, mesh.node_count, 3):
            t = mesh.nodes[i]
            plus = inverse_transform(semigroup(fhat, t + h)).samples
            minus = inverse_transform(semigroup(fhat, t - h)).samples
            fd = (plus - minus) / (2 * h)
            # |fd - d_t u| <= 1e-6 max|d_t u| bounds the squares' gap by
            # 2e-6 max (d_t u)^2, to first order
            assert np.max(np.abs(d_x[i] ** 2 + fd**2 - full[i])) <= 2e-6 * scale

    def test_harmonicity_residual(self):
        # Poisson extensions satisfy Lap_x u + d_t^2 u = 0; d_t^2 comes from
        # the squared symbol applied to the node values.
        grid = TorusGrid(1, 64)
        ext = Extension(noise_field(grid, seed=3), "poisson",
                        TimeMesh(top=0.5, panels=8, nodes_per_panel=4))
        values = extension_values(ext)
        sup = float(np.max(np.abs(values)))
        rate = TWO_PI * grid.mode_norm
        for u in values:
            coeff = forward_transform(Field(grid, u))
            lap = inverse_transform(laplacian(coeff)).samples
            dtt = np.fft.ifft(rate**2 * coeff.coefficients, norm="forward").real
            assert np.max(np.abs(lap + dtt)) <= 1e-8 * sup

    def test_caloricity_residual(self):
        # Heat extensions satisfy Lap_x u = d_t u: the full square less the
        # spatial one is (Lap_x u)^2.
        grid = TorusGrid(1, 64)
        ext = Extension(noise_field(grid, seed=4), "heat",
                        TimeMesh(top=0.25, panels=8, nodes_per_panel=4))
        values = extension_values(ext)
        d_t_sq = gradient_square(ext, full=True) - gradient_square(ext, full=False)
        laps = [inverse_transform(laplacian(forward_transform(Field(grid, u)))).samples
                for u in values]
        # sup = max(sup |u|, sup |d_t u|), squared
        sup_sq = max(float(np.max(values**2)), float(np.max(d_t_sq)))
        for lap, square in zip(laps, d_t_sq):
            # |lap - d_t u| <= 1e-8 sup bounds the squares' gap by 2e-8 sup^2
            assert np.max(np.abs(lap**2 - square)) <= 2e-8 * sup_sq

    def test_zero_time_gradient_square_single_mode(self):
        # For cos(2 pi x) under poisson, |grad f|^2 + |sqrt(-Lap) f|^2 is the
        # constant (2 pi)^2.
        grid = TorusGrid(1, 64)
        ext = Extension(cos_field(grid), "poisson", TimeMesh(top=0.5, panels=4))
        g0 = zero_time_square(ext, full=True)
        assert np.max(np.abs(g0 - TWO_PI**2)) <= 1e-10

    def test_zero_time_gradient_heat_spatial(self):
        grid = TorusGrid(1, 64)
        x = grid.coordinates()[0]
        ext = Extension(cos_field(grid), "heat", TimeMesh(top=0.25, panels=4))
        g0 = zero_time_square(ext, full=False)
        expected = TWO_PI**2 * np.sin(TWO_PI * x) ** 2
        assert np.max(np.abs(g0 - expected)) <= 1e-10


def panel_loop_extension(f: Field, kind: str, mesh: TimeMesh, full: bool = False):
    """Unbatched reference for an extension's rows: one panel at a time, one
    transform per panel for u, d_t u and each d_j u, on the half spectrum
    or, with ``full``, on the full one."""
    grid = f.grid
    base = forward_transform(f).coefficients
    if kind == "poisson":
        rate = (TWO_PI / grid.length) * grid.mode_norm
    else:
        rate = (TWO_PI / grid.length) ** 2 * grid.mode_square
    wave = [2j * np.pi / grid.length * grid.derivative_modes[j] for j in range(grid.dims)]
    axes = tuple(range(1, grid.dims + 1))
    m = mesh.node_count
    values = np.empty((m,) + grid.shape)
    grad_x = np.empty((m, grid.dims) + grid.shape)
    grad_t = np.empty((m,) + grid.shape)
    n = mesh.nodes_per_panel
    for sl in (slice(p * n, (p + 1) * n) for p in range(mesh.panels)):
        t = mesh.nodes[sl].reshape((-1,) + (1,) * grid.dims)
        coeff = np.exp(-rate[np.newaxis] * t) * base[np.newaxis]
        values[sl] = inverse_rows(coeff, axes, full)
        grad_t[sl] = inverse_rows(-rate[np.newaxis] * coeff, axes, full)
        for j in range(grid.dims):
            grad_x[sl, j] = inverse_rows(wave[j] * coeff, axes, full)
    return values, grad_x, grad_t


def gradient_squares(grad_x: np.ndarray, grad_t: np.ndarray) -> dict[bool, np.ndarray]:
    """The spatial (False) and the full (True) gradient square of the
    panel loop's gradients: the d_j terms in axis order, then d_t."""
    spatial = grad_x[:, 0] ** 2
    for j in range(1, grad_x.shape[1]):
        spatial = spatial + grad_x[:, j] ** 2
    return {False: spatial, True: spatial + grad_t**2}


def symbol_loop_zero_time(ext: Extension, full_grad: bool,
                          full: bool = False) -> np.ndarray:
    """Unbatched reference for the t = 0 row of the gradient square
    (``zero_time_square``): one transform per symbol, accumulated in the
    same order, on the half spectrum or, with ``full``, on the full one."""
    grid = ext.grid
    coeff = ext.trace.coefficients
    axes = tuple(range(grid.dims))
    acc = np.zeros(grid.shape)
    for j in range(grid.dims):
        symbol = 2j * np.pi / grid.length * grid.derivative_modes[j]
        acc += inverse_rows(symbol * coeff, axes, full) ** 2
    if full_grad:
        if ext.kind == "poisson":
            rate = (TWO_PI / grid.length) * grid.mode_norm
        else:
            rate = (TWO_PI / grid.length) ** 2 * grid.mode_square
        acc += inverse_rows(-rate * coeff, axes, full) ** 2
    return acc


class RecordingWalk:
    """A gradient-pass walk of a mesh at a lift that records the node rows
    it is given, copies of their squares (the chunk is the pass's) and
    whether each square was a view."""

    def __init__(self, full: bool, stop: int, mesh: TimeMesh, lift: float = 0.0) -> None:
        self.full, self.stop, self.mesh, self.lift = full, stop, mesh, lift
        self.rows, self.squares, self.views = [], [], []

    def push(self, rows: slice, square: np.ndarray) -> None:
        self.rows.append(rows)
        self.squares.append(square.copy())
        self.views.append(square.base is not None)

    def square(self) -> np.ndarray:
        return np.concatenate(self.squares)


class TestBatchedTransforms:
    def test_row_chunks_rule(self):
        # every 1-D mesh is one chunk; 3-D N=32 rows come CHUNK_POINTS at a time
        assert list(row_chunks(160, TorusGrid(1, 512))) == [slice(0, 160)]
        chunks = list(row_chunks(10, TorusGrid(3, 32)))
        assert [c.stop - c.start for c in chunks] == [4, 4, 2]
        # whole panels only, and never less than one panel
        assert list(row_chunks(24, TorusGrid(3, 32), unit=8)) == [
            slice(0, 8), slice(8, 16), slice(16, 24)
        ]
        assert [c.stop - c.start for c in row_chunks(160, TorusGrid(2, 64), unit=8)] == [32] * 5

    @pytest.mark.parametrize("kind", ["poisson", "heat"])
    @pytest.mark.parametrize("dims,size", [(1, 256), (2, 64)])
    def test_build_stack_matches_panel_loop(self, kind, dims, size):
        # u and both gradient squares, and their t = 0 rows, against the
        # panel loop bit for bit; 2-D N=64 chunks span four panels, so chunk
        # and panel edges differ
        grid = TorusGrid(dims, size)
        f = noise_field(grid, seed=dims)
        mesh = TimeMesh(top=0.5)
        ext = Extension(f, kind, mesh)
        values, grad_x, grad_t = panel_loop_extension(f, kind, mesh)
        assert np.array_equal(extension_values(ext), values)
        want = gradient_squares(grad_x, grad_t)
        for full in (True, False):
            assert np.array_equal(gradient_square(ext, full), want[full])
            g0 = zero_time_square(ext, full=full)
            assert np.array_equal(g0, symbol_loop_zero_time(ext, full_grad=full))

    @pytest.mark.parametrize("kind", ["poisson", "heat"])
    @pytest.mark.parametrize("dims,size", [(1, 256), (1, 512), (2, 64), (3, 16)])
    def test_inverse_rows_is_irfftn(self, kind, dims, size):
        # the axis passes, with and without a symbol, give irfftn's bits
        grid = TorusGrid(dims, size)
        trace = forward_transform(noise_field(grid, seed=dims))
        symbol = 2j * np.pi * grid.derivative_modes[0][..., : size // 2 + 1]
        axes = tuple(range(1, dims + 1))
        for _, coeff in _semigroup(trace, kind, TimeMesh(top=0.5).nodes):
            for sym, want in ((None, coeff), (symbol, symbol * coeff)):
                assert np.array_equal(
                    _inverse_rows(coeff, grid, sym),
                    np.fft.irfftn(want, s=grid.shape, axes=axes, norm="forward"))

    @pytest.mark.parametrize("kind", ["poisson", "heat"])
    @pytest.mark.parametrize("dims,size", [(1, 256), (2, 64), (3, 16)])
    def test_extension_rows_match_the_stack(self, kind, dims, size):
        # the rows come in node order, chunk by chunk, and are the panel
        # loop's u bit for bit
        grid = TorusGrid(dims, size)
        mesh = TimeMesh(top=0.5)
        f = noise_field(grid, seed=dims)
        values, _, _ = panel_loop_extension(f, kind, mesh)
        covered = 0
        for rows, u in extension_rows(forward_transform(f), kind, mesh.nodes):
            assert rows.start == covered
            assert np.array_equal(u, values[rows])
            covered = rows.stop
        assert covered == mesh.node_count

    @pytest.mark.parametrize("kind", ["poisson", "heat"])
    @pytest.mark.parametrize("dims,size", [(1, 256), (2, 64), (3, 16)])
    def test_gradient_square_rows_match_the_stack(self, kind, dims, size):
        # both squares drawn from one chunk's transforms equal each drawn on
        # its own, chunk by chunk, and a pass keeps the sqrt of their node
        # maxima as the peaks
        grid = TorusGrid(dims, size)
        mesh = TimeMesh(top=0.5)
        ext = Extension(noise_field(grid, seed=dims), kind, mesh)
        want = {full: gradient_square(ext, full) for full in (True, False)}
        covered = 0
        for rows, squares in gradient_square_rows(ext.trace, kind, mesh.nodes, (True, False)):
            assert rows.start == covered
            for full in (True, False):
                assert np.array_equal(squares[full], want[full][rows])
            covered = rows.stop
        assert covered == mesh.node_count
        ext.gradient_pass(peaks=(True, False))
        for full in (True, False):
            peaks = np.sqrt(want[full].reshape(mesh.node_count, -1).max(axis=1))
            assert np.array_equal(ext.peaks[full], peaks)

    def test_pass_serves_each_walk_up_to_its_stop(self, monkeypatch):
        # 2-D N=64 chunks hold 32 rows, the first of them the t = 0 row:
        # walks that need 5 and 40 nodes get all their rows of the first one
        # and two chunks, as views of the chunk, no third chunk is drawn and
        # no t = 0 row is drawn apart
        grid = TorusGrid(2, 64)
        ext = Extension(noise_field(grid, seed=6), "heat", TimeMesh(top=0.25))
        drawn = []
        real = extensions_module._inverse_rows

        def counted(coeff, grid, symbol=None):
            drawn.append(coeff.shape[0])
            return real(coeff, grid, symbol)

        monkeypatch.setattr(extensions_module, "_inverse_rows", counted)
        short, tall = RecordingWalk(False, 5, ext.mesh), RecordingWalk(True, 40, ext.mesh)
        floors = ext.gradient_pass([short, tall])
        assert short.rows == [slice(0, 31)]
        assert tall.rows == [slice(0, 31), slice(31, 40)]
        assert all(short.views + tall.views)
        # 3 transforms (2 d_x, d_t) per chunk
        assert drawn == [32] * 3 + [9] * 3
        for walk in (short, tall):
            want = gradient_square(ext, walk.full)
            assert np.array_equal(walk.square(), want[: walk.rows[-1].stop])
        assert sorted(floors) == [(0.0, False), (0.0, True)]
        for (_, full), floor in floors.items():
            assert np.array_equal(floor, zero_time_square(ext, full))

    def test_gradient_peaks_hold_no_whole_square(self):
        # 2-D N=128 Poisson: 160 nodes of 16384 points, 8 rows a chunk
        grid = TorusGrid(2, 128)
        mesh = TimeMesh(top=0.5)
        f = noise_field(grid)
        Extension(f, "poisson", mesh).gradient_pass(peaks=(True,))  # warm up numpy
        ext = Extension(f, "poisson", mesh)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            ext.gradient_pass(peaks=(True,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        whole = mesh.node_count * grid.point_count * 8  # one (nodes, *shape) float array, 21 MB
        # alive at once: a chunk's square (1 MB), the d_t square added to
        # it, and one transform's passes
        assert peak - start < whole / 4

    def test_build_stack_memory_is_chunk_bounded(self):
        # a pass for both peaks over a 3-D N=32 extension holds chunks and
        # node-sized arrays only, never a (nodes, *shape) array (33.6 MB)
        grid = TorusGrid(3, 32)
        f = noise_field(grid)
        Extension(f, "poisson", TimeMesh(top=0.5, panels=1)).gradient_pass(
            peaks=(True, False))  # fill grid caches
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            ext = Extension(f, "poisson", TimeMesh(top=0.5))
            ext.gradient_pass(peaks=(True, False))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = ext.trace.coefficients.nbytes + sum(p.nbytes for p in ext.peaks.values())
        half = (grid.size // 2 + 1) / grid.size  # the half spectrum's share of the modes
        chunk = 16 * CHUNK_POINTS * half  # one complex half-spectrum chunk
        # alive at once: the chunk's coefficients, one symbol product, the
        # two complex per-axis intermediates of a 3-D real inverse
        # transform and its real output, and the chunk's spatial square
        temporaries = 4 * chunk + 2 * 8 * CHUNK_POINTS
        # half-spectrum symbols: the real rate and one complex wave number per axis
        symbols = (8 + 16 * grid.dims) * grid.point_count * half
        # one complex field of slack for numpy's ufunc buffers
        slack = 16 * grid.point_count
        assert peak - start < kept + temporaries + symbols + slack


class TestHalfSpectrum:
    """An extension's rows, gradient squares and t = 0 limit on the half
    spectrum against the full-spectrum path, to HALF_SPECTRUM_RTOL of each
    array's peak."""

    @pytest.mark.parametrize("kind", ["poisson", "heat"])
    @pytest.mark.parametrize("dims,size", [(1, 256), (2, 64), (3, 16)])
    def test_stack_matches_full_spectrum(self, kind, dims, size):
        grid = TorusGrid(dims, size)
        f = nyquist_field(grid, seed=size)
        mesh = TimeMesh(top=0.5)
        ext = Extension(f, kind, mesh)
        values, grad_x, grad_t = panel_loop_extension(f, kind, mesh, full=True)
        assert_half_close(extension_values(ext), values)
        want = gradient_squares(grad_x, grad_t)
        for full_grad in (True, False):
            assert_half_close(gradient_square(ext, full_grad), want[full_grad])
            g0 = zero_time_square(ext, full=full_grad)
            assert_half_close(g0, symbol_loop_zero_time(ext, full_grad, full=True))


class TestSubordination:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_single_mode_closed_form(self, alpha):
        # Gamma(alpha)^-1 integral_0^inf e^{-2 pi s} s^(alpha-1) ds = (2 pi)^-alpha.
        grid = TorusGrid(1, 64)
        mesh = TimeMesh(top=0.5, panels=8, nodes_per_panel=4)
        ext = Extension(cos_field(grid), "poisson", mesh)
        lifted, _ = frac_lift_subordination(ext, alpha, s_cut=3.0)
        values = extension_values(lifted)
        base = cos_field(grid).samples
        for i, t in enumerate(mesh.nodes):
            expected = TWO_PI ** (-alpha) * np.exp(-TWO_PI * t) * base
            err = np.max(np.abs(values[i] - expected))
            assert err <= 1e-3 * TWO_PI ** (-alpha)

    def test_matches_spectral_power_near_one(self):
        grid = TorusGrid(1, 64)
        mesh = TimeMesh(top=0.5, panels=8, nodes_per_panel=4)
        f = noise_field(grid, seed=5)
        ext = Extension(f, "poisson", mesh)
        lifted, _ = frac_lift_subordination(ext, 0.999)
        spectral = extension_values(lift_extension(ext, 0.999))
        scale = np.max(np.abs(spectral))
        err = np.max(np.abs(extension_values(lifted) - spectral))
        assert err <= 1e-2 * scale

    def test_zero_field_lifts_to_zero(self):
        grid = TorusGrid(1, 32)
        ext = Extension(Field(grid, np.zeros(32), mean_zero=True), "poisson",
                        TimeMesh(top=0.5, panels=4))
        lifted, _ = frac_lift_subordination(ext, 0.5)
        assert sup_abs(lifted) == 0.0

    def test_domain_errors(self):
        grid = TorusGrid(1, 32)
        ext = Extension(noise_field(grid), "poisson", TimeMesh(top=0.5, panels=4))
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                frac_lift_subordination(ext, alpha)
        heat = Extension(noise_field(grid), "heat", TimeMesh(top=0.25, panels=4))
        with pytest.raises(ValueError):
            frac_lift_subordination(heat, 0.5)

    def test_tail_bound_dominates_true_remainder(self):
        grid = TorusGrid(1, 64)
        mesh = TimeMesh(top=0.5, panels=6, nodes_per_panel=4)
        ext = Extension(cos_field(grid), "poisson", mesh)
        alpha, s_cut = 0.5, 3.0
        _, bound = frac_lift_subordination(ext, alpha, s_cut=s_cut)
        # True remainder for the k=1 mode, dense trapezoid on [s_cut, s_cut+8].
        s = np.linspace(s_cut, s_cut + 8.0, 20001)
        y = np.exp(-TWO_PI * s) * s ** (alpha - 1.0)
        tail = float(np.sum((y[1:] + y[:-1]) * np.diff(s)) / 2.0)
        true_remainder = tail / math.gamma(alpha)  # coefficient magnitude 1/2 each at +-1
        assert bound >= true_remainder
        assert bound <= 1e-6  # e^{-2 pi * 3} makes the tail negligible


class TestLemmaChecks:
    def test_gradient_bound_ratio_positive(self):
        grid = TorusGrid(1, 64)
        ext = Extension(cos_field(grid), "poisson",
                        TimeMesh(top=0.5, panels=10, nodes_per_panel=4))
        ratio = gradient_bound_ratio(ext, 0.5, h_norm=1.0)
        assert np.isfinite(ratio) and ratio > 0

    def test_gradient_bound_ratio_rejects_zero_norm(self):
        grid = TorusGrid(1, 32)
        ext = Extension(noise_field(grid), "poisson", TimeMesh(top=0.5, panels=4))
        with pytest.raises(ValueError):
            gradient_bound_ratio(ext, 0.5, h_norm=0.0)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_modulus_ratios(self, alpha):
        grid = TorusGrid(1, 64)
        ext = Extension(cos_field(grid), "poisson",
                        TimeMesh(top=0.5, panels=8, nodes_per_panel=4))
        report = modulus_bound_check(ext, alpha)
        # Near case is a mean value inequality with the extension's own
        # constant, so the ratio cannot exceed one.
        assert 0 < report.near_ratio <= 1.0 + 1e-9
        assert np.isfinite(report.far_ratio) and report.far_ratio > 0
        assert report.far_ratio < 10.0
        assert report.pairs_checked > 0
        assert report.max_ratio == max(report.near_ratio, report.far_ratio)
