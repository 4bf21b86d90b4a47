"""Tests for the 3D mild-solution solver, its data/solution norms, and
the small-data and inflation probes.

Solver accuracy targets are frozen from cross-integrator runs: Picard
and IFRK4 discretize the same projected dealiased dynamics, so their
disagreement bounds the quadrature error of each. The planar vortex
evolves by pure heat decay (its convective term is a perfect gradient),
which gives an exact nonlinear reference.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from toruslab import ns3d
from toruslab.fieldio import read_field
from toruslab.norms import BoxFamily, TimeSeries, x_space_norm, inverse_space_norm
from toruslab.ns3d import (
    _block_coefficients,
    _Symbols,
    InflationReport,
    NSTrace,
    SmallDataReport,
    SmallDataRow,
    VelocityField,
    divergence_defect,
    export_trace,
    inflation_probe,
    initial_data_norm,
    make_divergence_free,
    mild_solve_picard,
    random_divergence_free,
    shear_modes,
    smalldata_probe,
    solution_x_norm,
    solution_x_report,
    step_ifrk4,
    taylor_green,
)
from toruslab.spectral import Field, TorusGrid
from toruslab.verify import lattice_rescale

from flow_oracles import final_velocity, scaling_defect, trace_difference, velocity


@pytest.fixture(scope="module")
def g16() -> TorusGrid:
    return TorusGrid(dims=3, size=16, length=1.0)


@pytest.fixture(scope="module")
def boxes16(g16) -> BoxFamily:
    return BoxFamily.default(g16)


@pytest.fixture(scope="module")
def rand16(g16) -> VelocityField:
    return random_divergence_free(g16, seed=4, max_freq=2)


def shear_y(grid: TorusGrid, amplitude: float = 1.0) -> VelocityField:
    """cos(2 pi x) displacing y: the simplest single-mode flow."""
    x, _, _ = grid.coordinates()
    wave = amplitude * np.cos(2.0 * np.pi * x / grid.length)
    zero = np.zeros(grid.shape)
    return VelocityField(
        grid, (Field(grid, zero), Field(grid, wave), Field(grid, zero.copy()))
    )


def snapshots(trace: NSTrace) -> list[VelocityField]:
    """Every node of a trace as a VelocityField on the grid."""
    return [velocity(trace, c) for c in trace.coefficients]


def crop(grid: TorusGrid, full: np.ndarray) -> np.ndarray:
    """The kept block (..., 2K+1, 2K+1, K+1) of full-spectrum coefficients."""
    k = grid.size // 3
    rows = np.r_[0 : k + 1, grid.size - k : grid.size]
    return full[..., rows, :, :][..., rows, :][..., : k + 1]


def full_nonlinear(grid: TorusGrid, coeff: np.ndarray) -> np.ndarray:
    """Reference -dealias(P div(u (x) u)) on the full complex spectrum:
    complex fftn/ifftn and all nine stress products."""
    kd = np.stack(grid.derivative_modes)
    ik = (2j * np.pi / grid.length) * kd
    keep = np.all([np.abs(k) < grid.size / 3.0 for k in grid.modes], axis=0)
    ksq = grid.mode_square
    u = [np.fft.ifftn(c, norm="forward").real for c in coeff]
    flux = np.stack([
        sum(ik[b] * np.fft.fftn(u[j] * u[b], norm="forward") for b in range(3))
        for j in range(3)
    ])
    k_dot = sum(kd[j] * flux[j] for j in range(3))
    flux = (flux - kd * (k_dot / np.where(ksq > 0.0, ksq, 1.0))) * keep
    return -flux


def full_picard(a: VelocityField, horizon: float, nodes: int):
    """Reference Picard loop on the full complex spectrum with separate
    old/new node arrays; returns the residuals and the final samples."""
    grid = a.grid
    h = horizon / nodes
    step = np.exp(-((2.0 * np.pi / grid.length) ** 2) * grid.mode_square * h)
    ahat = np.stack([np.fft.fftn(c.samples, norm="forward") for c in a.components])
    lin = [ahat]
    for _ in range(nodes):
        lin.append(step * lin[-1])
    current = np.stack(lin)
    residuals = []
    for _ in range(40):
        new = np.empty_like(current)
        new[0] = ahat
        prev_b = full_nonlinear(grid, ahat)
        heat_tail = prev_b
        running = np.zeros_like(ahat)
        worst = 0.0
        for i in range(1, nodes + 1):
            heat_tail = step * heat_tail
            if i > 1:
                running = step * (running + prev_b)
            b_here = full_nonlinear(grid, current[i])
            new[i] = lin[i] + h * (0.5 * heat_tail + running + 0.5 * b_here)
            delta = np.linalg.norm(new[i] - current[i]) / np.linalg.norm(new[i])
            worst = max(worst, float(delta))
            prev_b = b_here
        current = new
        residuals.append(worst)
        if worst <= 1e-10:  # the solver's default tol
            break
    return residuals, np.stack([np.fft.ifftn(c, norm="forward").real for c in current[-1]])


def six_entry_nonlinear(sym: _Symbols, vhat: np.ndarray, isotropic: float = 0.0) -> np.ndarray:
    """Reference -P div(S) on the block from all six entries of the
    symmetric stress S = u (x) u + isotropic |u|^2 I, each its own forward
    transform, with the projection on complex values."""
    u = [sym.to_grid(c) for c in vhat]
    extra = isotropic * (u[0] ** 2 + u[1] ** 2 + u[2] ** 2)
    stress = {}
    for j in range(3):
        for b in range(j, 3):
            entry = u[j] * u[b] + (extra if j == b else 0.0)
            stress[j, b] = stress[b, j] = sym.from_grid(entry)
    kd = sym.kd
    ksq = np.sum(kd**2, axis=0)
    flux = np.stack([sum(kd[b] * stress[j, b] for b in range(3)) for j in range(3)])
    k_dot = sum(kd[j] * flux[j] for j in range(3)) / np.where(ksq > 0.0, ksq, 1.0)
    return (flux - kd * k_dot) * sym._flux_factor


class TestHalfSpectrumOracles:
    """The block kernel against full-spectrum reference formulas."""

    def test_nonlinear_matches_full_spectrum(self, g16):
        # band 5 is the top of the block: the products reach band 10, past
        # the 2/3 cut, so the cut acts and aliased modes must not leak in
        v = random_divergence_free(g16, seed=3, max_freq=5)
        full = np.stack([np.fft.fftn(c.samples, norm="forward") for c in v.components])
        want = crop(g16, full_nonlinear(g16, full))
        got = _Symbols(g16).nonlinear(_block_coefficients(v))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_picard_matches_full_spectrum_loop(self, rand16):
        v = rand16.scaled(0.5)
        residuals, final = full_picard(v, 0.1, nodes=32)
        trace = mild_solve_picard(v, 0.1, nodes=32)
        assert trace.converged and len(residuals) > 2
        assert len(trace.residuals) == len(residuals)
        np.testing.assert_allclose(trace.residuals, residuals, rtol=0.0, atol=1e-14)
        got = np.stack([c.samples for c in final_velocity(trace).components])
        assert np.max(np.abs(got - final)) <= 1e-13 * np.max(np.abs(final))

    def test_power_matches_the_sum_of_squares_bit_for_bit(self, g16):
        # the in-place square sum against re^2 + im^2 formed whole, on one
        # (3, ...) block and on a (nodes, 3, ...) stack of them
        sym = _Symbols(g16)
        shape = _block_coefficients(random_divergence_free(g16, seed=1)).shape
        rng = np.random.default_rng(5)
        for stack in ((), (4,)):
            coeff = (rng.standard_normal(stack + shape)
                     + 1j * rng.standard_normal(stack + shape))
            want = [float(((c.real**2 + c.imag**2) @ sym.weight).sum())
                    for c in coeff.reshape((-1,) + shape)]
            got = sym.power(coeff)
            assert np.array_equal(np.reshape(got, -1), want)

    def test_shell_fraction_matches_full_spectrum(self, g16):
        # interacting shear waves push energy into the outermost kept shell
        trace = step_ifrk4(shear_modes(g16, 4, seed=2), 0.01, steps=20, store=4)
        got = _Symbols(g16).shell_energy_fraction(trace.coefficients)
        # kept: every |k_j| < 16/3; shell: some |k_j| = floor(16/3) = 5
        keep = np.all([np.abs(k) < 16 / 3.0 for k in g16.modes], axis=0)
        shell = keep & np.any([np.abs(k) >= 5 for k in g16.modes], axis=0)
        for fraction, snap in zip(got, snapshots(trace)):
            full = np.stack([np.fft.fftn(c.samples, norm="forward") for c in snap.components])
            power = np.abs(full) ** 2
            want = np.sum(power[:, shell]) / np.sum(power)
            assert want > 1e-12
            assert fraction == pytest.approx(want, rel=1e-12)


class TestTracelessStress:
    """The evaluation from five stress entries, the stress less u_2^2 I,
    against the six-entry form: the isotropic part is a gradient, which
    the projection removes."""

    @staticmethod
    def block_data(n: int, seed: int) -> tuple[_Symbols, np.ndarray]:
        # the top band of the block, so that the 2/3 cut acts on the products
        grid = TorusGrid(dims=3, size=n, length=1.0)
        v = random_divergence_free(grid, seed=seed, max_freq=n // 3)
        return ns3d._symbols(grid), _block_coefficients(v)

    def test_one_evaluation_makes_3_inverses_and_5_forwards(self, g16, rand16, monkeypatch):
        sym = _Symbols(g16)
        calls = {"to_grid": 0, "from_grid": 0}
        for name in calls:
            real = getattr(sym, name)

            def counted(x, _real=real, _name=name):
                calls[_name] += 1
                return _real(x)

            monkeypatch.setattr(sym, name, counted)
        sym.nonlinear(_block_coefficients(rand16))
        assert calls == {"to_grid": 3, "from_grid": 5}

    @pytest.mark.parametrize("n", [32, 64])
    def test_matches_the_six_entry_stress(self, n):
        sym, vhat = self.block_data(n, seed=n)
        want = six_entry_nonlinear(sym, vhat)
        got = sym.nonlinear(vhat)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("c", [1.0, -0.5, 1.0 / 3.0])
    def test_an_isotropic_stress_moves_the_term_by_roundoff(self, c):
        sym, vhat = self.block_data(32, seed=1)
        want = six_entry_nonlinear(sym, vhat)
        moved = six_entry_nonlinear(sym, vhat, isotropic=c)
        assert np.max(np.abs(moved - want)) <= 1e-13 * np.max(np.abs(want))
        # unprojected, the isotropic part's divergence is of the term's size
        u = sym.to_grid(vhat)
        gradient = sym.kd * sym.from_grid(c * np.sum(u**2, axis=0)) * sym._flux_factor
        assert np.max(np.abs(gradient)) >= 0.1 * np.max(np.abs(want))


class TestMatrixTransforms:
    """The block's matrix passes against numpy's FFTs of the padded block."""

    @staticmethod
    def padded(grid: TorusGrid, block: np.ndarray) -> np.ndarray:
        """The rfftn half spectrum (..., N, N, N/2+1) that is zero off the block."""
        n, k = grid.size, grid.size // 3
        rows = np.r_[0 : k + 1, n - k : n]
        half = np.zeros(block.shape[:-3] + (n, n, n // 2 + 1), dtype=np.complex128)
        half[..., rows[:, None], rows, : k + 1] = block
        return half

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_to_grid_matches_irfftn(self, n):
        grid = TorusGrid(dims=3, size=n, length=1.0)
        sym = ns3d._symbols(grid)
        rng = np.random.default_rng(n)
        coeff = rng.standard_normal((3,) + sym.shape) + 1j * rng.standard_normal((3,) + sym.shape)
        want = np.fft.irfftn(self.padded(grid, coeff), s=grid.shape, axes=(-3, -2, -1),
                             norm="forward")
        got = sym.to_grid(coeff)
        assert got.shape == (3,) + grid.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_from_grid_matches_rfftn(self, n):
        grid = TorusGrid(dims=3, size=n, length=1.0)
        sym = ns3d._symbols(grid)
        samples = np.random.default_rng(n).standard_normal((3,) + grid.shape)
        want = crop(grid, np.fft.rfftn(samples, axes=(-3, -2, -1), norm="forward"))
        got = sym.from_grid(samples)
        assert got.shape == (3,) + sym.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_a_stack_transforms_to_each_nodes_bits(self, g16):
        sym = ns3d._symbols(g16)
        rng = np.random.default_rng(2)
        shape = (5, 3) + sym.shape
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        samples = sym.to_grid(stack)
        assert np.array_equal(samples, np.stack([sym.to_grid(node) for node in stack]))
        assert np.array_equal(sym.from_grid(samples),
                              np.stack([sym.from_grid(node) for node in samples]))

    def test_the_solver_path_calls_no_fft(self, g16, rand16, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.fft called on the solver path")

        ahat = _block_coefficients(rand16)
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        sym = ns3d._symbols(g16)
        sym.from_grid(sym.to_grid(sym.nonlinear(ahat)))

    def test_one_read_only_table_set_per_grid(self, g16):
        sym = ns3d._symbols(g16)
        assert ns3d._symbols(TorusGrid(dims=3, size=16, length=1.0)) is sym
        assert ns3d._symbols(TorusGrid(dims=3, size=16, length=2.0)) is not sym
        with pytest.raises(ValueError, match="read-only"):
            sym.kd[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            sym.weight[0] = 2.0


class TestKeptBlock:
    """The solvers hold only the 2/3 block; data outside it is refused."""

    @pytest.fixture(scope="class")
    def wide16(self, g16) -> VelocityField:
        # band 6 crosses the cut at floor(16/3) = 5
        return random_divergence_free(g16, seed=3, max_freq=6)

    def test_picard_refuses_out_of_block_data(self, wide16):
        with pytest.raises(ValueError, match=r"relative L2 \S+ outside the kept 2/3 block"):
            mild_solve_picard(wide16, 0.1, nodes=32)

    def test_ifrk4_refuses_out_of_block_data(self, wide16):
        with pytest.raises(ValueError, match=r"relative L2 \S+ outside the kept 2/3 block"):
            step_ifrk4(wide16, 0.1, steps=4)

    def test_trace_refuses_out_of_block_stack(self, g16, wide16):
        # the grid's half spectrum holds modes the block cannot
        with pytest.raises(ValueError, match="kept 2/3 block"):
            NSTrace(g16, np.array([0.1]), wide16.coefficients()[None], {})

    def test_probe_data_lies_inside_the_block(self):
        grid = TorusGrid(dims=3, size=32, length=1.0)
        shape = random_divergence_free(grid, seed=0)
        back = _Symbols(grid).to_grid(_block_coefficients(shape))
        for got, want in zip(back, shape.components):
            np.testing.assert_allclose(got, want.samples, rtol=0.0,
                                       atol=1e-14 * shape.max_abs())

    def test_linear_closed_form_matches_stepped_recursion(self, g16, rand16):
        sym = _Symbols(g16)
        step = sym.propagator(0.1 / 32)
        lin = _block_coefficients(rand16)
        picard = mild_solve_picard(rand16, 0.1, nodes=32, nonlinear=False)
        rk4 = step_ifrk4(rand16, 0.1, steps=32, store=32, nonlinear=False)
        for got_p, got_r in zip(picard.coefficients, rk4.coefficients):
            lin = step * lin
            peak = np.max(np.abs(lin))
            assert np.max(np.abs(got_p - lin)) <= 1e-14 * peak
            assert np.max(np.abs(got_r - lin)) <= 1e-14 * peak

    def test_picard_sweep_memory_is_block_bounded(self):
        # one 64^3 sweep: the node array on the block plus per-evaluation
        # temporaries, never a node array on the half spectrum (207 MB here)
        n, nodes = 64, 32
        grid = TorusGrid(dims=3, size=n, length=1.0)
        a = random_divergence_free(grid, seed=0)
        k = n // 3
        block = 3 * (2 * k + 1) ** 2 * (k + 1) * 16
        node_array = nodes * block
        grid_fields = 4 * n**3 * 8  # u on the grid and one stress product
        transform = n * n * (n // 2 + 1) * 16 + n * n * (k + 1) * 16  # z, y passes
        block_temps = 16 * block  # sweep sums, stresses and flux on the block
        tracemalloc.start()
        try:
            trace = mild_solve_picard(a, 0.1, nodes=nodes, max_iter=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.residuals) == 1
        assert trace.coefficients.nbytes == node_array
        assert peak <= node_array + grid_fields + transform + block_temps


class TestVelocityField:
    def test_taylor_green_solenoidal(self, g16):
        assert divergence_defect(taylor_green(g16)) <= 1e-12

    def test_taylor_green_energy(self, g16):
        # integral of A^2 (sin cos)^2 + (cos sin)^2 over the unit torus is A^2/2
        v = taylor_green(g16, amplitude=2.0)
        assert v.energy() == pytest.approx(1.0, rel=1e-12)

    def test_scaled_energy_homogeneity(self, g16):
        v = taylor_green(g16, amplitude=0.7)
        assert v.scaled(3.0).energy() == pytest.approx(9.0 * v.energy(), rel=1e-12)

    def test_zero_field_defect(self, g16):
        zero = VelocityField(g16, tuple(Field(g16, np.zeros(g16.shape)) for _ in range(3)))
        assert divergence_defect(zero) == 0.0
        assert zero.energy() == 0.0
        assert zero.max_abs() == 0.0

    def test_coefficient_round_trip(self, g16):
        # into the block by the solvers' crop, back by the pruned inverse
        v = taylor_green(g16, amplitude=0.3)
        back = _Symbols(g16).to_grid(_block_coefficients(v))
        for got, want in zip(back, v.components):
            np.testing.assert_allclose(got, want.samples, atol=1e-14)

    def test_projection_fixes_solenoidal_fields(self, g16):
        v = taylor_green(g16)
        projected = make_divergence_free([c for c in v.components])
        for got, want in zip(projected.components, v.components):
            np.testing.assert_allclose(got.samples, want.samples, atol=1e-13)

    def test_projection_kills_gradients(self, g16):
        x, y, _ = g16.coordinates()
        two_pi = 2.0 * np.pi
        gx = Field(g16, two_pi * np.cos(two_pi * x) * np.sin(two_pi * y))
        gy = Field(g16, two_pi * np.sin(two_pi * x) * np.cos(two_pi * y))
        gz = Field(g16, np.zeros(g16.shape))
        projected = make_divergence_free([gx, gy, gz])
        assert projected.max_abs() <= 1e-11

    def test_non_solenoidal_rejected(self, g16):
        x, _, _ = g16.coordinates()
        comp = Field(g16, np.cos(2.0 * np.pi * x))
        zero = Field(g16, np.zeros(g16.shape))
        with pytest.raises(ValueError, match="divergence"):
            VelocityField(g16, (comp, zero, zero))

    def test_non_3d_grid_rejected(self):
        g2 = TorusGrid(dims=2, size=16, length=1.0)
        zero = Field(g2, np.zeros(g2.shape))
        with pytest.raises(ValueError, match="3D"):
            VelocityField(g2, (zero, zero, zero))

    def test_wrong_component_count(self, g16):
        zero = Field(g16, np.zeros(g16.shape))
        with pytest.raises(ValueError, match="three"):
            VelocityField(g16, (zero, zero))

    def test_component_grid_mismatch(self, g16):
        g8 = TorusGrid(dims=3, size=8, length=1.0)
        with pytest.raises(ValueError, match="share the grid"):
            VelocityField(
                g16,
                (
                    Field(g16, np.zeros(g16.shape)),
                    Field(g16, np.zeros(g16.shape)),
                    Field(g8, np.zeros(g8.shape)),
                ),
            )

    def test_random_data_is_seeded(self, g16):
        a = random_divergence_free(g16, seed=9, max_freq=2)
        b = random_divergence_free(g16, seed=9, max_freq=2)
        c = random_divergence_free(g16, seed=10, max_freq=2)
        for ca, cb in zip(a.components, b.components):
            np.testing.assert_array_equal(ca.samples, cb.samples)
        assert any(
            not np.array_equal(ca.samples, cc.samples)
            for ca, cc in zip(a.components, c.components)
        )
        assert divergence_defect(a) <= 1e-12

    def test_shear_modes_solenoidal(self, g16):
        v = shear_modes(g16, count=3, seed=2)
        assert divergence_defect(v) <= 1e-12

    def test_shear_modes_validation(self, g16):
        with pytest.raises(ValueError, match="at least one"):
            shear_modes(g16, count=0)
        # floor(16/3) - 1 = 4 distinct frequencies fit below the cut
        with pytest.raises(ValueError, match="dealiasing"):
            shear_modes(g16, count=5)
        g2 = TorusGrid(dims=2, size=16, length=1.0)
        with pytest.raises(ValueError, match="3D"):
            shear_modes(g2, count=1)


class TestHeatFlow:
    def test_picard_linear_is_heat_multiplier(self, g16):
        v = shear_y(g16)
        trace = mild_solve_picard(v, 0.1, nodes=32, nonlinear=False)
        rate = 4.0 * np.pi**2
        base = v.components[1].samples
        for t, snap in zip(trace.times, snapshots(trace)):
            want = math.exp(-rate * t) * base
            np.testing.assert_allclose(snap.components[1].samples, want, atol=1e-12)
            assert snap.components[0].max_abs() == 0.0
        assert trace.converged and trace.residuals == ()

    def test_ifrk4_linear_matches_picard_linear(self, rand16):
        heat_a = mild_solve_picard(rand16, 0.1, nodes=32, nonlinear=False)
        heat_b = step_ifrk4(rand16, 0.1, steps=32, store=32, nonlinear=False)
        assert trace_difference(heat_a, heat_b) <= 1e-12

    def test_zero_data_stays_zero(self, g16):
        zero = VelocityField(g16, tuple(Field(g16, np.zeros(g16.shape)) for _ in range(3)))
        trace = mild_solve_picard(zero, 0.1, nodes=32)
        assert trace.converged
        assert trace.residuals == (0.0,)
        assert final_velocity(trace).max_abs() == 0.0


class TestSolvers:
    def test_taylor_green_decays_exactly(self, g16):
        # the convective term is a gradient, so the projected flow is pure heat
        v = taylor_green(g16, amplitude=0.05)
        horizon = 0.05
        trace = mild_solve_picard(v, horizon, nodes=32)
        assert trace.converged
        assert len(trace.residuals) == 1
        decay = math.exp(-8.0 * np.pi**2 * horizon)
        for got, want in zip(final_velocity(trace).components, v.components):
            np.testing.assert_allclose(got.samples, decay * want.samples, atol=1e-14)

    def test_picard_matches_ifrk4(self, rand16):
        v = rand16.scaled(0.5)
        picard = mild_solve_picard(v, 0.1, nodes=64)
        rk4 = step_ifrk4(v, 0.1, steps=256, store=64)
        assert picard.converged
        assert trace_difference(picard, rk4) <= 2e-4

    def test_trapezoid_refinement_second_order(self, rand16):
        v = rand16.scaled(0.5)
        ends = {}
        for nodes in (32, 64, 256):
            trace = mild_solve_picard(v, 0.1, nodes=nodes)
            assert trace.converged
            ends[nodes] = np.stack([c.samples for c in final_velocity(trace).components])
        ref = float(np.linalg.norm(ends[256]))
        d32 = float(np.linalg.norm(ends[32] - ends[256])) / ref
        d64 = float(np.linalg.norm(ends[64] - ends[256])) / ref
        assert d64 <= 2e-4
        # halving h divides the end-state defect by ~4 (Richardson: 63/15)
        assert 3.0 <= d32 / d64 <= 5.5

    def test_ifrk4_fourth_order(self, rand16):
        v = rand16.scaled(0.5)
        runs = {s: step_ifrk4(v, 0.1, steps=s, store=1) for s in (16, 32, 128)}
        e16 = trace_difference(runs[16], runs[128])
        e32 = trace_difference(runs[32], runs[128])
        assert 8.0 <= e16 / e32 <= 32.0

    def test_energy_non_increasing(self, rand16):
        trace = mild_solve_picard(rand16.scaled(0.5), 0.1, nodes=32)
        assert trace.converged
        energies = trace.energies()
        assert energies[0] <= trace.config["initial_energy"] + 1e-12
        assert np.all(np.diff(energies) <= 1e-12)

    def test_cfl_warning(self, g16):
        v = taylor_green(g16, amplitude=20.0)
        with pytest.warns(UserWarning, match="CFL"):
            step_ifrk4(v, 0.01, steps=2, store=1)

    def test_linear_run_does_not_warn_about_cfl(self, g16):
        # the heat flow is taken in closed form, with no advective step
        v = taylor_green(g16, amplitude=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = step_ifrk4(v, 0.01, steps=2, store=1, nonlinear=False)
        assert not trace.config["nonlinear"]

    def test_nonconvergence_is_reported_not_raised(self, rand16):
        v = rand16.scaled(5.0)
        trace = mild_solve_picard(v, 0.5, nodes=32, max_iter=4)
        assert not trace.converged
        assert len(trace.residuals) == 4
        assert all(math.isfinite(r) for r in trace.residuals)
        assert math.isfinite(final_velocity(trace).energy())

    def test_solver_argument_validation(self, g16, rand16):
        with pytest.raises(ValueError, match="horizon"):
            mild_solve_picard(rand16, -0.1)
        with pytest.raises(ValueError, match="at least 32"):
            mild_solve_picard(rand16, 0.1, nodes=16)
        with pytest.raises(ValueError, match="at least one step"):
            step_ifrk4(rand16, 0.1, steps=0)
        with pytest.raises(ValueError, match="divide"):
            step_ifrk4(rand16, 0.1, steps=10, store=3)

    def test_trace_validation(self, g16):
        v = taylor_green(g16, amplitude=0.1)
        c = _block_coefficients(v)
        cfg = {"initial_energy": v.energy()}
        with pytest.raises(ValueError, match="positive"):
            NSTrace(g16, np.array([0.0, 0.1]), np.stack([c, c]), cfg)
        with pytest.raises(ValueError, match="increasing"):
            NSTrace(g16, np.array([0.2, 0.1]), np.stack([c, c]), cfg)
        with pytest.raises(ValueError, match="one snapshot per"):
            NSTrace(g16, np.array([0.1, 0.2]), c[None], cfg)
        g8 = TorusGrid(dims=3, size=8, length=1.0)
        with pytest.raises(ValueError, match="grid"):
            NSTrace(g16, np.array([0.1]), _block_coefficients(taylor_green(g8))[None], cfg)
        compressive = c.copy()
        compressive[0, [1, -1], 0, 0] += 0.5  # cos(2 pi x) in u_x
        with pytest.raises(ValueError, match="divergence"):
            NSTrace(g16, np.array([0.1]), compressive[None], cfg)

    def test_trace_snapshots_round_trip(self, g16):
        v = taylor_green(g16, amplitude=0.1)
        trace = NSTrace(g16, np.array([0.1]), _block_coefficients(v)[None], {})
        (snap,) = snapshots(trace)
        for got, want in zip(snap.components, v.components):
            np.testing.assert_allclose(got.samples, want.samples, atol=1e-15)
        np.testing.assert_allclose(
            trace.component_series(1).values[0], v.components[1].samples, atol=1e-15
        )
        assert trace.energies()[0] == pytest.approx(v.energy(), rel=1e-14)

    def test_export_trace_builds_no_velocity_field(self, g16, tmp_path, monkeypatch):
        # the trace was validated on the block; exporting it re-checks nothing
        v = taylor_green(g16, amplitude=0.1)
        c = _block_coefficients(v)
        trace = NSTrace(g16, np.array([0.1, 0.2]), np.stack([c, 0.5 * c]), {})
        want = [snap.components for snap in snapshots(trace)]

        def refuse(self):
            raise AssertionError("export_trace built a VelocityField")

        monkeypatch.setattr(VelocityField, "__post_init__", refuse)
        export_trace(trace, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for node, comps in zip(manifest["nodes"], want):
            for name, comp in zip(node["files"], comps):
                assert np.array_equal(read_field(tmp_path / name).samples, comp.samples)

    def test_nan_divergence_defect_rejected(self, g16):
        # NaN compares False against any tolerance, so the check must be NaN-safe
        c = _block_coefficients(taylor_green(g16, amplitude=0.1))
        bad = c.copy()
        bad[0, 1, 1, 1] = np.nan
        for converged in (True, False):
            with pytest.raises(ValueError, match="divergence-free: defect nan"):
                NSTrace(g16, np.array([0.05, 0.1]), np.stack([c, bad]), {},
                        converged=converged)
        # finite samples whose mean coefficient overflows give 0 * inf = NaN
        huge = tuple(Field(g16, np.full(g16.shape, 1e308)) for _ in range(3))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="divergence-free: defect nan"):
                VelocityField(g16, huge)

    def test_energy_growth_rejected_when_converged(self, g16):
        small = _block_coefficients(taylor_green(g16, amplitude=0.1))
        big = _block_coefficients(taylor_green(g16, amplitude=0.2))
        times = np.array([0.05, 0.1])
        with pytest.raises(ValueError, match="energy increased"):
            NSTrace(g16, times, np.stack([small, big]), {})
        # a diverged trace documents non-contraction, so no energy check
        trace = NSTrace(g16, times, np.stack([small, big]), {}, converged=False)
        assert not trace.converged
        # an overflowed energy is never a converged solution
        huge = np.stack([small, 1e200 * small])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                NSTrace(g16, times, huge, {})
            assert not NSTrace(g16, times, huge, {}, converged=False).converged

    def test_overflow_is_divergence_not_convergence(self):
        # at this rung the iterate overflows: the old residual read
        # inf/inf = nan as a zero update and reported convergence
        grid = TorusGrid(dims=3, size=32, length=1.0)
        shape = random_divergence_free(grid, seed=0)
        unit = shape.scaled(
            1.0 / initial_data_norm(shape, -0.5, 0.1, BoxFamily.default(grid))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is reported, not warned
            trace = mild_solve_picard(unit.scaled(64.0), 0.1, nodes=32)
        assert not trace.converged
        assert trace.residuals[-1] == math.inf
        assert all(math.isfinite(r) for r in trace.residuals[:-1])
        assert np.all(np.isfinite(trace.coefficients))

    def test_trace_difference_errors(self, g16, rand16):
        a = mild_solve_picard(rand16, 0.1, nodes=32, nonlinear=False)
        b = mild_solve_picard(rand16, 0.1, nodes=64, nonlinear=False)
        with pytest.raises(ValueError, match="different time nodes"):
            trace_difference(a, b)
        g8 = TorusGrid(dims=3, size=8, length=1.0)
        c = mild_solve_picard(taylor_green(g8), 0.1, nodes=32, nonlinear=False)
        with pytest.raises(ValueError, match="different grids"):
            trace_difference(a, c)


class TestScaling:
    def test_scaling_defect_small(self, g16):
        # at 16^3 the dealiasing cut clips second-generation modes of the
        # rescaled run, so the defect is linear in the data amplitude
        v = random_divergence_free(g16, seed=4, max_freq=2).scaled(0.01)
        assert scaling_defect(v, 0.1, nodes=32, lam=2) <= 1e-4

    def test_scaling_defect_identity(self, g16):
        v = random_divergence_free(g16, seed=4, max_freq=2).scaled(0.02)
        assert scaling_defect(v, 0.1, nodes=32, lam=1) == 0.0


class TestDataNorms:
    def test_zero_field_has_zero_norm(self, g16, boxes16):
        zero = VelocityField(g16, tuple(Field(g16, np.zeros(g16.shape)) for _ in range(3)))
        assert initial_data_norm(zero, -0.5, 0.1, boxes16) == 0.0

    def test_single_component_matches_scalar_norm(self, g16, boxes16):
        v = shear_modes(g16, count=1, seed=3)
        want = inverse_space_norm(v.components[2], -0.5, 0.1, boxes16).value
        assert initial_data_norm(v, -0.5, 0.1, boxes16) == pytest.approx(want, rel=1e-12)

    def test_homogeneity(self, g16, boxes16, rand16):
        base = initial_data_norm(rand16, -0.25, 0.1, boxes16)
        tripled = initial_data_norm(rand16.scaled(3.0), -0.25, 0.1, boxes16)
        assert tripled == pytest.approx(3.0 * base, rel=1e-12)

    def test_lattice_rescale_invariance(self):
        # lam u(lam .) preserves the data norm on the continuum; on the
        # lattice the sup shifts one dyadic radius, so 2% needs N=32
        g = TorusGrid(dims=3, size=32, length=1.0)
        boxes = BoxFamily.default(g)
        v = random_divergence_free(g, seed=7, max_freq=1)
        rescaled = VelocityField(
            g, tuple(lattice_rescale(c, 2).scaled(2.0) for c in v.components)
        )
        for alpha in (-0.5, 0.0):
            base = initial_data_norm(v, alpha, 0.1, boxes)
            moved = initial_data_norm(rescaled, alpha, 0.1, boxes)
            assert abs(moved / base - 1.0) <= 0.02

    @staticmethod
    def generic_data_norm(a: VelocityField, alpha: float, horizon: float,
                          boxes: BoxFamily) -> float:
        """The data norm through each component's heat extension rows."""
        return sum(inverse_space_norm(c, alpha, horizon, boxes).value for c in a.components)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("data", ["seed0", "seed1", "seed7", "shear"])
    def test_block_rows_give_the_generic_norm(self, n, data):
        grid = TorusGrid(dims=3, size=n, length=1.0)
        boxes = BoxFamily.default(grid)
        if data == "shear":
            a = shear_modes(grid, 3, seed=5)
        else:
            a = random_divergence_free(grid, seed=int(data[4:]))
        for alpha in (-0.5, 0.25):
            want = self.generic_data_norm(a, alpha, 0.1, boxes)
            assert want > 0.0
            assert initial_data_norm(a, alpha, 0.1, boxes) == pytest.approx(want, rel=1e-12)

    def test_out_of_block_data_refused(self, g16, boxes16):
        wide = random_divergence_free(g16, seed=3, max_freq=6)  # past floor(16/3) = 5
        with pytest.raises(ValueError, match=r"relative L2 \S+ outside the kept 2/3 block"):
            initial_data_norm(wide, -0.5, 0.1, boxes16)

    def test_heat_rows_make_no_fft_call(self, g16, rand16, monkeypatch):
        # the block's rows, drawn with numpy's FFTs refused, against the
        # heat extension's rows of the mean-free component
        from toruslab.extensions import extension_rows
        from toruslab.spectral import forward_transform

        sym = ns3d._symbols(g16)
        block = _block_coefficients(rand16)[0]
        block[0, 0, 0] = 0.0
        times = np.geomspace(1e-5, 0.1, 24)

        def refuse(*args, **kwargs):
            raise AssertionError("np.fft called for the heat rows")

        with monkeypatch.context() as patched:
            for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
                patched.setattr(np.fft, name, refuse)
            got = list(sym.heat_rows(block, times, 8))
        assert [rows for rows, _ in got] == [slice(0, 8), slice(8, 16), slice(16, 24)]
        want = np.concatenate([u for _, u in extension_rows(
            forward_transform(rand16.components[0].remove_mean()), "heat", times)])
        rows = np.concatenate([u for _, u in got])
        assert np.max(np.abs(rows - want)) <= 1e-13 * np.max(np.abs(want))

    def test_heat_solution_norm_matches_analytic(self, g16, boxes16):
        v = shear_y(g16)
        trace = mild_solve_picard(v, 0.1, nodes=32, nonlinear=False)
        decay = np.exp(-4.0 * np.pi**2 * trace.times)
        series = TimeSeries(
            g16,
            trace.times,
            decay[:, None, None, None] * v.components[1].samples[None],
        )
        want = x_space_norm(series, -0.25, 0.1, boxes16).value
        got = solution_x_norm(trace, -0.25, 0.1, boxes16)
        assert got == pytest.approx(want, rel=1e-10)

    def test_solution_report_parts(self, g16, boxes16, rand16):
        trace = mild_solve_picard(rand16.scaled(0.5), 0.1, nodes=32)
        reports = solution_x_report(trace, 0.25, 0.1, boxes16)
        assert len(reports) == 3
        for r in reports:
            assert r.value == r.sup_part + r.carleson_part
            assert r.alpha == 0.25 and r.horizon == 0.1
        total = solution_x_norm(trace, 0.25, 0.1, boxes16)
        assert total == pytest.approx(sum(r.value for r in reports), rel=1e-12)

    def test_solution_x_report_memory_is_one_series(self):
        # 32^3 with 128 nodes: one component series on the grid plus
        # node-sized arrays, never a second (nodes, N^3) temporary
        n, nodes, horizon = 32, 128, 0.1
        grid = TorusGrid(dims=3, size=n, length=1.0)
        boxes = BoxFamily.default(grid)
        a = random_divergence_free(grid, seed=0)
        trace = mild_solve_picard(a, horizon, nodes=nodes, nonlinear=False)
        solution_x_report(trace, -0.5, horizon, boxes)  # fill ball and symbol caches
        radii = sum(r * r < horizon for r in boxes.radii)
        field = 8 * n**3  # one real grid array; a complex one is two
        series = nodes * field
        # a trapezoid sum and a time integral per radius, u_0^2, and a node's
        # |u|, h, previous h, their pair sum and one product; one node's
        # pruned inverse transform stays below these
        trapezoid = (2 * radii + 6) * field
        # the family tail: stacked integrals, stacked complex ball spectra,
        # their product, and a multi-axis inverse transform's output with
        # its per-axis intermediate
        tail = radii * (1 + 2 + 2 + 2 * 2) * field
        slack = 2 * field  # numpy's ufunc buffers
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            solution_x_report(trace, -0.5, horizon, boxes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= series + trapezoid + tail + slack


    def test_solution_x_report_holds_no_node_series(self):
        # 32 nodes at 32^3 against one box: the report streams the nodes, so
        # its peak is a few grid arrays, below one component's series
        n, nodes, horizon = 32, 32, 0.1
        grid = TorusGrid(dims=3, size=n, length=1.0)
        boxes = BoxFamily(grid, stride=1, j_values=(2,))
        trace = mild_solve_picard(random_divergence_free(grid, seed=0), horizon,
                                  nodes=nodes, nonlinear=False)
        solution_x_report(trace, -0.5, horizon, boxes)  # fill ball and symbol caches
        field = 8 * n**3
        # the box's sum, straddle and time integral, u_0^2, and a node's
        # samples, |u|, u^2, h, previous h, pair sum, segment and carry
        walk = 3 * field + 9 * field
        tail = 1 * (1 + 2 + 2 + 2 * 2) * field  # the family tail, as above
        slack = 2 * field  # numpy's ufunc buffers
        bound = walk + tail + slack
        assert bound < nodes * field
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            solution_x_report(trace, -0.5, horizon, boxes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= bound


class TestProbes:
    def test_smalldata_ladder(self, g16):
        report = smalldata_probe(
            [0.0, 0.25, 0.5, 1.0, 2.0], -0.5, 0.1, g16, seed=0, nodes=32
        )
        deltas = [row.delta for row in report.rows]
        assert deltas == sorted(deltas)
        assert report.rows[0] == SmallDataRow(0.0, True, 0.0, 0.0)
        assert all(row.converged for row in report.rows)
        # in the contraction regime the ratio stays near the linear one
        for row in report.rows[1:]:
            assert row.ratio == pytest.approx(report.linear_ratio, rel=0.05)
            assert row.ratio <= report.ratio_max
        assert report.threshold == 2.0
        assert report.passes()
        payload = report.to_payload()
        assert payload["threshold"] == 2.0
        assert len(payload["rows"]) == 5
        json.dumps(payload)

    def test_diverged_rung_ends_threshold(self, g16):
        report = smalldata_probe([0.5, 32.0], -0.5, 0.1, g16, seed=0, nodes=32)
        assert [row.converged for row in report.rows] == [True, False]
        assert report.threshold == 0.5
        row = report.to_payload()["rows"][1]
        assert row["converged"] is False
        # the diverged rung's last iterate is no solution: no X-norm, no ratio
        assert row["x_norm"] is None and row["ratio"] is None
        assert report.rows[0].x_norm > 0.0

    def test_ladder_holds_one_rung_at_a_time(self, g16):
        # 128 nodes at 16^3: a rung's trace is a 4.5 MB node array, more than
        # the rest of the probe holds at once, so a ladder that kept the last
        # rung's trace while the next rung solves would peak a node array
        # higher with a third rung (10.3 MB against 6.1 MB)
        def probe(deltas):
            tracemalloc.start()
            try:
                report = smalldata_probe(deltas, -0.5, 0.1, g16, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return report.to_payload(), peak

        probe([0.0])  # fills the grid caches
        two, two_peak = probe([0.0, 1.0])
        three, three_peak = probe([0.0, 0.5, 1.0])
        assert three_peak <= two_peak + 8 * g16.point_count  # one grid field
        # each rung's row is its own, whatever the ladder
        assert (three["rows"][0], three["rows"][2]) == tuple(two["rows"])
        assert three["linear_ratio"] == two["linear_ratio"]

    def test_smalldata_validation(self, g16):
        with pytest.raises(ValueError, match="nonnegative"):
            smalldata_probe([-0.5], -0.5, 0.1, g16, nodes=32)
        with pytest.raises(ValueError, match="horizon"):
            smalldata_probe([0.5], -0.5, 0.0, g16, nodes=32)

    def test_threshold_requires_converged_prefix(self):
        rows = (
            SmallDataRow(0.25, True, 0.3, 1.2),
            SmallDataRow(0.5, True, 2.5, 5.0),
            SmallDataRow(1.0, True, 1.1, 1.1),
        )
        report = SmallDataReport(
            alpha=-0.5, horizon=0.1, ratio_max=4.0, linear_ratio=1.0, rows=rows
        )
        # the 1.0 row is unreachable: the ladder broke at 0.5
        assert report.threshold == 0.25
        failed = SmallDataReport(
            alpha=-0.5,
            horizon=0.1,
            ratio_max=4.0,
            linear_ratio=1.0,
            rows=(SmallDataRow(0.25, False, 0.0, 0.0),),
        )
        assert failed.threshold is None
        assert not failed.passes()

    def test_inflation_null_control(self, g16):
        # one shear mode has zero self-interaction: growth ratio exactly 1
        report = inflation_probe(1.0, 0.5, g16, mode_count=1, horizon=0.05, steps=300, seed=2)
        assert abs(report.growth_ratio - 1.0) <= 1e-12
        assert report.resolved
        assert report.initial_norm == pytest.approx(1.0, rel=1e-10)

    def test_inflation_interacting_modes_grow(self, g16):
        with pytest.warns(UserWarning, match="dealiasing shell"):
            report = inflation_probe(
                1.0, 0.5, g16, mode_count=3, horizon=0.05, steps=300, seed=2
            )
        assert 1.001 <= report.growth_ratio <= 1.01
        assert not report.resolved
        payload = report.to_payload()
        assert payload["growth_ratio"] == report.growth_ratio
        assert payload["resolved"] is False
        json.dumps(payload)

    def test_inflation_validation(self, g16):
        with pytest.raises(ValueError, match="alpha"):
            inflation_probe(1.0, 0.0, g16, mode_count=1)
        with pytest.raises(ValueError, match="alpha"):
            inflation_probe(1.0, 1.0, g16, mode_count=1)
        with pytest.raises(ValueError, match="eps"):
            inflation_probe(0.0, 0.5, g16, mode_count=1)
