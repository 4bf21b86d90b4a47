"""Pseudospectral mild-solution solver for incompressible flow on the
3-torus, with the initial-data and solution norms and the small-data /
inflation probes built on them.

The velocity is advanced in spectral space with viscosity 1 and the 2/3
dealiasing rule; the convective term is Leray-projected every evaluation,
so pressure never appears. Two integrators cover the same dynamics: a
Picard iteration of the Duhamel integral equation (trapezoidal quadrature
over uniformly stored nodes, the solver of record) and an
integrating-factor RK4 reference. Non-convergence of the Picard map is a
reported outcome, not an error: it delineates the small-data regime.

Velocities are real, so every spectral array here is the half spectrum
of ``numpy.fft.rfftn``: shape (N, N, N/2+1), with k_z running over
0..N/2 and the modes k_z < 0 implied by Hermitian symmetry. Sums over the
full spectrum (energies, residuals) weight the k_z = 0 and k_z = N/2
planes once and every other plane twice. One nonlinear evaluation costs
3 inverse and 6 forward real transforms, one per independent entry of
the symmetric stress u_j u_b (Canuto, Hussaini, Quarteroni and Zang,
*Spectral Methods*; Orszag, J. Atmos. Sci. 28 (1971) for the 2/3 rule).
The Picard solver keeps a single node array, updated in place, and a
trace stores that coefficient stack; velocity fields on the grid are
built from it only on demand.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusSpec, generate
from .norms import BoxFamily, TimeSeries, XSpaceResult, inverse_space_norm, x_space_norm
from .spectral import Field, TorusGrid, forward_transform

DIVERGENCE_RTOL = 1e-8
_ENERGY_SLACK = 1e-9


_AXES = (-3, -2, -1)


def _rfft(samples: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients over the last three axes."""
    return np.fft.rfftn(samples, axes=_AXES, norm="forward")


def _irfft(coeff: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Grid samples from half-spectrum coefficients over the last three axes."""
    return np.fft.irfftn(coeff, s=grid.shape, axes=_AXES, norm="forward")


def _relative_l2(delta_sq: float, reference_sq: float) -> float:
    """sqrt(delta_sq) / sqrt(reference_sq) from two sums of squares.

    A zero reference gives the absolute norm. An overflowed or NaN sum
    gives NaN, so a caller can tell divergence from a small update.
    """
    if not (math.isfinite(delta_sq) and math.isfinite(reference_sq)):
        return math.nan
    if reference_sq == 0.0:
        return math.sqrt(delta_sq)
    return math.sqrt(delta_sq) / math.sqrt(reference_sq)


@dataclass(frozen=True)
class VelocityField:
    """Three real components on a common 3D grid, divergence-free.

    The solenoidal invariant is enforced at construction: the spectral
    divergence must vanish to 1e-8 relative to the coefficient peak.
    """

    grid: TorusGrid
    components: tuple[Field, Field, Field]

    def __post_init__(self) -> None:
        if self.grid.dims != 3:
            raise ValueError("velocity fields live on a 3D grid")
        if len(self.components) != 3:
            raise ValueError("exactly three velocity components required")
        for c in self.components:
            if c.grid != self.grid:
                raise ValueError("velocity components must share the grid")
        object.__setattr__(self, "components", tuple(self.components))
        defect = divergence_defect(self)
        if defect > DIVERGENCE_RTOL:
            raise ValueError(
                f"velocity field is not divergence-free: defect {defect:.3e}"
            )

    @classmethod
    def from_coefficients(cls, grid: TorusGrid, coeff: np.ndarray) -> "VelocityField":
        """Velocity from its (3, N, N, N/2+1) half-spectrum coefficients."""
        return cls(grid, tuple(Field(grid, u) for u in _irfft(coeff, grid)))

    def coefficients(self) -> np.ndarray:
        """Half-spectrum coefficients, shape (3, N, N, N/2+1)."""
        return _rfft(np.stack([c.samples for c in self.components]))

    def energy(self) -> float:
        """Kinetic energy (1/2) integral |u|^2 over the torus."""
        vol = self.grid.length ** self.grid.dims
        return 0.5 * vol * float(
            sum(np.mean(c.samples**2) for c in self.components)
        )

    def max_abs(self) -> float:
        return max(c.max_abs() for c in self.components)

    def scaled(self, factor: float) -> "VelocityField":
        return VelocityField(
            self.grid, tuple(c.scaled(factor) for c in self.components)
        )


def divergence_defect(v: VelocityField) -> float:
    """max_k |k . u_hat(k)| relative to the coefficient peak; 0 for zero."""
    return float(_Symbols(v.grid).divergence_defect(v.coefficients()))


def make_divergence_free(components) -> VelocityField:
    """Leray projection of three scalar fields into a VelocityField."""
    components = tuple(components)
    if len(components) != 3:
        raise ValueError("exactly three components required")
    grid = components[0].grid
    if grid.dims != 3:
        raise ValueError("projection requires a 3D grid")
    from .spectral import inverse_transform, leray_project

    ins = [forward_transform(c) for c in components]
    hats = leray_project(ins)
    peak_in = max(float(np.max(np.abs(h.coefficients))) for h in ins)
    peak_out = max(float(np.max(np.abs(h.coefficients))) for h in hats)
    if peak_in == 0.0 or peak_out <= 1e-13 * peak_in:
        # the projection annihilated the input (a pure gradient): the
        # surviving coefficients are roundoff, so the answer is zero
        zero = Field(grid, np.zeros(grid.shape))
        return VelocityField(grid, (zero, zero, zero))
    fields = tuple(inverse_transform(h) for h in hats)
    return VelocityField(grid, fields)


def taylor_green(grid: TorusGrid, amplitude: float = 1.0) -> VelocityField:
    """The planar vortex A(sin cos, -cos sin, 0); exactly solenoidal."""
    if grid.dims != 3:
        raise ValueError("taylor_green requires a 3D grid")
    x, y, _ = grid.coordinates()
    two_pi = 2.0 * np.pi / grid.length
    u = Field(grid, amplitude * np.sin(two_pi * x) * np.cos(two_pi * y))
    v = Field(grid, -amplitude * np.cos(two_pi * x) * np.sin(two_pi * y))
    w = Field(grid, np.zeros(grid.shape))
    return VelocityField(grid, (u, v, w))


def random_divergence_free(
    grid: TorusGrid, seed: int = 0, max_freq: float = 4.0
) -> VelocityField:
    """Projected band-limited noise; fixed shape for a given seed."""
    comps = [
        generate(CorpusSpec.make("frac_noise", seed=seed + j, s=1.0,
                                 max_freq=max_freq), grid)
        for j in range(3)
    ]
    return make_divergence_free(comps)


def shear_modes(
    grid: TorusGrid, count: int, amplitude: float = 1.0, seed: int = 0
) -> VelocityField:
    """Superposition of frequency-separated shear waves.

    Mode i is a cosine along one axis displacing a perpendicular axis, so
    each summand is exactly solenoidal and a single mode has no
    self-interaction. The distinct frequencies sit at the top of the
    resolved band: pairwise interactions then populate slowly decaying
    low-frequency beats that the linear flow lacks entirely.
    """
    if grid.dims != 3:
        raise ValueError("shear data requires a 3D grid")
    if count < 1:
        raise ValueError("need at least one shear mode")
    top = math.floor(grid.size / 3.0) - 1
    if count > top:
        raise ValueError("shear frequencies would cross the dealiasing cut")
    rng = np.random.default_rng(seed)
    x, y, z = grid.coordinates()
    samples = [np.zeros(grid.shape) for _ in range(3)]
    two_pi = 2.0 * np.pi / grid.length
    for i in range(count):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        freq = top - count + i + 1
        if i % 2 == 0:
            # wavevector (freq, 1, 0), displacement along z
            wave = np.cos(two_pi * (freq * x + y) + phase)
            samples[2] = samples[2] + amplitude * wave
        else:
            # wavevector (freq, 0, 1), displacement along y
            wave = np.cos(two_pi * (freq * x + z) + phase)
            samples[1] = samples[1] + amplitude * wave
    return VelocityField(grid, tuple(Field(grid, s) for s in samples))


# --- traces ---


@dataclass(frozen=True)
class NSTrace:
    """Stored solution nodes 0 < t_1 < ... <= T as a half-spectrum stack.

    ``coefficients`` has shape (nodes, 3, N, N, N/2+1). Every node must be
    divergence-free to 1e-8 relative to its own coefficient peak, the
    invariant VelocityField enforces. For converged unforced runs the
    kinetic energy must be finite and non-increasing along the nodes
    (checked with a tiny slack on the initial scale); diverged Picard
    traces skip the energy check, since they document the non-contraction
    regime rather than a solution.
    """

    grid: TorusGrid
    times: np.ndarray
    coefficients: np.ndarray
    config: dict
    residuals: tuple[float, ...] = ()
    converged: bool = True

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("trace needs at least one time node")
        if times[0] <= 0.0 or np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be positive and strictly increasing")
        coeff = np.asarray(self.coefficients)
        if coeff.ndim != 5 or coeff.shape[0] != times.size:
            raise ValueError("one snapshot per time node required")
        n = self.grid.size
        if self.grid.dims != 3 or coeff.shape[1:] != (3, n, n, n // 2 + 1):
            raise ValueError("coefficient stack does not match the grid")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coefficients", coeff.astype(np.complex128, copy=False))
        defect = float(np.max(self._symbols.divergence_defect(self.coefficients)))
        if defect > DIVERGENCE_RTOL:
            raise ValueError(f"trace is not divergence-free: defect {defect:.3e}")
        if self.converged:
            energies = self.energies()
            if not np.all(np.isfinite(energies)):
                raise ValueError("converged trace has non-finite kinetic energy")
            scale = max(float(self.config.get("initial_energy", energies[0])),
                        energies[0])
            slack = _ENERGY_SLACK * scale
            previous = self.config.get("initial_energy")
            for e in energies:
                if previous is not None and e > previous + slack:
                    raise ValueError("kinetic energy increased along the trace")
                previous = e

    @property
    def _symbols(self) -> "_Symbols":
        return _Symbols(self.grid)

    def energies(self) -> np.ndarray:
        """Kinetic energy per node, by Parseval from the coefficients."""
        vol = self.grid.length ** self.grid.dims
        return 0.5 * vol * self._symbols.power(self.coefficients)

    def component_series(self, j: int) -> TimeSeries:
        return TimeSeries(self.grid, self.times,
                          _irfft(self.coefficients[:, j], self.grid))

    @property
    def snapshots(self) -> tuple[VelocityField, ...]:
        """Every node as a VelocityField, built on each access."""
        return tuple(VelocityField.from_coefficients(self.grid, c)
                     for c in self.coefficients)

    def final(self) -> VelocityField:
        return VelocityField.from_coefficients(self.grid, self.coefficients[-1])


class _Symbols:
    """Per-grid spectral machinery on the half-spectrum layout."""

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        n = grid.size
        full = np.fft.fftfreq(n, d=1.0 / n)
        half = np.arange(n // 2 + 1, dtype=float)
        self.modes = np.stack(np.meshgrid(full, full, half, indexing="ij"))
        # odd symbols vanish on the self-conjugate Nyquist planes
        self.kd = np.where(np.abs(self.modes) == n // 2, 0.0, self.modes)
        ksq = np.sum(self.modes**2, axis=0)
        self.safe_ksq = np.where(ksq > 0.0, ksq, 1.0)
        self.heat_rate = (2.0 * np.pi / grid.length) ** 2 * ksq
        self.dealias = np.all(np.abs(self.modes) < n / 3.0, axis=0)
        # -i k on the kept modes, 0 elsewhere: sign, derivative and the
        # 2/3 cut of the flux in one symbol (projection acts mode-wise,
        # so cutting before it is the same as cutting after)
        self.minus_ik_kept = (-2j * np.pi / grid.length) * self.kd * self.dealias
        # multiplicity of each stored k_z plane in the full spectrum
        self.weight = np.full(n // 2 + 1, 2.0)
        self.weight[[0, -1]] = 1.0

    def propagator(self, dt: float) -> np.ndarray:
        return np.exp(-self.heat_rate * dt)

    def power(self, coeff: np.ndarray) -> np.ndarray:
        """sum |c_k|^2 over the full spectrum of each (3, N, N, N/2+1)
        block in coeff (Parseval: the mean of |u|^2 over the grid)."""
        sq = coeff.real**2 + coeff.imag**2
        return (sq @ self.weight).sum(axis=(-3, -2, -1))

    def divergence_defect(self, coeff: np.ndarray) -> np.ndarray:
        """max_k |k . u_hat(k)| over each block, relative to its peak."""
        parts = [coeff[..., j, :, :, :] for j in range(3)]
        div = np.abs(sum(self.kd[j] * parts[j] for j in range(3)))
        worst = np.max(div, axis=(-3, -2, -1))
        peak = np.max([np.max(np.abs(p), axis=(-3, -2, -1)) for p in parts], axis=0)
        return np.divide(worst, peak, out=np.zeros_like(worst), where=peak != 0.0)

    def nonlinear(self, vhat: np.ndarray) -> np.ndarray:
        """-dealias(P div(u (x) u)) evaluated pseudospectrally."""
        # one transform per component beats a batched call at these sizes
        u = [_irfft(c, self.grid) for c in vhat]
        stress = {}
        for j in range(3):
            for b in range(j, 3):
                # u_j u_b is symmetric: six transforms give all nine entries
                stress[j, b] = stress[b, j] = _rfft(u[j] * u[b])
        ik = self.minus_ik_kept
        flux = np.empty_like(vhat)
        for j in range(3):
            flux[j] = ik[0] * stress[j, 0] + ik[1] * stress[j, 1] + ik[2] * stress[j, 2]
        kd = self.kd
        scale = (kd[0] * flux[0] + kd[1] * flux[1] + kd[2] * flux[2]) / self.safe_ksq
        for j in range(3):
            flux[j] -= kd[j] * scale
        return flux

    def shell_energy_fraction(self, vhat: np.ndarray) -> np.ndarray:
        """Energy fraction in the outermost kept shell of the 2/3 ball,
        per (3, N, N, N/2+1) block of vhat; 0 for a zero block."""
        cut = math.floor(self.grid.size / 3.0)
        shell = self.dealias & np.any(np.abs(self.modes) >= cut, axis=0)
        total = self.power(vhat)
        inner = self.power(np.where(shell, vhat, 0.0))
        return np.divide(inner, total, out=np.zeros_like(total), where=total != 0.0)


def _picard_sweep(sym: _Symbols, u: np.ndarray, ahat: np.ndarray,
                  step: np.ndarray, h: float) -> float:
    """One Picard sweep over the node array u, in place.

    Returns the sup over nodes of the relative L2 update, or inf at the
    first node whose update overflows; that node and the later ones then
    keep their previous iterate.
    """
    prev_b = sym.nonlinear(ahat)
    heat_tail = prev_b  # E_i applied to the s=0 integrand
    running = np.zeros_like(ahat)  # sum_{j=1}^{i-1} E_{i-j} B_j
    lin = ahat
    worst = 0.0
    for i in range(u.shape[0]):
        lin = step * lin
        heat_tail = step * heat_tail
        if i > 0:
            running = step * (running + prev_b)
        b_here = sym.nonlinear(u[i])
        integral = h * (0.5 * heat_tail + running + 0.5 * b_here)
        new = lin + integral
        change = _relative_l2(float(sym.power(new - u[i])),
                              float(sym.power(new)))
        if not math.isfinite(change):
            return math.inf
        u[i] = new
        worst = max(worst, change)
        prev_b = b_here
    return worst


def mild_solve_picard(
    a: VelocityField,
    horizon: float,
    nodes: int = 128,
    max_iter: int = 40,
    tol: float = 1e-10,
    nonlinear: bool = True,
) -> NSTrace:
    """Fixed-point iteration of the integral equation
    u(t) = e^{t L} a + int_0^t e^{(t-s) L} N(u(s)) ds,
    N(u) = -P div(u (x) u), with trapezoidal s-quadrature over the
    stored uniform nodes.

    Starts from the heat flow of a; converged means the sup-over-nodes
    relative L2 update fell below tol. A non-contracting run returns a
    trace flagged converged=False with its residual history intact; a
    sweep whose update overflows ends the solve there with residual inf.

    One array holds the nodes and is updated in place: node i's update
    reads the old iterate only at nodes <= i, each before it is
    overwritten, so this is the same map as a two-array sweep.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if nodes < 32:
        raise ValueError("quadrature needs at least 32 stored nodes")
    grid = a.grid
    sym = _Symbols(grid)
    h = horizon / nodes
    times = h * np.arange(1, nodes + 1)
    step = sym.propagator(h)

    ahat = a.coefficients()
    # u[i] is node i + 1; it starts as the heat flow e^{t L} a
    u = np.empty((nodes,) + ahat.shape, dtype=np.complex128)
    lin = ahat
    for i in range(nodes):
        lin = step * lin
        u[i] = lin

    config = {
        "solver": "picard", "horizon": horizon, "nodes": nodes,
        "viscosity": 1.0, "dealias": "2/3", "max_iter": max_iter,
        "tol": tol, "nonlinear": nonlinear,
        "initial_energy": a.energy(),
    }

    if not nonlinear:
        return NSTrace(grid, times, u, config, residuals=(), converged=True)

    residuals: list[float] = []
    converged = False
    # overflow is expected past the contraction regime: it surfaces as a
    # non-finite residual, which ends the solve as diverged
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            worst = _picard_sweep(sym, u, ahat, step, h)
            residuals.append(worst)
            if not math.isfinite(worst):
                break
            if worst <= tol:
                converged = True
                break

    return NSTrace(
        grid, times, u, config,
        residuals=tuple(residuals), converged=converged,
    )


def step_ifrk4(
    a: VelocityField,
    horizon: float,
    steps: int,
    store: int | None = None,
    nonlinear: bool = True,
) -> NSTrace:
    """Integrating-factor RK4 reference on the projected spectral ODE.

    The stiff viscous factor is integrated exactly, so with the
    nonlinearity disabled each step is the per-mode heat multiplier.
    Snapshots are stored at `store` evenly spaced times (default: every
    step up to 128 nodes).
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    grid = a.grid
    if store is None:
        stride = math.ceil(steps / 128)
        while steps % stride:
            stride += 1
        store = steps // stride
    if steps % store != 0:
        raise ValueError("store count must divide the step count")
    stride = steps // store
    sym = _Symbols(grid)
    dt = horizon / steps
    cfl = a.max_abs() * dt / grid.spacing
    if cfl > 0.5:
        warnings.warn(
            f"advective CFL number {cfl:.3f} exceeds 0.5; reduce the step",
            stacklevel=2,
        )
    full = sym.propagator(dt)
    half = sym.propagator(dt / 2.0)

    vhat = a.coefficients()
    stored = np.empty((store,) + vhat.shape, dtype=np.complex128)
    for n in range(1, steps + 1):
        if nonlinear:
            k1 = sym.nonlinear(vhat)
            k2 = sym.nonlinear(half * (vhat + (dt / 2.0) * k1))
            k3 = sym.nonlinear(half * vhat + (dt / 2.0) * k2)
            k4 = sym.nonlinear(full * vhat + dt * half * k3)
            vhat = full * vhat + (dt / 6.0) * (
                full * k1 + 2.0 * half * (k2 + k3) + k4
            )
        else:
            vhat = full * vhat
        if n % stride == 0:
            stored[n // stride - 1] = vhat
    config = {
        "solver": "ifrk4", "horizon": horizon, "steps": steps,
        "stored": store, "viscosity": 1.0, "dealias": "2/3",
        "nonlinear": nonlinear, "initial_energy": a.energy(),
    }
    times = np.arange(stride, steps + 1, stride) * dt
    return NSTrace(grid, times, stored, config)


def trace_difference(a: NSTrace, b: NSTrace) -> float:
    """Max over shared nodes of the relative L2 velocity difference."""
    if a.grid != b.grid:
        raise ValueError("traces live on different grids")
    if a.times.size != b.times.size or not np.allclose(
        a.times, b.times, rtol=1e-12, atol=0.0
    ):
        raise ValueError("traces store different time nodes")
    sym = _Symbols(a.grid)
    deltas = sym.power(a.coefficients - b.coefficients)
    refs = sym.power(b.coefficients)
    return max(_relative_l2(float(d), float(r)) for d, r in zip(deltas, refs))


def export_trace(trace: NSTrace, directory) -> "Path":
    """Per-node component binaries plus a manifest describing the run.

    Everything except the manifest's ``created`` stamp is a pure function
    of the trace, so repeated exports are byte-identical.
    """
    import datetime
    from pathlib import Path

    from .fieldio import write_field, write_json

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    nodes = []
    for i, (t, snap) in enumerate(zip(trace.times, trace.snapshots)):
        files = []
        for j, comp in enumerate(snap.components):
            name = f"node_{i:03d}_c{j}.bin"
            write_field(comp, directory / name)
            files.append(name)
        nodes.append({"time": float(t), "files": files})
    payload = {
        "grid": {
            "dims": trace.grid.dims,
            "size": trace.grid.size,
            "length": trace.grid.length,
        },
        "config": trace.config,
        "converged": trace.converged,
        "residuals": list(trace.residuals),
        "energies": [float(e) for e in trace.energies()],
        "nodes": nodes,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return write_json(payload, directory / "manifest.json")


# --- norms of data and solutions ---


def initial_data_norm(
    a: VelocityField, alpha: float, horizon: float, boxes: BoxFamily
) -> float:
    """Componentwise sum of the inverse-space data norms."""
    return sum(
        inverse_space_norm(c, alpha, horizon, boxes).value
        for c in a.components
    )


def solution_x_report(
    trace: NSTrace, alpha: float, horizon: float, boxes: BoxFamily
) -> tuple[XSpaceResult, XSpaceResult, XSpaceResult]:
    return tuple(
        x_space_norm(trace.component_series(j), alpha, horizon, boxes)
        for j in range(3)
    )


def solution_x_norm(
    trace: NSTrace, alpha: float, horizon: float, boxes: BoxFamily
) -> float:
    """Componentwise sum of the solution-space norms over the trace."""
    return sum(r.value for r in solution_x_report(trace, alpha, horizon, boxes))


def scaling_defect(
    a: VelocityField,
    horizon: float,
    nodes: int = 64,
    lam: int = 2,
    boxes: BoxFamily | None = None,
) -> float:
    """Deviation from the scaling symmetry u -> lam u(lam x, lam^2 t).

    Solves from a over [0, horizon] and from lam*a(lam .) over
    [0, horizon/lam^2] on the same grid and node count, then compares
    node i of the second run against the rescaled node i of the first.
    Exact on the continuum; on the lattice limited by the dealiasing cut
    acting at different physical frequencies for the two runs.
    """
    from .verify import lattice_rescale

    rescaled = tuple(
        lattice_rescale(c, lam).scaled(float(lam)) for c in a.components
    )
    a_lam = VelocityField(a.grid, rescaled)
    coarse = mild_solve_picard(a, horizon, nodes=nodes)
    fine = mild_solve_picard(a_lam, horizon / lam**2, nodes=nodes)
    if not (coarse.converged and fine.converged):
        raise ValueError("scaling check requires both runs to contract")
    coarse_u = _irfft(coarse.coefficients, a.grid)
    fine_u = _irfft(fine.coefficients, a.grid)
    worst = 0.0
    for i in range(nodes):
        want = np.stack([
            float(lam) * lattice_rescale(Field(a.grid, c), lam).samples
            for c in coarse_u[i]
        ])
        got = fine_u[i]
        worst = max(worst, _relative_l2(float(np.sum((got - want) ** 2)),
                                        float(np.sum(want**2))))
    return worst


# --- probes ---


@dataclass(frozen=True)
class SmallDataRow:
    delta: float
    converged: bool
    x_norm: float
    ratio: float


@dataclass(frozen=True)
class SmallDataReport:
    """Contraction ladder: fixed data shape scaled to data norm delta."""

    alpha: float
    horizon: float
    ratio_max: float
    linear_ratio: float
    rows: tuple[SmallDataRow, ...]

    @property
    def threshold(self) -> float | None:
        """Largest delta whose whole prefix converged with bounded ratio."""
        best = None
        for row in sorted(self.rows, key=lambda r: r.delta):
            if row.delta == 0.0:
                continue
            if row.converged and row.ratio <= self.ratio_max:
                best = row.delta
            else:
                break
        return best

    def passes(self) -> bool:
        return self.threshold is not None

    def to_payload(self) -> dict:
        return {
            "alpha": self.alpha,
            "horizon": self.horizon,
            "ratio_max": self.ratio_max,
            "linear_ratio": self.linear_ratio,
            "threshold": self.threshold,
            "rows": [
                {"delta": r.delta, "converged": r.converged,
                 "x_norm": r.x_norm, "ratio": r.ratio}
                for r in self.rows
            ],
        }


def smalldata_probe(
    deltas,
    alpha: float,
    horizon: float,
    grid: TorusGrid,
    seed: int = 0,
    boxes: BoxFamily | None = None,
    nodes: int = 128,
    ratio_max: float = 4.0,
) -> SmallDataReport:
    """Sweep initial-data amplitudes and record contraction behaviour.

    The data shape is fixed band-limited projected noise; each ladder
    entry rescales it so the initial-data norm equals delta, solves, and
    reports solution_x_norm / delta. The linear-flow ratio (heat
    evolution only) is included as the small-delta limit.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    boxes = boxes if boxes is not None else BoxFamily.default(grid)
    shape = random_divergence_free(grid, seed=seed)
    base = initial_data_norm(shape, alpha, horizon, boxes)
    if base <= 0.0:
        raise ValueError("probe data shape has zero data norm")
    unit = shape.scaled(1.0 / base)

    linear_ratio = solution_x_norm(
        mild_solve_picard(unit, horizon, nodes=nodes, nonlinear=False),
        alpha, horizon, boxes,
    )

    rows = []
    for delta in sorted(float(d) for d in deltas):
        if delta < 0.0:
            raise ValueError("amplitudes must be nonnegative")
        if delta == 0.0:
            rows.append(SmallDataRow(0.0, True, 0.0, 0.0))
            continue
        trace = mild_solve_picard(unit.scaled(delta), horizon, nodes=nodes)
        x_val = solution_x_norm(trace, alpha, horizon, boxes)
        rows.append(
            SmallDataRow(delta, trace.converged, x_val, x_val / delta)
        )
    return SmallDataReport(
        alpha=alpha, horizon=horizon, ratio_max=ratio_max,
        linear_ratio=linear_ratio, rows=tuple(rows),
    )


@dataclass(frozen=True)
class InflationReport:
    """Growth of sup sqrt(t)|u| relative to its linear-flow value."""

    eps: float
    alpha: float
    mode_count: int
    horizon: float
    initial_norm: float
    nonlinear_peak: float
    linear_peak: float
    shell_fraction: float
    resolved: bool

    @property
    def growth_ratio(self) -> float:
        if self.linear_peak == 0.0:
            return math.nan
        return self.nonlinear_peak / self.linear_peak

    def to_payload(self) -> dict:
        return {
            "eps": self.eps,
            "alpha": self.alpha,
            "mode_count": self.mode_count,
            "horizon": self.horizon,
            "initial_norm": self.initial_norm,
            "nonlinear_peak": self.nonlinear_peak,
            "linear_peak": self.linear_peak,
            "growth_ratio": self.growth_ratio,
            "shell_fraction": self.shell_fraction,
            "resolved": self.resolved,
        }


def _sqrt_t_peak(trace: NSTrace) -> float:
    peaks = np.max(np.abs(_irfft(trace.coefficients, trace.grid)),
                   axis=(1, 2, 3, 4))
    return float(np.max(np.sqrt(trace.times) * peaks))


def inflation_probe(
    eps: float,
    alpha: float,
    grid: TorusGrid,
    mode_count: int = 8,
    horizon: float = 0.1,
    steps: int = 200,
    seed: int = 0,
    boxes: BoxFamily | None = None,
) -> InflationReport:
    """Integrate frequency-separated shear data with data norm <= eps.

    A single shear mode has identically zero self-interaction, so
    mode_count=1 is the null control with growth ratio 1; interacting
    superpositions report their measured growth, with no claim attached
    to the figure. Warns when energy reaches the dealiasing shell.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    boxes = boxes if boxes is not None else BoxFamily.default(grid)
    raw = shear_modes(grid, mode_count, seed=seed)
    norm = initial_data_norm(raw, alpha, horizon, boxes)
    data = raw.scaled(eps / norm)

    skew = step_ifrk4(data, horizon, steps)
    heat = step_ifrk4(data, horizon, steps, nonlinear=False)

    shell = float(np.max(_Symbols(grid).shell_energy_fraction(skew.coefficients)))
    resolved = shell <= 1e-6
    if not resolved:
        warnings.warn(
            f"energy fraction {shell:.2e} reached the dealiasing shell",
            stacklevel=2,
        )
    return InflationReport(
        eps=eps, alpha=alpha, mode_count=mode_count, horizon=horizon,
        initial_norm=initial_data_norm(data, alpha, horizon, boxes),
        nonlinear_peak=_sqrt_t_peak(skew), linear_peak=_sqrt_t_peak(heat),
        shell_fraction=shell, resolved=resolved,
    )
