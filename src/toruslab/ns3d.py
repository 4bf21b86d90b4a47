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

The solvers hold only the modes the 2/3 rule keeps (Orszag, J. Atmos.
Sci. 28 (1971)): |k_x|, |k_y| <= K and 0 <= k_z <= K with K = floor(N/3),
the largest integer below N/3 for the power-of-two N of a TorusGrid. Every
state array, symbol and trace stores this block, shape
(2K+1, 2K+1, K+1), with the x and y axes in FFT order [0..K, -K..-1] and
the modes k_z < 0 implied by Hermitian symmetry; Parseval sums weight
the k_z = 0 plane once and every other plane twice. The block holds
27.9% of the rfftn half spectrum at 32^3.

One nonlinear evaluation forms the stress products u_j u_b on the N^3
grid, which zero-pads the block (the 3/2 rule), so the kept modes are
alias-free (Canuto, Hussaini, Quarteroni and Zang, *Spectral Methods*).
The isotropic part of the stress has a pure-gradient divergence, which the
Leray projection removes, so the stress less u_2^2 I gives the same term
from 5 entries: u_0^2 - u_2^2, u_1^2 - u_2^2, u_0 u_1, u_0 u_2 and u_1 u_2
(Basdevant, J. Comput. Phys. 50 (1983) 209-214). Its transforms are
pruned to the block and written as products with small DFT matrices
built once per grid (the dense form of the DFT, Canuto et al. Sec. 2.1):
at these N a line is a few dozen points, where a matrix product costs
less than an FFT call. Each of the 3 inverses maps 2K+1 modes to N points
along x on the (2K+1)(K+1) nonzero lines, then along y on N(K+1) lines,
then K+1 modes to N real samples along z, the Hermitian weights 1, 2, 2,
... folded into that matrix. Each of the 5 forwards, one per stress
entry, runs the same passes back: N real samples to K+1 modes along z,
then N points to 2K+1 modes along x and along y. A contiguous transpose
brings each contracted axis last, and a complex pass is one real float64
matmul on the interleaved view of the complex values.

The matmuls are fed by slab, one gemm per index of the leading axes, so
each gemm is a few hundred thousand multiply-adds through 64^3. OpenBLAS
runs a gemm on one thread below a threshold of its CPU kernel; above it,
it wakes helper threads whose spinning can double the CPU time. Where the
threshold is about 10^6, one slab stays below it through 64^3 (at 128^3
it does not). The Haswell kernel, which DYNAMIC_ARCH picks on AVX2 CPUs,
threads from 2^19 = 524,288, below the 64^3 inverse y-pass slab of
64 x 86 x 128 = 704,512: there one 64^3 evaluation takes about twice the
CPU time of its wall time. The slabs do not depend on the leading shape
either, so a stack of blocks transforms to the same bits as each block
alone.

VelocityField stays on the grid. The solvers take its coefficients
through one crop, which refuses data with a relative L2 above
BLOCK_RTOL outside the block: band-limit the data below N/3. Grid
samples come back through the one pruned inverse, one node at a time:
the X norm of a trace reads each node's samples once, so no series of
every node on the grid is built. The data norm reads its heat rows off
the block the same way, one panel of nodes at a time.

Buffers belong to calls, never to the per-grid ``_Symbols`` that threads
share. ``to_grid`` runs its passes in its output and one ``scratch``,
``from_grid`` in two; a nonlinear evaluation runs its 3 inverses and 5 forwards
in one set of ``nonlinear_buffers``, which a Picard sweep makes once for
all its evaluations; the heat flow fills the node array node by node; the
data norm's heat rows fill one chunk buffer and a trace's node reads one
node buffer. So a Picard sweep, and the X norm of its trace, make no
array larger than a block per evaluation or node, and their speed does not
rest on the allocator keeping freed memory mapped (glibc's dynamic mmap
threshold).

A Picard sweep runs on the calling thread: it evaluates each node's
nonlinear term on the old iterate just before the scan overwrites that
node. The terms of one sweep are independent, but evaluating them on a
thread pool does not pay: on two cores it cut the wall time of a 32^3
solve by about a tenth and cost more CPU than it saved.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import CorpusSpec, generate
from .norms import (
    BoxFamily,
    TimeSeries,
    inverse_space_norm,
    x_space_norm,
)
from .spectral import Field, TorusGrid, forward_transform

DIVERGENCE_RTOL = 1e-8
BLOCK_RTOL = 1e-12
PICARD_TOL = 1e-10
_ENERGY_SLACK = 1e-9


def _interleaved(m: np.ndarray) -> np.ndarray:
    """The real (2a, 2b) matrix that multiplies a row of complex values,
    viewed as 2a interleaved float64, as the complex (a, b) matrix m
    does: [[Re m, Im m], [-Im m, Re m]] with rows and columns interleaved."""
    a, b = m.shape
    out = np.empty((a, 2, b, 2))
    out[:, 0, :, 0] = out[:, 1, :, 1] = m.real
    out[:, 0, :, 1] = m.imag
    out[:, 1, :, 0] = -m.imag
    return out.reshape(2 * a, 2 * b)


def _carved(buffer: np.ndarray, shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
    """The first prod(shape) items of a C-contiguous buffer's memory, viewed
    as dtype and shaped: a pass's array laid over a scratch buffer."""
    return buffer.reshape(-1).view(dtype)[: math.prod(shape)].reshape(shape)


def _cycled(values: np.ndarray, into: np.ndarray) -> np.ndarray:
    """A contiguous copy in ``into``'s memory with the third-last axis moved
    last: (..., A, B, C) -> (..., B, C, A)."""
    lead = values.ndim - 3
    moved = values.transpose(*range(lead), lead + 1, lead + 2, lead)
    out = _carved(into, moved.shape, values.dtype)
    np.copyto(out, moved)
    return out


def _line_pass(lines: np.ndarray, matrix: np.ndarray, into: np.ndarray) -> np.ndarray:
    """Complex rows along the last axis times an _interleaved matrix, written
    to ``into``'s memory. The matmul runs one gemm per slab of the leading
    axes."""
    real = lines.view(np.float64)
    out = _carved(into, real.shape[:-1] + matrix.shape[1:], np.float64)
    return np.matmul(real, matrix, out=out).view(np.complex128)


def _max_divergence(kd, coeff: np.ndarray) -> float:
    """max_k |k . u_hat(k)| of one (3, ...) coefficient array, relative to
    its peak; 0 for zero."""
    worst = float(np.max(np.abs(kd[0] * coeff[0] + kd[1] * coeff[1] + kd[2] * coeff[2])))
    peak = float(np.max(np.abs(coeff)))
    return worst / peak if peak != 0.0 else 0.0


def _node_by_node(method):
    """Let a method of one (3, ...) block take a stack of them too, one
    node at a time, so no temporary is larger than one node."""

    @functools.wraps(method)
    def call(self, coeff: np.ndarray):
        if coeff.ndim == 5:
            return np.array([method(self, c) for c in coeff])
        return method(self, coeff)

    return call


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
        if not defect <= DIVERGENCE_RTOL:  # NaN-safe: a NaN defect is refused
            raise ValueError(
                f"velocity field is not divergence-free: defect {defect:.3e}"
            )

    def coefficients(self) -> np.ndarray:
        """rfftn half-spectrum coefficients on the grid, (3, N, N, N/2+1)."""
        samples = np.stack([c.samples for c in self.components])
        return np.fft.rfftn(samples, axes=(-3, -2, -1), norm="forward")

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
    """max_k |k . u_hat(k)| over the whole half spectrum, relative to the
    coefficient peak; 0 for zero. Odd symbols vanish on Nyquist planes."""
    half = v.grid.size // 2 + 1
    kd = [k[..., :half] for k in v.grid.derivative_modes]
    return _max_divergence(kd, v.coefficients())


def _block_coefficients(a: VelocityField) -> np.ndarray:
    """The coefficients of a on the kept block, shape (3, 2K+1, 2K+1, K+1).

    The one way into the solvers, which drop every other mode: data whose
    relative L2 outside the block is above BLOCK_RTOL is refused.
    """
    sym = _symbols(a.grid)
    n, k = a.grid.size, sym.cut
    rest = a.coefficients()
    block = np.empty((3,) + sym.shape, dtype=np.complex128)
    corners = ((slice(0, k + 1), slice(0, k + 1)), (slice(n - k, n), slice(k + 1, None)))
    for gx, bx in corners:
        for gy, by in corners:
            block[:, bx, by] = rest[:, gx, gy, : k + 1]
            rest[:, gx, gy, : k + 1] = 0.0
    weight = np.full(n // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    outside = float(((rest.real**2 + rest.imag**2) @ weight).sum())
    rel = _relative_l2(outside, outside + sym.power(block))
    if not rel <= BLOCK_RTOL:  # NaN-safe: an overflowed energy is refused
        raise ValueError(
            f"velocity data has relative L2 {rel:.3e} outside the kept 2/3 "
            f"block |k_j| <= {k}; band-limit it below N/3 = {n / 3.0:.4g}"
        )
    return block


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
    """Stored solution nodes 0 < t_1 < ... <= T as a kept-block stack.

    ``coefficients`` has shape (nodes, 3, 2K+1, 2K+1, K+1), the layout of
    the module docstring. Every node must be divergence-free to 1e-8
    relative to its own coefficient peak, the invariant VelocityField
    enforces. For converged unforced runs the kinetic energy must be finite
    and non-increasing along the nodes (checked with a tiny slack on the
    initial scale); diverged Picard traces skip the energy check, since
    they document the non-contraction regime rather than a solution.
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
        if self.grid.dims != 3:
            raise ValueError("traces live on a 3D grid")
        block = (3,) + self._symbols.shape
        if coeff.shape[1:] != block:
            raise ValueError(
                f"coefficient stack {coeff.shape[1:]} does not match the grid's "
                f"kept 2/3 block {block}"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coefficients", coeff.astype(np.complex128, copy=False))
        defect = float(np.max(self._symbols.divergence_defect(self.coefficients)))
        if not defect <= DIVERGENCE_RTOL:  # NaN-safe: a NaN defect is refused
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
        return _symbols(self.grid)

    def energies(self) -> np.ndarray:
        """Kinetic energy per node, by Parseval from the coefficients."""
        vol = self.grid.length ** self.grid.dims
        return 0.5 * vol * self._symbols.power(self.coefficients)

    def component_series(self, j: int) -> TimeSeries:
        """Grid samples of component j at every node. Reading node i runs its
        pruned inverse then, so the series is never held whole."""
        samples = _NodeSamples(self._symbols, self.coefficients[:, j])
        return TimeSeries(self.grid, self.times, samples)


class _NodeSamples(Sequence):
    """Grid samples of a stack of scalar blocks; item i transforms block i
    when it is read, into one node buffer, so it is the caller's only until
    the next item is read."""

    def __init__(self, sym: "_Symbols", blocks: np.ndarray):
        self._sym, self._blocks = sym, blocks
        self._samples, self._work = np.empty(sym._grid_shape), sym.scratch()

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, i):
        return self._sym.to_grid(self._blocks[i], out=self._samples, work=self._work)


class _Symbols:
    """Per-grid spectral machinery on the kept block (module docstring).
    Its tables are read-only; ``_symbols`` shares one per grid."""

    def __init__(self, grid: TorusGrid):
        # N is a power of two, so |k| < N/3 is |k| <= floor(N/3)
        self.cut = k = grid.size // 3
        self.shape = (2 * k + 1, 2 * k + 1, k + 1)
        side = np.concatenate((np.arange(k + 1), np.arange(-k, 0))).astype(float)
        # K < N/2: the block has no self-conjugate Nyquist plane, so the
        # derivative symbols are the modes themselves
        self.kd = np.stack(np.meshgrid(side, side, np.arange(k + 1.0), indexing="ij"))
        ksq = np.sum(self.kd**2, axis=0)
        self.heat_rate = (2.0 * np.pi / grid.length) ** 2 * ksq
        # the real symbols of the flux, repeated for the real and imaginary
        # float of each mode, and the factor -2 pi i / L that they leave out
        self._kd_pairs = np.repeat(self.kd, 2, axis=-1)
        self._ksq_pairs = np.repeat(np.where(ksq > 0.0, ksq, 1.0), 2, axis=-1)
        self._flux_factor = -2j * np.pi / grid.length
        # multiplicity of each stored k_z plane in the full spectrum
        self.weight = np.full(k + 1, 2.0)
        self.weight[0] = 1.0
        n = grid.size
        self._grid_shape = grid.shape
        self._pass_items = n * n * (k + 1)
        # e^{2 pi i k x / N} per mode and grid point, the phase reduced mod N
        points = np.arange(n)
        side_exp = np.exp((2j * np.pi / n) * np.mod(np.outer(side, points), n))
        z_exp = side_exp[: k + 1]
        self._expand = _interleaved(side_exp)
        self._reduce = _interleaved(side_exp.conj().T / n)
        # the z pass keeps the real part of the weighted half-spectrum sum
        # and takes real samples in: every other column, every other row
        self._z_expand = np.ascontiguousarray(_interleaved(self.weight[:, None] * z_exp)[:, 0::2])
        self._z_reduce = np.ascontiguousarray(_interleaved(z_exp.conj().T / n)[0::2])
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)

    def propagator(self, dt: float) -> np.ndarray:
        return np.exp(-self.heat_rate * dt)

    def heat_flow(self, ahat: np.ndarray, times: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        """e^{-rate t} ahat at each time, shape (times, *ahat.shape): the
        linear flow in closed form, filled one node at a time into ``out``,
        or into an array made for the call if not given."""
        flow = np.empty((times.size,) + ahat.shape, dtype=np.complex128) if out is None else out
        decay = np.empty(self.shape)
        for node, t in zip(flow, times):
            np.exp(np.multiply(-t, self.heat_rate, out=decay), out=decay)
            np.multiply(decay, ahat, out=node)
        return flow

    @_node_by_node
    def power(self, coeff: np.ndarray) -> float:
        """sum |c_k|^2 over the full spectrum of a (3, ...) block
        (Parseval: the mean of |u|^2 over the grid)."""
        # one component's square at a time, summed over k_z into its rows:
        # the gemvs and the sum of the whole square, with a third of its
        # scratch
        rows = np.empty(coeff.shape[:-1])
        for c, row in zip(coeff, rows):
            sq = np.square(c.real)
            sq += np.square(c.imag)  # in place: one scratch array beside the square
            np.matmul(sq, self.weight, out=row)
        return float(rows.sum())

    @_node_by_node
    def divergence_defect(self, coeff: np.ndarray) -> float:
        """max_k |k . u_hat(k)| of a block, relative to its peak."""
        return _max_divergence(self.kd, coeff)

    def scratch(self, lead: tuple[int, ...] = ()) -> np.ndarray:
        """Scratch for the middle passes of ``to_grid`` and ``from_grid`` on
        blocks of leading shape ``lead``: the largest of them, N^2 (K+1)
        complex values per block."""
        return np.empty(lead + (self._pass_items,), dtype=np.complex128)

    def to_grid(self, coeff: np.ndarray, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
        """Grid samples (..., N, N, N) of block coefficients: the pruned
        inverse as three matrix passes (module docstring), in ``out``.

        The passes alternate between ``work`` (a ``scratch``) and ``out``,
        which holds each middle pass since 2 (K+1) <= N; either is made for
        the call if not given."""
        lead = coeff.shape[:-3]
        out = np.empty(lead + self._grid_shape) if out is None else out
        work = self.scratch(lead) if work is None else work
        lines = _line_pass(_cycled(coeff, work), self._expand, out)  # (..., y, z, X)
        lines = _line_pass(_cycled(lines, work), self._expand, out)  # (..., z, X, Y)
        return np.matmul(_cycled(lines, work).view(np.float64), self._z_expand, out=out)

    def from_grid(self, samples: np.ndarray, out: np.ndarray | None = None,
                  work: np.ndarray | None = None,
                  spare: np.ndarray | None = None) -> np.ndarray:
        """Block coefficients of grid samples (..., N, N, N): the pruned
        forward as three matrix passes (module docstring), in ``out``.

        The passes alternate between ``work`` and ``spare``, two
        ``scratch``es; ``spare`` may be ``samples`` itself, which the first
        pass reads whole. Any buffer not given is made for the call."""
        lead = samples.shape[:-3]
        out = np.empty(lead + self.shape, dtype=np.complex128) if out is None else out
        work = self.scratch(lead) if work is None else work
        spare = self.scratch(lead) if spare is None else spare
        planes = np.matmul(samples, self._z_reduce,
                           out=_carved(work, samples.shape[:-1] + self._z_reduce.shape[1:],
                                       np.float64)).view(np.complex128)  # (..., X, Y, z)
        rows = _line_pass(_cycled(planes, spare), self._reduce, work)  # (..., Y, z, x)
        rows = _line_pass(_cycled(rows, spare), self._reduce, work)  # (..., z, x, y)
        return _cycled(rows, out)

    def heat_rows(self, coeff: np.ndarray, times: np.ndarray,
                  unit: int) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield (rows, grid samples of e^{-rate t} coeff at t = times[rows])
        for a scalar block, ``unit`` rows at a time: the ``heat_rows`` of
        ``norms.inverse_space_norm`` from the block. Every chunk fills one
        buffer, so each array is the caller's only until the next chunk is
        drawn."""
        lead = (min(unit, times.size),)
        samples = np.empty(lead + self._grid_shape)
        flowed = np.empty(lead + self.shape, dtype=np.complex128)
        work = self.scratch(lead)
        for lo in range(0, times.size, unit):
            rows = slice(lo, min(lo + unit, times.size))
            m = rows.stop - lo
            self.heat_flow(coeff, times[rows], out=flowed[:m])
            yield rows, self.to_grid(flowed[:m], out=samples[:m], work=work[:m])

    def nonlinear_buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The buffers one ``nonlinear`` evaluation runs in: the three
        velocity components and one product on the grid, one ``scratch``
        and the five stress entries."""
        return (np.empty((4,) + self._grid_shape), self.scratch(),
                np.empty((5,) + self.shape, dtype=np.complex128))

    def nonlinear(self, vhat: np.ndarray, out: np.ndarray | None = None,
                  buffers: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
        """-P div(u (x) u) on the block, evaluated pseudospectrally from the
        five entries of the stress less u_2^2 I (module docstring), in
        ``out`` if given.

        Every pass runs in ``buffers``, a ``nonlinear_buffers`` that a
        caller evaluating many terms passes to each, or one made for the
        call; a product, or a diagonal entry's component, is the spare of
        its own forward."""
        grid, work, stress = self.nonlinear_buffers() if buffers is None else buffers
        u0, u1, u2, product = grid
        s00, s11, s01, s02, s12 = stress
        # one component at a time: a batched call would hold every
        # component's transform intermediates at once
        for c, u in zip(vhat, (u0, u1, u2)):
            self.to_grid(c, out=u, work=work)
        for s, (x, y) in zip((s01, s02, s12), ((u0, u1), (u0, u2), (u1, u2))):
            self.from_grid(np.multiply(x, y, out=product), out=s, work=work, spare=product)
        # the diagonal entries in place: no product above reads u again
        w = np.square(u2, out=u2)
        for s, u in ((s00, u0), (s11, u1)):
            self.from_grid(np.subtract(np.square(u, out=u), w, out=u), out=s, work=work, spare=u)
        # sum_b k_b S_jb and its projection have real symbols: they run on
        # the float64 views, and -2 pi i / L multiplies the result once;
        # each product and the projection's scale go to spent grid buffers
        kd = self._kd_pairs
        term, scale = (_carved(g, kd.shape[1:], np.float64) for g in (product, u0))
        s00, s11, s01, s02, s12 = (s.view(np.float64) for s in stress)
        flux = np.empty_like(vhat) if out is None else out
        div = flux.view(np.float64)
        for j, row in enumerate(((s00, s01, s02), (s01, s11, s12), (s02, s12))):
            np.multiply(kd[0], row[0], out=div[j])
            for b in range(1, len(row)):
                div[j] += np.multiply(kd[b], row[b], out=term)
        # (k0 d0 + k1 d1 + k2 d2) / |k|^2, operand for operand
        np.multiply(kd[0], div[0], out=scale)
        for b in (1, 2):
            scale += np.multiply(kd[b], div[b], out=term)
        scale /= self._ksq_pairs
        for j in range(3):
            div[j] -= np.multiply(kd[j], scale, out=term)
        flux *= self._flux_factor
        return flux

    @_node_by_node
    def shell_energy_fraction(self, vhat: np.ndarray) -> float:
        """Energy fraction of a block in the outermost kept shell, some
        |k_j| = K; 0 for a zero block."""
        shell = np.any(np.abs(self.kd) == self.cut, axis=0)
        total = self.power(vhat)
        inner = self.power(np.where(shell, vhat, 0.0))
        return inner / total if total != 0.0 else 0.0


@functools.lru_cache(maxsize=4)
def _symbols(grid: TorusGrid) -> _Symbols:
    """The one shared _Symbols of a grid."""
    return _Symbols(grid)


def _picard_sweep(sym: _Symbols, u: np.ndarray, ahat: np.ndarray, b0: np.ndarray,
                  step: np.ndarray, h: float) -> float:
    """One Picard sweep over the node array u, in place; b0 is the data's
    nonlinear term N(a), which no sweep changes. N(u[i]) is evaluated on
    the old iterate, before node i is overwritten.

    Returns the sup over nodes of the relative L2 update, or inf at the
    first node whose update overflows; that node and the later ones then
    keep their previous iterate.
    """
    heat_tail = b0.copy()  # E_i applied to the s=0 integrand
    running = np.zeros_like(ahat)  # sum_{j=1}^{i-1} E_{i-j} B_j
    lin = ahat.copy()
    new, scratch = np.empty_like(ahat), np.empty_like(ahat)
    # B_i = N(u[i]); the running sum takes B_{i-1} before B_i overwrites it
    b_here = np.empty_like(ahat)
    buffers = sym.nonlinear_buffers()  # every evaluation of the sweep runs in these
    worst = 0.0
    # each line is the one-expression form evaluated in place, operand for
    # operand: new = lin + h * (0.5 heat_tail + running + 0.5 b_here)
    for i in range(u.shape[0]):
        np.multiply(step, lin, out=lin)
        np.multiply(step, heat_tail, out=heat_tail)
        if i > 0:
            np.multiply(step, np.add(running, b_here, out=running), out=running)
        sym.nonlinear(u[i], out=b_here, buffers=buffers)
        np.add(np.multiply(0.5, heat_tail, out=new), running, out=new)
        np.add(new, np.multiply(0.5, b_here, out=scratch), out=new)
        np.add(lin, np.multiply(h, new, out=new), out=new)
        change = _relative_l2(sym.power(np.subtract(new, u[i], out=scratch)),
                              sym.power(new))
        if not math.isfinite(change):
            return math.inf
        u[i] = new
        worst = max(worst, change)
    return worst


def mild_solve_picard(
    a: VelocityField,
    horizon: float,
    nodes: int = 128,
    max_iter: int = 40,
    nonlinear: bool = True,
) -> NSTrace:
    """Fixed-point iteration of the integral equation
    u(t) = e^{t L} a + int_0^t e^{(t-s) L} N(u(s)) ds,
    N(u) = -P div(u (x) u), with trapezoidal s-quadrature over the
    stored uniform nodes.

    Starts from the heat flow of a; converged means the sup-over-nodes
    relative L2 update fell below PICARD_TOL. A non-contracting run returns a
    trace flagged converged=False with its residual history intact; a
    sweep whose update overflows ends the solve there with residual inf.
    Data outside the kept 2/3 block is refused (ValueError).

    One array holds the nodes and is updated in place: node i's update
    reads the old iterate only at nodes <= i, each before it is
    overwritten, so this is the same map as a two-array sweep.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if nodes < 32:
        raise ValueError("quadrature needs at least 32 stored nodes")
    grid = a.grid
    ahat = _block_coefficients(a)
    sym = _symbols(grid)
    h = horizon / nodes
    times = h * np.arange(1, nodes + 1)
    config = {
        "solver": "picard", "horizon": horizon, "nodes": nodes,
        "viscosity": 1.0, "dealias": "2/3", "max_iter": max_iter,
        "tol": PICARD_TOL, "nonlinear": nonlinear,
        # before the nodes: its grid square adds nothing to their peak
        "initial_energy": a.energy(),
    }
    # u[i] is node i + 1; it starts as the heat flow e^{t L} a
    u = sym.heat_flow(ahat, times)

    if not nonlinear:
        return NSTrace(grid, times, u, config, residuals=(), converged=True)

    # complex once, rather than cast at every product: the same bits
    step = sym.propagator(h).astype(np.complex128)
    residuals: list[float] = []
    converged = False
    # overflow is expected past the contraction regime: it surfaces as a
    # non-finite residual, which ends the solve as diverged
    with np.errstate(over="ignore", invalid="ignore"):
        b0 = sym.nonlinear(ahat)
        for _ in range(max_iter):
            worst = _picard_sweep(sym, u, ahat, b0, step, h)
            residuals.append(worst)
            if not math.isfinite(worst):
                break
            if worst <= PICARD_TOL:
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
    nonlinear: bool = True,
) -> NSTrace:
    """Integrating-factor RK4 reference on the projected spectral ODE.

    The stiff viscous factor is integrated exactly, so with the
    nonlinearity disabled the trace is the heat flow in closed form.
    Every ceil(steps/128)-th step and the last step are stored, at most 128
    nodes. Data outside the kept 2/3 block is refused.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    grid = a.grid
    stride = math.ceil(steps / 128)
    vhat = _block_coefficients(a)
    sym = _symbols(grid)
    dt = horizon / steps
    times = np.append(np.arange(stride, steps, stride), steps) * dt
    config = {
        "solver": "ifrk4", "horizon": horizon, "steps": steps,
        "stored": times.size, "viscosity": 1.0, "dealias": "2/3",
        "nonlinear": nonlinear, "initial_energy": a.energy(),
    }
    if not nonlinear:
        return NSTrace(grid, times, sym.heat_flow(vhat, times), config)
    # only the advective step is bound by the CFL number
    cfl = a.max_abs() * dt / grid.spacing
    if cfl > 0.5:
        warnings.warn(
            f"advective CFL number {cfl:.3f} exceeds 0.5; reduce the step",
            stacklevel=2,
        )
    full = sym.propagator(dt)
    half = sym.propagator(dt / 2.0)
    stored = np.empty((times.size,) + vhat.shape, dtype=np.complex128)
    for n in range(1, steps + 1):
        k1 = sym.nonlinear(vhat)
        k2 = sym.nonlinear(half * (vhat + (dt / 2.0) * k1))
        k3 = sym.nonlinear(half * vhat + (dt / 2.0) * k2)
        k4 = sym.nonlinear(full * vhat + dt * half * k3)
        vhat = full * vhat + (dt / 6.0) * (
            full * k1 + 2.0 * half * (k2 + k3) + k4
        )
        if n % stride == 0 or n == steps:
            stored[(n - 1) // stride] = vhat
    return NSTrace(grid, times, stored, config)


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
    for i, (t, coeff) in enumerate(zip(trace.times, trace.coefficients)):
        files = []
        # the trace was checked on the block, so no VelocityField is rebuilt
        for j, samples in enumerate(trace._symbols.to_grid(coeff)):
            name = f"node_{i:03d}_c{j}.bin"
            write_field(Field(trace.grid, samples), directory / name)
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
        # an overflowed sweep's residual is inf, which JSON cannot hold
        "residuals": [r if math.isfinite(r) else None for r in trace.residuals],
        "energies": [float(e) for e in trace.energies()],
        "nodes": nodes,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return write_json(payload, directory / "manifest.json")


# --- norms of data and solutions ---


def initial_data_norm(
    a: VelocityField, alpha: float, horizon: float, boxes: BoxFamily
) -> float:
    """Componentwise sum of the inverse-space data norms.

    Each component's heat rows come from its kept-block coefficients, mean
    mode zeroed, through the pruned inverse (``_Symbols.heat_rows``); the
    walk and the box sup are ``inverse_space_norm``'s. Data outside the
    block is refused (ValueError), as the solvers refuse it.
    """
    sym = _symbols(a.grid)
    block = _block_coefficients(a)
    block[:, 0, 0, 0] = 0.0
    return sum(
        inverse_space_norm(c, alpha, horizon, boxes, functools.partial(sym.heat_rows, b)).value
        for c, b in zip(a.components, block)
    )


def solution_x_norm(
    trace: NSTrace, alpha: float, horizon: float, boxes: BoxFamily
) -> float:
    """Componentwise sum of the solution-space norms over the trace."""
    return sum(x_space_norm(trace.component_series(j), alpha, horizon, boxes).value
               for j in range(3))


# --- probes ---


@dataclass(frozen=True)
class SmallDataRow:
    """One ladder rung; a rung whose solve diverged has no X-norm (None)."""

    delta: float
    converged: bool
    x_norm: float | None
    ratio: float | None


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
        return asdict(self) | {"threshold": self.threshold}


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
    evolution only) is included as the small-delta limit. A rung whose
    solve diverged reports no X-norm and no ratio: its last iterate is not
    a solution. Each solve runs on the calling thread.
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
        converged = trace.converged
        x_val = solution_x_norm(trace, alpha, horizon, boxes) if converged else None
        del trace  # free this rung's nodes before the next rung solves
        rows.append(SmallDataRow(delta, converged, x_val,
                                 x_val / delta if converged else None))
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
        return asdict(self) | {"growth_ratio": self.growth_ratio}


def _sqrt_t_peak(trace: NSTrace) -> float:
    sym = trace._symbols
    return max(math.sqrt(t) * float(np.max(np.abs(sym.to_grid(c))))
               for t, c in zip(trace.times, trace.coefficients))


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

    shell = float(np.max(_symbols(grid).shell_energy_fraction(skew.coefficients)))
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
