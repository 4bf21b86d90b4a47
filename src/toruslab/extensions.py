"""Space-time extension stacks over dyadic Gauss-Legendre time meshes.

A stack holds u(x, t) together with its full space-time gradient at every
quadrature node, for u either the Poisson or the heat extension of a
mean-zero trace. The fractional lift computes (-Lap)^(-alpha/2) u by
integrating u(x, t+s) s^(alpha-1) ds along the extension, with a certified
truncation tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fieldio import write_field, write_json
from .spectral import (
    Field,
    SpectralField,
    TorusGrid,
    forward_transform,
    frac_laplacian_power,
    inverse_transform,
)

VALID_KINDS = ("poisson", "heat")

# Cap on the grid points one batched transform covers (2 MB as complex).
# Every 1-D mesh fits in one chunk; on 2-D and 3-D grids a chunk holds a
# few rows, so temporaries stay bounded however many nodes a mesh has.
CHUNK_POINTS = 2**17


def row_chunks(rows: int, grid: TorusGrid, unit: int = 1) -> Iterator[slice]:
    """Slices covering range(rows) for transforms batched over grid fields.

    Each slice holds whole groups of ``unit`` consecutive rows and at most
    CHUNK_POINTS grid points, but never less than one group. Pocketfft
    transforms every row on its own, so batching leaves each bit unchanged.
    """
    step = unit * max(1, CHUNK_POINTS // (unit * grid.point_count))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


@dataclass(frozen=True)
class TimeMesh:
    """Dyadic panels [top*2^-(m+1), top*2^-m] with Gauss-Legendre nodes.

    Nodes are stored in ascending order, so the m smallest panels occupy a
    prefix of the node array. ``top`` is the box height: r for linear boxes,
    r^2 for parabolic ones.
    """

    top: float
    panels: int = 20
    nodes_per_panel: int = 8

    def __post_init__(self) -> None:
        if not (np.isfinite(self.top) and self.top > 0):
            raise ValueError(f"mesh top must be positive, got {self.top}")
        if self.panels < 1:
            raise ValueError("mesh needs at least one panel")
        if not (1 <= self.nodes_per_panel <= 64):
            raise ValueError("nodes_per_panel out of range")

    @property
    def floor(self) -> float:
        return self.top * 2.0 ** (-self.panels)

    @property
    def node_count(self) -> int:
        return self.panels * self.nodes_per_panel

    @cached_property
    def _nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        ref_x, ref_w = leggauss(self.nodes_per_panel)
        nodes = np.empty(self.node_count)
        weights = np.empty(self.node_count)
        # Ascending: panel m = panels-1 (smallest) first.
        for pos, m in enumerate(range(self.panels - 1, -1, -1)):
            hi = self.top * 2.0 ** (-m)
            lo = hi / 2.0
            mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
            sl = slice(pos * self.nodes_per_panel, (pos + 1) * self.nodes_per_panel)
            nodes[sl] = mid + half * ref_x
            weights[sl] = half * ref_w
        nodes.flags.writeable = False
        weights.flags.writeable = False
        return nodes, weights

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes_weights[0]

    @property
    def weights(self) -> np.ndarray:
        return self._nodes_weights[1]

    def aligned_cut(self, upper: float) -> int:
        """Node count covering (floor, upper] for upper = top*2^-m exactly."""
        if not (0 < upper <= self.top * (1 + 1e-12)):
            raise ValueError(f"cut {upper} outside (0, {self.top}]")
        m = round(math.log2(self.top / upper))
        if m < 0 or m > self.panels or not math.isclose(
            upper, self.top * 2.0 ** (-m), rel_tol=1e-9
        ):
            raise ValueError(f"cut {upper} is not a dyadic fraction of {self.top}")
        return (self.panels - m) * self.nodes_per_panel


def _extension_rate(grid: TorusGrid, kind: str) -> np.ndarray:
    """Per-mode decay rate: u_hat(k, t) = exp(-rate t) f_hat(k)."""
    if kind == "poisson":
        return (2.0 * np.pi / grid.length) * grid.mode_norm
    if kind == "heat":
        return (2.0 * np.pi / grid.length) ** 2 * grid.mode_square
    raise ValueError(f"kind must be one of {VALID_KINDS}, got {kind!r}")


@dataclass(frozen=True)
class ExtensionStack:
    grid: TorusGrid
    kind: str
    mesh: TimeMesh
    trace: SpectralField
    values: np.ndarray  # (nodes, *shape)
    grad_x: np.ndarray  # (nodes, dims, *shape)
    grad_t: np.ndarray  # (nodes, *shape)
    meta: dict = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return self.values.shape[0]

    def value_field(self, index: int) -> Field:
        return Field(self.grid, self.values[index])

    def gradient_square(self, full: bool = True) -> np.ndarray:
        """|grad_x u|^2 (+ |d_t u|^2 when full) at every node, shape (nodes, *shape)."""
        out = np.einsum("mj...,mj...->m...", self.grad_x, self.grad_x)
        if full:
            out += self.grad_t**2
        return out

    def sup_abs_value(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


def build_stack(f: Field, kind: str, mesh: TimeMesh) -> ExtensionStack:
    """Evaluate the extension and its full gradient at every mesh node.

    Nodes are transformed in ``row_chunks``: one inverse transform per
    chunk for each of ``values``, ``grad_t`` and every ``grad_x[:, j]``,
    copied into the preallocated output. Besides the returned arrays and
    the per-mode symbols, at most four complex chunk-sized temporaries are
    alive at once: the chunk's coefficients, one symbol product, and the
    transform's output with its per-axis intermediate.
    """
    if kind not in VALID_KINDS:
        raise ValueError(f"kind must be one of {VALID_KINDS}, got {kind!r}")
    peak = f.max_abs()
    if abs(f.mean()) > 1e-12 * max(peak, 1e-300):
        raise ValueError("build_stack requires a mean-zero trace; remove the mean first")
    grid = f.grid
    trace = forward_transform(f)
    neg_rate = -_extension_rate(grid, kind)
    # symbols of d/dt, then of each d/dx_j, acting on the coefficients
    symbols = [neg_rate] + [2j * np.pi / grid.length * grid.derivative_modes[j]
                            for j in range(grid.dims)]
    nodes = mesh.nodes
    m = nodes.size

    values = np.empty((m,) + grid.shape)
    grad_x = np.empty((m, grid.dims) + grid.shape)
    grad_t = np.empty((m,) + grid.shape)
    axes = tuple(range(1, grid.dims + 1))
    base = trace.coefficients
    for sl in row_chunks(m, grid):
        t_chunk = nodes[sl].reshape((-1,) + (1,) * grid.dims)
        coeff = np.exp(neg_rate[np.newaxis] * t_chunk) * base[np.newaxis]
        values[sl] = np.fft.ifftn(coeff, axes=axes, norm="forward").real
        work = np.empty_like(coeff)
        targets = [grad_t[sl]] + [grad_x[sl, j] for j in range(grid.dims)]
        for symbol, target in zip(symbols, targets):
            np.multiply(symbol, coeff, out=work)
            target[...] = np.fft.ifftn(work, axes=axes, norm="forward").real
        # free this chunk's buffers before the next chunk allocates its own
        del coeff, work

    for arr in (values, grad_x, grad_t):
        arr.flags.writeable = False
    return ExtensionStack(grid=grid, kind=kind, mesh=mesh, trace=trace,
                          values=values, grad_x=grad_x, grad_t=grad_t)


def zero_time_gradient_square(stack: ExtensionStack, full: bool = True) -> np.ndarray:
    """t -> 0+ limit of |grad u|^2 per grid point, from the trace symbols.

    For band-limited traces the gradient stays bounded down to t = 0, which
    is what certifies the quadrature truncation below the mesh floor.
    """
    grid = stack.grid
    symbols = [2j * np.pi / grid.length * grid.derivative_modes[j] for j in range(grid.dims)]
    if full:
        symbols.append(-_extension_rate(grid, stack.kind))
    grads = np.fft.ifftn(np.stack(symbols) * stack.trace.coefficients,
                         axes=tuple(range(1, grid.dims + 1)), norm="forward").real
    acc = np.zeros(grid.shape)
    for g in grads:
        acc += g**2
    return acc


def frac_lift_subordination(
    stack: ExtensionStack, alpha: float, s_cut: float | None = None
) -> ExtensionStack:
    """Lift a Poisson stack to the stack of (-Lap)^(-alpha/2) u.

    Computes Gamma(alpha)^-1 * integral_0^s_cut u(x, t+s) s^(alpha-1) ds.
    Per mode the integral factorizes into a multiplier on the trace, so the
    lifted stack is rebuilt exactly from the lifted trace. The neglected
    s > s_cut tail is bounded analytically and reported in
    ``meta["subordination_tail_bound"]``.
    """
    if stack.kind != "poisson":
        raise ValueError("subordination lift is defined for poisson stacks only")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    grid = stack.grid
    if s_cut is None:
        s_cut = 3.0 * grid.length
    if s_cut <= 0:
        raise ValueError("s_cut must be positive")

    s_mesh = TimeMesh(top=s_cut, panels=32, nodes_per_panel=8)
    mu = _extension_rate(grid, "poisson")
    gamma = math.gamma(alpha)
    mult = np.zeros(grid.shape)
    for s, w in zip(s_mesh.nodes, s_mesh.weights):
        mult += (w * s ** (alpha - 1.0)) * np.exp(-mu * s)
    # Below the s-floor, exp(-mu s) ~ 1 to within mu*floor <= 1e-5.
    mult += s_mesh.floor**alpha / alpha
    mult /= gamma

    lifted = stack.trace.coefficients * mult
    origin = (0,) * grid.dims
    lifted[origin] = 0.0

    # integral_{s_cut}^inf e^{-mu s} s^(alpha-1) ds <= s_cut^(alpha-1) e^{-mu s_cut}/mu.
    abs_coeff = np.abs(stack.trace.coefficients)
    abs_coeff = np.where(mu > 0, abs_coeff, 0.0)
    mu_min = 2.0 * np.pi / grid.length
    tail = float(np.sum(abs_coeff * np.exp(-mu * s_cut)))
    tail_bound = tail * s_cut ** (alpha - 1.0) / (gamma * mu_min)

    lifted_field = inverse_transform(SpectralField(grid, lifted))
    out = build_stack(lifted_field, "poisson", stack.mesh)
    out.meta["subordination_tail_bound"] = tail_bound
    out.meta["subordination_alpha"] = alpha
    out.meta["subordination_s_cut"] = s_cut
    return out


def frac_lift_spectral(stack: ExtensionStack, alpha: float) -> ExtensionStack:
    """Lift any stack by the spectral power (-Lap)^(-alpha/2) of its trace."""
    lifted = frac_laplacian_power(stack.trace, -alpha)
    return build_stack(inverse_transform(lifted), stack.kind, stack.mesh)


def gradient_bound_ratio(stack: ExtensionStack, alpha: float, h_norm: float) -> float:
    """Empirical constant sup t^(1-alpha) |grad u| / h_norm over all nodes."""
    if not (-1.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (-1, 1), got {alpha}")
    if not (np.isfinite(h_norm) and h_norm > 0):
        raise ValueError("gradient bound ratio needs a positive norm")
    grad_mag = np.sqrt(stack.gradient_square(full=True))
    per_node = grad_mag.reshape(stack.node_count, -1).max(axis=1)
    t = stack.mesh.nodes
    return float(np.max(t ** (1.0 - alpha) * per_node)) / h_norm


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


def _torus_distance(grid: TorusGrid, x: np.ndarray, x0: np.ndarray) -> np.ndarray:
    diff = np.abs(x - x0)
    return np.minimum(diff, grid.length - diff)


def modulus_bound_check(
    stack: ExtensionStack, alpha: float, centers_stride: int | None = None
) -> ModulusReport:
    """Ratio of |u(x,t)-u(x0,t)| to its gradient-implied bound, sampled.

    The bound constant is the stack's own sup of t^(1-alpha)|grad u|, so a
    ratio of order one confirms the modulus estimate with the constant the
    gradient bound supplies. The far-field alpha = 0 case is sampled at
    separations >= 2t to keep the logarithm bounded away from zero.
    """
    if not (-1.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (-1, 1), got {alpha}")
    grid = stack.grid
    grad_mag = np.sqrt(stack.gradient_square(full=True))
    per_node = grad_mag.reshape(stack.node_count, -1).max(axis=1)
    t_nodes = stack.mesh.nodes
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
        dist = _torus_distance(grid, axis0, axis0[i0])
        dist = dist.reshape((-1,) + (1,) * (grid.dims - 1))
        d = np.broadcast_to(dist, grid.shape)
        center = np.take(stack.values, i0, axis=1)[:, np.newaxis]
        diff = np.abs(stack.values - center.reshape(
            (stack.node_count, 1) + grid.shape[1:]
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


def export_stack(stack: ExtensionStack, directory: str | Path) -> Path:
    """Write per-node Field binaries plus a JSON manifest; returns manifest path."""
    import datetime

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for i in range(stack.node_count):
        name = f"node_{i:04d}.bin"
        write_field(stack.value_field(i), directory / name)
        files.append(name)
    manifest = {
        "kind": stack.kind,
        "grid": {"dims": stack.grid.dims, "size": stack.grid.size,
                 "length": stack.grid.length},
        "mesh": {
            "top": stack.mesh.top,
            "panels": stack.mesh.panels,
            "nodes_per_panel": stack.mesh.nodes_per_panel,
            "nodes": [float(t) for t in stack.mesh.nodes],
            "weights": [float(w) for w in stack.mesh.weights],
        },
        "files": files,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return write_json(manifest, directory / "manifest.json")
