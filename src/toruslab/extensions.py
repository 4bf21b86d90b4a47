"""Space-time extension stacks over dyadic Gauss-Legendre time meshes.

A stack holds u(x, t) together with its full space-time gradient at every
quadrature node, for u either the Poisson or the heat extension of a
mean-zero trace. ``extension_rows`` and ``gradient_square_rows`` stream u
and its gradient square chunk by chunk without a stack. Every sample comes
from one sampler, ``_semigroup``, and one inverse, ``_inverse_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.polynomial.legendre import leggauss

from .spectral import (
    Field,
    SpectralField,
    TorusGrid,
    extension_rate,
    forward_transform,
)

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

    # keyed by the mesh's value, so equal meshes share one computation
    @lru_cache(maxsize=64)
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
        return self._nodes_weights()[0]

    @property
    def weights(self) -> np.ndarray:
        return self._nodes_weights()[1]

    def aligned_cut(self, upper: float) -> int:
        """Node count covering (floor, upper] for upper = top*2^-m exactly."""
        if not (0 < upper <= self.top * (1 + 1e-12)):
            raise ValueError(f"cut {upper} outside (0, {self.top}]")
        if upper < self.floor * (1 - 1e-9):
            raise ValueError(
                f"box height {upper:.6g} lies below the mesh floor {self.floor:.6g} "
                f"(top {self.top:.6g}, {self.panels} panels); the mesh needs more panels"
            )
        m = round(math.log2(self.top / upper))
        if m < 0 or m > self.panels or not math.isclose(
            upper, self.top * 2.0 ** (-m), rel_tol=1e-9
        ):
            raise ValueError(f"cut {upper} is not a dyadic fraction of {self.top}")
        return (self.panels - m) * self.nodes_per_panel


@dataclass(frozen=True)
class ExtensionStack:
    grid: TorusGrid
    kind: str
    mesh: TimeMesh
    trace: SpectralField
    values: np.ndarray  # (nodes, *shape)
    grad_x: np.ndarray  # (nodes, dims, *shape)
    grad_t: np.ndarray  # (nodes, *shape)
    # The Carleson norms' box time integrals, keyed by what they depend on
    # (weight exponent, full gradient, parabolic height, box family), so
    # every level of a norm reuses them; they go with the stack.
    box_integrals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return self.values.shape[0]

    def gradient_square_rows(self, full: bool = True) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield (rows, |grad_x u|^2 (+ |d_t u|^2 when full) at those nodes)
        per ``row_chunks`` chunk, so no (nodes, *shape) square is held. Each
        yielded array is the caller's to overwrite."""
        for rows in row_chunks(self.node_count, self.grid):
            grad_x = self.grad_x[rows]
            square = np.einsum("mj...,mj...->m...", grad_x, grad_x)
            if full:
                square += self.grad_t[rows] ** 2
            yield rows, square

    def gradient_peaks(self, full: bool = True) -> np.ndarray:
        """max over grid points of |grad u| at each node, shape (nodes,)."""
        peaks = np.empty(self.node_count)
        for rows, square in self.gradient_square_rows(full):
            peaks[rows] = square.reshape(len(square), -1).max(axis=1)
        # sqrt is monotone, so the sqrt of the max is the max of the sqrt
        return np.sqrt(peaks)


def _half(arr: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The Hermitian half of a full-layout spectrum or symbol: the last axis
    keeps its modes 0..N/2, the rest follow by symmetry (``rfftn`` layout)."""
    return arr[..., : grid.size // 2 + 1]


def _gradient_symbols(grid: TorusGrid, kind: str) -> list[np.ndarray]:
    """Half-spectrum symbols of d/dt on the extension of ``kind``, then of
    each d/dx_j."""
    symbols = [-_half(extension_rate(grid, kind), grid)]  # refuses an unknown kind
    return symbols + [2j * np.pi / grid.length * _half(grid.derivative_modes[j], grid)
                      for j in range(grid.dims)]


def _semigroup(trace: SpectralField, kind: str, times: np.ndarray,
               unit: int = 1) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, e^{-rate t} f_hat at t = times[rows]) per ``row_chunks`` chunk.

    The one holder of the chunk rule and of the extension rate of ``kind``.
    Every trace is real, so the coefficients are the Hermitian half
    spectrum (``_half``) that ``_inverse_rows`` takes. It yields
    coefficients, not transforms, so no chunk outlives its turn.
    """
    grid = trace.grid
    neg_rate = -_half(extension_rate(grid, kind), grid)  # refuses an unknown kind
    coeff = _half(trace.coefficients, grid)
    for rows in row_chunks(times.size, grid, unit):
        t = times[rows].reshape((-1,) + (1,) * grid.dims)
        yield rows, np.exp(neg_rate * t) * coeff


def _inverse_rows(coeff: np.ndarray, grid: TorusGrid,
                  symbol: np.ndarray | None = None) -> np.ndarray:
    """Real inverse FFT of each row of ``symbol * coeff`` (of ``coeff`` with
    no symbol), a (rows, *half shape) stack of half spectra: the passes of
    ``irfftn`` run one at a time, so each frees its input and the bits are
    those of ``irfftn``. It is raw: deep heat damping leaves roundoff-scale
    rows that the guarded transform would refuse."""
    part = coeff if symbol is None else symbol * coeff
    for axis in range(1, grid.dims):
        part = np.fft.ifft(part, axis=axis, norm="forward")
    return np.fft.irfft(part, n=grid.size, axis=-1, norm="forward")


def build_stack(f: Field, kind: str, mesh: TimeMesh) -> ExtensionStack:
    """Evaluate the extension and its full gradient at every mesh node.

    One ``_inverse_rows`` per ``_semigroup`` chunk for each of ``values``,
    ``grad_t`` and every ``grad_x[:, j]``, copied into the preallocated
    output. Besides the returned arrays and the symbols, the chunk's
    coefficients and one transform's passes are alive at once.
    """
    grid = f.grid
    symbols = _gradient_symbols(grid, kind)
    peak = f.max_abs()
    if abs(f.mean()) > 1e-12 * max(peak, 1e-300):
        raise ValueError("build_stack requires a mean-zero trace; remove the mean first")
    trace = forward_transform(f)
    m = mesh.node_count

    values = np.empty((m,) + grid.shape)
    grad_x = np.empty((m, grid.dims) + grid.shape)
    grad_t = np.empty((m,) + grid.shape)
    for sl, coeff in _semigroup(trace, kind, mesh.nodes):
        values[sl] = _inverse_rows(coeff, grid)
        targets = [grad_t[sl]] + [grad_x[sl, j] for j in range(grid.dims)]
        for symbol, target in zip(symbols, targets):
            target[...] = _inverse_rows(coeff, grid, symbol)
        del coeff  # free this chunk's coefficients before the next chunk's

    for arr in (values, grad_x, grad_t):
        arr.flags.writeable = False
    return ExtensionStack(grid=grid, kind=kind, mesh=mesh, trace=trace,
                          values=values, grad_x=grad_x, grad_t=grad_t)


def extension_rows(trace: SpectralField, kind: str, times: np.ndarray,
                   unit: int = 1) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, u at t = times[rows]) per ``_semigroup`` chunk, for u the
    extension of ``kind`` of the trace: the rows of a stack's ``values``
    bit for bit, each yielded array the caller's."""
    for rows, coeff in _semigroup(trace, kind, times, unit):
        u = _inverse_rows(coeff, trace.grid)
        del coeff  # free the chunk's coefficients before the caller reads u
        yield rows, u


def gradient_square_rows(trace: SpectralField, kind: str, times: np.ndarray,
                         full: bool = True) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, |grad_x u|^2 (+ |d_t u|^2 when full) at t = times[rows])
    per ``_semigroup`` chunk, for u the extension of ``kind`` of the trace.

    The rows are those of ``build_stack(...).gradient_square_rows(full)`` bit
    for bit (the trace is the stack's: the forward transform of real
    samples), but u itself is never transformed and no chunk outlives its
    turn: each yielded array is the caller's to overwrite. At t = 0,
    e^{-rate t} is exactly 1: that row is the t -> 0+ limit.
    """
    grid = trace.grid
    d_t, *d_x = _gradient_symbols(grid, kind)
    symbols = d_x + [d_t] if full else d_x
    for rows, coeff in _semigroup(trace, kind, times):
        square = None
        for symbol in symbols:
            part = _inverse_rows(coeff, grid, symbol)
            np.square(part, out=part)
            if square is None:
                square = part
            else:
                square += part
            del part  # free it before the next transform runs
        del coeff  # free the chunk's coefficients before the next chunk's
        yield rows, square
        del square


def gradient_bound_ratio(stack: ExtensionStack, alpha: float, h_norm: float) -> float:
    """Empirical constant sup t^(1-alpha) |grad u| / h_norm over all nodes."""
    if not (-1.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (-1, 1), got {alpha}")
    if not (np.isfinite(h_norm) and h_norm > 0):
        raise ValueError("gradient bound ratio needs a positive norm")
    t = stack.mesh.nodes
    return float(np.max(t ** (1.0 - alpha) * stack.gradient_peaks())) / h_norm
