"""Space-time extensions over dyadic Gauss-Legendre time meshes.

u is the Poisson or the heat extension of a mean-zero trace. No node of it
is stored: ``extension_rows`` and ``gradient_square_rows`` stream u and
its gradient square chunk by chunk, and an ``Extension`` (the trace on a
mesh) makes one ``gradient_pass`` for every reader of its gradient square,
keeping the box time integrals and node peaks they read. A pass draws one
stream per lift its readers name, over the union of the meshes they read:
a lift is a fractional power of the trace, so the lifted box norms read
the extension they are given. Every sample comes from one sampler,
``_semigroup``, and one inverse, ``_inverse_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .spectral import (
    Field,
    SpectralField,
    TorusGrid,
    extension_rate,
    forward_transform,
    frac_laplacian_power,
    inverse_transform,
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


def extension_rows(trace: SpectralField, kind: str, times: np.ndarray,
                   unit: int = 1) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, u at t = times[rows]) per ``_semigroup`` chunk, for u the
    extension of ``kind`` of the trace, each yielded array the caller's."""
    for rows, coeff in _semigroup(trace, kind, times, unit):
        u = _inverse_rows(coeff, trace.grid)
        del coeff  # free the chunk's coefficients before the caller reads u
        yield rows, u


def gradient_square_rows(trace: SpectralField, kind: str, times: np.ndarray,
                         fulls: Collection[bool] = (True,)
                         ) -> Iterator[tuple[slice, dict[bool, np.ndarray]]]:
    """Yield (rows, squares) per ``_semigroup`` chunk, for u the extension of
    ``kind`` of the trace at t = times[rows]: for each gradient in ``fulls``,
    squares[False] is |grad_x u|^2 and squares[True] is |grad_x u|^2 +
    |d_t u|^2.

    The chunk's |grad_x u|^2 is formed once, its d_x components squared and
    added in axis order, and the full square from it by adding |d_t u|^2
    last. u itself is never transformed and no chunk outlives its turn:
    each yielded array is the caller's. At t = 0, e^{-rate t} is exactly 1:
    that row is the t -> 0+ limit.
    """
    grid = trace.grid
    d_t, *d_x = _gradient_symbols(grid, kind)

    def squared(coeff: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        part = _inverse_rows(coeff, grid, symbol)
        return np.square(part, out=part)

    for rows, coeff in _semigroup(trace, kind, times):
        square = squared(coeff, d_x[0])
        for symbol in d_x[1:]:
            square += squared(coeff, symbol)  # each part is freed before the next is made
        squares = {False: square} if False in fulls else {}
        if True in fulls:
            part = squared(coeff, d_t)
            # in place when the spatial square is not wanted too
            squares[True] = np.add(square, part, out=part if squares else square)
            del part
        del coeff, square  # free them before the next chunk's
        yield rows, squares
        del squares


class Extension:
    """The extension of ``kind`` (Poisson or heat) of a mean-zero trace on a
    time mesh, held as the trace's spectrum: no node is stored. Its readers
    need only the gradient square at the nodes, which ``gradient_pass``
    draws once for all of them, keeping what they read: ``box_integrals``,
    the Carleson time integrals per (lift, weight exponent, full gradient,
    parabolic height, box family), and ``peaks``, max |grad u| per node for
    each gradient (True: space and time, False: space)."""

    def __init__(self, f: Field, kind: str, mesh: TimeMesh) -> None:
        extension_rate(f.grid, kind)  # refuses an unknown kind
        if abs(f.mean()) > 1e-12 * max(f.max_abs(), 1e-300):
            raise ValueError("an extension needs a mean-zero trace; remove the mean first")
        self.grid, self.kind, self.mesh = f.grid, kind, mesh
        self.trace = forward_transform(f)
        self.box_integrals: dict = {}
        self.peaks: dict[bool, np.ndarray] = {}

    def gradient_pass(self, walks: Sequence = (), peaks: Iterable[bool] = ()
                      ) -> dict[tuple, np.ndarray]:
        """One ``gradient_square_rows`` stream per lift that a walk or a peak
        reads, over the union of the meshes its readers read.

        At lift 0 the stream reads the trace; at a lift a != 0 it reads the
        (-Lap)^(-a/2) lift of the trace, taken through real samples as the
        trace itself was. Each walk reads the square of its gradient
        ``walk.full`` at the first ``walk.stop`` nodes of ``walk.mesh``, at
        lift ``walk.lift``; the node peaks of each gradient in ``peaks``
        that are not kept yet are kept, from the lift-0 stream, at every
        node of the extension's own mesh. A stream's times are the nodes
        each mesh needs, merged by value, so that a node two meshes share is
        one row, and t = 0 as row 0 when a walk reads it: e^{-rate t} is
        exactly 1 there, so the row is the t -> 0+ limit. No chunk past the
        last node a walk or a peak needs is drawn.

        Chunk by chunk, each walk whose stop the chunk starts before is
        pushed all its mesh's rows in it, in node order, through
        ``walk.push(nodes, square)``: ``nodes`` slices its mesh's nodes and
        ``square`` holds their rows, a view of the chunk where they are
        contiguous in it, as when one mesh is a run of the union. push
        leaves the square as it is: the walks of one stream share it.
        Returns the t = 0 row of each stream's gradient squares that a walk
        reads, keyed (lift, full).
        """
        peaks = {full for full in peaks if full not in self.peaks}
        streams: dict[float, list] = {}
        for walk in walks:
            streams.setdefault(walk.lift, []).append(walk)
        if peaks:
            streams.setdefault(0.0, [])
        floors = {}
        for lift, group in streams.items():
            trace = self.trace if lift == 0.0 else forward_transform(
                inverse_transform(frac_laplacian_power(self.trace, -lift)))
            own = peaks if lift == 0.0 else set()
            stops = {self.mesh: self.mesh.node_count} if own else {}
            for walk in group:
                stops[walk.mesh] = max(stops.get(walk.mesh, 0), walk.stop)
            times = np.sort(np.concatenate(
                [np.zeros(1 if group else 0)] + [mesh.nodes[:stop] for mesh, stop in stops.items()]))
            # equal nodes merge into one row (np.unique would import numpy.ma)
            times = times[np.concatenate(([True], times[1:] != times[:-1]))]
            # the row of each needed node of each mesh, ascending
            where = {mesh: np.searchsorted(times, mesh.nodes[:stop]) for mesh, stop in stops.items()}
            fulls = {walk.full for walk in group}
            maxima = {full: np.empty(self.mesh.node_count) for full in own}
            for rows, squares in gradient_square_rows(trace, self.kind, times, fulls | own):
                if rows.start == 0 and group:
                    floors.update(((lift, full), squares[full][0].copy()) for full in fulls)
                cuts = {mesh: _cut(pos, rows) for mesh, pos in where.items()}
                for walk in group:
                    nodes, chunk_rows = cuts[walk.mesh]
                    if nodes.start < min(nodes.stop, walk.stop):
                        walk.push(nodes, squares[walk.full][chunk_rows])
                for full, peak in maxima.items():
                    nodes, chunk_rows = cuts[self.mesh]
                    if nodes.stop > nodes.start:
                        peak[nodes] = squares[full][chunk_rows].reshape(
                            nodes.stop - nodes.start, -1).max(axis=1)
                del squares  # free the chunk before the next one is drawn
            # sqrt is monotone, so the sqrt of the max is the max of the sqrt
            self.peaks.update((full, np.sqrt(peak)) for full, peak in maxima.items())
        return floors


def _cut(pos: np.ndarray, rows: slice) -> tuple[slice, slice | np.ndarray]:
    """The mesh nodes at stream rows ``pos`` (ascending) that fall in the
    chunk ``rows``, as a slice of the mesh's nodes, and their rows in the
    chunk: a slice where they are contiguous, else an index array."""
    lo, hi = np.searchsorted(pos, (rows.start, rows.stop)).tolist()
    at = pos[lo:hi] - rows.start
    if hi > lo and at[-1] - at[0] == hi - lo - 1:
        at = slice(int(at[0]), int(at[-1]) + 1)
    return slice(lo, hi), at


def gradient_bound_ratio(ext: Extension, alpha: float, h_norm: float) -> float:
    """Empirical constant sup t^(1-alpha) |grad u| / h_norm over all nodes."""
    if not (-1.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (-1, 1), got {alpha}")
    if not (np.isfinite(h_norm) and h_norm > 0):
        raise ValueError("gradient bound ratio needs a positive norm")
    ext.gradient_pass(peaks=(True,))
    return float(np.max(ext.mesh.nodes ** (1.0 - alpha) * ext.peaks[True])) / h_norm
