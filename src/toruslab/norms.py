"""Norm functionals: Campanato family on traces, Carleson-box families on
extensions, Bloch and Besov sups, and the inverse/X norms used by the
small-data solver.

Geometry conventions shared by every functional here:
  - boxes are open balls in the torus metric, centered on stride-subsampled
    lattice points, with dyadic radii L*2^-j;
  - spatial integrals are lattice Riemann sums with cell volume (L/N)^n;
  - time integrals run over dyadic Gauss-Legendre meshes; below the mesh
    floor the t = 0 row times the analytic t^w integral is added, a
    first-order term whose relative error reaches 1.4e-3 (1-D) and 1.7e-3
    (2-D) on the default 20 x 8 mesh (ROADMAP item 7 sizes the mesh by it);
  - the mean is removed from trace inputs first and recorded on the result.

Ball sums over all centers at once are FFT correlations, which is what makes
the exhaustive-family oracles and the 3D norms affordable. One real forward
and one real inverse transform serve every radius of a family: the half ball
spectra are stacked along a leading radius axis, and ``_box_sup`` is the one
place that ball-correlates a family's time integrals, scales them and takes
the sup. Heat snapshots for the Besov sup and the inverse-space norm are
the rows of ``extensions.extension_rows``; its chunks are whole rows, so
batching changes no bit of any result. A caller of ``inverse_space_norm``
may bring its own heat rows (``heat_rows``), which the same walk reads.

The ``q`` norm's pair sum at a center is a diagonal term, the ball's
squares weighted by the kernel's ball sums, less the cross term <u, w * u>
of the field u on the ball with the min-image pair kernel w. By Parseval the
cross term is one real transform per center, taken in ``row_chunks`` blocks
of strided centers; no pair matrix is built, so memory stays at a few chunks
and grid fields in every dimension.

Every box norm's time integral is one walk, ``_RunningSums``, pushed blocks
of the weighted gradient square per node (Carleson norms, one block per
``row_chunks`` chunk), the floor term and one heat term per panel
(``inverse_space_norm``, one block per chunk) or the trapezoid segments of a
series (``x_space_norm``, one block per segment, which adds the segment
clipped at r^2 after them). Each block is summed with one ``np.add.reduce``
per run of rows up to the next box height, left to right from the carry of
the blocks before; only sums at box heights are kept. Each norm drives its
walk in its own loop, over gradient chunks, heat chunks or the series'
nodes, and pushes no block once the walk holds its tallest box. Every
family's ball sums, scales and sup are whole (radius, *centers) stacks:
``_sup_over_family`` takes one max and one first-True argmax per radius
row.

Every Carleson norm, the seven box norms alike, reads its extension's walk
of key (lift, weight, gradient, height, family), which does not depend on
the scale r^-(2a+n): ``star`` and ``dagger`` walk the (-Lap)^(-a/2) lift of
the trace at their level a, the others lift 0. An ``Extension`` keeps its
walks and node peaks, and ``gradient_pass`` fills them for many keys in one
pass, which streams the gradient square once per lift, over the union of
the meshes its walks read, formed once per chunk; a norm whose walk is
missing runs the pass for its own key. The Carleson floor term is the t = 0
row of that square, row 0 of the same stream.

The trace norms with work no level changes, ``campanato`` (and
``campanato_pair``), ``q`` and ``inverse``, each sweep their levels at once:
the level-free part (the ball sums s1 and s2, each block's q windows and
their power spectrum, each chunk's heat square u^2) is formed once, lives
only as long as the sweep, and every level is finished from it.
``trace_pass`` returns a field's results for many (op, level) pairs, one
sweep per op; a norm called alone sweeps its one level. A ``NORMS`` entry
evaluates its norm itself: a box norm by its walk, a swept norm by its
sweep, and the others by their own ``evaluate``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .extensions import Extension, TimeMesh, extension_rows, row_chunks
from .spectral import (
    Field,
    TorusGrid,
    forward_transform,
    frac_laplacian_power,
    inverse_transform,
)


@dataclass(frozen=True)
class BoxFamily:
    """Centers subsampled by ``stride``; radii {L*2^-j : j in j_values}."""

    grid: TorusGrid
    stride: int
    j_values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.grid.size
        if not (1 <= self.stride <= n):
            raise ValueError(f"stride {self.stride} out of range for N={n}")
        js = tuple(sorted(set(int(j) for j in self.j_values)))
        if not js:
            raise ValueError("box family needs at least one radius")
        j_cap = int(math.log2(n)) - 1
        if js[0] < 1 or js[-1] > j_cap:
            raise ValueError(
                f"radius exponents must lie in [1, {j_cap}] for N={n}, got {js}"
            )
        object.__setattr__(self, "j_values", js)
        # Coverage: the largest ball from any center must reach the next one.
        if self.stride * self.grid.spacing > self.grid.length * 2.0 ** (-js[0]):
            raise ValueError("stride too coarse: grid points escape every box")

    @classmethod
    def default(cls, grid: TorusGrid) -> "BoxFamily":
        """Centers every N/32 points (every point for N < 64) and every
        dyadic radius, L/2 down to L*2^-(log2 N - 1)."""
        return cls(grid=grid, stride=max(1, grid.size // 32),
                   j_values=tuple(range(1, int(math.log2(grid.size)))))

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple(self.grid.length * 2.0 ** (-j) for j in self.j_values)

    def center_view(self, values: np.ndarray) -> np.ndarray:
        """The strided centers of a grid array, or of each one in a stack."""
        sl = (slice(None, None, self.stride),) * self.grid.dims
        return values[(Ellipsis,) + sl]

    def center_index(self, flat_argmax: int, view_shape: tuple[int, ...]) -> tuple[int, ...]:
        sub = np.unravel_index(flat_argmax, view_shape)
        return tuple(int(i * self.stride) for i in sub)


@dataclass(frozen=True)
class NormResult:
    value: float
    arg_center: tuple[int, ...] | None
    arg_radius: float | None
    mean_removed: float = 0.0
    per_box_table: tuple[tuple[float, float], ...] = ()

    def to_payload(self) -> dict:
        return {
            "value": self.value,
            "arg_center": list(self.arg_center) if self.arg_center else None,
            "arg_radius": self.arg_radius,
            "mean_removed": self.mean_removed,
            "per_box": [[r, v] for r, v in self.per_box_table],
        }


# --- ball geometry, cached per (grid, radius exponents) ---

# Workspace pool threads share these caches, and lru_cache does not
# serialize misses: two threads missing one key would both compute it.
# Holding one lock across every lookup computes each key once.
_BALL_LOCK = threading.RLock()


def _ball_cache(maxsize: int):
    """lru_cache for a (grid, key) helper whose misses run one at a time."""

    def wrap(fn):
        cached = lru_cache(maxsize=maxsize)(fn)

        @functools.wraps(fn)
        def call(grid: TorusGrid, key):
            with _BALL_LOCK:
                return cached(grid, key)

        call.cache_clear = cached.cache_clear
        return call

    return wrap


def _torus_dist_sq(grid: TorusGrid) -> np.ndarray:
    """Squared min-image distance of every grid point from the origin."""
    idx = np.arange(grid.size)
    per_axis = (np.minimum(idx, grid.size - idx) * grid.spacing) ** 2
    return sum(np.meshgrid(*([per_axis] * grid.dims), indexing="ij"))


@_ball_cache(maxsize=256)
def _ball_mask(grid: TorusGrid, j: int) -> np.ndarray:
    radius = grid.length * 2.0 ** (-j)
    mask = _torus_dist_sq(grid) < radius**2  # open ball
    mask.setflags(write=False)
    return mask


@_ball_cache(maxsize=64)
def _ball_spectra(grid: TorusGrid, js: tuple[int, ...]) -> np.ndarray:
    """Conjugate half ball spectra (``rfftn`` layout) stacked along a leading
    radius axis, one per js[i]."""
    out = np.stack([np.conj(np.fft.rfftn(_ball_mask(grid, j).astype(float))) for j in js])
    out.setflags(write=False)
    return out


@_ball_cache(maxsize=256)
def _ball_count(grid: TorusGrid, j: int) -> int:
    return int(_ball_mask(grid, j).sum())


def _ball_correlate(arr: np.ndarray, grid: TorusGrid, js: Sequence[int]) -> np.ndarray:
    """out[i](c) = sum over offsets d of ball js[i] of a(c + d), all centers
    at once, where a is arr, or arr[i] when arr stacks one field per radius.

    Shape (len(js), *grid.shape): one real forward and one real inverse
    transform for the whole family, on the half spectrum. The inverse's
    output is a new real array, so no caller keeps a spectrum alive.
    """
    axes = tuple(range(-grid.dims, 0))
    spectrum = np.fft.rfftn(arr, axes=axes) * _ball_spectra(grid, tuple(js))
    return np.fft.irfftn(spectrum, s=grid.shape, axes=axes)


def _radius_column(radii: Sequence[float], exponent: float, dims: int) -> np.ndarray:
    """r ** exponent per radius, with Python's power as on scalars, shaped to
    scale a (radius, *center view) stack."""
    return np.array([r ** exponent for r in radii]).reshape((-1,) + (1,) * dims)


def _sup_over_family(boxes: BoxFamily, radii: Sequence[float], values: np.ndarray,
                     mean_removed: float) -> NormResult:
    """Max of sqrt(value^2) over radii and the strided centers, given the
    (radius, *center view) stack of values^2, one row per radius.

    The box reported is the first center in lattice order, then the first
    radius, among those whose value lies within 1e-12 relative of the max,
    so symmetric centers that tie up to roundoff are not told apart by it.
    """
    peaks = values.max(axis=tuple(range(1, values.ndim))).tolist()
    table = tuple((radius, math.sqrt(max(peak, 0.0))) for radius, peak in zip(radii, peaks))
    best_sq = max(peaks)
    near = max(best_sq, 0.0) * (1.0 - 1e-12) ** 2
    # argmax of a boolean row is its first True in lattice order
    flats = (values >= near).reshape(len(radii), -1).argmax(axis=1).tolist()
    flat, i = min((flats[i], i) for i, peak in enumerate(peaks) if peak >= near)
    return NormResult(
        value=math.sqrt(max(best_sq, 0.0)),
        arg_center=boxes.center_index(flat, values.shape[1:]),
        arg_radius=radii[i],
        mean_removed=mean_removed,
        per_box_table=table,
    )


def _box_sup(boxes: BoxFamily, eligible: Sequence[tuple[int, float]],
             integrals: Sequence[np.ndarray], scale_exp: float, mean: float) -> NormResult:
    """Sup over centers and eligible (j, r) of r^-scale_exp * cellvol times the
    ball sum of integrals[i], the time integral of the box eligible[i]; 0.0
    with no box when none is eligible."""
    if not eligible:
        return NormResult(value=0.0, arg_center=None, arg_radius=None, mean_removed=mean)
    js, radii = zip(*eligible)
    # only the strided centers are read: clip and scale those alone
    balls = boxes.center_view(_ball_correlate(np.stack(integrals), boxes.grid, js))
    return _sup_over_family(boxes, radii, np.maximum(balls, 0.0) * boxes.grid.cell_volume
                            * _radius_column(radii, -scale_exp, boxes.grid.dims), mean)


class _RunningSums:
    """The left-to-right sum of the first c terms for each c in counts, 0.0
    for c = 0: the time integral of every box in one walk.

    ``add`` takes a (k, *shape) block of the next k >= 1 terms along the
    leading axis, which the walk owns and overwrites. The block is cut into
    runs that end at the wanted counts inside it and at its end; each run's
    first row gets the carry of the terms before added in place, and the
    run is summed with one ``np.add.reduce`` along the leading axis, whose
    result, a new array, is carried on and kept at a wanted count. A run of
    one row is the same carry + row written into the carry instead, unless
    the carry is kept or not yet an array (a carry holds no -0.0, which the
    reduce would turn to +0.0). numpy reduces the leading axis of a
    C-ordered block row by row, left to right, when a row has more than one
    element, as every grid-shaped term here does (one-element rows would be
    summed pairwise). ``sums()`` reads the kept sums once ``stop`` =
    max(counts) terms are in."""

    def __init__(self, counts: Sequence[int]) -> None:
        self.counts = list(counts)
        self.stop = max(self.counts, default=0)
        self.pushed, self._kept, self._carry = 0, {0: 0.0}, 0.0
        self._owned = False  # the carry is an array no kept sum shares

    def add(self, block: np.ndarray) -> None:
        start, lo = self.pushed, 0
        self.pushed += len(block)
        for end in sorted({c for c in self.counts if start < c < self.pushed} | {self.pushed}):
            if end - start - lo == 1 and self._owned:
                np.add(self._carry, block[lo], out=self._carry)
            else:
                np.add(self._carry, block[lo], out=block[lo])
                self._carry = np.add.reduce(block[lo : end - start], axis=0)
            self._owned = end not in self.counts
            if not self._owned:
                self._kept[end] = self._carry
            lo = end - start

    def sums(self) -> list:
        return [self._kept[c] for c in self.counts]


# --- trace-side norms ---

# heat_rows(times, unit) of inverse_space_norm: each array it yields is the
# caller's only until the next chunk is drawn
HeatRows = Callable[[np.ndarray, int], Iterable[tuple[slice, np.ndarray]]]


def trace_pass(f: Field, pairs: Iterable[tuple[str, float]],
               boxes: BoxFamily) -> dict[tuple[str, float], NormResult]:
    """The result of each (op, level) in ``pairs``, ops of the registry with
    a ``sweep``: one sweep per op over all of its levels, so that what no
    level changes is computed once."""
    levels: dict[str, dict[float, None]] = {}
    for op, alpha in pairs:
        levels.setdefault(op, {})[alpha] = None
    return {(op, alpha): result for op, alphas in levels.items()
            for alpha, result in zip(alphas, NORMS[op].sweep(f, list(alphas), boxes, math.inf))}


def _campanato_levels(f: Field, alphas: Sequence[float], boxes: BoxFamily,
                      pair: bool) -> list[NormResult]:
    """The Campanato norm, value^2 = max over boxes of r^-(n+2a) *
    integral_B |f - f_B|^2, or with ``pair`` the pair form, r^-2(a+n) *
    double integral |f(y)-f(z)|^2, at each level from the ball sums
    s1 = sum g, s2 = sum g^2, which no level changes: only the scale and the
    sup are formed per level."""
    for alpha in alphas:
        _check_alpha(alpha)
    grid = _require_grid(f, boxes)
    mean = f.mean()
    g = f.remove_mean().samples
    cellvol = grid.cell_volume
    # only the strided centers are read
    s1_all = boxes.center_view(_ball_correlate(g, grid, boxes.j_values))
    s2_all = boxes.center_view(_ball_correlate(g * g, grid, boxes.j_values))
    counts = np.array([_ball_count(grid, j) for j in boxes.j_values], dtype=float).reshape(
        (-1,) + (1,) * grid.dims)
    if pair:
        parts = np.maximum(2.0 * (counts * s2_all - s1_all * s1_all), 0.0) * cellvol**2
    else:
        parts = np.maximum(s2_all - s1_all * s1_all / counts, 0.0) * cellvol
    del s1_all, s2_all
    exponents = [-2 * (alpha + grid.dims) if pair else -(grid.dims + 2 * alpha) for alpha in alphas]
    return [_sup_over_family(boxes, boxes.radii,
                             parts * _radius_column(boxes.radii, e, grid.dims), mean)
            for e in exponents]


def _q_levels(f: Field, betas: Sequence[float], boxes: BoxFamily) -> list[NormResult]:
    """The q norm at each level b:
    value^2 = max over boxes of
    r^(2b-n) * double sum_{x != y in B} |f(x)-f(y)|^2 |x-y|^-(n+2b).

    With w(d) = |d|^-(n+2b) in the torus metric, w(0) = 0, and u_c(d) =
    g(c+d) on the ball around the origin, the double sum at center c is
    2 (sum_d u_c(d)^2 rho(d) - <u_c, w * u_c>), rho = (w * 1_B) 1_B. The
    circular convolution with the min-image kernel is the torus distance
    exactly, and by Parseval the cross term is sum_k |U_c(k)|^2 W(k) / N^n:
    one real transform per center, in ``row_chunks`` blocks of centers.
    Per radius and block of centers, the masked windows u and their power
    spectrum, which no level changes, are formed once, and each level adds
    its two products with its kernel w."""
    for beta in betas:
        if not (0.0 < beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
    grid = _require_grid(f, boxes)
    mean = f.mean()
    g = f.remove_mean().samples
    axes = tuple(range(1, grid.dims + 1))
    kernels = []  # per level: w's weighted half spectrum, and w * 1_B per radius
    for beta in betas:
        with np.errstate(divide="ignore"):
            w = _torus_dist_sq(grid) ** (-(grid.dims + 2 * beta) / 2.0)
        w.flat[0] = 0.0
        # rfftn keeps half the last axis: every column but the zero and Nyquist
        # ones stands for itself and its mirror
        w_hat = np.fft.rfftn(w).real / grid.point_count
        w_hat[..., 1 : (grid.size + 1) // 2] *= 2.0
        # each ball is symmetric, so its correlation with w is w * 1_B
        kernels.append((w_hat.reshape(-1), _ball_correlate(w, grid, boxes.j_values)))
    view_shape = boxes.center_view(g).shape
    centers = np.indices(view_shape).reshape(grid.dims, -1) * boxes.stride
    # u_c is the window of the wrapped field that starts at c
    windows = sliding_window_view(np.pad(g, (0, grid.size - 1), mode="wrap"), grid.shape)
    cellvol = grid.cell_volume
    totals = np.empty((len(betas), len(boxes.j_values), centers.shape[1]))
    for i, j in enumerate(boxes.j_values):
        mask = _ball_mask(grid, j)
        rhos = [(w_balls[i] * mask).reshape(-1) for _, w_balls in kernels]
        for rows in row_chunks(centers.shape[1], grid):
            u = windows[tuple(centers[:, rows])] * mask  # one u_c per center of the block
            spectrum = np.fft.rfftn(u, axes=axes)
            power = (spectrum.real**2 + spectrum.imag**2).reshape(u.shape[0], -1)
            del spectrum
            u_sq = np.multiply(u, u, out=u).reshape(u.shape[0], -1)
            for level, ((w_hat, _), rho) in enumerate(zip(kernels, rhos)):
                totals[level, i, rows] = u_sq @ rho - power @ w_hat
            del u, u_sq, power
    parts = np.maximum(2.0 * totals, 0.0).reshape(totals.shape[:2] + view_shape) * cellvol**2
    return [_sup_over_family(boxes, boxes.radii, part * _radius_column(
        boxes.radii, 2 * beta - grid.dims, grid.dims), mean) for beta, part in zip(betas, parts)]


def frac_campanato_norm(f: Field, alpha: float, boxes: BoxFamily) -> NormResult:
    """The ``campanato`` norm of (-Lap)^(-a/2) f at the same alpha."""
    _check_alpha(alpha)
    mean = f.mean()
    g = f.remove_mean()
    lifted = inverse_transform(frac_laplacian_power(forward_transform(g), -alpha))
    return dataclasses.replace(_campanato_levels(lifted, [alpha], boxes, pair=False)[0],
                               mean_removed=mean)


def _check_alpha(alpha: float) -> None:
    if not (-1.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (-1, 1), got {alpha}")


def _require_grid(f: Field, boxes: BoxFamily) -> TorusGrid:
    if f.grid != boxes.grid:
        raise ValueError("field and box family live on different grids")
    return f.grid


# --- Carleson-box norms over extensions ---

def default_mesh(grid: TorusGrid, kind: str) -> TimeMesh:
    """The mesh of an extension kind's box height, whose top matches the
    largest dyadic radius: L/2 for Poisson's height r, (L/2)^2 for heat's r^2."""
    return TimeMesh(top=grid.length / 2.0 if kind == "poisson" else (grid.length / 2.0) ** 2)


def check_box_heights(boxes: BoxFamily, kind: str) -> None:
    """Refuse, before any extension is made, a family with a box height
    below the floor of the default mesh of an extension ``kind`` (trace
    norms take none). The heat extension's linear-height dagger norm needs
    no check of its own: its floor lies below every r whose r^2 fits the
    heat mesh."""
    if kind == "trace":
        return
    mesh = default_mesh(boxes.grid, kind)
    for r in boxes.radii:
        mesh.aligned_cut(r if kind == "poisson" else r * r)


class _BoxWalk(_RunningSums):
    """int_0^h |grad u|^2 t^w dt per grid point for each box height h = r or
    r^2 of a family, for a walk key (lift a, weight exponent w, full
    gradient, parabolic height, family), u the extension of the
    (-Lap)^(-a/2) lift of the trace of ``ext``.

    It walks the mesh of its box height: the extension's own, save that a
    linear-height box on a heat extension walks the same mesh with top L/2.
    As an ``Extension.gradient_pass`` walk it is pushed the gradient square
    at its mesh's nodes in node order, and weights each chunk's rows into a
    new block of its running sums. The below-floor strip is added
    analytically from the t = 0 row.
    """

    def __init__(self, ext: Extension, key: tuple) -> None:
        self.lift, self.weight_exp, self.full, parabolic_height, boxes = key
        if boxes.grid != ext.grid:
            raise ValueError("extension and box family live on different grids")
        mesh = ext.mesh
        if ext.kind == "heat" and not parabolic_height:
            mesh = dataclasses.replace(mesh, top=ext.grid.length / 2.0)
        self.mesh = mesh
        # every box is checked against the mesh before any array work
        super().__init__([mesh.aligned_cut(r**2 if parabolic_height else r) for r in boxes.radii])
        self.node_factor = (mesh.weights * mesh.nodes**self.weight_exp).reshape(
            (-1,) + (1,) * boxes.grid.dims)

    def push(self, rows: slice, square: np.ndarray) -> None:
        self.add(square * self.node_factor[rows])

    def integrals(self, floor: np.ndarray) -> list[np.ndarray]:
        floor_term = floor * self.mesh.floor ** (1.0 + self.weight_exp) / (1.0 + self.weight_exp)
        return [floor_term + s for s in self.sums()]


def gradient_pass(ext: Extension, keys: Iterable[tuple], peaks: Iterable[bool] = ()) -> None:
    """Keep on the extension the box time integrals of each Carleson walk key
    (lift, weight exponent, full gradient, parabolic height, box family) and
    the node peaks of each gradient in ``peaks``, all from one
    ``Extension.gradient_pass``. What it keeps already is not walked again."""
    walks = {key: _BoxWalk(ext, key) for key in keys if key not in ext.box_integrals}
    floors = ext.gradient_pass(list(walks.values()), peaks)
    for key, walk in walks.items():
        ext.box_integrals[key] = walk.integrals(floors[walk.lift, walk.full])


def _require_kind(ext: Extension, kind: str, op: str) -> None:
    if ext.kind != kind:
        raise ValueError(f"{op} requires a {kind} extension, got {ext.kind}")


def _carleson_box_norm(ext: Extension, alpha: float, boxes: BoxFamily, norm: Norm) -> NormResult:
    """max over boxes of r^-(2a+n) * int_B int_0^h |grad u|^2 t^w dt dx for
    the walk key ``norm.walk(alpha)`` of a box norm's registry entry.

    The time integrals are the extension's, walked by a pass of their own on
    a miss, so the levels and norms that share a walk share them. A walk of
    a lift a != 0 has one reader, this one, so it is dropped once read.
    """
    _check_alpha(alpha)
    _require_kind(ext, norm.kind, "box norm")
    key = norm.walk(alpha) + (boxes,)
    gradient_pass(ext, [key])
    integrals = ext.box_integrals[key] if key[0] == 0.0 else ext.box_integrals.pop(key)
    return _box_sup(boxes, list(zip(boxes.j_values, boxes.radii)), integrals,
                    2 * alpha + ext.grid.dims, 0.0)


# --- sup-type norms ---

def bloch_hb_norm(ext: Extension) -> float:
    """sup over nodes and points of t |grad_{x,t} u|."""
    _require_kind(ext, "poisson", "bloch_hb_norm")
    ext.gradient_pass(peaks=(True,))
    return float(np.max(ext.mesh.nodes * ext.peaks[True]))


def bloch_cb_norm(ext: Extension) -> float:
    """sup over nodes and points of sqrt(t) |grad_x u|."""
    _require_kind(ext, "heat", "bloch_cb_norm")
    ext.gradient_pass(peaks=(False,))
    return float(np.max(np.sqrt(ext.mesh.nodes) * ext.peaks[False]))


def besov_norm(f: Field) -> float:
    """sup over x, t of sqrt(t) |e^{t Lap} f(x)| on 700 log-uniform times
    from 1e-9 L^2 to L^2."""
    scale = f.grid.length**2
    t_grid = np.geomspace(1e-9 * scale, scale, 700)
    best = 0.0
    for sl, u in extension_rows(forward_transform(f.remove_mean()), "heat", t_grid):
        # the chunk is ours: take |u| in place, and free it before the next is drawn
        peaks = np.sqrt(t_grid[sl]) * np.abs(u, out=u).reshape(u.shape[0], -1).max(axis=1)
        best = max(best, float(np.max(peaks)))
        del u
    return best


# --- inverse-space and X norms ---

def inverse_space_norm(f: Field, alpha: float, horizon: float, boxes: BoxFamily,
                       heat_rows: HeatRows | None = None) -> NormResult:
    """value^2 = max over boxes with r^2 < horizon of
    r^-(2a+n) int_0^{r^2} int_B |e^{t Lap} f|^2 t^a dy dt, the time
    integral on the default heat mesh. ``heat_rows(times, unit)``, if given,
    yields (rows, e^{t Lap} of the mean-free f at t = times[rows]) in chunks
    of whole groups of ``unit`` rows, in place of the heat extension's rows,
    as the flow solver's data norm does; each array is the caller's, to
    overwrite, only until the next chunk is drawn."""
    return _inverse_levels(f, [alpha], horizon, boxes, heat_rows)[0]


def _inverse_levels(f: Field, alphas: Sequence[float], horizon: float, boxes: BoxFamily,
                    heat_rows: HeatRows | None = None) -> list[NormResult]:
    """``inverse_space_norm`` at each level from one stream of the heat
    extension on its default mesh, in panel-aligned chunks of its heat
    rows: each chunk's u^2 is formed once and pushed into one
    ``_RunningSums`` per level, one block with one term per panel, after
    the level's floor term.
    Only the sums at the radius cuts are kept, and no chunk past the
    largest eligible cut is drawn.
    """
    for alpha in alphas:
        _check_alpha(alpha)
    grid = _require_grid(f, boxes)
    if not (horizon > 0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    mesh = default_mesh(grid, "heat")
    mean = f.mean()
    g = f.remove_mean()

    eligible = [
        (j, r) for j, r in zip(boxes.j_values, boxes.radii) if r * r < horizon
    ]
    per = mesh.nodes_per_panel
    # the floor term, then one term per panel: a box whose height is the
    # mesh floor takes the floor term alone
    counts = [1 + mesh.aligned_cut(r * r) // per for _, r in eligible]
    t = mesh.nodes
    walks = [_RunningSums(counts) for _ in alphas]
    node_factors = [mesh.weights * t**alpha for alpha in alphas]
    for walk, alpha in zip(walks, alphas):
        walk.add((g.samples**2 * mesh.floor ** (1.0 + alpha) / (1.0 + alpha))[np.newaxis])
    if walks[0].pushed < walks[0].stop:
        for chunk, u in (heat_rows(t, per) if heat_rows
                         else extension_rows(forward_transform(g), "heat", t, unit=per)):
            # the chunk is ours to overwrite; one row of panels per panel
            u_sq = np.multiply(u, u, out=u).reshape((-1, per) + grid.shape)
            for walk, node_factor in zip(walks, node_factors):
                # each panel's sum in node order, as the quadrature sums it
                walk.add(np.einsum("pm...,pm->p...", u_sq, node_factor[chunk].reshape(-1, per)))
            del u, u_sq  # free the chunk before the next one is drawn, or the box sups run
            if walks[0].pushed >= walks[0].stop:
                break
    # each walk is dropped once read, its carry with it, before its box sup
    return [_box_sup(boxes, eligible, walks.pop(0).sums(), 2 * alpha + grid.dims, mean)
            for alpha in alphas]


@dataclass(frozen=True)
class TimeSeries:
    """Sampled space-time function: node i holds the grid samples at times[i],
    strictly increasing.

    ``values`` is the (len(times), *grid.shape) array of every node, or a
    sequence whose item i computes node i when it is read, so that a long
    series need never be held whole (``NSTrace.component_series``).
    """

    grid: TorusGrid
    times: np.ndarray
    values: np.ndarray | Sequence[np.ndarray]

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("time series needs at least one time")
        if np.any(times <= 0) or np.any(np.diff(times) <= 0):
            raise ValueError("times must be positive and strictly increasing")
        values = self.values
        if isinstance(values, Sequence):
            if len(values) != times.size:
                raise ValueError(f"{len(values)} nodes for {times.size} times")
        else:
            values = np.asarray(values, dtype=float)
            if values.shape != (times.size,) + self.grid.shape:
                raise ValueError(
                    f"values shape {values.shape} does not match "
                    f"{(times.size,) + self.grid.shape}"
                )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def nodes(self) -> Iterator[np.ndarray]:
        """Each node's grid samples in time order, read one at a time."""
        for u in self.values:
            u = np.asarray(u, dtype=float)
            if u.shape != self.grid.shape:
                raise ValueError(f"node shape {u.shape} does not match {self.grid.shape}")
            yield u


@dataclass(frozen=True)
class XSpaceResult:
    value: float
    sup_part: float
    carleson_part: float
    alpha: float
    horizon: float


def x_space_norm(
    series: TimeSeries, alpha: float, horizon: float, boxes: BoxFamily
) -> XSpaceResult:
    """sup_{t<horizon} sqrt(t) |u| plus the parabolic Carleson part with t^a.

    The leading [0, t_0] strip uses the analytic t^a integral with the first
    snapshot's values, so series starting at small t_0 lose nothing. The
    Carleson time integral of each eligible box is the trapezoid rule over
    the stored nodes clipped to [t_0, r^2], with h = u^2 t^a interpolated
    linearly to r^2 on the segment that straddles it.

    The series is read in one loop, node by node in time order, and only as
    far as the sup, the tallest box or a straddle needs. Each node gives its
    peak and h = u^2 t^a; the segment that ends at it is pushed into one
    ``_RunningSums`` of the full segments below every r^2 while the walk
    wants more, and each segment that straddles an r^2 is clipped there and
    added after the walk. Only node-sized arrays are alive, a few per
    eligible box, so a series that computes its nodes on demand is never
    held whole.
    """
    _check_alpha(alpha)
    grid = series.grid
    if grid != boxes.grid:
        raise ValueError("series and box family live on different grids")
    if not (horizon > 0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    times = series.times
    in_range = int(np.searchsorted(times, horizon))  # the samples below the horizon
    if in_range == 0:
        raise ValueError("time series has no samples below the horizon")

    eligible = [
        (j, radius) for j, radius in zip(boxes.j_values, boxes.radii)
        if radius**2 < horizon
    ]
    uppers = [radius**2 for _, radius in eligible]
    # the full segments below r^2 are those that end at or before it
    counts = np.searchsorted(times[1:], uppers, "right").tolist()
    # the segment from node k to k + 1 that straddles a box's r^2
    straddles = {box: k for box, (upper, k) in enumerate(zip(uppers, counts))
                 if k + 1 < times.size and times[k] < upper}
    visits = max([in_range] + [c + 1 for c in counts] + [k + 2 for k in straddles.values()])
    weights = times ** alpha
    walk = _RunningSums(counts)
    peaks: list = []
    tails: dict = {}  # box -> the straddling segment clipped at r^2
    # h of this node and the previous one alternate in two node buffers,
    # and each segment fills a third
    h_pair, segment = np.empty((2,) + grid.shape), np.empty((1,) + grid.shape)
    for i, u in enumerate(itertools.islice(series.nodes(), visits)):
        h, previous = h_pair[i % 2], h_pair[(i - 1) % 2]
        if i < in_range:
            peaks.append(np.abs(u, out=h).max())
        if i == 0:
            first_sq = np.square(u)  # for the leading strip
        np.multiply(np.square(u, out=h), weights[i], out=h)
        if 0 < i and walk.pushed < walk.stop:
            # (h_{i-1} + h_i) (t_i - t_{i-1}) / 2, which the walk may overwrite
            np.add(previous, h, out=segment[0])
            walk.add(np.multiply(segment, (times[i] - times[i - 1]) / 2.0, out=segment))
        for box, k in straddles.items():
            if k + 1 == i:
                upper, t0 = uppers[box], times[k]
                theta = (upper - t0) / (times[i] - t0)
                h_up = previous * (1 - theta) + h * theta
                tails[box] = (upper - t0) * (previous + h_up) / 2.0
    # rounding a product by a positive scalar is monotone, so this is the
    # max of sqrt(t) |u| over every in-range sample
    sup_part = float(np.max(np.sqrt(times[:in_range]) * peaks))
    time_integrals = []
    for box, (upper, total) in enumerate(zip(uppers, walk.sums())):
        if box in tails:
            total = total + tails.pop(box)
        time_integrals.append(
            first_sq * min(times[0], upper) ** (1.0 + alpha) / (1.0 + alpha) + total)
    carleson = _box_sup(boxes, eligible, time_integrals, 2 * alpha + grid.dims, 0.0).value
    return XSpaceResult(
        value=sup_part + carleson,
        sup_part=sup_part,
        carleson_part=carleson,
        alpha=alpha,
        horizon=horizon,
    )


# --- the norm registry ---

@dataclass(frozen=True)
class Norm:
    """A registry entry: the input a norm takes and how to evaluate it.

    ``kind`` is "trace" for a norm of the field itself, or the extension
    ("poisson" or "heat") the norm takes. ``walk(alpha)``, the (lift, weight
    exponent, full gradient, parabolic height) of the box time integrals a
    box norm reads off its extension at level alpha, None for any other
    norm, and ``peak``, the gradient whose node peaks it reads, state its
    reads once, for a plan's ``gradient_pass``. ``sweep(f, levels, boxes,
    horizon)``, for a trace norm with work no level changes, gives its
    results at every level from one pass over the field, for ``trace_pass``.
    Any other norm has an ``evaluate(x, alpha, boxes, horizon)``, which
    returns a NormResult or a float and ignores the arguments it does not
    take."""

    kind: str
    evaluate: Callable[..., "NormResult | float"] | None = None
    walk: Callable[[float], "tuple[float, float, bool, bool] | None"] = lambda alpha: None
    peak: bool | None = None
    sweep: Callable[..., list[NormResult]] | None = None

    def argument(self, f: Field, boxes: BoxFamily) -> Field | Extension:
        """The input this norm takes on the family ``boxes``: the field, or
        its extension on the default mesh of its box height, made only once
        every box height is known to fit the mesh."""
        check_box_heights(boxes, self.kind)
        return f if self.kind == "trace" else Extension(
            f, self.kind, default_mesh(f.grid, self.kind))

    def result(self, x, alpha: float, boxes: BoxFamily,
               horizon: float = math.inf) -> "NormResult | float":
        """The norm of x, its ``argument``, at level alpha."""
        if self.evaluate:
            return self.evaluate(x, alpha, boxes, horizon)
        if self.sweep:
            return self.sweep(x, [alpha], boxes, horizon)[0]
        return _carleson_box_norm(x, alpha, boxes, self)

    def value(self, x, alpha: float, boxes: BoxFamily, horizon: float = math.inf) -> float:
        result = self.result(x, alpha, boxes, horizon)
        return result.value if isinstance(result, NormResult) else result


# Name -> Norm, the one way to each norm of the paper. Box and swept entries
# run this module's private walks and sweeps; the others call their public
# functions by name.
NORMS: dict[str, Norm] = {
    "campanato": Norm("trace", sweep=lambda f, levels, boxes, _: _campanato_levels(
        f, levels, boxes, pair=False)),
    "campanato_pair": Norm("trace", sweep=lambda f, levels, boxes, _: _campanato_levels(
        f, levels, boxes, pair=True)),
    "q": Norm("trace", sweep=lambda f, levels, boxes, _: _q_levels(f, levels, boxes)),
    "frac_campanato": Norm("trace", lambda f, a, boxes, _: frac_campanato_norm(f, a, boxes)),
    "besov": Norm("trace", lambda f, *_: besov_norm(f)),
    "inverse": Norm("trace", sweep=lambda f, levels, boxes, top: _inverse_levels(
        f, levels, top, boxes)),
    "h": Norm("poisson", walk=lambda a: (0.0, 1.0, True, False)),
    "scaled_h": Norm("poisson", walk=lambda a: (0.0, 1.0 + 2 * a, True, False)),
    "star": Norm("poisson", walk=lambda a: (a, 1.0, True, False)),
    "bloch_hb": Norm("poisson", lambda e, *_: bloch_hb_norm(e), peak=True),
    "t": Norm("heat", walk=lambda a: (0.0, 0.0, False, True)),
    "scaled_t": Norm("heat", walk=lambda a: (0.0, a, False, True)),
    "dagger_linear": Norm("heat", walk=lambda a: (a, 1.0, True, False)),
    "dagger_parabolic": Norm("heat", walk=lambda a: (a, 1.0, True, True)),
    "bloch_cb": Norm("heat", lambda e, *_: bloch_cb_norm(e), peak=False),
}
