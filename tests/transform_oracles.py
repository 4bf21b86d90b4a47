"""Reference transforms for the batched-transform oracles.

The library transforms real fields on the Hermitian half spectrum: a row
of full-layout coefficients keeps the last-axis modes 0..N/2 and goes
through ``irfftn``; a ball correlation is ``rfftn`` -> multiply ->
``irfftn``. The loops in the tests take their transforms from here, the
lifted box norms their lifted extensions, and the box norms' oracles an
extension's whole gradient square and its t = 0 limit. The semigroup and
Riesz multipliers, which no library code applies to a whole spectrum, are
the mode-wise references of the extensions and of criterion 01.
``full=True`` selects instead the full-spectrum path, ``ifftn(...).real``,
the accuracy reference of the half spectrum.
"""

from __future__ import annotations

import numpy as np

from toruslab.extensions import Extension, TimeMesh, extension_rows, gradient_square_rows
from toruslab.norms import _ball_mask, _ball_spectra
from toruslab.spectral import (
    Field,
    SpectralField,
    TorusGrid,
    extension_rate,
    frac_laplacian_power,
    inverse_transform,
)

# The half and the full spectrum agree to roundoff: every array matches to
# 1e-13 of its own peak.
HALF_SPECTRUM_RTOL = 1e-13


def poisson_semigroup(fhat: SpectralField, t: float) -> SpectralField:
    """Multiplier exp(-2 pi |k| t / L), the harmonic-extension semigroup."""
    if t < 0:
        raise ValueError(f"poisson semigroup requires t >= 0, got {t}")
    return SpectralField(fhat.grid, fhat.coefficients
                         * np.exp(-extension_rate(fhat.grid, "poisson") * t))


def heat_semigroup(fhat: SpectralField, t: float) -> SpectralField:
    """Multiplier exp(-4 pi^2 |k|^2 t / L^2), the caloric-extension semigroup."""
    if t < 0:
        raise ValueError(f"heat semigroup requires t >= 0, got {t}")
    return SpectralField(fhat.grid, fhat.coefficients
                         * np.exp(-extension_rate(fhat.grid, "heat") * t))


def riesz_transform(fhat: SpectralField, axis: int) -> SpectralField:
    """Riesz transform along ``axis``: symbol i k_j / |k|, zero mode -> 0."""
    grid = fhat.grid
    if not 0 <= axis < grid.dims:
        raise ValueError(f"axis {axis} out of range for dims {grid.dims}")
    norm = grid.mode_norm
    with np.errstate(divide="ignore", invalid="ignore"):
        symbol = 1j * grid.derivative_modes[axis] / np.where(norm > 0.0, norm, 1.0)
    symbol[grid.origin] = 0.0
    return SpectralField(grid, fhat.coefficients * symbol)


def inverse_rows(coeff: np.ndarray, axes: tuple[int, ...], full: bool = False) -> np.ndarray:
    """Real inverse transform (forward normalization) of full-layout
    coefficients over ``axes``, the last axis last."""
    if full:
        return np.fft.ifftn(coeff, axes=axes, norm="forward").real
    shape = tuple(coeff.shape[a] for a in axes)
    return np.fft.irfftn(coeff[..., : shape[-1] // 2 + 1], s=shape, axes=axes,
                         norm="forward")


def ball_correlate(arr: np.ndarray, grid: TorusGrid, j: int, full: bool = False) -> np.ndarray:
    """Sums of arr over the ball of radius exponent j around every center,
    one radius with one forward and one inverse transform."""
    axes = tuple(range(grid.dims))
    if full:
        ball = np.conj(np.fft.fftn(_ball_mask(grid, j).astype(float)))
        return np.fft.ifftn(np.fft.fftn(arr) * ball).real
    return np.fft.irfftn(np.fft.rfftn(arr, axes=axes) * _ball_spectra(grid, (j,))[0],
                         s=grid.shape, axes=axes)


def lift_extension(ext: Extension, alpha: float, mesh: TimeMesh | None = None) -> Extension:
    """The extension, on ``mesh`` (the extension's own by default), of the
    (-Lap)^(-alpha/2) lift of an extension's trace: what the lifted box
    norms measure. At alpha=0 the trace is kept as is."""
    lifted = ext.trace if alpha == 0.0 else frac_laplacian_power(ext.trace, -alpha)
    return Extension(inverse_transform(lifted), ext.kind, mesh or ext.mesh)


def extension_values(ext: Extension) -> np.ndarray:
    """u at every node of an extension's mesh, (nodes, *shape), from its rows."""
    return np.concatenate([u for _, u in extension_rows(ext.trace, ext.kind, ext.mesh.nodes)])


def gradient_square(ext: Extension, full: bool = True) -> np.ndarray:
    """An extension's whole (nodes, *shape) gradient square, from its rows."""
    return np.concatenate([squares[full] for _, squares in gradient_square_rows(
        ext.trace, ext.kind, ext.mesh.nodes, (full,))])


def zero_time_square(ext: Extension, full: bool = True) -> np.ndarray:
    """The t = 0 row of an extension's gradient square: the t -> 0+ limit
    the box norms' floor term takes."""
    _, squares = next(gradient_square_rows(ext.trace, ext.kind, np.zeros(1), (full,)))
    return squares[full][0]


def nyquist_field(grid: TorusGrid, seed: int) -> Field:
    """Mean-zero noise plus, along each axis, a Nyquist wave k_j = N/2 with
    a random profile over the other axes: energy on every Nyquist plane,
    the modes the half spectrum stores once."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape)
    for j in range(grid.dims):
        sign = (-1.0) ** np.arange(grid.size)
        profile = rng.standard_normal(grid.shape[:j] + (1,) + grid.shape[j + 1 :])
        vals += 2.0 * sign.reshape((-1,) + (1,) * (grid.dims - 1 - j)) * profile
    return Field(grid, vals - vals.mean())


def assert_half_close(got: np.ndarray, want: np.ndarray) -> None:
    """got matches want to HALF_SPECTRUM_RTOL of want's peak."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= HALF_SPECTRUM_RTOL * np.max(np.abs(want))
