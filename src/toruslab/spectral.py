"""Periodic spectral core: torus grids, sampled fields, Fourier multipliers.

Everything here acts mode-wise on Fourier coefficients under the convention

    f(x) = sum_k c_k exp(2 pi i k.x / L),   k in [-N/2, N/2)^n,

so a constant field c has coefficient c at k = 0, and the symbol of the
square root of the (negative) Laplacian at mode k is 2 pi |k| / L.  Grid
sizes are powers of two so that the lattice maps onto itself exactly under
dyadic rescaling.

Operators that invert the Laplacian (negative fractional powers)
annihilate the zero mode: the norms downstream are seminorms
that vanish on constants, so fields are handled modulo their mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "TorusGrid",
    "Field",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "frac_laplacian_power",
    "leray_project",
    "extension_rate",
]

# Relative tolerance used by the mean-zero flag and the zero-mode checks.
MEAN_ZERO_RTOL = 1e-12

# The semigroup extensions a trace can be lifted by.
VALID_KINDS = ("poisson", "heat")


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TorusGrid:
    """Uniform sample lattice on the torus [0, L)^n.

    Parameters
    ----------
    dims : int
        Spatial dimension n, one of 1, 2, 3.
    size : int
        Points per axis N; must be an even power of two so dyadic
        rescaling is lattice-exact.
    length : float
        Period L of the torus, default 1.0.
    """

    dims: int
    size: int
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.dims not in (1, 2, 3):
            raise ValueError(f"dims must be 1, 2, or 3, got {self.dims}")
        if self.size < 4 or not _is_power_of_two(self.size):
            raise ValueError(f"size must be a power of two >= 4, got {self.size}")
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.size,) * self.dims

    @property
    def point_count(self) -> int:
        return self.size**self.dims

    @property
    def spacing(self) -> float:
        return self.length / self.size

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dims

    @cached_property
    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.size) * self.spacing

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Full-shape coordinate arrays, one per axis."""
        axes = [self.axis_coordinates] * self.dims
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def modes(self) -> tuple[np.ndarray, ...]:
        """Integer frequency k_j along each axis, broadcast to full shape.

        Frequencies follow the FFT layout and range over [-N/2, N/2).
        """
        per_axis = np.fft.fftfreq(self.size, d=1.0 / self.size)
        grids = np.meshgrid(*([per_axis] * self.dims), indexing="ij")
        for g in grids:
            g.setflags(write=False)
        return tuple(grids)

    @cached_property
    def derivative_modes(self) -> tuple[np.ndarray, ...]:
        """Like ``modes`` but with the Nyquist plane k_j = -N/2 zeroed.

        The -N/2 bin is self-conjugate for real fields, so odd symbols
        (derivatives, Riesz) must vanish there; the sampled derivative of
        the Nyquist cosine is identically zero at the grid points.
        """
        out = []
        for k in self.modes:
            d = np.where(k == -self.size // 2, 0.0, k)
            d.setflags(write=False)
            out.append(d)
        return tuple(out)

    @cached_property
    def mode_norm(self) -> np.ndarray:
        """|k| per mode, full shape."""
        out = np.sqrt(sum(k * k for k in self.modes))
        out.setflags(write=False)
        return out

    @cached_property
    def mode_square(self) -> np.ndarray:
        """|k|^2 per mode, full shape."""
        out = sum(k * k for k in self.modes)
        out.setflags(write=False)
        return out

    @property
    def origin(self) -> tuple[int, ...]:
        return (0,) * self.dims


@dataclass(frozen=True)
class Field:
    """Real samples of a function on a TorusGrid, row-major layout.

    The ``mean_zero`` flag is an assertion, not a command: setting it on
    samples whose average exceeds 1e-12 of the peak is an error.
    """

    grid: TorusGrid
    samples: np.ndarray
    mean_zero: bool = False

    def __post_init__(self) -> None:
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if samples.shape != self.grid.shape:
            raise ValueError(
                f"samples shape {samples.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(samples).all():
            raise ValueError("field samples must be finite")
        object.__setattr__(self, "samples", samples)
        if self.mean_zero:
            peak = float(np.max(np.abs(samples)))
            if peak > 0.0 and abs(float(samples.mean())) > MEAN_ZERO_RTOL * peak:
                raise ValueError("mean_zero flag set on samples with nonzero mean")

    def mean(self) -> float:
        return float(self.samples.mean())

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def remove_mean(self) -> "Field":
        # Two passes: one subtraction leaves O(ulp) of the removed constant,
        # which can dominate when the oscillating part is tiny.
        out = self.samples - self.samples.mean()
        out = out - out.mean()
        return Field(self.grid, out, mean_zero=True)

    def scaled(self, factor: float) -> "Field":
        return Field(self.grid, self.samples * factor, mean_zero=self.mean_zero)


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a real field, in numpy FFT layout."""

    grid: TorusGrid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeff = np.ascontiguousarray(self.coefficients, dtype=np.complex128)
        if coeff.shape != self.grid.shape:
            raise ValueError(
                f"coefficient shape {coeff.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(coeff).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeff)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coefficients)))

    def zero_mode(self) -> complex:
        return complex(self.coefficients[self.grid.origin])

    def is_mean_zero(self) -> bool:
        peak = self.max_abs()
        return peak == 0.0 or abs(self.zero_mode()) <= MEAN_ZERO_RTOL * peak


def forward_transform(f: Field) -> SpectralField:
    """Fourier coefficients of a sampled field (constant c -> c at k=0)."""
    return SpectralField(f.grid, np.fft.fftn(f.samples, norm="forward"))


def inverse_transform(fhat: SpectralField) -> Field:
    """Samples of a coefficient array, flagged mean-zero when its zero mode
    is; rejects non-negligible imaginary part."""
    complex_samples = np.fft.ifftn(fhat.coefficients, norm="forward")
    real = np.ascontiguousarray(complex_samples.real)
    peak = float(np.max(np.abs(real)))
    imag_peak = float(np.max(np.abs(complex_samples.imag)))
    if imag_peak > 1e-10 * max(peak, 1e-300):
        raise ValueError(
            f"inverse transform produced imaginary residue {imag_peak:.3e} (peak {peak:.3e}); "
            "coefficients are not Hermitian-symmetric"
        )
    return Field(fhat.grid, real, mean_zero=fhat.is_mean_zero())


def extension_rate(grid: TorusGrid, kind: str) -> np.ndarray:
    """Per-mode decay rate of a semigroup: u_hat(k, t) = exp(-rate t) f_hat(k).

    kind "poisson": 2 pi |k| / L, the symbol of sqrt(-Laplacian);
    kind "heat":    (2 pi / L)^2 |k|^2, the symbol of -Laplacian.
    """
    if kind == "poisson":
        return (2.0 * np.pi / grid.length) * grid.mode_norm
    if kind == "heat":
        return (2.0 * np.pi / grid.length) ** 2 * grid.mode_square
    raise ValueError(f"kind must be one of {VALID_KINDS}, got {kind!r}")


def frac_laplacian_power(fhat: SpectralField, s: float) -> SpectralField:
    """Fractional Laplacian power with symbol (2 pi |k| / L)^s, zero mode -> 0.

    ``s`` is the exponent of the half-power: the operator is
    (-Laplacian)^(s/2).  Negative ``s`` inverts derivatives and therefore
    requires mean-zero input.
    """
    if not -1.0 < s < 1.0:
        raise ValueError(f"fractional power exponent must lie in (-1, 1), got {s}")
    if s < 0 and not fhat.is_mean_zero():
        raise ValueError("negative fractional powers require mean-zero input")
    grid = fhat.grid
    base = extension_rate(grid, "poisson")
    with np.errstate(divide="ignore"):
        symbol = np.where(base > 0.0, base, 1.0) ** s
    symbol[grid.origin] = 0.0
    return SpectralField(grid, fhat.coefficients * symbol)


def leray_project(components: Sequence[SpectralField]) -> tuple[SpectralField, ...]:
    """Project a velocity field onto its divergence-free part.

    Symbol delta_jk - k_j k_k / |k|^2 per mode; the zero mode (mean flow)
    is left untouched.  Expects one component per grid dimension.
    """
    if not components:
        raise ValueError("leray projection needs at least one component")
    grid = components[0].grid
    if any(c.grid != grid for c in components):
        raise ValueError("leray projection requires a common grid")
    if len(components) != grid.dims:
        raise ValueError(
            f"expected {grid.dims} components for a {grid.dims}D grid, got {len(components)}"
        )
    # Projection uses the Nyquist-zeroed wavenumbers so divergence-free
    # output stays Hermitian-symmetric; modes the discrete divergence
    # cannot see (zero mode, pure Nyquist) pass through untouched.
    kd = grid.derivative_modes
    ksq = sum(k * k for k in kd)
    safe = np.where(ksq > 0.0, ksq, 1.0)
    k_dot_v = sum(kd[j] * components[j].coefficients for j in range(grid.dims))
    scale = k_dot_v / safe
    out = []
    for j in range(grid.dims):
        coeff = components[j].coefficients - kd[j] * scale
        out.append(SpectralField(grid, coeff))
    return tuple(out)
