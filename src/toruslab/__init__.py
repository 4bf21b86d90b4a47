"""toruslab: Carleson-box norms, semigroup extensions, and mild Navier-Stokes
solutions on the periodic torus, with a property-based theorem harness."""

from toruslab.spectral import (
    Field,
    SpectralField,
    TorusGrid,
    forward_transform,
    frac_laplacian_power,
    inverse_transform,
    leray_project,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "SpectralField",
    "TorusGrid",
    "forward_transform",
    "frac_laplacian_power",
    "inverse_transform",
    "leray_project",
    "__version__",
]
