"""Flow-solver oracles that only the tests use: a node of a trace as a
velocity field, some of a trace's nodes as a trace, the node-by-node
difference of two traces, and the defect of the Navier-Stokes scaling
symmetry. They read the solver's kept-block machinery (``ns3d._Symbols``)
but are not part of the library."""

import numpy as np

from toruslab.ns3d import NSTrace, VelocityField, _relative_l2, _Symbols, mild_solve_picard
from toruslab.spectral import Field
from toruslab.verify import lattice_rescale


def velocity(trace: NSTrace, coeff: np.ndarray) -> VelocityField:
    """One node's kept-block coefficients as a VelocityField on the grid."""
    return VelocityField(trace.grid, tuple(
        Field(trace.grid, u) for u in trace._symbols.to_grid(coeff)))


def final_velocity(trace: NSTrace) -> VelocityField:
    return velocity(trace, trace.coefficients[-1])


def nodes_of(trace: NSTrace, index: slice) -> NSTrace:
    """The trace's nodes at ``index`` as a trace of their own."""
    return NSTrace(trace.grid, trace.times[index], trace.coefficients[index], trace.config)


def trace_difference(a: NSTrace, b: NSTrace) -> float:
    """Max over shared nodes of the relative L2 velocity difference."""
    if a.grid != b.grid:
        raise ValueError("traces live on different grids")
    if a.times.size != b.times.size or not np.allclose(
        a.times, b.times, rtol=1e-12, atol=0.0
    ):
        raise ValueError("traces store different time nodes")
    sym = _Symbols(a.grid)
    return max(_relative_l2(sym.power(x - y), sym.power(y))
               for x, y in zip(a.coefficients, b.coefficients))


def scaling_defect(
    a: VelocityField,
    horizon: float,
    nodes: int = 64,
    lam: int = 2,
) -> float:
    """Deviation from the scaling symmetry u -> lam u(lam x, lam^2 t).

    Solves from a over [0, horizon] and from lam*a(lam .) over
    [0, horizon/lam^2] on the same grid and node count, then compares
    node i of the second run against the rescaled node i of the first.
    Exact on the continuum; on the lattice limited by the dealiasing cut
    acting at different physical frequencies for the two runs.
    """
    rescaled = tuple(
        lattice_rescale(c, lam).scaled(float(lam)) for c in a.components
    )
    a_lam = VelocityField(a.grid, rescaled)
    coarse = mild_solve_picard(a, horizon, nodes=nodes)
    fine = mild_solve_picard(a_lam, horizon / lam**2, nodes=nodes)
    if not (coarse.converged and fine.converged):
        raise ValueError("scaling check requires both runs to contract")
    sym = _Symbols(a.grid)
    worst = 0.0
    for i in range(nodes):
        want = np.stack([
            float(lam) * lattice_rescale(Field(a.grid, c), lam).samples
            for c in sym.to_grid(coarse.coefficients[i])
        ])
        got = sym.to_grid(fine.coefficients[i])
        worst = max(worst, _relative_l2(float(np.sum((got - want) ** 2)),
                                        float(np.sum(want**2))))
    return worst
