"""Bloch trajectories of the evolved state.

Convention (fixed package-wide, shared with the tomography module's
Stokes parameterization):

    x = 2 Re rho_01,   y = -2 Im rho_01,   z = rho_00 - rho_11

so that |H> sits at the north pole (0, 0, 1), the diagonal state
(|H>+|V>)/sqrt(2) at (1, 0, 0), and the circular state
(|H>-i|V>)/sqrt(2) at (0, -1, 0).  Under this map the single-qubit l1
coherence is the equatorial radius ``sqrt(x^2 + y^2)``, which makes
"conserved coherence 1" and "trajectory confined to the equator"
literally the same statement.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .evolution import PureState, _evolution_times, evolve_pure_grid
from .hamiltonian import HamiltonianParams

__all__ = ["trajectory_array"]


def trajectory_array(
    st: PureState,
    p: HamiltonianParams,
    grid: Sequence[float],
) -> np.ndarray:
    """Bloch trajectory of the normalized evolved pure state as an
    ``(n, 4)`` array of rows ``(t, x, y, z)``.

    ``grid`` holds the times: nonempty, finite, nonnegative and sorted
    ascending.  The whole grid is evolved in one batch; pure-state
    evolution keeps the radius at 1 to within numerical tolerance.
    """
    ts = _evolution_times(grid)
    if ts.size == 0 or np.any(np.diff(ts) < 0):
        raise ValueError("grid must be a nonempty sequence of ascending times")
    v = evolve_pure_grid(st, p, ts)
    # np.multiply, not `*`: `*` lets numpy reuse a large conj temporary as
    # the output, which swaps the operands and so the last bits of a row
    rho01 = np.multiply(v[:, 0], np.conj(v[:, 1]))
    pops = np.abs(v) ** 2
    return np.column_stack([ts, 2.0 * rho01.real, -2.0 * rho01.imag, pops[:, 0] - pops[:, 1]])
