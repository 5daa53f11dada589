"""Bloch-vector extraction and state-space trajectories.

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evolution import DensityMatrix, PureState, evolve_pure_grid
from .hamiltonian import HamiltonianParams

__all__ = ["BlochPoint", "bloch_vector", "trajectory", "trajectory_array"]


@dataclass(frozen=True)
class BlochPoint:
    """A Bloch vector (x, y, z) tagged with its evolution time."""

    t: float
    x: float
    y: float
    z: float

    @property
    def radius(self) -> float:
        """Euclidean norm; 1 for pure states, < 1 for mixed states."""
        return float(np.sqrt(self.x * self.x + self.y * self.y + self.z * self.z))


def bloch_vector(rho: DensityMatrix, t: float = 0.0) -> BlochPoint:
    """Bloch vector of a density matrix under the package convention."""
    m = rho.rho
    return BlochPoint(
        t=float(t),
        x=float(2.0 * m[0, 1].real),
        y=float(-2.0 * m[0, 1].imag),
        z=float((m[0, 0] - m[1, 1]).real),
    )


def trajectory_array(
    st: PureState,
    p: HamiltonianParams,
    grid: Sequence[float],
) -> np.ndarray:
    """Bloch trajectory as an ``(n, 4)`` array of rows ``(t, x, y, z)``.

    Same arguments and checks as :func:`trajectory`; the whole grid is
    evolved in one batch.
    """
    ts = np.asarray(grid, dtype=float)
    if ts.ndim != 1 or len(ts) == 0:
        raise ValueError("grid must be a nonempty 1-D sequence of times")
    if np.any(np.diff(ts) < 0):
        raise ValueError("grid times must be sorted ascending")
    if ts[0] < 0:
        raise ValueError("grid times must be nonnegative")
    v = evolve_pure_grid(st, p, ts)
    rho01 = v[:, 0] * np.conj(v[:, 1])
    pops = np.abs(v) ** 2
    return np.column_stack([ts, 2.0 * rho01.real, -2.0 * rho01.imag, pops[:, 0] - pops[:, 1]])


def trajectory(
    st: PureState,
    p: HamiltonianParams,
    grid: Sequence[float],
) -> list[BlochPoint]:
    """Bloch trajectory of the normalized evolved pure state.

    Parameters
    ----------
    st:
        Initial pure state.
    p:
        Generator parameters.
    grid:
        Times, sorted ascending and nonnegative.

    Returns
    -------
    list[BlochPoint]
        One point per grid time; pure-state evolution keeps the radius
        at 1 to within numerical tolerance.
    """
    return [BlochPoint(*row) for row in trajectory_array(st, p, grid).tolist()]
