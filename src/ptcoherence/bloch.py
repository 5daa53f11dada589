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

from . import _EXPORTS
from .evolution import DegenerateEvolutionError, PureState, _evolution_times, pure_rows
from .hamiltonian import HamiltonianParams

__all__ = list(_EXPORTS["bloch"])


def trajectory_array(
    st: PureState,
    p: HamiltonianParams,
    grid: Sequence[float],
) -> np.ndarray:
    """Bloch trajectory of the normalized evolved pure state as an
    ``(n, 4)`` array of rows ``(t, x, y, z)``.

    ``grid`` holds the times: nonempty, finite, nonnegative and sorted
    ascending.  The whole grid is evolved in one batch by
    :func:`~ptcoherence.evolution.pure_rows` and each row normalized, so
    the radius is 1 to within numerical tolerance at any depth of the
    broken regime.
    """
    ts = _evolution_times(grid)
    if ts.size == 0 or np.any(np.diff(ts) < 0):
        raise ValueError("grid must be a nonempty sequence of ascending times")
    v = pure_rows(p, st.vector(), ts)
    norms = np.sqrt((v.real * v.real).sum(axis=1) + (v.imag * v.imag).sum(axis=1))
    if np.any(norms < 1e-300):
        raise DegenerateEvolutionError("evolved state norm is below 1e-300: the state's "
                                       "fixed terms underflow in double precision")
    v = v / norms[:, np.newaxis]
    # np.multiply, not `*`: `*` lets numpy reuse a large conj temporary as
    # the output, which swaps the operands and so the last bits of a row
    rho01 = np.multiply(v[:, 0], np.conj(v[:, 1]))
    pops = np.abs(v) ** 2
    return np.column_stack([ts, 2.0 * rho01.real, -2.0 * rho01.imag, pops[:, 0] - pops[:, 1]])
