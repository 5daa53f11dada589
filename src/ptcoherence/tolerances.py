"""Centralized numerical tolerance constants.

The package's comparison thresholds live in one frozen record;
``optics_state_action`` is read from this file by the optics check in
``perfbench/checks.py``.  The defaults reflect double-precision
arithmetic on well-conditioned 2x2 / 4x4 problems.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared across the package.

    Attributes
    ----------
    density:
        Hermiticity / unit-trace tolerance for density matrices.
    positivity:
        Density-matrix eigenvalues must be >= -positivity.
    optics_residual:
        Scale-invariant residual below which an optical decomposition
        counts as successful.
    optics_state_action:
        Allowed per-state deviation between evolving with the target
        propagator and with the assembled optical sequence (after
        normalization).
    ep_band:
        Half-width of the |a - 1| band classified as the exceptional
        point by `regime`.
    """

    density: float = 1e-10
    positivity: float = 1e-10
    optics_residual: float = 1e-6
    optics_state_action: float = 1e-6
    ep_band: float = 1e-9


#: Shared default tolerance record.
DEFAULT_TOLS = Tolerances()
