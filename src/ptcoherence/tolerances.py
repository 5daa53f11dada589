"""Numerical tolerance constants, read at call time as ``tolerances.<name>``.

``perfbench/checks.py`` reads ``optics_residual`` and ``optics_state_action``
from this file without importing the package: it looks for annotated
assignments by name, so those two stay lowercase ``name: float = value``
lines.  The values suit double-precision 2x2 / 4x4 problems.
"""

#: Hermiticity / unit-trace tolerance for density matrices.
density: float = 1e-10
#: Density-matrix eigenvalues must be >= -positivity.
positivity: float = 1e-10
#: Scale-invariant residual below which an optical decomposition succeeds.
optics_residual: float = 1e-6
#: Allowed per-state deviation between target propagator and optical sequence.
optics_state_action: float = 1e-6
