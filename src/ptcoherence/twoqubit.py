"""Two-qubit extension: product evolution U(t) ⊗ U(t) of entangled states.

The qubits do not interact, so the joint state is the one pure-state
evaluator :func:`~ptcoherence.evolution.pure_rows` on four amplitudes:
exact because ``H ⊗ I`` and ``I ⊗ H`` commute, and every single-qubit
scale factor cancels on renormalization.  Both qubits evolve under one
generator ``p``.  The l1 coherence of the normalized 4-component state can
reach 3 (e.g. a balanced four-component superposition), unlike the
single-qubit bound of 1.

Phenomenology mirrored from the single-qubit case:

* unbroken regime — the two-qubit coherence is periodic with the same
  period ``T = pi / (s sqrt(|1 - a^2|))``;
* outside the unbroken regime — it converges to a stable value
  independent of the initial state's coefficients, fixed entirely by the
  single-qubit stable value ``c``:  every qubit's conditional states align
  with the dominant eigenvector, giving ``C_AB -> (1 + c)^2 - 1`` for
  states with support on all four basis vectors (``c = 1/a`` for PT,
  ``c = 1`` for APT, so 3 at the exceptional point).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .evolution import pure_l1, pure_rows
from .hamiltonian import HamiltonianParams

__all__ = list(_EXPORTS["twoqubit"])


@dataclass(frozen=True)
class TwoQubitState:
    """Normalized pure state of two qubits in the |00>,|01>,|10>,|11> basis."""

    vector: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        if v.shape != (4,):
            raise ValueError(f"expected 4 components, got shape {np.shape(self.vector)}")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("state components must be finite")
        # scaled by the power of two at the largest magnitude, exactly, so no
        # square overflows or underflows (the exponent's clamp keeps the scale finite)
        e = max(math.frexp(float(np.abs(v).max()))[1], -1000)
        v = v * math.ldexp(1.0, -e)
        n = math.sqrt(float(np.sum(v.real * v.real) + np.sum(v.imag * v.imag)))
        if n < math.ldexp(1e-12, -e):
            raise ValueError("state vector cannot be (numerically) zero")
        v = v / n
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @classmethod
    def psi_1(cls) -> "TwoQubitState":
        """(|00> + |01> + |11>) / sqrt(3)."""
        return cls(np.array([1.0, 1.0, 0.0, 1.0], dtype=complex))

    @classmethod
    def psi_2(cls) -> "TwoQubitState":
        """(|00> + e^{i pi/5} |11>) / sqrt(2)."""
        return cls(np.array([1.0, 0.0, 0.0, np.exp(1j * np.pi / 5.0)]))

    @classmethod
    def psi_3(cls) -> "TwoQubitState":
        """(|00> + |01> + |10> + e^{i pi/5} |11>) / 2."""
        return cls(np.array([1.0, 1.0, 1.0, np.exp(1j * np.pi / 5.0)]))


def two_qubit_series(state: TwoQubitState, p: HamiltonianParams,
                     times: np.ndarray) -> np.ndarray:
    """Two-qubit l1 coherence of the evolved state over a time grid, both
    qubits under ``p``: :func:`~ptcoherence.evolution.pure_l1` of the
    evolved state."""
    return pure_l1(pure_rows(p, state.vector, times))
