"""Two-qubit extension: product evolution U_A(t) ⊗ U_B(t) of entangled states.

The qubits do not interact, so the joint state is the one pure-state
evaluator :func:`~ptcoherence.evolution.pure_rows` on two qubits: exact
because ``H_A ⊗ I`` and ``I ⊗ H_B`` commute, and every single-qubit scale
factor cancels on renormalization.  Both qubits evolve under ``p`` unless
``p_second`` gives the second its own parameters; such a pair is not
scanned for extrema, since the scan runs in ``theta = s t`` of one
generator.  The l1 coherence of the normalized 4-component state can
reach 3 (e.g. a balanced four-component superposition), unlike the
single-qubit bound of 1.

Phenomenology mirrored from the single-qubit case (one ``p`` for both):

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
from typing import TYPE_CHECKING

import numpy as np

from . import _EXPORTS
from .evolution import (_evolution_times, evolve_product, pure_l1, pure_rows, pure_terms,
                        shifted_pairs)
from .hamiltonian import HamiltonianParams

if TYPE_CHECKING:
    from .coherence import CoherenceTrace

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

    @property
    def rho4(self) -> np.ndarray:
        """Density matrix |psi><psi| (4x4)."""
        return np.outer(self.vector, self.vector.conj())

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


def evolve_two_qubit(state: TwoQubitState, p: HamiltonianParams, t: float,
                     p_second: HamiltonianParams | None = None) -> TwoQubitState:
    """Evolved, renormalized two-qubit state at time ``t`` under
    ``U_A(t) ⊗ U_B(t)`` (``p_second`` as in :func:`two_qubit_series`)."""
    return TwoQubitState(pure_rows([p, p_second or p], state.vector, _evolution_times([t]))[0])


def two_qubit_series(state: TwoQubitState, p: HamiltonianParams, times: np.ndarray,
                     p_second: HamiltonianParams | None = None) -> np.ndarray:
    """Two-qubit l1 coherence of the evolved state over a time grid.

    ``p_second`` (default ``p``) gives the second qubit's parameters.
    C is :func:`~ptcoherence.evolution.pure_l1` of the evolved state.
    """
    return pure_l1(pure_rows([p, p_second or p], state.vector, times))


def two_qubit_slope(p: HamiltonianParams, terms: dict, theta: np.ndarray):
    """The sign of the two-qubit dC/dtheta and its rounding bound, shape ``(1, n)``.

    With the fixed ``terms`` of K ⊗ K, v = (U ⊗ U) psi,
    v' = (U' ⊗ U + U ⊗ U') psi (U' = F' I + G' K), L = sum |v_i|,
    N = sum |v_i|^2 and C = L^2 / N - 1, that sign is the
    sign of L' N - L sum Re(conj(v_i) v_i'), where
    L' = sum Re(conj(v_i) v_i') / |v_i| (terms with v_i = 0 dropped).
    """
    c, dc = shifted_pairs(p, theta, slope=True)
    v = evolve_product([c, c], terms)
    dv = evolve_product([dc, c], terms) + evolve_product([c, dc], terms)
    mags, re = np.abs(v), (v.conj() * dv).real
    ratio = np.divide(re, mags, out=np.zeros_like(re), where=mags > 0.0)
    l1, norm2 = mags.sum(axis=1), (mags * mags).sum(axis=1)
    f = ratio.sum(axis=1) * norm2 - l1 * re.sum(axis=1)
    # both sums can cancel (at t = 0 for psi_2 and psi_3): bound by their terms
    scale = np.abs(ratio).sum(axis=1) * norm2 + l1 * np.abs(re).sum(axis=1)
    return f[None], 64.0 * np.finfo(np.float64).eps * scale[None]


def two_qubit_coherence_trace(state: TwoQubitState, p: HamiltonianParams,
                              window: tuple[float, float]) -> CoherenceTrace:
    """Coherence trace C_AB(t) on the half-open window ``(t0, t1)``, as
    :func:`~ptcoherence.coherence.find_extrema` gives it for one qubit:
    the scan's sampled span, extrema and estimates, from the same window
    rules and errors.  Both qubits evolve under ``p``, since the scan runs
    in ``theta = s t`` of one generator.
    """
    from .coherence import _scan

    terms = pure_terms([p, p], state.vector)  # fixed for the scan
    return _scan(lambda q, grid: two_qubit_series(state, q, grid),
                 lambda q, grid: two_qubit_slope(q, terms, grid), p, window)
