"""Two-qubit extension: product evolution U(t) ⊗ U(t) of entangled states.

Both qubits evolve under the same single-qubit generator (no
interaction term), so the joint propagator is the Kronecker square of
the single-qubit propagator and every single-qubit scale factor cancels
in the trace-normalized density matrix.  The l1 coherence of the
normalized 4x4 state can reach 3 (e.g. a balanced four-component
superposition), unlike the single-qubit bound of 1.

Phenomenology mirrored from the single-qubit case:

* unbroken regime — the two-qubit coherence is periodic with the same
  period ``T = pi / (s sqrt(|1 - a^2|))``;
* broken regime — it converges to a stable value independent of the
  initial state's coefficients, fixed entirely by the single-qubit
  stable value ``c``:  every qubit's conditional states align with the
  dominant eigenvector, giving ``C_AB -> (1 + c)^2 - 1`` for states
  with support on all four basis vectors (``c = 1/a`` for PT,
  ``c = 1`` for APT).

A heterogeneous variant (a different parameter set per qubit) is the
product ``U_A(t) ⊗ U_B(t)`` of the two closed-form propagators, which is
exact because ``H_A ⊗ I`` and ``I ⊗ H_B`` commute.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import CoherenceTrace, _asymptote_estimate, _scan, l1_coherence
from .evolution import (_propagator_slope, matmul2, max_entry, propagator_analytic,
                        propagator_grid, propagator_scaled)
from .hamiltonian import HamiltonianParams

__all__ = [
    "TwoQubitState",
    "two_qubit_propagator",
    "evolve_two_qubit",
    "two_qubit_coherence",
    "two_qubit_series",
    "two_qubit_coherence_trace",
]


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
        n = float(np.linalg.norm(v))
        if n < 1e-12:
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


def two_qubit_propagator(
    p: HamiltonianParams,
    t: float,
    p_second: HamiltonianParams | None = None,
) -> np.ndarray:
    """Joint propagator ``exp(-i (H_A ⊗ I + I ⊗ H_B) t)`` as a 4x4 array.

    The two terms commute, so this is exactly the Kronecker product
    ``U_A(t) ⊗ U_B(t)`` of the closed-form single-qubit propagators;
    ``p_second`` (default ``p``) gives the second qubit's parameters.

    Raises
    ------
    OverflowError
        If either factor exceeds the double-precision range (see
        :func:`~ptcoherence.evolution.propagator_analytic`).
    """
    q = p if p_second is None else p_second
    return np.kron(propagator_analytic(p, t).matrix, propagator_analytic(q, t).matrix)


def evolve_two_qubit(
    state: TwoQubitState,
    p: HamiltonianParams,
    t: float,
    p_second: HamiltonianParams | None = None,
) -> TwoQubitState:
    """Evolved, renormalized two-qubit state at time ``t``.

    Applies ``U_A(t) ⊗ U_B(t)`` built from the overflow-safe scaled
    single-qubit propagators (each factor's scale cancels on
    renormalization), so deep broken-regime times are fine for both the
    homogeneous and the heterogeneous (``p_second``) case.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    factors = []
    for q in (p, p if p_second is None else p_second):
        u_hat, _ = propagator_scaled(q, t)
        # U_hat is unscaled up to the core's switch (w s t = 150); bring
        # its entries to order one so the squared norm of the Kronecker
        # product (which overflows from w s t ~ 177) stays finite
        factors.append(u_hat / max_entry(u_hat))
    return TwoQubitState(np.kron(*factors) @ state.vector)


def two_qubit_coherence(state: TwoQubitState | np.ndarray) -> float:
    """l1 coherence of a two-qubit state (sum of off-diagonal magnitudes)."""
    return l1_coherence(state)


def two_qubit_series(
    state: TwoQubitState, p: HamiltonianParams, times: np.ndarray
) -> np.ndarray:
    """Two-qubit l1 coherence of the evolved state over a time grid.

    With the state vector ``psi`` reshaped to the 2x2 ``Psi`` (row
    index: first qubit), ``(U ⊗ U) psi = vec(U Psi U^T)``.  For the pure
    state ``v`` the off-diagonal magnitudes of ``|v><v|`` sum to
    ``(sum |v_i|)^2 - sum |v_i|^2`` and its trace is ``sum |v_i|^2``.
    """
    u = propagator_grid(p, times)
    psi2 = state.vector.reshape(2, 2)
    mags = np.abs(matmul2(matmul2(u, psi2), u.transpose(0, 2, 1)).reshape(-1, 4))
    l1 = mags.sum(axis=1)
    norm2 = (mags * mags).sum(axis=1)
    return (l1 * l1 - norm2) / norm2


def two_qubit_slope(p: HamiltonianParams, psi: np.ndarray, theta: np.ndarray):
    """The sign of the two-qubit dC/dtheta and its rounding bound, shape ``(1, n)``.

    With v = vec(U Psi U^T), v' = vec(U' Psi U^T + U Psi U'^T),
    L = sum |v_i|, N = sum |v_i|^2 and C = L^2 / N - 1, that sign is the
    sign of L' N - L sum Re(conj(v_i) v_i'), where
    L' = sum Re(conj(v_i) v_i') / |v_i| (terms with v_i = 0 dropped).
    """
    u, du = _propagator_slope(p, theta)
    psi2 = np.asarray(psi, dtype=complex).reshape(2, 2)
    up, ut = matmul2(u, psi2), u.transpose(0, 2, 1)
    v = matmul2(up, ut).reshape(-1, 4)
    dv = (matmul2(matmul2(du, psi2), ut) + matmul2(up, du.transpose(0, 2, 1))).reshape(-1, 4)
    mags, re = np.abs(v), (v.conj() * dv).real
    ratio = np.divide(re, mags, out=np.zeros_like(re), where=mags > 0.0)
    l1, norm2 = mags.sum(axis=1), (mags * mags).sum(axis=1)
    f = ratio.sum(axis=1) * norm2 - l1 * re.sum(axis=1)
    # both sums can cancel (at t = 0 for psi_2 and psi_3): bound by their terms
    scale = np.abs(ratio).sum(axis=1) * norm2 + l1 * np.abs(re).sum(axis=1)
    return f[None], 64.0 * np.finfo(np.float64).eps * scale[None]


def two_qubit_coherence_trace(
    state: TwoQubitState,
    p: HamiltonianParams,
    times: np.ndarray,
) -> CoherenceTrace:
    """Coherence trace C_AB(t) on the caller's grid, with extrema located
    by an independent dense scan of the window.

    ``times`` must be sorted, nonnegative, and hold at least two points.
    The returned trace carries the caller's grid in ``times``/``values``;
    extremum times/values and the period estimate come from the scan
    (bisection on the exact slope in ``theta = s t``, as in
    :func:`~ptcoherence.coherence.find_extrema`), and the asymptote
    estimate from the tail of the caller's grid, flat per unit theta.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < 2:
        raise ValueError("times must be a 1-D grid with at least two points")
    if ts[0] < 0 or np.any(np.diff(ts) <= 0):
        raise ValueError("times must be strictly increasing and nonnegative")
    values = two_qubit_series(state, p, ts)
    scan = _scan(
        lambda q, grid: two_qubit_series(state, q, grid),
        lambda q, grid: two_qubit_slope(q, state.vector, grid),
        p, (float(ts[0]), float(ts[-1])), samples=max(2048, 4 * ts.size),
    )
    return CoherenceTrace(
        times=ts,
        values=values,
        extrema=scan.extrema,
        period_estimate=scan.period_estimate,
        asymptote_estimate=_asymptote_estimate(p.s * ts, values),
        warning=scan.warning,
    )
