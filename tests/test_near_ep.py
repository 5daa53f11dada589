"""Near the exceptional point, against a 60-digit reference.

The reference propagator is ``mpmath.expm`` of ``-i H t`` at 60 digits,
built from the same doubles the package receives (a, the state vector,
the times), so the comparison measures the package's arithmetic alone.
The states include ones within 1e-7 of the EP eigenvector, which the
propagator contracts near every half period: there the fixed terms
``M psi`` (and, for two qubits, ``(M ⊗ M) psi``) are far smaller than
their summands, and only their exact evaluation keeps C, the Bloch rows
and the two-qubit C within 1e-9.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from ptcoherence import (
    HamiltonianParams,
    PureState,
    SymmetryClass,
    TwoQubitState,
    coherence_series,
    theoretical_period,
    trajectory_array,
    two_qubit_series,
)

from conftest import random_states

_DPS = 60
_GAPS = [1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 1e-9]
#: Phase of the EP eigenvector (1, e^{i phi}) / sqrt(2): (1, -i) for PT, (1, i) for APT.
_EP_PHASE = {SymmetryClass.PT: 1.5 * math.pi, SymmetryClass.APT: 0.5 * math.pi}


def _params(kind: SymmetryClass, gap: float) -> HamiltonianParams:
    # the unbroken side: a < 1 for PT, a > 1 for APT
    return HamiltonianParams(kind=kind, a=1.0 - gap if kind is SymmetryClass.PT else 1.0 + gap)


def _states(kind: SymmetryClass) -> list[PureState]:
    """States within 1e-7 of the EP eigenvector, then 20 seeded states."""
    phi = _EP_PHASE[kind]
    near = [PureState.from_amplitudes(1.0, beta, phi) for beta in (1.0, 1.0 + 1e-7, 1.0 - 1e-7)]
    near += [PureState.from_amplitudes(1.0, 1.0, phi + d) for d in (1e-7, -1e-7)]
    return near + random_states(seed=1607, n=20)


def _two_qubit_states(kind: SymmetryClass) -> list[TwoQubitState]:
    """Products of near-EP states, the three named states and 10 seeded ones."""
    near = [s.vector() for s in _states(kind)[:3]]
    out = [TwoQubitState(np.kron(u, v)) for u in near for v in near[:2]]
    out += [TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3()]
    rng = np.random.default_rng(1608)
    out += [TwoQubitState(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(10)]
    return out


def _times(p: HamiltonianParams) -> np.ndarray:
    """[0, 11 T], with extra points beside the half periods, where the
    populations come closest to cancelling."""
    T = theoretical_period(p)
    return T * np.sort(np.concatenate([np.linspace(0.0, 11.0, 23),
                                       [0.4999, 0.5001, 10.4999, 10.5001]]))


def _reference_propagators(p: HamiltonianParams, times: np.ndarray) -> list[mpmath.matrix]:
    """``exp(-i H t)`` with H built from its definition, s (sigma_x + i a sigma_z)
    for PT and s (i sigma_x + a sigma_z) for APT, at s = 1."""
    with mpmath.workdps(_DPS):
        a = mpmath.mpf(p.a)
        sx, sz = mpmath.matrix([[0, 1], [1, 0]]), mpmath.matrix([[1, 0], [0, -1]])
        h = sx + 1j * a * sz if p.kind is SymmetryClass.PT else 1j * sx + a * sz
        return [mpmath.expm(-1j * h * mpmath.mpf(float(t))) for t in times]


def _mp_vector(v) -> list:
    return [mpmath.mpc(complex(x)) for x in v]


def _l1(v) -> float:
    """l1 coherence of the normalized pure state v: (sum |v_i|)^2 / sum |v_i|^2 - 1."""
    mags = [abs(x) for x in v]
    return float(sum(mags) ** 2 / sum(x * x for x in mags) - 1)


def _one_qubit(u: mpmath.matrix, psi: list) -> np.ndarray:
    """``(C, x, y, z)`` of the normalized ``u psi``."""
    v = u * mpmath.matrix(psi)
    v = v / mpmath.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)
    rho01 = v[0] * mpmath.conj(v[1])
    return np.array([_l1(v), float(2 * rho01.real), float(-2 * rho01.imag),
                     float(abs(v[0]) ** 2 - abs(v[1]) ** 2)])


def _two_qubit(u: mpmath.matrix, psi: list) -> float:
    """C of the normalized ``(u ⊗ u) psi = vec(u Psi u^T)``."""
    w = u * mpmath.matrix([psi[:2], psi[2:]]) * u.T
    return _l1([w[i, j] for i in range(2) for j in range(2)])


def _reference(f, us: list, psi: list) -> np.ndarray:
    with mpmath.workdps(_DPS):
        return np.array([f(u, psi) for u in us])


@pytest.mark.parametrize("gap", _GAPS)
@pytest.mark.parametrize("kind", [SymmetryClass.PT, SymmetryClass.APT], ids=["pt", "apt"])
def test_single_qubit_matches_60_digit_reference(kind, gap):
    p = _params(kind, gap)
    ts = _times(p)
    us = _reference_propagators(p, ts)
    for st_ in _states(kind):
        ref = _reference(_one_qubit, us, _mp_vector(st_.vector()))
        assert np.max(np.abs(coherence_series(st_, p, ts) - ref[:, 0])) <= 1e-9
        assert np.max(np.abs(trajectory_array(st_, p, ts)[:, 1:] - ref[:, 1:])) <= 1e-9


@pytest.mark.parametrize("gap", _GAPS)
@pytest.mark.parametrize("kind", [SymmetryClass.PT, SymmetryClass.APT], ids=["pt", "apt"])
def test_two_qubit_matches_60_digit_reference(kind, gap):
    p = _params(kind, gap)
    ts = _times(p)
    us = _reference_propagators(p, ts)
    for state in _two_qubit_states(kind):
        ref = _reference(_two_qubit, us, _mp_vector(state.vector))
        assert np.max(np.abs(two_qubit_series(state, p, ts) - ref)) <= 1e-9
