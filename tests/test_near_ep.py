"""Near the exceptional point, against the high-precision reference.

The reference rows are ``_oracle.reference_rows``: ``mpmath.expm`` of
``-i H t`` at 60 digits, from the same doubles the package receives (a,
the state vector, the times), so the comparison measures the package's
arithmetic alone.  The states include ones within 1e-7 of the EP
eigenvector, which the propagator contracts near every half period:
there the fixed terms ``M psi`` (and, for two qubits, ``(M ⊗ M) psi``)
are far smaller than their summands, and only their exact evaluation
keeps C, the Bloch rows and the two-qubit C within 1e-9.
"""
from __future__ import annotations

import math

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

from _oracle import reference_rows
from conftest import random_states

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


@pytest.mark.parametrize("gap", _GAPS)
@pytest.mark.parametrize("kind", [SymmetryClass.PT, SymmetryClass.APT], ids=["pt", "apt"])
def test_single_qubit_matches_60_digit_reference(kind, gap):
    p = _params(kind, gap)
    ts = _times(p)
    for st_ in _states(kind):
        ref = reference_rows(p, st_.vector(), ts)
        assert np.max(np.abs(coherence_series(st_, p, ts) - ref[:, 0])) <= 1e-9
        assert np.max(np.abs(trajectory_array(st_, p, ts)[:, 1:] - ref[:, 1:])) <= 1e-9


@pytest.mark.parametrize("gap", _GAPS)
@pytest.mark.parametrize("kind", [SymmetryClass.PT, SymmetryClass.APT], ids=["pt", "apt"])
def test_two_qubit_matches_60_digit_reference(kind, gap):
    p = _params(kind, gap)
    ts = _times(p)
    for state in _two_qubit_states(kind):
        ref = reference_rows(p, state.vector, ts)
        assert np.max(np.abs(two_qubit_series(state, p, ts) - ref)) <= 1e-9
