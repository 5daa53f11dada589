"""Deep in the PT broken regime at large a, against a 400-digit reference.

There the evolved state aligns with the growing eigenvector, whose small
component is about 1/(2a) of the large one: C tends to 1/a and the
two-qubit C to (1 + 1/a)^2 - 1.  A propagator entry formed as A - a g
(two unit-size terms) would leave that component rounding noise, so the
checks are relative.  The reference is ``cosh(w theta) I + sinh(w theta)/w M``
with ``M = -i H`` built from its definition (``M^2 = w^2 I``), at 400 digits,
from the same doubles the package receives.
"""
from __future__ import annotations

import mpmath
import numpy as np
import pytest

from ptcoherence import (
    HamiltonianParams,
    PureState,
    SymmetryClass,
    TwoQubitState,
    coherence_series,
    trajectory_array,
    two_qubit_series,
)

from conftest import random_states

_DPS = 400


def _reference_propagators(a: float, times: np.ndarray) -> list[mpmath.matrix]:
    with mpmath.workdps(_DPS):
        am = mpmath.mpf(a)
        h = mpmath.matrix([[0, 1], [1, 0]]) + 1j * am * mpmath.matrix([[1, 0], [0, -1]])
        m = -1j * h
        w = mpmath.sqrt(am * am - 1)
        return [mpmath.cosh(w * mpmath.mpf(float(t))) * mpmath.eye(2)
                + mpmath.sinh(w * mpmath.mpf(float(t))) / w * m for t in times]


def _l1(v) -> float:
    """l1 coherence of the normalized pure state v: 2 sum_{i<j} |v_i||v_j| / sum |v_i|^2."""
    mags = [abs(x) for x in v]
    off = sum(mags[i] * mags[j] for i in range(len(mags)) for j in range(i + 1, len(mags)))
    return float(2 * off / sum(x * x for x in mags))


def _mp(v) -> list:
    return [mpmath.mpc(complex(x)) for x in v]


@pytest.mark.parametrize("a", [3.0, 1e4, 1e8, 1e16, 1e50, 1.3e154])
def test_broken_regime_at_large_a_matches_reference(a):
    p = HamiltonianParams(kind=SymmetryClass.PT, a=a)
    ts = np.array([0.3 / a, 1.0 / a, 5.0, 10.0])  # onset, then the plateau
    us = _reference_propagators(a, ts)
    states = [PureState.preset(n) for n in ("H", "D", "h-sqrt3v")] + random_states(seed=1701, n=6)
    with mpmath.workdps(_DPS):
        for st_ in states:
            ref_c, ref_b = [], []
            for u in us:
                v = u * mpmath.matrix(_mp(st_.vector()))
                v = v / mpmath.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)
                rho01 = v[0] * mpmath.conj(v[1])
                ref_c.append(_l1(v))
                ref_b.append([float(2 * rho01.real), float(-2 * rho01.imag),
                              float(abs(v[0]) ** 2 - abs(v[1]) ** 2)])
            assert coherence_series(st_, p, ts) == pytest.approx(ref_c, rel=1e-12, abs=0.0)
            assert np.max(np.abs(trajectory_array(st_, p, ts)[:, 1:] - ref_b)) <= 1e-15
        for state in (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3()):
            psi = _mp(state.vector)
            ref = [_l1([w[i, j] for i in range(2) for j in range(2)])
                   for w in (u * mpmath.matrix([psi[:2], psi[2:]]) * u.T for u in us)]
            assert two_qubit_series(state, p, ts) == pytest.approx(ref, rel=1e-12, abs=0.0)
