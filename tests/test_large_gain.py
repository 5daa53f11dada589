"""Deep in the PT broken regime at large a, against the high-precision reference.

There the evolved state aligns with the growing eigenvector, whose small
component is about 1/(2a) of the large one: C tends to 1/a and the
two-qubit C to (1 + 1/a)^2 - 1.  A propagator entry formed as A - a g
(two unit-size terms) would leave that component rounding noise, so the
checks are relative.  The reference rows are ``_oracle.reference_rows``,
whose ``mpmath.expm`` works at 60 + 2 ceil(log10 a) digits (370 at
a = 1.3e154), from the same doubles the package receives.
"""
from __future__ import annotations

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

from _oracle import reference_rows
from conftest import random_states


@pytest.mark.parametrize("a", [3.0, 1e4, 1e8, 1e16, 1e50, 1e104, 1e110, 1.3e154])
def test_broken_regime_at_large_a_matches_reference(a):
    p = HamiltonianParams(kind=SymmetryClass.PT, a=a)
    ts = np.array([0.3 / a, 1.0 / a, 5.0, 10.0])  # onset, then the plateau
    # |V> and its neighbour: the product of their evolved magnitudes, about
    # a^-3, leaves the double range unless each row is scaled first
    states = [PureState.preset(n) for n in ("H", "D", "h-sqrt3v")] + random_states(seed=1701, n=6)
    states += [PureState(0.0, 1.0), PureState.from_amplitudes(1e-300, 1.0)]
    for st_ in states:
        ref = reference_rows(p, st_.vector(), ts)
        assert coherence_series(st_, p, ts) == pytest.approx(ref[:, 0], rel=1e-12, abs=0.0)
        assert np.max(np.abs(trajectory_array(st_, p, ts)[:, 1:] - ref[:, 1:])) <= 1e-15
    for state in (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3()):
        ref = reference_rows(p, state.vector, ts)
        assert two_qubit_series(state, p, ts) == pytest.approx(ref, rel=1e-12, abs=0.0)
