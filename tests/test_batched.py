"""Batched grid paths against the independent per-point reference.

The matrix path (``evolve_density_grid``), the state rows
(``pure_rows``), the Bloch rows (``trajectory_array``) and
``two_qubit_series`` evaluate whole grids in array operations.  Here
every row is compared with ``_oracle.reference_matrix``, the
high-precision ``mpmath.expm`` propagator divided by its largest entry,
on grids whose phases ``w s t`` cross the propagator core's scale switch
(150) and reach deep into the broken regime.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from _oracle import reference_matrix

import ptcoherence as pc
from ptcoherence.bloch import trajectory_array
from ptcoherence.evolution import _check_densities, evolve_density_grid, pure_rows

KINDS = (pc.SymmetryClass.PT, pc.SymmetryClass.APT)
#: Unbroken, EP, and broken detuning ratios (PT is broken above 1, APT below).
A_PANEL = (0.47, 1.0, 1.5, 2.8)
#: Phases w s t: the series switch, ordinary values, both sides of the
#: scale switch, and deep in the broken regime.
PHASES = (0.0, 3e-5, 0.4, 2.0, 7.7, 149.5, 150.5, 170.0, 250.0, 299.5, 300.5, 420.0)
S = 1.3


def _panel():
    for kind in KINDS:
        for a in A_PANEL:
            yield pc.HamiltonianParams(kind=kind, s=S, a=a)


def _rate(p: pc.HamiltonianParams) -> float:
    """``w s`` (``s`` at the EP): the phase per unit time."""
    w = math.sqrt(abs(1.0 - p.a * p.a))
    return p.s * (w if w > 0 else 1.0)


def _times(p: pc.HamiltonianParams) -> np.ndarray:
    return np.array(PHASES) / _rate(p)


STATE = pc.PureState.from_amplitudes(0.6, 0.8, 0.7)


@pytest.mark.parametrize("p", list(_panel()), ids=str)
def test_density_grid_matches_per_point(p):
    ts = _times(p)
    rho0 = STATE.density()
    grid = evolve_density_grid(rho0, p, ts)
    assert grid.shape == (ts.size, 2, 2)
    # the closed form agrees with the matrix path past the scale switch
    assert np.max(np.abs(pc.coherence_series(STATE, p, ts) - 2.0 * np.abs(grid[:, 0, 1]))) < 1e-12
    for t, rho in zip(ts, grid):
        u = reference_matrix(p, float(t))
        sig = u @ rho0.rho @ u.conj().T
        assert np.max(np.abs(rho - sig / np.trace(sig).real)) < 1e-12


@pytest.mark.parametrize("p", list(_panel()), ids=str)
def test_bloch_rows_match_per_point(p):
    ts = _times(p)
    rows = trajectory_array(STATE, p, ts)
    assert rows.shape == (ts.size, 4)
    assert np.array_equal(rows[:, 0], ts)
    for t, v, row in zip(ts, pure_rows(p, STATE.vector(), ts), rows):
        w = reference_matrix(p, float(t)) @ STATE.vector()
        w = w / np.linalg.norm(w)
        assert np.max(np.abs(v / np.linalg.norm(v) - w)) < 1e-12
        r01 = w[0] * np.conj(w[1])
        xyz = (2.0 * r01.real, -2.0 * r01.imag, abs(w[0]) ** 2 - abs(w[1]) ** 2)
        assert np.max(np.abs(row[1:] - xyz)) < 1e-12


TWO_QUBIT_STATES = (
    pc.TwoQubitState.psi_1(),
    pc.TwoQubitState.psi_2(),
    pc.TwoQubitState.psi_3(),
    pc.TwoQubitState(np.array([0.3 + 0.1j, -0.5, 0.2j, 0.7])),
)


@pytest.mark.parametrize("p", list(_panel()), ids=str)
def test_two_qubit_series_matches_per_point(p):
    ts = _times(p)
    for state in TWO_QUBIT_STATES:
        series = pc.two_qubit_series(state, p, ts)
        for t, value in zip(ts, series):
            u = reference_matrix(p, float(t))
            v = np.kron(u, u) @ state.vector
            v = v / np.linalg.norm(v)
            assert abs(value - pc.l1_coherence(np.outer(v, v.conj()))) < 1e-12


@pytest.mark.parametrize("p", list(_panel()), ids=str)
def test_two_qubit_rows_match_per_point(p):
    # the four-amplitude rows themselves, not only their C, against
    # U ⊗ U of the reference propagator
    ts = _times(p)
    for state in TWO_QUBIT_STATES:
        for t, v in zip(ts, pure_rows(p, state.vector, ts)):
            u = reference_matrix(p, float(t))
            w = np.kron(u, u) @ state.vector
            w = w / np.linalg.norm(w)
            assert abs(abs(np.vdot(w, v / np.linalg.norm(v))) - 1.0) < 1e-12


@pytest.mark.parametrize("p, plateau", [
    (pc.HamiltonianParams(kind=pc.SymmetryClass.PT, s=1.0, a=3.0), (4 / 3) ** 2 - 1.0),
    (pc.HamiltonianParams(kind=pc.SymmetryClass.APT, s=1.0, a=0.2), 3.0),
], ids=["pt", "apt"])
def test_broken_two_qubit_series_reaches_product_plateau(p, plateau):
    # both qubits align with the dominant eigenvector, so
    # C_AB -> (1 + c)^2 - 1 with c = 1/a (PT) or 1 (APT), to double
    # precision from w s t = 400 on
    ts = np.array([0.0, 1.0, 400.0, 1e4, 1e8]) / _rate(p)
    values = pc.two_qubit_series(pc.TwoQubitState.psi_3(), p, ts)
    assert values[0] == pytest.approx(3.0, abs=1e-12)
    assert values[2:] == pytest.approx(plateau, abs=1e-12)


def test_grid_evolution_rejects_bad_times():
    p = pc.HamiltonianParams(kind=pc.SymmetryClass.PT, s=1.0, a=0.5)
    for bad in ([0.0, -1.0], [0.0, np.inf], [np.nan]):
        with pytest.raises(ValueError):
            evolve_density_grid(STATE.density(), p, bad)
        with pytest.raises(ValueError):
            trajectory_array(STATE, p, bad)


# ---------------------------------------------------------------------------
# the shared density-matrix validator
# ---------------------------------------------------------------------------

def _corruptions():
    nan = np.array([[0.5, np.nan], [0.0, 0.5]], dtype=complex)
    non_hermitian = np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex)
    bad_trace = np.array([[0.9, 0.0], [0.0, 0.9]], dtype=complex)
    negative = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
    return {"non-finite": nan, "non-Hermitian": non_hermitian,
            "trace": bad_trace, "negative eigenvalue": negative}


@pytest.mark.parametrize("name", list(_corruptions()))
@pytest.mark.parametrize("where", [0, 17, -1])
def test_validator_rejects_any_corrupted_point(name, where):
    p = pc.HamiltonianParams(kind=pc.SymmetryClass.APT, s=1.0, a=0.47)
    batch = evolve_density_grid(STATE.density(), p, np.linspace(0.0, 5.0, 40))
    _check_densities(batch)  # the valid grid passes
    bad = _corruptions()[name]
    batch[where] = bad
    with pytest.raises(ValueError) as single:
        pc.DensityMatrix(bad)
    with pytest.raises(ValueError) as batched:
        _check_densities(batch)
    assert str(batched.value) == str(single.value)


# ---------------------------------------------------------------------------
# kernel robustness (negative probe times, deep broken regime)
# ---------------------------------------------------------------------------

def test_negative_probe_times_supported():
    ts = np.array([-2.0, -1e-6, 0.0, 1e-6, 2.0])
    p = pc.HamiltonianParams(kind=pc.SymmetryClass.PT, s=1.0, a=0.5)
    out = pc.coherence_series(pc.PureState(0.6, 0.8, 0.2), p, ts)
    assert np.all(np.isfinite(out))
    # no time symmetry assumed: just continuity across 0
    assert abs(out[1] - out[2]) < 1e-4


def test_deep_broken_series_do_not_overflow():
    ts = np.array([0.0, 50.0, 500.0, 5000.0])
    pt = pc.HamiltonianParams(kind=pc.SymmetryClass.PT, s=1.0, a=2.8)
    out = pc.coherence_series(pc.PureState(0.6, 0.8, 0.2), pt, ts)
    assert np.all(np.isfinite(out))
    assert out[-1] == pytest.approx(1 / 2.8, abs=1e-9)
    apt = pc.HamiltonianParams(kind=pc.SymmetryClass.APT, s=1.0, a=0.5)
    out2 = pc.two_qubit_series(pc.TwoQubitState.psi_1(), apt, ts)
    assert np.all(np.isfinite(out2))
    assert out2[-1] == pytest.approx(3.0, abs=1e-6)
