"""Batched grid paths against their per-point references.

The matrix path (``evolve_density_grid``), the Bloch rows
(``trajectory_array``) and ``two_qubit_series`` evaluate whole grids in
array operations.  Here they are compared with the per-point
``evolve_density``, ``evolve_pure``, ``evolve_two_qubit`` plus
``two_qubit_coherence``, and the dense ``mat_exp_oracle``, on grids
whose phases ``w s t`` cross the propagator core's scale switch (150)
and reach deep into the broken regime.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from _oracle import mat_exp_oracle

import ptcoherence as pc
from ptcoherence.bloch import trajectory_array
from ptcoherence.evolution import _check_densities, evolve_density_grid, evolve_pure_grid

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


def _times(p: pc.HamiltonianParams) -> np.ndarray:
    w = math.sqrt(abs(1.0 - p.a * p.a))
    scale = p.s * (w if w > 0 else 1.0)
    return np.array(PHASES) / scale


def _oracle_propagator(p: pc.HamiltonianParams, t: float) -> np.ndarray:
    return mat_exp_oracle(-1j * pc.build_hamiltonian(p), t)


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
        ref = pc.evolve_density(rho0, p, float(t)).rho
        assert np.max(np.abs(rho - ref)) < 1e-12
        if t * p.s <= 10.0:
            u = _oracle_propagator(p, float(t))
            sig = u @ rho0.rho @ u.conj().T
            assert np.max(np.abs(rho - sig / np.trace(sig).real)) < 1e-12


@pytest.mark.parametrize("p", list(_panel()), ids=str)
def test_bloch_rows_match_per_point(p):
    ts = _times(p)
    rows = trajectory_array(STATE, p, ts)
    assert rows.shape == (ts.size, 4)
    assert np.array_equal(rows[:, 0], ts)
    vecs = evolve_pure_grid(STATE, p, ts)
    for t, v, row in zip(ts, vecs, rows):
        ref = pc.evolve_pure(STATE, p, float(t))
        assert np.max(np.abs(v - ref)) < 1e-12
        r01 = ref[0] * np.conj(ref[1])
        xyz = (2.0 * r01.real, -2.0 * r01.imag, abs(ref[0]) ** 2 - abs(ref[1]) ** 2)
        assert np.max(np.abs(row[1:] - xyz)) < 1e-12
        if t * p.s <= 10.0:
            w = _oracle_propagator(p, float(t)) @ STATE.vector()
            assert np.max(np.abs(v - w / np.linalg.norm(w))) < 1e-12
    points = pc.trajectory(STATE, p, ts)
    assert [(q.t, q.x, q.y, q.z) for q in points] == [tuple(r) for r in rows.tolist()]


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
            ref = pc.two_qubit_coherence(pc.evolve_two_qubit(state, p, float(t)))
            assert abs(value - ref) < 1e-12
            if t * p.s <= 10.0:
                u = _oracle_propagator(p, float(t))
                v = np.kron(u, u) @ state.vector
                assert abs(value - pc.two_qubit_coherence(pc.TwoQubitState(v))) < 1e-12


def test_grid_evolution_rejects_bad_times():
    p = pc.HamiltonianParams(kind=pc.SymmetryClass.PT, s=1.0, a=0.5)
    for bad in ([0.0, -1.0], [0.0, np.inf], [np.nan]):
        with pytest.raises(ValueError):
            evolve_density_grid(STATE.density(), p, bad)
        with pytest.raises(ValueError):
            evolve_pure_grid(STATE, p, bad)


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
