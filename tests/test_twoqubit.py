"""Two-qubit product evolution and coherence series.

Evolved states, ``pure_rows`` on four amplitudes, are held to ``_oracle.joint_reference_matrix``, mpmath's
matrix exponential of the joint generator H_A ⊗ I + I ⊗ H_B built from its
definition, independent of the Kronecker closed form under test.  The
frozen C values came from a dense double-precision exponential of the same
generator acting on the explicit 4-vectors.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from _oracle import joint_reference_matrix
from conftest import apt, pt

from ptcoherence import (
    TwoQubitState,
    build_hamiltonian,
    l1_coherence,
    theoretical_period,
    two_qubit_series,
)
from ptcoherence.evolution import pure_rows


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_reference_states():
    v1 = TwoQubitState.psi_1().vector
    assert np.allclose(v1, np.array([1, 1, 0, 1]) / np.sqrt(3), atol=1e-15)
    v2 = TwoQubitState.psi_2().vector
    assert v2[0] == pytest.approx(1 / np.sqrt(2))
    assert v2[3] == pytest.approx(np.exp(1j * np.pi / 5) / np.sqrt(2))
    v3 = TwoQubitState.psi_3().vector
    assert np.allclose(np.abs(v3), 0.5, atol=1e-15)


def test_state_normalization_and_validation():
    st = TwoQubitState(np.array([2.0, 0.0, 0.0, 0.0]))
    assert np.linalg.norm(st.vector) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        TwoQubitState(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        TwoQubitState(np.zeros(4))
    with pytest.raises(ValueError, match="must be finite"):
        TwoQubitState(np.array([np.nan, 0.0, 0.0, 1.0]))


def test_state_normalization_at_extreme_magnitudes():
    # the norm is taken after an exact power-of-two scaling: no square
    # overflows at 1e200, and no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e200, 1.7e308, 1e-6):
            v = TwoQubitState(np.array([scale, 0.0, 0.0, scale])).vector
            assert np.abs(v - np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)).max() < 2e-16
    # a norm below 1e-12 is (numerically) zero, also when split over components
    for vector in ([0.99e-12, 0, 0, 0], [6e-13, 6e-13, 0, 0], [5e-324, 0, 0, 0]):
        with pytest.raises(ValueError, match="numerically"):
            TwoQubitState(np.array(vector, dtype=float))
    for vector in ([1.01e-12, 0, 0, 0], [8e-13, 8e-13, 0, 0]):
        assert np.linalg.norm(TwoQubitState(np.array(vector, dtype=float)).vector) == \
            pytest.approx(1.0, abs=1e-15)


def _density_l1(v: np.ndarray) -> float:
    """l1 coherence of the density matrix of ``v``, normalized here: the
    off-diagonal route, independent of ``pure_l1``."""
    v = v / np.linalg.norm(v)
    return l1_coherence(np.outer(v, v.conj()))


def test_initial_coherences():
    assert _density_l1(TwoQubitState.psi_1().vector) == pytest.approx(2.0, abs=1e-12)
    assert _density_l1(TwoQubitState.psi_2().vector) == pytest.approx(1.0, abs=1e-12)
    assert _density_l1(TwoQubitState.psi_3().vector) == pytest.approx(3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def _same_ray(v: np.ndarray, w: np.ndarray) -> float:
    """``| |<w, v>| - 1 |`` for ``v`` and ``w`` normalized here."""
    return abs(abs(np.vdot(w / np.linalg.norm(w), v / np.linalg.norm(v))) - 1.0)


def _evolved(psi: TwoQubitState, p, t: float) -> np.ndarray:
    """The unnormalized ``(U ⊗ U) psi`` at one time."""
    return pure_rows(p, psi.vector, [t])[0]


@pytest.mark.parametrize("p,t", [(pt(0.8), 0.6), (pt(1.0), 1.0), (apt(1.8), 0.45)])
def test_joint_evolution_matches_oracle(p, t):
    u = joint_reference_matrix(p, t)
    for psi in (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3()):
        assert _same_ray(_evolved(psi, p, t), u @ psi.vector) < 1e-10


def test_evolution_matches_oracle_ray():
    p = apt(1.8)
    psi = TwoQubitState.psi_3()
    for t in (0.0, 0.45, 1.7):
        assert _same_ray(_evolved(psi, p, t), joint_reference_matrix(p, t) @ psi.vector) < 1e-10


def test_evolution_deep_broken_time_is_safe():
    # the scaled route survives times where raw entries would overflow
    psi, p = TwoQubitState.psi_1(), pt(3.0)
    v = _evolved(psi, p, 400.0)
    assert np.all(np.isfinite(v.view(float)))
    assert _same_ray(v, joint_reference_matrix(p, 400.0) @ psi.vector) < 1e-10


@pytest.mark.parametrize("p", [pt(0.6), apt(1.8), apt(1.0, s=1.3)], ids=str)
def test_rows_of_a_product_state_factorize(p):
    # four amplitudes a ⊗ b evolve to (U a) ⊗ (U b): the two-amplitude rows'
    # Kronecker product, at times on both sides of the scale switch
    a, b = np.array([0.6, 0.8j]), np.array([1.0, np.exp(0.7j)]) / np.sqrt(2.0)
    ts = np.array([0.0, 0.45, 3.1, 170.0]) / (p.s * np.sqrt(abs(1.0 - p.a**2)) or p.s)
    rows = pure_rows(p, np.kron(a, b), ts)
    for v, va, vb in zip(rows, pure_rows(p, a, ts), pure_rows(p, b, ts)):
        assert _same_ray(v, np.kron(va, vb)) < 1e-12


@pytest.mark.parametrize("p", [pt(3.0), apt(0.2)], ids=["pt", "apt"])
def test_deep_broken_rows_land_on_the_dominant_pair(p):
    # w s t = 400: the dense exponential of the joint generator overflows,
    # while the scale cancels on renormalization and the state lands on
    # the dominant eigenvector of each qubit
    w = np.sqrt(abs(1.0 - p.a**2)) * p.s
    v = _evolved(TwoQubitState.psi_3(), p, 400.0 / w)
    assert np.all(np.isfinite(v.view(float)))
    vals, vecs = np.linalg.eig(build_hamiltonian(p))
    dominant = vecs[:, np.argmax(vals.imag)]
    assert _same_ray(v, np.kron(dominant, dominant)) < 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [pt(1.0), apt(1.0)], ids=["pt", "apt"])
def test_exceptional_point_at_huge_times_is_safe(p):
    # at the EP the entries grow like s t; squared two-qubit magnitudes
    # hold fourth powers, which overflowed from s t ~ 1e77
    ts = np.array([1e70, 1e80, 1e300])
    assert two_qubit_series(TwoQubitState.psi_3(), p, ts) == pytest.approx(3.0, abs=1e-12)
    # the state lands on the one eigenvector pair of the defective generator
    h = build_hamiltonian(p)
    e = np.array([-h[0, 1], h[0, 0]])  # h @ e = 0 for a traceless h with det 0
    ray = np.kron(e, e)
    for t in ts:
        assert _same_ray(_evolved(TwoQubitState.psi_3(), p, float(t)), ray) < 1e-12


# ---------------------------------------------------------------------------
# coherence series
# ---------------------------------------------------------------------------

def test_series_frozen_value_pt():
    values = two_qubit_series(TwoQubitState.psi_1(), pt(0.8), np.array([0.0, 0.6]))
    assert values[0] == pytest.approx(2.0, abs=1e-12)
    assert values[1] == pytest.approx(2.2525379976695623, abs=1e-10)


def test_series_frozen_value_apt():
    values = two_qubit_series(TwoQubitState.psi_3(), apt(1.8), np.array([0.45]))
    assert values[0] == pytest.approx(2.987235861069427, abs=1e-10)


def test_series_matches_evolution_route():
    p = pt(0.8)
    psi = TwoQubitState.psi_1()
    ts = np.linspace(0.0, 4.0, 9)
    series = two_qubit_series(psi, p, ts)
    direct = [_density_l1(_evolved(psi, p, float(t))) for t in ts]
    assert np.allclose(series, direct, atol=1e-10)


def test_broken_regime_state_independent_limit():
    # long-time limit equals (1 + c)^2 - 1 with c the single-qubit
    # stable value, for every reference state
    for p, c in ((pt(1.8), 1 / 1.8), (apt(0.8), 1.0)):
        limit = (1.0 + c) ** 2 - 1.0
        for psi in (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3()):
            tail = two_qubit_series(psi, p, np.array([40.0]))[0]
            assert tail == pytest.approx(limit, abs=1e-6)


def test_unbroken_traces_are_periodic():
    for p in (pt(0.8), apt(1.8)):
        T = theoretical_period(p)
        ts = np.linspace(0.0, T, 40)
        for psi in (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3()):
            base = two_qubit_series(psi, p, ts)
            shifted = two_qubit_series(psi, p, ts + T)
            assert float(np.max(np.abs(base - shifted))) < 1e-8


def test_coherence_can_exceed_single_qubit_bound():
    # the four-component balanced state reaches C = 3 in the broken limit
    tail = two_qubit_series(TwoQubitState.psi_2(), apt(0.8), np.array([30.0]))[0]
    assert tail > 2.5
