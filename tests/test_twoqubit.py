"""Two-qubit product evolution and coherence traces.

Frozen values were computed with the dense matrix exponential of the
joint generator H ⊗ I + I ⊗ H acting on the explicit 4-vectors,
independent of the Kronecker closed form under test.
"""
from __future__ import annotations

import numpy as np
import pytest

from _oracle import frobenius_dist, mat_exp_oracle

from ptcoherence import (
    HamiltonianParams,
    SymmetryClass,
    TwoQubitState,
    build_hamiltonian,
    evolve_two_qubit,
    propagator_analytic,
    theoretical_period,
    two_qubit_coherence,
    two_qubit_coherence_trace,
    two_qubit_propagator,
    two_qubit_series,
)


def _pt(a: float, s: float = 1.0) -> HamiltonianParams:
    return HamiltonianParams(kind=SymmetryClass.PT, s=s, a=a)


def _apt(a: float, s: float = 1.0) -> HamiltonianParams:
    return HamiltonianParams(kind=SymmetryClass.APT, s=s, a=a)


def _oracle4(p: HamiltonianParams, t: float, q: HamiltonianParams | None = None) -> np.ndarray:
    h4 = np.kron(build_hamiltonian(p), np.eye(2)) + np.kron(
        np.eye(2), build_hamiltonian(p if q is None else q))
    return mat_exp_oracle(-1j * h4, t)


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
    assert np.trace(st.rho4).real == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        TwoQubitState(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        TwoQubitState(np.zeros(4))


def test_initial_coherences():
    assert two_qubit_coherence(TwoQubitState.psi_1()) == pytest.approx(2.0, abs=1e-12)
    assert two_qubit_coherence(TwoQubitState.psi_2()) == pytest.approx(1.0, abs=1e-12)
    assert two_qubit_coherence(TwoQubitState.psi_3()) == pytest.approx(3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# propagator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,t", [(_pt(0.8), 0.6), (_pt(1.0), 1.0), (_apt(1.8), 0.45)])
def test_joint_propagator_is_kron_square(p, t):
    u = propagator_analytic(p, t).matrix
    u4 = two_qubit_propagator(p, t)
    assert frobenius_dist(u4, np.kron(u, u)) == 0.0
    rel = frobenius_dist(u4, _oracle4(p, t)) / max(1.0, np.linalg.norm(u4))
    assert rel < 1e-10


@pytest.mark.parametrize("p_a,p_b", [(_pt(0.6), _pt(1.4)), (_apt(1.8), _pt(0.47)),
                                     (_apt(0.5), _apt(1.0, s=1.3))])
def test_heterogeneous_propagator_factorizes(p_a, p_b):
    # different parameters per qubit: Kronecker product of the analytic
    # factors vs the dense exponential of H_A ⊗ I + I ⊗ H_B
    t = 0.8
    u4 = two_qubit_propagator(p_a, t, p_second=p_b)
    reference = _oracle4(p_a, t, p_b)
    assert frobenius_dist(u4, reference) < 1e-10 * max(1.0, np.linalg.norm(reference))


def test_evolution_matches_oracle_ray():
    p = _apt(1.8)
    psi = TwoQubitState.psi_3()
    for t in (0.0, 0.45, 1.7):
        v = evolve_two_qubit(psi, p, t).vector
        w = _oracle4(p, t) @ psi.vector
        w = w / np.linalg.norm(w)
        assert abs(abs(np.vdot(w, v)) - 1.0) < 1e-10


def test_evolution_deep_broken_time_is_safe():
    # the scaled route survives times where raw entries would overflow
    v = evolve_two_qubit(TwoQubitState.psi_1(), _pt(3.0), 400.0).vector
    assert np.all(np.isfinite(v.view(float)))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p_a,p_b", [(_pt(3.0), _pt(1.5)), (_apt(0.2), _apt(0.6))],
                         ids=["pt", "apt"])
def test_heterogeneous_evolution_deep_broken_time_is_safe(p_a, p_b):
    # w s t ~ 400 for the slower qubit: the dense exponential of the joint
    # generator overflows, while each factor's scale cancels on
    # renormalization and the state lands on the dominant eigenvector pair
    w_min = min(np.sqrt(abs(1.0 - q.a**2)) * q.s for q in (p_a, p_b))
    v = evolve_two_qubit(TwoQubitState.psi_3(), p_a, 400.0 / w_min, p_second=p_b).vector
    assert np.all(np.isfinite(v.view(float)))

    def dominant(q):
        vals, vecs = np.linalg.eig(build_hamiltonian(q))
        return vecs[:, np.argmax(vals.imag)]

    ray = np.kron(dominant(p_a), dominant(p_b))
    assert abs(abs(np.vdot(ray / np.linalg.norm(ray), v)) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# coherence traces
# ---------------------------------------------------------------------------

def test_series_frozen_value_pt():
    values = two_qubit_series(TwoQubitState.psi_1(), _pt(0.8), np.array([0.0, 0.6]))
    assert values[0] == pytest.approx(2.0, abs=1e-12)
    assert values[1] == pytest.approx(2.2525379976695623, abs=1e-10)


def test_series_frozen_value_apt():
    values = two_qubit_series(TwoQubitState.psi_3(), _apt(1.8), np.array([0.45]))
    assert values[0] == pytest.approx(2.987235861069427, abs=1e-10)


def test_series_matches_evolution_route():
    p = _pt(0.8)
    psi = TwoQubitState.psi_1()
    ts = np.linspace(0.0, 4.0, 9)
    series = two_qubit_series(psi, p, ts)
    direct = [two_qubit_coherence(evolve_two_qubit(psi, p, float(t))) for t in ts]
    assert np.allclose(series, direct, atol=1e-10)


def test_broken_regime_state_independent_limit():
    # long-time limit equals (1 + c)^2 - 1 with c the single-qubit
    # stable value, for every reference state
    for p, c in ((_pt(1.8), 1 / 1.8), (_apt(0.8), 1.0)):
        limit = (1.0 + c) ** 2 - 1.0
        for psi in (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3()):
            tail = two_qubit_series(psi, p, np.array([40.0]))[0]
            assert tail == pytest.approx(limit, abs=1e-6)


def test_unbroken_traces_are_periodic():
    for p in (_pt(0.8), _apt(1.8)):
        T = theoretical_period(p)
        ts = np.linspace(0.0, T, 40)
        for psi in (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3()):
            base = two_qubit_series(psi, p, ts)
            shifted = two_qubit_series(psi, p, ts + T)
            assert float(np.max(np.abs(base - shifted))) < 1e-8


def test_trace_object_fields():
    p = _apt(1.8)
    T = theoretical_period(p)
    ts = np.linspace(0.0, 2 * T, 257)
    trace = two_qubit_coherence_trace(TwoQubitState.psi_3(), p, ts)
    assert trace.times.shape == (257,)
    assert trace.values[0] == pytest.approx(3.0, abs=1e-12)
    assert trace.period_estimate == pytest.approx(T, abs=1e-6)
    assert len(trace.extrema) >= 2


def test_trace_grid_validation():
    p = _pt(0.8)
    psi = TwoQubitState.psi_1()
    with pytest.raises(ValueError):
        two_qubit_coherence_trace(psi, p, np.array([0.0]))
    with pytest.raises(ValueError):
        two_qubit_coherence_trace(psi, p, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        two_qubit_coherence_trace(psi, p, np.array([-1.0, 0.5]))


def test_coherence_can_exceed_single_qubit_bound():
    # the four-component balanced state reaches C = 3 in the broken limit
    tail = two_qubit_series(TwoQubitState.psi_2(), _apt(0.8), np.array([30.0]))[0]
    assert tail > 2.5
